"""Host speed probes: scale timed work to the speed of a quiet host.

On a shared host other tenants slow a process by up to a factor of three for
seconds at a time, CPU time included, so raw wall times move with the
neighbours.  The benchmark times a fixed probe just before and just after
each timed stretch and multiplies the stretch by ``host_scale`` of the two:
the probe's quiet-host time over its mean time around the stretch.  The
probes use nothing of betareduce, so a change to the package moves a scaled
time as it moves the raw one.

Two probes, each matched to the work it scales:

* ``host_ns``, a loop of Fraction, complex and float arithmetic in the
  running process, around in-process timed stretches (tens of ms);
* ``start_probe_s``, a fresh interpreter importing ``scipy.integrate``,
  around each fresh interpreter that ``setup_s`` times.  Set-up is mostly
  that import (file reads, loading extension modules, module execution),
  which the arithmetic loop does not track: on the tuning machine it widened
  the spread of single set-up times from 0.17 to 0.26 (quartile distance
  over median, 20 starts).  This probe gave 0.10 where the raw spread was
  0.10-0.14, no better than one importing numpy and part of the standard
  library, but it does the same kind of work as the set-up, so it follows
  the set-up when the host slows file reads or extension loading.  It does
  not import betareduce, so a set-up that stops importing scipy shows its
  full saving.
"""

from __future__ import annotations

import cmath
import gc
import math
import subprocess
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

HOST_LOOPS = 400
# host_ns() on a quiet host: its first percentile over 20 s on the tuning
# machine (2 vCPUs, Intel Xeon, Python 3.11.7).  It sets the scale of every
# host-normalised in-process time, and must stay fixed for figures to be
# comparable.
HOST_REF_NS = 940_000

START_PROBE_CODE = "import scipy.integrate"
# start_probe_s() on a quiet host: about its fastest of 12 starts on the
# tuning machine; it sets the scale of setup_s and must stay fixed likewise.
START_PROBE_REF_S = 0.76


def host_ns() -> int:
    """Wall ns of one pass of a fixed loop of Fraction, complex and float
    arithmetic and dict updates.  The collector is off during the pass, so
    that the size of the package's heap does not change its time."""
    gc.disable()
    t0 = perf_counter_ns()
    acc, f, d = 0j, Fraction(0), {}
    for k in range(1, HOST_LOOPS):
        f += Fraction(k % 5 + 1, k % 7 + 2)
        w = cmath.exp(complex(0.0, k / HOST_LOOPS)) * math.log(k + 1)
        acc += w / (1.0 + abs(w))
        d[k % 13] = d.get(k % 13, 0) + 1
    dt = perf_counter_ns() - t0
    gc.enable()
    return dt


def start_probe_s() -> float:
    """Wall seconds of a fresh interpreter running ``START_PROBE_CODE``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", START_PROBE_CODE], capture_output=True, timeout=60, check=True)
    return perf_counter() - t0


def host_scale(before: float, after: float, ref: float = HOST_REF_NS) -> float:
    """The factor that takes a time measured between two probes to a quiet host."""
    return 2 * ref / (before + after)
