"""Exact rational parameters and their signed integer/fraction decomposition.

The evaluation routines need the parameter split as ``m + p/q``: a signed
integer shift m = ceil(nu) - 1 and a fractional part 0 < p/q <= 1, so that
positive and negative parameters and the integers share one form.  Fractions
are always held in lowest terms; decimal input is converted exactly, never
through a binary float.  :func:`decompose` splits either sign;
:func:`decompose_pos` is the same split behind a nu > 0 gate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivergentParameter, OutsideDomain, ParseError

_GRAMMAR = re.compile(r"-?\d+(?:/\d+|\.\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse ``"a/b"`` or a finite decimal literal into an exact fraction.

    Decimals convert exactly ("12.3" -> 123/10); the result is in lowest
    terms.  Anything outside ``[-]digits[/digits]`` / ``[-]digits[.digits]``
    raises :class:`ParseError`, as do a zero denominator and an over-long numeral.
    """
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    if not _GRAMMAR.fullmatch(s):
        raise ParseError(f"not a fraction or decimal literal: {text!r}")
    num, _, den = s.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else Fraction(s)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {text!r}") from None
    except ValueError as exc:  # past the grammar, only the int-string digit limit
        raise ParseError(f"numeral too long: {exc}") from exc


def render_rational(x: Fraction) -> str:
    """Canonical lowest-terms form: "p/q", or a bare integer."""
    return str(exact_rational(x))


@dataclass(frozen=True)
class Decomposition:
    """A rational nu split as m + r: m = ceil(nu) - 1 a signed integer, r in (0, 1].

    ``r`` is a lowest-terms fraction p/q; positive integers have r = 1, so
    every nu outside the non-positive integers has exactly one split.
    """

    m: int
    r: Fraction

    @property
    def n(self) -> int:
        """Number of power-tail terms, |m|."""
        return abs(self.m)

    def reconstruct(self) -> Fraction:
        return self.m + self.r


def decompose(nu: Fraction) -> Decomposition:
    """Split nu as m + r with the signed shift m = ceil(nu) - 1 and 0 < r <= 1.

    One split for both signs; integers <= 0 raise :class:`DivergentParameter`.
    """
    nu = exact_rational(nu)
    a, b = nu.numerator, nu.denominator
    if b == 1 and a <= 0:
        raise DivergentParameter(f"divergent at the non-positive integer {nu}")
    m = -(-a // b) - 1
    return Decomposition(m=m, r=Fraction(a - m * b, b))


def exact_rational(nu) -> int | Fraction:
    """nu as an exact int or Fraction; an infinite or NaN one raises :class:`OutsideDomain`."""
    try:
        # an int or a Fraction already carries its lowest-terms numerator and denominator
        return nu if type(nu) in (int, Fraction) else Fraction(nu)
    except (OverflowError, ValueError) as exc:
        raise OutsideDomain(f"{nu!r} is not a finite rational") from exc


def decompose_pos(nu: Fraction) -> Decomposition:
    """:func:`decompose` for nu > 0; anything else raises :class:`OutsideDomain`."""
    nu = exact_rational(nu)
    if nu.numerator <= 0:
        raise OutsideDomain(f"needs nu > 0, got {nu}")
    return decompose(nu)
