"""Verification grids: their size and their refusals."""

import pytest

from betareduce import MaxTermsExceeded, default_nu_grid, default_z_grid, fraction_grid, run_verification
from betareduce import verify


def test_unknown_side_refused():
    with pytest.raises(ValueError):
        default_nu_grid(side="x")


# the grid grows as q_max^2: 632,801 parameters at q_max = 400, 159,003 at 200
@pytest.mark.parametrize(
    "build",
    [
        lambda: fraction_grid(100_000),
        lambda: default_nu_grid(q_max=100_000),
        lambda: default_nu_grid(n_max=10**12),
        lambda: default_nu_grid(n_max=-1, q_max=10**9),
    ],
)
def test_grid_beyond_budget_refused(build):
    with pytest.raises(MaxTermsExceeded):
        build()


@pytest.mark.parametrize(
    "build,size",
    [
        (fraction_grid, 45),
        (default_nu_grid, 585),
        (lambda: default_nu_grid(side="neg"), 270),
    ],
)
def test_budget_edge(monkeypatch, build, size):
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", size)
    assert len(build()) == size
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", size - 1)
    with pytest.raises(MaxTermsExceeded):
        build()


# every record (about 274 B) is held until the CSV is written: 1,147,211 points here
def test_point_budget_refused_before_any_evaluation(monkeypatch):
    monkeypatch.setattr(verify, "reduce_beta_many", None)  # any evaluation would fail
    with pytest.raises(MaxTermsExceeded):
        run_verification(default_nu_grid(q_max=100), default_z_grid(), 1e-10)


def test_point_budget_edge(monkeypatch):
    nus, zs = fraction_grid(3), [0.25, 0.5]
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", 6)
    records, passed, _, _ = run_verification(nus, zs, 1e-10)
    assert len(records) == passed == 6
    monkeypatch.setattr(verify, "MAX_TAIL_TERMS", 5)
    with pytest.raises(MaxTermsExceeded):
        run_verification(nus, zs, 1e-10)
