"""Verification grids: their size and their refusals."""

import pytest

from betareduce import MaxTermsExceeded, default_nu_grid, fraction_grid
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
