"""Verifying the reductions against independent oracles.

Nothing here trusts the closed forms: the series oracle sums the defining
expansion term by term (exactly rounded by ``math.fsum``, with a rigorous
tail bound) and the two quadrature oracles integrate the defining integral
representations with completely different machinery (QUADPACK, and a
tanh-sinh rule on the exponentially mapped semi-infinite integral).  The
closed form has to meet all of them.
"""

from fractions import Fraction

from betareduce import (
    beta_quadrature,
    decompose_pos,
    default_nu_grid,
    default_z_grid,
    lerch_reduce,
    lerch_series,
    phi_quadrature,
    run_verification,
)

print("Grid verification, reduction vs series (the `betareduce verify` core):")
nus = default_nu_grid(n_max=3, q_max=8, side="both")
records, passed, failed, skipped = run_verification(nus, default_z_grid(), tol=1e-10)
worst = max(rec.rel_err for rec in records)
print(f"  nu values: {len(nus)},  z values: {len(default_z_grid())}")
print(f"  passed={passed} failed={failed} skipped={skipped}, worst rel err {worst:.3e}")

print()
print("Quadrature routes for Phi(z, 1, nu) = z^(-nu) B(nu, 0, z):")
print(f"{'nu':>6} {'z':>5}  {'closed form':>20} {'series':>20} {'beta quad':>20} {'phi quad':>20}")
for nu, z in [(Fraction(1, 2), 0.25), (Fraction(7, 3), 0.5), (Fraction(5, 4), 0.9)]:
    closed = lerch_reduce(decompose_pos(nu), z).real
    series = lerch_series(z, float(nu)).value.real
    via_beta = beta_quadrature(float(nu), 0.0, z).value.real / z ** float(nu)
    via_phi = phi_quadrature(z, float(nu)).value.real
    print(f"{str(nu):>6} {z:5.2f}  {closed:20.16f} {series:20.16f} {via_beta:20.16f} {via_phi:20.16f}")

print()
print("Oracle error estimates are honest a-posteriori bounds:")
result = lerch_series(0.9, 0.5)
print(f"  series at z=0.9: {result.terms_or_nodes} terms, reported bound {result.error_estimate:.3e}")
result = phi_quadrature(0.9, 0.5)
print(f"  tanh-sinh:       {result.terms_or_nodes} nodes, reported bound {result.error_estimate:.3e}")
