#!/usr/bin/env python3
"""Randomized spectral subsets: generic draws, q-orthogonality constants, and
random-half splits with observed L2/L1 norm equivalences.

Everything is seeded; rerunning this script reproduces the numbers exactly.
"""

import math

import numpy as np

from specon import (
    BandlimitedFunction,
    FiniteGroup,
    RandomSubsetSpec,
    SpectralSet,
    Torus,
    arc,
    check_generic_subset_uncertainty,
    check_random_half_uncertainty,
    estimate_cq,
    generic_subset,
    gmpt_split,
    parse_region,
)

TWO_PI = 2 * math.pi

# ------------------------------------------------------ generic subsets

spec = RandomSubsetSpec(n=256, q=4.0, seed=42)
subset = generic_subset(spec)
print(f"generic subset of 256 indices at q=4: keep probability {spec.delta:.4f}, "
      f"expected size {spec.expected_size:.0f}, drew {len(subset)}")

# ---------------------------------------------- q-orthogonality constants

g = FiniteGroup(256, 1)
quad = g.build_quadrature()
els = g.first_elements(256)
est = estimate_cq(g, [els[i] for i in subset], 4.0, quad, trials=12, seed=42)
print(f"\nq-orthogonality of the drawn character subset at q=4:")
print(f"  certified lower estimate {est.c_lower:.4f}")
print(f"  interpolation upper bound (#S)^(1/2-1/q) = {est.c_interp:.4f}")
print(f"  (a single character gives ratio exactly 1 under normalized measure)")

# the generic-subset mass bound: a function spanned by the subset that is
# L2-concentrated on E at level L forces mu(E) >= (L C(q))^{-1/(1/2-1/q)}
region = parse_region(g, "set:{" + ",".join(map(str, range(48))) + "}")
v = g.basis_matrix(els, quad.nodes)
coeffs = ((v.conj().T * quad.weights) @ region.contains_mask(quad.nodes).astype(complex))
coeffs = coeffs[subset]
sset = SpectralSet(g, [els[i].joint for i in subset], joint=True)
f = BandlimitedFunction(sset, coeffs / np.linalg.norm(coeffs))
rep = check_generic_subset_uncertainty(f, region, quad, q=4.0)
print(f"  mass bound: {rep.lhs:.6f} <= {rep.rhs:.6f} ({'holds' if rep.holds else 'FAILS'})")

# ------------------------------------------------------ random-half splits

t = Torus(1)
tq = t.build_quadrature(16.0, oversample=4)
t_els = t.first_elements(32)
split = gmpt_split(t, tq, t_els, trials=24, subsets=48, seed=7)
print(f"\nrandom near-half split of 32 torus exponentials:")
print(f"  |I| = {len(split.indices)} (deviation {split.size_deviation:.1f} "
      f"<= sqrt(32) = {math.sqrt(32):.2f})")
print(f"  observed L2/L1 constant K = {split.k_observed:.4f}")
print(f"  sup-norm bound B = {split.b_sup:.4f}, "
      f"benchmark B log(n) loglog(n)^2.5 = {split.benchmark:.4f}")
print(f"  size-constraint success fraction over draws: {split.success_fraction:.2f}")

# the observed K feeds a mass bound for L1-concentrated functions on the side
side = SpectralSet(t, [t_els[i].joint for i in split.indices], joint=True)
rng = np.random.default_rng(3)
f = BandlimitedFunction(side, rng.normal(size=side.size) + 1j * rng.normal(size=side.size))
rep = check_random_half_uncertainty(f, arc(t, 0.0, 4.0), tq,
                                    k_emp=split.k_observed, n=32, b_sup=split.b_sup)
print(f"\nrandom-half mass bound on an arc: {rep.lhs:.6f} <= {rep.rhs:.6f} "
      f"({'holds' if rep.holds else 'FAILS'}; "
      f"K bounds this draw: {rep.inputs['k_emp_bounds_f']})")

print("\nthe same experiments run from the command line, e.g.:")
print("  specon lambda-q --space zn:N=256,d=1 --n 256 --q 4")
print("  specon gmpt --space torus:d=1 --n 32")
print("  specon check --inequality random-manifold --space torus:d=1 \\")
print("      --region arc:0:4 --n 32")
