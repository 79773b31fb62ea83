"""Uncertainty inequalities evaluated on concrete inputs, with two-sided slack.

Every check returns one or more :class:`InequalityReport` values.  Checks
backed by exact constants are theorems for the quantities they compare, so a
``holds = False`` on valid input signals a defect in this library, not in the
mathematics.  Checks involving empirical constants (sampled sup-norms, grid
maxima, observed norm ratios) always carry a caveat saying so, and cases
where the bound is uninformative (epsilon + epsilon' >= 1, or a degenerate
hypothesis) are reported as vacuous with the raw numbers.
"""

from __future__ import annotations

import math

import numpy as np

from .concentration import (
    BandlimitedFunction,
    concentration_levels,
    masked_band_energy,
    restrict_band,
    sample_values,
)
from .random_spectra import gmpt_benchmark, interpolation_bound
from .regions import Region
from .reports import InequalityReport
from .spaces import FiniteGroup, Quadrature
from .spectral import SpectralSet, cover_by_unit_intervals, homogeneity_deviations

SUPPORT_TOL = 1e-12
HOMOGENEITY_SAMPLES = 64
HOMOGENEITY_TOL = 1e-9


def _base_inputs(region: Region, sset: SpectralSet | None, quad: Quadrature | None,
                 levels=None) -> dict:
    inputs = {"space": region.space.kind, "region": region.descriptor,
              "region_measure": region.measure}
    if sset is not None:
        inputs["spectrum"] = sset.descriptor
        inputs["index_count"] = sset.size
    if quad is not None:
        inputs["nodes_inside"] = region.nodes_inside(quad)
    if levels is not None:
        inputs["epsilon"] = levels.epsilon
        inputs["epsilon_prime"] = levels.epsilon_prime
        inputs["p"] = levels.p
    return inputs


def _mass_report(name, levels, region, sset, quad, rhs, extra_inputs, caveats,
                 seed) -> InequalityReport:
    """The report of (1 - eps - eps')^2 <= rhs: the mass checks differ only in
    the majorant ``rhs`` they put on the right, and in their own inputs and
    caveats, which follow the shared ones."""
    inputs = _base_inputs(region, sset, quad, levels)
    inputs.update(extra_inputs)
    return InequalityReport(name=name, lhs=max(levels.gap, 0.0) ** 2, rhs=rhs,
                            inputs=inputs, caveats=levels.caveats + caveats, seed=seed)


def check_group_uncertainty(space: FiniteGroup, samples, seed=None) -> InequalityReport:
    """Support-size uncertainty on a finite abelian group (Donoho-Stark form):
    with counting measure on the group and dual weight 1/N^d per character,
    mu(supp f) * nu(supp f_hat) >= 1 for every nonzero f."""
    if not isinstance(space, FiniteGroup):
        raise ValueError("the support uncertainty check runs on finite groups")
    f = np.asarray(samples, dtype=complex).ravel()
    if f.shape[0] != int(space.total_measure):
        raise ValueError(f"need {int(space.total_measure)} samples, got {f.shape[0]}")
    peak = float(np.abs(f).max())
    if peak <= 0.0:
        raise ValueError("support uncertainty is undefined for the zero function")
    fhat = space.fourier(f)
    supp_f = int(np.count_nonzero(np.abs(f) > SUPPORT_TOL * peak))
    supp_fhat = int(np.count_nonzero(np.abs(fhat) > SUPPORT_TOL * float(np.abs(fhat).max())))
    n_total = space.total_measure
    return InequalityReport(
        name="lca",
        lhs=1.0,
        rhs=supp_f * supp_fhat / n_total,
        inputs={"space": space.kind, "supp_f": supp_f, "supp_fhat": supp_fhat,
                "group_size": int(n_total)},
        seed=seed,
    )


def check_generic_subset_uncertainty(f: BandlimitedFunction, region: Region,
                                     quad: Quadrature, q: float, seed=None) -> InequalityReport:
    """Mass lower bound for functions spanned by a generic subset: if f is
    L2-concentrated on E at level L, and its spectral set's q-orthogonality
    constant is at most c_upper, then the normalized measure of E is at least
    (L c_upper)^{-1/(1/2 - 1/q)}.  c_upper is the set's
    :func:`interpolation_bound`, under the measure renormalized to total mass
    1.  A zero f gives a vacuous report with the inputs that do not depend on f.
    """
    if not q > 2:
        raise ValueError("the generic-subset bound needs q > 2")
    sset = f.spectral_set
    c_upper = interpolation_bound(sset.space, sset.elements, q)
    rhs = region.measure / region.space.total_measure
    if f.norm == 0.0:
        inputs = _base_inputs(region, sset, quad)
        inputs.update({"q": q, "c_upper": c_upper, "measure_normalized_to_1": True})
        return InequalityReport(
            name="bourgain", lhs=0.0, rhs=rhs, inputs=inputs, seed=seed,
            caveats=["vacuous: f is zero, as when the region's indicator has no "
                     "coefficient on the drawn subset"])
    levels = concentration_levels(f, region, sset, quad)
    exponent = 2.0 if math.isinf(q) else 1.0 / (0.5 - 1.0 / q)
    L = levels.L
    lhs = 0.0 if math.isinf(L) else (L * c_upper) ** (-exponent)
    inputs = _base_inputs(region, sset, quad, levels)
    inputs.update({"q": q, "c_upper": c_upper, "level_L": L,
                   "measure_normalized_to_1": True})
    return InequalityReport(name="bourgain", lhs=lhs, rhs=rhs, inputs=inputs, seed=seed)


def check_projection_bounds(f, region: Region, sset: SpectralSet, quad: Quadrature,
                            seed=None) -> tuple[InequalityReport, InequalityReport]:
    """Sandwich the norm of the cut-off band-limited projection:

    lower:  (1 - eps - eps') |f|  <=  |P_E B_S f|
    upper:  |P_E B_S f|  <=  sqrt(int_E sum_S |e_j|^2) |f|

    Returns the two reports; the lower bound is evaluated even when
    eps + eps' >= 1, where it is vacuously true.
    """
    levels = concentration_levels(f, region, sset, quad)
    if isinstance(f, BandlimitedFunction):
        bf = restrict_band(f, sset)
    else:
        bf = BandlimitedFunction(sset, sset.space.coefficients(sset.elements, quad,
                                                               sample_values(f, quad)))
    pbf = float(quad.norm(bf.samples(quad) * region.contains_mask(quad.nodes), 2))
    fnorm = float(quad.norm(sample_values(f, quad), 2))
    energy = masked_band_energy(sset, region, quad)
    inputs = _base_inputs(region, sset, quad, levels)
    inputs.update({"f_norm": fnorm, "projected_norm": pbf})
    lower = InequalityReport(name="projection-lower", lhs=levels.gap * fnorm, rhs=pbf,
                             inputs=dict(inputs), caveats=levels.caveats, seed=seed)
    upper = InequalityReport(name="projection-upper", lhs=pbf,
                             rhs=math.sqrt(max(energy, 0.0)) * fnorm, inputs=inputs, seed=seed)
    return lower, upper


def check_eigenfunction_mass_bound(f: BandlimitedFunction, region: Region,
                                   sset: SpectralSet, quad: Quadrature,
                                   seed=None) -> InequalityReport:
    """General orthonormal-system uncertainty: the reciprocal of the average
    E-mass fraction of the selected eigenfunctions is at most
    (1 - eps - eps')^{-2} |E| #X_S."""
    levels = concentration_levels(f, region, sset, quad)
    energy = masked_band_energy(sset, region, quad)
    inputs = _base_inputs(region, sset, quad, levels)
    inputs["band_energy_in_region"] = energy
    caveats = levels.caveats

    proj = float(quad.norm(
        sample_values(f, quad) * region.contains_mask(quad.nodes), 2))
    if proj <= 0.0:
        caveats.append("vacuous: the cut-off band-limited projection of f is zero")
    if energy <= 0.0 or sset.size == 0:
        caveats.append("vacuous: no band mass inside the region")
        return InequalityReport(name="prop", lhs=math.inf, rhs=math.inf,
                                inputs=inputs, caveats=caveats, seed=seed)
    lhs = sset.size * region.measure / energy
    gap = levels.gap
    rhs = math.inf if gap <= 0 else gap**-2 * region.measure * sset.size
    return InequalityReport(name="prop", lhs=lhs, rhs=rhs, inputs=inputs,
                            caveats=caveats, seed=seed)


def check_homogeneous_uncertainty(f: BandlimitedFunction, region: Region,
                                  sset: SpectralSet, quad: Quadrature,
                                  rng=None, seed=None) -> InequalityReport:
    """On spaces whose degeneracy classes have constant summed square modulus:
    (1 - eps - eps')^2 <= |E| / |M| * #X_S.  The homogeneity hypothesis is
    verified by sampling first; failure blocks the evaluation."""
    levels = concentration_levels(f, region, sset, quad)
    rng = rng or np.random.default_rng(seed if seed is not None else 0)
    checks = homogeneity_deviations(sset, HOMOGENEITY_SAMPLES, rng, HOMOGENEITY_TOL)
    worst = max([0.0, *(dev for _, dev in checks)])
    caveats = []
    if not all(ok for ok, _ in checks):
        caveats.append(f"vacuous: homogeneity fails (max deviation {worst:.3g}); "
                       "bound not applicable")
    return _mass_report("homogeneous", levels, region, sset, quad,
                        region.measure / sset.space.total_measure * sset.size,
                        {"homogeneity_max_deviation": worst}, caveats, seed)


def check_supnorm_uncertainty(f: BandlimitedFunction, region: Region,
                              sset: SpectralSet, quad: Quadrature,
                              x_samples: int = 256, rng=None,
                              seed=None) -> InequalityReport:
    """(1 - eps - eps')^2 <= |E| sup_x sum over X_S of |e_j(x)|^2, with the
    sup estimated from samples.  The estimate is a lower bound of the true
    sup, so a reported failure is meaningful while a pass is only as strong
    as the sampling (the sample count is recorded).  The sums are the space's
    :meth:`~ModelSpace.summed_squares`, which the sphere reads from its
    Legendre table at the distinct colatitudes."""
    levels = concentration_levels(f, region, sset, quad)
    space = sset.space
    rng = rng or np.random.default_rng(seed if seed is not None else 0)
    pts = np.concatenate([quad.nodes, space.extreme_points(),
                          space.sample_points(x_samples, rng)])
    if sset.size:
        sup_est = float(np.max(space.summed_squares(sset.elements, pts)))
    else:
        sup_est = 0.0
    return _mass_report(
        "supnorm", levels, region, sset, quad, region.measure * sup_est,
        {"sup_estimate": sup_est, "sup_sample_count": int(pts.shape[0])},
        [f"empirical sup: sampled maximum over {pts.shape[0]} points "
         "(a lower estimate of the true sup)"],
        seed)


def check_covering_uncertainty(f: BandlimitedFunction, region: Region,
                               sset: SpectralSet, quad: Quadrature,
                               c_m: float, c_m_spec: str = "",
                               seed=None) -> InequalityReport:
    """(1 - eps - eps')^2 <= |E| C_M sum_k mu_k^{d-1}, where the mu_k are the
    greedy unit-interval covering of S and C_M is an empirical unit-band
    sup-norm constant.  Also records the crude comparison
    sum mu_k^{d-1} <= #S (lambda_max + 1)^{d-1}."""
    if sset.is_joint:
        raise ValueError("the covering bound needs a scalar spectral set")
    levels = concentration_levels(f, region, sset, quad)
    covering = cover_by_unit_intervals(sset)
    d = sset.space.dim
    cover_sum = float(sum(mu ** (d - 1) for mu in covering.starts))
    lam_max = max(sset.values) if sset.values else 0.0
    crude_sum = len(sset.values) * (lam_max + 1.0) ** (d - 1)
    caveats = ["empirical C_M: grid maximum" + (f" ({c_m_spec})" if c_m_spec else "")]
    if covering.starts and min(covering.starts) < 1.0:
        # the unit-band constant is calibrated on [1, inf); a start below 1
        # (e.g. the constant eigenfunction) is outside its range, and for
        # d >= 2 the mu^{d-1} term would degenerate to zero
        caveats.append("vacuous: covering starts below 1, outside the "
                       "calibrated range of the unit-band constant")
    return _mass_report(
        "covering", levels, region, sset, quad, region.measure * c_m * cover_sum,
        {"covering_starts": list(covering.starts), "covering_size": covering.n,
         "covering_sum": cover_sum, "crude_sum": crude_sum, "c_m": c_m},
        caveats, seed)


def check_joint_uncertainty(f: BandlimitedFunction, region: Region,
                            sset: SpectralSet, quad: Quadrature,
                            rng=None, seed=None) -> list[InequalityReport]:
    """Joint-spectrum uncertainty: (1 - eps - eps')^2 <= sum over X_S of
    int_E |e_j|^2.  When every selected joint class has constant summed
    square modulus, the homogeneous variant
    (1 - eps - eps')^2 <= #X_S |E| / |M| is emitted as a second report."""
    if not sset.is_joint:
        raise ValueError("check_joint_uncertainty needs a joint spectral set")
    levels = concentration_levels(f, region, sset, quad)
    energy = masked_band_energy(sset, region, quad)
    joint = _mass_report("joint", levels, region, sset, quad, energy,
                         {"band_energy_in_region": energy}, [], seed)
    reports = [joint]
    rng = rng or np.random.default_rng(seed if seed is not None else 0)
    checks = homogeneity_deviations(sset, HOMOGENEITY_SAMPLES, rng, HOMOGENEITY_TOL)
    if all(ok for ok, _ in checks):
        # a copy of the joint inputs: a second _base_inputs would mask again
        reports.append(InequalityReport(
            name="joint-homogeneous",
            lhs=joint.lhs,
            rhs=sset.size * region.measure / sset.space.total_measure,
            inputs=dict(joint.inputs),
            caveats=levels.caveats,
            seed=seed,
        ))
    return reports


def check_random_half_uncertainty(f: BandlimitedFunction, region: Region,
                                  quad: Quadrature, k_emp: float, n: int,
                                  b_sup: float | None = None,
                                  seed=None) -> InequalityReport:
    """Mass bound through an observed L2/L1 norm equivalence: if f is
    L1-concentrated on E at level A and |f|_2 <= K |f|_1, then
    |E| >= 1 / (K^2 A^2).

    ``k_emp`` is the observed constant from a random-half split (standing in
    for the non-explicit C B log(n) loglog(n)^{5/2} of the generic-split
    theorem); whether it bounds this particular f's ratio is verified
    directly and recorded.
    """
    if n < 4:
        raise ValueError("the random-half bound needs n >= 4 (iterated log)")
    vals = sample_values(f, quad)
    norm1 = quad.norm(vals, 1)
    norm2 = quad.norm(vals, 2)
    if norm1 <= 0.0:
        raise ValueError("the random-half bound is undefined for the zero function")
    inside1 = quad.norm(vals * region.contains_mask(quad.nodes), 1)
    a_level = math.inf if inside1 <= 0 else norm1 / inside1
    ratio_f = norm2 / norm1
    k_bounds_f = k_emp >= ratio_f * (1.0 - 1e-12)
    lhs = 0.0 if math.isinf(a_level) else 1.0 / (k_emp**2 * a_level**2)
    inputs = _base_inputs(region, None, quad)
    inputs.update({
        "n": n,
        "k_emp": k_emp,
        "level_A": a_level,
        "f_l2_over_l1": ratio_f,
        "k_emp_bounds_f": bool(k_bounds_f),
    })
    if b_sup is not None:
        inputs["b_sup"] = b_sup
        inputs["benchmark"] = gmpt_benchmark(b_sup, n)
    caveats = ["empirical K: observed L2/L1 ratio from a random-half split"]
    if not k_bounds_f:
        caveats.append("vacuous: observed K does not bound this trial's L2/L1 ratio")
    return InequalityReport(
        name="random-manifold",
        lhs=lhs,
        rhs=region.measure,
        inputs=inputs,
        caveats=caveats,
        seed=seed,
    )
