import math

import numpy as np
import pytest

from specon import (
    BandlimitedFunction,
    FiniteGroup,
    ProductSpace,
    SpectralSet,
    Sphere2,
    Torus,
    arc,
    cap,
    check_covering_uncertainty,
    check_eigenfunction_mass_bound,
    check_generic_subset_uncertainty,
    check_group_uncertainty,
    check_homogeneous_uncertainty,
    check_joint_uncertainty,
    check_random_half_uncertainty,
    check_supnorm_uncertainty,
    check_projection_bounds,
    concentration_levels,
    empty_region,
    estimate_cq,
    gmpt_split,
    full_region,
    gram_matrix,
    max_concentration,
    parse_region,
    parse_space,
    sogge_constant_estimate,
    spectrum_ball,
    spectrum_level,
)
from specon.random_spectra import qnorm_cutoff

TWO_PI = 2 * math.pi


def dft_support_oracle(f):
    """Exhaustive O(N^2) DFT-matrix support count, independent of the fft path."""
    n = len(f)
    dft = np.array([[np.exp(-2j * math.pi * j * k / n) for j in range(n)] for k in range(n)])
    fhat = dft @ f
    supp_f = int(np.count_nonzero(np.abs(f) > 1e-12 * np.abs(f).max()))
    supp_fhat = int(np.count_nonzero(np.abs(fhat) > 1e-12 * np.abs(fhat).max()))
    return supp_f, supp_fhat


class TestGroupUncertainty:
    def test_subgroup_indicator_is_extremal(self):
        g = FiniteGroup(12, 1)
        f = np.zeros(12)
        f[[0, 4, 8]] = 1.0
        rep = check_group_uncertainty(g, f)
        assert rep.inputs["supp_f"] == 3
        assert rep.inputs["supp_fhat"] == 4
        assert rep.rhs == pytest.approx(1.0, abs=1e-15)
        assert rep.holds

    def test_delta_flat_duality(self):
        g = FiniteGroup(8, 1)
        f = np.zeros(8)
        f[0] = 1.0
        rep = check_group_uncertainty(g, f)
        assert rep.inputs["supp_f"] == 1
        assert rep.inputs["supp_fhat"] == 8
        assert rep.rhs == pytest.approx(1.0)

    def test_500_random_trials_z16(self):
        g = FiniteGroup(16, 1)
        rng = np.random.default_rng(2024)
        for trial in range(500):
            size = rng.integers(1, 17)
            support = rng.choice(16, size=size, replace=False)
            f = np.zeros(16, dtype=complex)
            f[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
            rep = check_group_uncertainty(g, f)
            supp_f, supp_fhat = dft_support_oracle(f)
            assert rep.inputs["supp_f"] == supp_f
            assert rep.inputs["supp_fhat"] == supp_fhat
            assert rep.holds, f"trial {trial} violated the support uncertainty"

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            check_group_uncertainty(FiniteGroup(8, 1), np.zeros(8))

    def test_multidimensional_group(self):
        g = FiniteGroup(4, 2)
        f = np.zeros(16)
        f[0] = 1.0
        rep = check_group_uncertainty(g, f)
        assert rep.rhs == pytest.approx(1.0)


class TestGenericSubsetUncertainty:
    def test_single_character_forces_full_space(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0, oversample=8)
        sset = SpectralSet(t, [0.0])
        f = BandlimitedFunction(sset, np.array([1.0 + 0j]))
        rep = check_generic_subset_uncertainty(f, full_region(t), quad, q=4.0)
        assert rep.lhs == pytest.approx(1.0)
        assert rep.rhs == pytest.approx(1.0)
        assert rep.holds

    def test_q_infinite_reduces_to_plain_mass_bound(self):
        t = Torus(1)
        quad = t.build_quadrature(2.0, oversample=64)
        sset = spectrum_ball(t, 2.0)
        rng = np.random.default_rng(5)
        f = BandlimitedFunction(sset, rng.normal(size=5) + 1j * rng.normal(size=5))
        region = arc(t, 0.0, 5.0)
        rep = check_generic_subset_uncertainty(f, region, quad, q=math.inf)
        levels_l = rep.inputs["level_L"]
        assert rep.lhs == pytest.approx(1.0 / (levels_l**2 * sset.size))
        assert rep.holds

    def test_z256_seeded_subsets_hold_with_positive_slack(self):
        from specon import RandomSubsetSpec, generic_subset

        g = FiniteGroup(256, 1)
        quad = g.build_quadrature()
        els = g.first_elements(256)
        v = g.basis_matrix(els, quad.nodes)
        region = parse_region(g, "set:{" + ",".join(map(str, range(32))) + "}")
        indicator = region.contains_mask(quad.nodes).astype(complex)
        full_hat = (v.conj().T * quad.weights) @ indicator
        for trial in range(25):
            subset = generic_subset(RandomSubsetSpec(256, 4.0, seed=trial))
            coeffs = full_hat[subset]
            if np.linalg.norm(coeffs) < 1e-12:
                continue
            sset = SpectralSet(g, [els[i].joint for i in subset], joint=True)
            f = BandlimitedFunction(sset, coeffs / np.linalg.norm(coeffs))
            rep = check_generic_subset_uncertainty(f, region, quad, q=4.0)
            assert rep.holds
            assert rep.slack > 0

    def test_zero_f_is_vacuous(self):
        # the full region's indicator has no coefficient off the constant character
        g = FiniteGroup(16, 1)
        quad = g.build_quadrature()
        region = parse_region(g, "set:{0,1,2,3}")
        sset = SpectralSet(g, [(1.0,), (3.0,)], joint=True)
        f = BandlimitedFunction(sset, np.zeros(2))
        rep = check_generic_subset_uncertainty(f, region, quad, q=4.0)
        assert (rep.lhs, rep.rhs) == (0.0, 0.25)
        assert rep.passed and rep.caveats[0].startswith("vacuous: f is zero")
        assert rep.inputs == {"space": "zn:N=16,d=1", "region": "set:{0,1,2,3}",
                              "region_measure": 4.0, "spectrum": "joint:[(1),(3)]",
                              "index_count": 2, "nodes_inside": 4, "q": 4.0,
                              "c_upper": 2**0.25, "measure_normalized_to_1": True}

    def test_q_at_most_2_rejected(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0)
        f = BandlimitedFunction(SpectralSet(t, [0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            check_generic_subset_uncertainty(f, full_region(t), quad, q=2.0)

    @pytest.mark.parametrize("descriptor", ["torus:d=1", "zn:N=64", "sphere2",
                                            "product(torus:d=1,sphere2)"])
    @pytest.mark.parametrize("q", [4.0, math.inf])
    def test_constant_is_the_lambda_q_bound(self, descriptor, q):
        # the check derives c_upper from its subset exactly as estimate_cq's c_interp
        space = parse_space(descriptor)
        elements = space.elements_by_index([0, 2, 3, 7, 11])
        quad = space.build_quadrature(qnorm_cutoff(elements, q), oversample=2)
        sset = SpectralSet(space, [el.joint for el in elements], joint=True)
        f = BandlimitedFunction(sset, np.ones(sset.size))
        rep = check_generic_subset_uncertainty(f, parse_region(space, "full"), quad, q=q)
        est = estimate_cq(space, sset.elements, q, quad, trials=1, ascent_iterations=2)
        assert rep.inputs["c_upper"] == est.c_interp


class TestEigenfunctionMassBound:
    def test_torus_lhs_is_total_measure(self):
        # constant-modulus basis: the average region mass fraction is 1/|M|
        for d in (1, 2):
            t = Torus(d)
            quad = t.build_quadrature(2.0, oversample=6)
            sset = spectrum_ball(t, 2.0)
            region = arc(t, 0.0, math.pi) if d == 1 else parse_region(
                t, "box:(0,1.5707963267948966)x(0,3.141592653589793)")
            rng = np.random.default_rng(d)
            f = BandlimitedFunction(sset, rng.normal(size=sset.size) + 0j)
            rep = check_eigenfunction_mass_bound(f, region, sset, quad)
            assert rep.lhs == pytest.approx(t.total_measure, rel=1e-6)
            assert rep.holds

    def test_sphere_lhs_is_4pi_by_addition_theorem(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(6.0), oversample=40)
        sset = spectrum_level(s, 2)
        region = cap(s, 1.0)
        rng = np.random.default_rng(7)
        f = BandlimitedFunction(sset, rng.normal(size=5) + 1j * rng.normal(size=5))
        rep = check_eigenfunction_mass_bound(f, region, sset, quad)
        # the addition theorem makes the band energy (#X_S/4pi) W_E exactly,
        # so the lhs is 4pi up to the region discretization W_E vs |E|
        w_e = region.quadrature_measure(quad)
        assert rep.lhs == pytest.approx(4 * math.pi * region.measure / w_e, rel=1e-9)
        assert w_e == pytest.approx(region.measure, rel=2e-2)
        assert rep.lhs == pytest.approx(4 * math.pi, rel=5e-2)
        assert rep.holds

    def test_top_concentration_vector_end_to_end(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(2.0), oversample=16)
        sset = spectrum_level(s, 1)
        region = cap(s, math.pi / 2)
        _, vec = max_concentration(gram_matrix(sset, region, quad))
        f = BandlimitedFunction(sset, vec)
        rep = check_eigenfunction_mass_bound(f, region, sset, quad)
        assert rep.holds
        assert rep.slack >= 0

    def test_degenerate_region_is_vacuous(self):
        g = FiniteGroup(8, 1)
        quad = g.build_quadrature()
        sset = spectrum_ball(g, 1.0)
        region = parse_region(g, "set:{}")
        f = BandlimitedFunction(sset, np.ones(sset.size) + 0j)
        rep = check_eigenfunction_mass_bound(f, region, sset, quad)
        assert rep.vacuous
        assert rep.passed


class TestHomogeneousUncertainty:
    def test_constant_mode_closed_form(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0, oversample=400)
        sset = SpectralSet(t, [0.0])
        f = BandlimitedFunction(sset, np.array([1.0 + 0j]))
        rep = check_homogeneous_uncertainty(f, arc(t, 0.0, math.pi), sset, quad, seed=0)
        assert rep.lhs == pytest.approx((1 - math.sqrt(0.5)) ** 2, abs=1e-9)
        assert rep.rhs == pytest.approx(0.5)
        assert rep.holds

    def test_full_region_trivial(self):
        t = Torus(1)
        quad = t.build_quadrature(2.0, oversample=4)
        sset = spectrum_ball(t, 2.0)
        rng = np.random.default_rng(5)
        f = BandlimitedFunction(sset, rng.normal(size=5) + 0j)
        rep = check_homogeneous_uncertainty(f, full_region(t), sset, quad, seed=0)
        assert rep.lhs == pytest.approx(1.0, abs=1e-9)
        assert rep.rhs >= 1.0
        assert rep.holds

    def test_hemisphere_top_vector(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(2.0), oversample=16)
        sset = spectrum_level(s, 1)
        region = cap(s, math.pi / 2)
        _, vec = max_concentration(gram_matrix(sset, region, quad))
        rep = check_homogeneous_uncertainty(
            BandlimitedFunction(sset, vec), region, sset, quad, seed=0)
        assert rep.holds

    def test_inhomogeneous_space_blocked(self):
        class Lopsided(Sphere2):
            # the (1, 0) row of the Legendre table, which the basis matrix and the
            # summed squares both read
            def _legendre(self, labels, x):
                leg, rows = super()._legendre(labels, x)
                leg[rows[(labels[:, 0] == 1) & (labels[:, 1] == 0)]] *= 1.01
                return leg, rows

        s = Lopsided()
        quad = s.build_quadrature(math.sqrt(2.0), oversample=8)
        sset = SpectralSet(s, [math.sqrt(2.0)])
        f = BandlimitedFunction(sset, np.ones(3) + 0j)
        rep = check_homogeneous_uncertainty(f, cap(s, 1.0), sset, quad, seed=0)
        assert rep.vacuous
        assert any("homogeneity" in c for c in rep.caveats)
        assert rep.inputs["homogeneity_max_deviation"] > 1e-4


class TestSupnormUncertainty:
    def test_torus_reduces_to_homogeneous_form(self):
        t = Torus(2)
        quad = t.build_quadrature(2.0, oversample=6)
        sset = spectrum_ball(t, 2.0)
        region = parse_region(t, "box:(0,1.5707963267948966)x(0,3.141592653589793)")
        rng = np.random.default_rng(1)
        f = BandlimitedFunction(sset, rng.normal(size=sset.size) + 0j)
        rep = check_supnorm_uncertainty(f, region, sset, quad, seed=0)
        assert rep.inputs["sup_estimate"] == pytest.approx(sset.size / TWO_PI**2, rel=1e-12)
        assert rep.holds

    def test_sphere_level_sup_exact(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(12.0), oversample=4)
        sset = spectrum_level(s, 3)
        rng = np.random.default_rng(2)
        f = BandlimitedFunction(sset, rng.normal(size=7) + 1j * rng.normal(size=7))
        rep = check_supnorm_uncertainty(f, cap(s, 1.0), sset, quad, seed=0)
        assert rep.inputs["sup_estimate"] == pytest.approx(7 / (4 * math.pi), rel=1e-12)
        assert rep.holds

    def test_mixed_levels_attained_at_pole(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(12.0), oversample=4)
        sset = SpectralSet(s, [math.sqrt(2.0), math.sqrt(12.0)])
        v = s.basis_matrix(sset.elements, s.extreme_points()[:1])
        pole_value = float(np.sum(np.abs(v[0]) ** 2))
        rng = np.random.default_rng(3)
        f = BandlimitedFunction(sset, rng.normal(size=sset.size) + 0j)
        rep = check_supnorm_uncertainty(f, cap(s, 1.2), sset, quad, seed=0)
        assert rep.inputs["sup_estimate"] == pytest.approx(pole_value, rel=1e-12)
        assert rep.caveats  # the sampled sup is always flagged


class TestCoveringUncertainty:
    def test_dyadic_gaps_beat_crude_sum(self):
        t = Torus(2)
        values = [1.0, 2.0, 4.0, 8.0, 16.0]
        sset = SpectralSet(t, values)
        quad = t.build_quadrature(16.0, oversample=1)
        rng = np.random.default_rng(4)
        f = BandlimitedFunction(sset, rng.normal(size=sset.size) + 0j)
        c_m = sogge_constant_estimate(t, 17.0, x_samples=8, extra_lambdas=values)
        rep = check_covering_uncertainty(f, parse_region(t, "box:(0,1)x(0,1)"),
                                         sset, quad, c_m)
        # covering merges {1,2}; the dyadic sum is far below #S (lambda_max+1)^{d-1}
        assert rep.inputs["covering_starts"] == [1.0, 4.0, 8.0, 16.0]
        assert rep.inputs["covering_sum"] == pytest.approx(29.0)
        assert rep.inputs["crude_sum"] == pytest.approx(5 * 17.0)
        assert rep.inputs["covering_sum"] < rep.inputs["crude_sum"]
        assert rep.holds

    def test_single_point_spectrum(self):
        t = Torus(2)
        sset = SpectralSet(t, [2.0])
        quad = t.build_quadrature(2.0, oversample=4)
        f = BandlimitedFunction(sset, np.ones(sset.size) + 0j)
        region = parse_region(t, "box:(0,2)x(0,2)")
        rep = check_covering_uncertainty(f, region, sset, quad, c_m=0.7)
        assert rep.rhs == pytest.approx(region.measure * 0.7 * 2.0)

    def test_d1_exponent_is_count(self):
        t = Torus(1)
        sset = SpectralSet(t, [0.0, 3.0, 7.0])
        quad = t.build_quadrature(7.0, oversample=8)
        f = BandlimitedFunction(sset, np.ones(sset.size) + 0j)
        region = arc(t, 0.0, 2.0)
        rep = check_covering_uncertainty(f, region, sset, quad, c_m=1.1)
        assert rep.inputs["covering_sum"] == pytest.approx(3.0)  # mu_k^0 sums to n
        assert rep.rhs == pytest.approx(region.measure * 1.1 * 3.0)

    def test_empirical_caveat_present(self):
        t = Torus(1)
        sset = SpectralSet(t, [1.0])
        quad = t.build_quadrature(1.0, oversample=8)
        f = BandlimitedFunction(sset, np.ones(2) + 0j)
        rep = check_covering_uncertainty(f, arc(t, 0, 3.0), sset, quad, c_m=0.64)
        assert any("empirical C_M" in c for c in rep.caveats)

    def test_joint_rejected(self):
        t = Torus(2)
        sset = SpectralSet(t, [(1.0, 0.0)], joint=True)
        quad = t.build_quadrature(1.0)
        f = BandlimitedFunction(sset, np.ones(1) + 0j)
        with pytest.raises(ValueError):
            check_covering_uncertainty(f, parse_region(t, "full"), sset, quad, c_m=1.0)


class TestJointUncertainty:
    def test_torus_d2_constant_modulus(self):
        t = Torus(2)
        quad = t.build_quadrature(1.0, oversample=12)  # 48 nodes/axis
        sset = SpectralSet(t, [(1.0, 0.0), (0.0, 1.0)], joint=True)
        rng = np.random.default_rng(6)
        f = BandlimitedFunction(sset, rng.normal(size=2) + 1j * rng.normal(size=2))
        # pi/2-aligned box edges sit on grid-cell boundaries: masked quadrature exact
        region = parse_region(t, "box:(0,1.5707963267948966)x(0,3.141592653589793)")
        reports = check_joint_uncertainty(f, region, sset, quad, seed=0)
        assert reports[0].rhs == pytest.approx(2 * region.measure / TWO_PI**2, rel=1e-12)
        assert all(r.holds for r in reports)
        assert {r.name for r in reports} == {"joint", "joint-homogeneous"}

    def test_sphere_joint_singles_out_one_order(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(2.0), oversample=8)
        sset = SpectralSet(s, [(0.0, 2.0)], joint=True)
        assert [el.label for el in sset.elements] == [(1, 0)]
        f = BandlimitedFunction(sset, np.array([1.0 + 0j]))
        reports = check_joint_uncertainty(f, cap(s, 2.0), sset, quad, seed=0)
        assert reports[0].holds
        # |Y_1^0|^2 is not constant: no homogeneous variant
        assert [r.name for r in reports] == ["joint"]

    def test_product_matches_torus_d2(self):
        t2 = Torus(2)
        p = ProductSpace(Torus(1), Torus(1))
        values = [(1.0, 0.0), (0.0, 1.0)]
        rng = np.random.default_rng(8)
        coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
        results = []
        for space, region_text in [
            (t2, "box:(0,1.5707963267948966)x(0,3.141592653589793)"),
            (p, "product(arc:0:1.5707963267948966,arc:0:3.141592653589793)"),
        ]:
            sset = SpectralSet(space, values, joint=True)
            quad = space.build_quadrature(1.0, oversample=12)
            f = BandlimitedFunction(sset, coeffs)
            region = parse_region(space, region_text)
            reports = check_joint_uncertainty(f, region, sset, quad, seed=0)
            results.append({r.name: (r.lhs, r.rhs) for r in reports})
        for name in results[0]:
            assert results[0][name][0] == pytest.approx(results[1][name][0], rel=1e-9)
            assert results[0][name][1] == pytest.approx(results[1][name][1], rel=1e-9)

    def test_scalar_set_rejected(self):
        t = Torus(1)
        sset = SpectralSet(t, [1.0])
        quad = t.build_quadrature(1.0)
        f = BandlimitedFunction(sset, np.ones(2) + 0j)
        with pytest.raises(ValueError):
            check_joint_uncertainty(f, full_region(t), sset, quad)


class TestMassReports:
    """homogeneous, supnorm, covering and joint all check
    (1 - eps - eps')^2 <= majorant: one left side, one vacuity rule."""

    VACUITY = "vacuous: epsilon + epsilon_prime >= 1"
    CHECKS = {
        "homogeneous": lambda f, r, s, q: check_homogeneous_uncertainty(f, r, s, q, seed=0),
        "supnorm": lambda f, r, s, q: check_supnorm_uncertainty(f, r, s, q, x_samples=16,
                                                                seed=0),
        "covering": lambda f, r, s, q: check_covering_uncertainty(f, r, s, q, c_m=1.0),
        "joint": lambda f, r, s, q: check_joint_uncertainty(f, r, s, q, seed=0)[0],
    }

    def run(self, name, f, region):
        t = region.space
        quad = t.build_quadrature(3.0, oversample=8)
        sset = SpectralSet(t, [1.0, 2.0])
        if name == "joint":  # the same four elements, selected by joint value
            sset = SpectralSet(t, [(1.0,), (-1.0,), (2.0,), (-2.0,)], joint=True)
        return concentration_levels(f, region, sset, quad), self.CHECKS[name](f, region, sset, quad)

    @pytest.mark.parametrize("name", CHECKS)
    def test_vacuous_levels_give_zero_lhs_and_lead_the_caveats(self, name):
        t = Torus(1)
        ambient = spectrum_ball(t, 3.0)
        f = BandlimitedFunction(ambient, np.random.default_rng(11).normal(size=ambient.size) + 0j)
        levels, rep = self.run(name, f, empty_region(t))
        assert not levels.informative and levels.gap < 0.0
        assert rep.lhs == 0.0
        assert rep.caveats[0] == self.VACUITY and rep.passed

    @pytest.mark.parametrize("name", CHECKS)
    def test_informative_lhs_is_the_squared_gap(self, name):
        t = Torus(1)
        rng = np.random.default_rng(12)
        f = BandlimitedFunction(SpectralSet(t, [1.0, 2.0]),
                                rng.normal(size=4) + 1j * rng.normal(size=4))
        levels, rep = self.run(name, f, arc(t, 0.0, math.pi))
        assert levels.informative and 0.0 < levels.gap < 1.0
        assert rep.lhs == max(levels.gap, 0.0) ** 2
        assert self.VACUITY not in rep.caveats

    def test_joint_homogeneous_shares_the_joint_left_side_and_inputs(self):
        t = Torus(1)
        sset = SpectralSet(t, [(1.0,), (-2.0,)], joint=True)
        f = BandlimitedFunction(sset, np.array([1.0, 0.5j]))
        region = arc(t, 0.0, 2.0)
        joint, homogeneous = check_joint_uncertainty(f, region, sset,
                                                     t.build_quadrature(2.0, oversample=8))
        assert homogeneous.name == "joint-homogeneous"
        assert homogeneous.lhs == joint.lhs
        assert homogeneous.inputs == joint.inputs and homogeneous.inputs is not joint.inputs
        assert homogeneous.rhs == 2 * region.measure / TWO_PI


class TestRandomHalfUncertainty:
    def test_single_exponential_equality(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0, oversample=32)
        sset = SpectralSet(t, [(0.0,)], joint=True)
        f = BandlimitedFunction(sset, np.array([1.0 + 0j]))
        rep = check_random_half_uncertainty(f, full_region(t), quad,
                                            k_emp=TWO_PI**-0.5, n=16)
        assert rep.inputs["f_l2_over_l1"] == pytest.approx(TWO_PI**-0.5, rel=1e-12)
        assert rep.lhs == pytest.approx(TWO_PI, rel=1e-9)
        assert rep.rhs == pytest.approx(TWO_PI)
        assert rep.holds

    def test_shrinking_region_keeps_bound(self):
        # A explodes as E shrinks, and the bound moves with it
        t = Torus(1)
        quad = t.build_quadrature(3.0, oversample=100)
        sset = spectrum_ball(t, 3.0)
        rng = np.random.default_rng(10)
        f = BandlimitedFunction(sset, rng.normal(size=7) + 1j * rng.normal(size=7))
        k_emp = quad.norm(f.samples(quad), 2) / quad.norm(f.samples(quad), 1)
        prev_a = 0.0
        for width in [TWO_PI, 4.0, 2.0, 1.0, 0.5]:
            region = arc(t, 0.0, width)
            rep = check_random_half_uncertainty(f, region, quad, k_emp=k_emp, n=8)
            assert rep.holds, f"width {width}"
            assert rep.inputs["level_A"] >= prev_a - 1e-12
            prev_a = rep.inputs["level_A"]

    def test_benchmark_is_the_splits(self):
        t = Torus(1)
        quad = t.build_quadrature(8.0, oversample=4)
        elements = t.first_elements(16)
        split = gmpt_split(t, quad, elements, trials=4, subsets=8, seed=3)
        side = SpectralSet(t, [elements[i].joint for i in split.indices], joint=True)
        f = BandlimitedFunction(side, np.ones(side.size))
        rep = check_random_half_uncertainty(f, arc(t, 0.0, 2.0), quad, k_emp=split.k_observed,
                                            n=split.n, b_sup=split.b_sup)
        assert rep.inputs["benchmark"] == split.benchmark

    def test_small_n_rejected(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0)
        f = BandlimitedFunction(SpectralSet(t, [0.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            check_random_half_uncertainty(f, full_region(t), quad, k_emp=1.0, n=3)

    def test_unbounded_k_flagged(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0, oversample=16)
        sset = spectrum_ball(t, 1.0)
        f = BandlimitedFunction(sset, np.array([1.0, 1.0, 1.0], dtype=complex))
        rep = check_random_half_uncertainty(f, full_region(t), quad, k_emp=1e-6, n=8)
        assert not rep.inputs["k_emp_bounds_f"]
        assert rep.vacuous


class TestReportMechanics:
    def test_reports_deterministic(self):
        g = FiniteGroup(16, 1)
        f = np.zeros(16)
        f[[0, 8]] = 1.0
        a = check_group_uncertainty(g, f, seed=3).to_dict()
        b = check_group_uncertainty(g, f, seed=3).to_dict()
        assert a == b

    def test_vacuous_pass_semantics(self):
        from specon import InequalityReport

        rep = InequalityReport(name="x", lhs=2.0, rhs=1.0,
                               caveats=["vacuous: nothing to see"])
        assert not rep.holds
        assert rep.vacuous and rep.passed
        assert rep.slack == -1.0

    def test_holds_tolerance(self):
        from specon import InequalityReport

        assert InequalityReport(name="x", lhs=1.0 + 5e-13, rhs=1.0).holds
        assert not InequalityReport(name="x", lhs=1.0 + 5e-12, rhs=1.0).holds

    def test_json_escapes_every_control_character(self):
        import json

        from specon import InequalityReport, reports_to_json
        from specon.reports import dumps_stable

        controls = "".join(chr(c) for c in range(0x20))
        assert json.loads(dumps_stable(controls + '"\\')) == controls + '"\\'
        assert dumps_stable("\n\r\t\x00\x1f") == '"\\n\\r\\t\\u0000\\u001f"'
        rep = InequalityReport(name="x", lhs=0.0, rhs=1.0, caveats=[controls])
        assert json.loads(reports_to_json([rep]))["reports"][0]["caveats"] == [controls]

    @pytest.mark.parametrize("value,plain", [
        (np.int64(7), 7), (np.float64(0.1), 0.1), (np.bool_(True), True),
        (complex(1.5, -2.0), [1.5, -2.0]),
        (np.array([1 + 2j, 3j]), [[1.0, 2.0], [0.0, 3.0]]),
    ], ids=["int64", "float64", "bool_", "complex", "complex-array"])
    def test_numpy_values_are_written_as_the_python_values_they_hold(self, value, plain):
        from specon.reports import dumps_stable

        assert dumps_stable({"v": value}) == dumps_stable({"v": plain})


class TestProjectionBounds:
    def test_inputs_start_with_the_mass_checks_inputs(self):
        t = Torus(1)
        quad = t.build_quadrature(3.0, oversample=8)
        sset = spectrum_ball(t, 2.0)
        f = BandlimitedFunction(spectrum_ball(t, 3.0), np.arange(1.0, 8.0))
        region = arc(t, 0.5, 3.0)
        mass = check_homogeneous_uncertainty(f, region, sset, quad, seed=1)
        shared = {k: v for k, v in mass.inputs.items() if k != "homogeneity_max_deviation"}
        for rep in check_projection_bounds(f, region, sset, quad):
            assert list(rep.inputs) == [*shared, "f_norm", "projected_norm"]
            assert {k: rep.inputs[k] for k in shared} == shared
