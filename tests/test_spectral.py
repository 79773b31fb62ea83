import math

import numpy as np
import pytest

from specon import (
    DescriptorError,
    FiniteGroup,
    SpectralSet,
    Sphere2,
    Torus,
    check_homogeneity,
    cover_by_unit_intervals,
    local_weyl,
    parse_space,
    parse_spectrum,
    sogge_constant_estimate,
    spectrum_ball,
    spectrum_level,
    weyl_count,
)

TWO_PI = 2 * math.pi


def brute_force_disk_count(lam):
    """Independent lattice-point count in the closed disk of radius lam."""
    r = int(math.floor(lam))
    return sum(
        1
        for m1 in range(-r, r + 1)
        for m2 in range(-r, r + 1)
        if m1 * m1 + m2 * m2 <= lam * lam
    )


class TestWeylCount:
    def test_torus_d2_lambda_5(self):
        assert weyl_count(Torus(2), 5.0) == 81
        assert weyl_count(Torus(2), 5.0) == brute_force_disk_count(5.0)

    def test_torus_matches_brute_force(self):
        for lam in [0.0, 1.0, 2.5, 7.3, 10.0]:
            assert weyl_count(Torus(2), lam) == brute_force_disk_count(lam)

    def test_sphere_lambda_2(self):
        # sqrt(2) <= 2 < sqrt(6): levels 0 and 1 only
        assert weyl_count(Sphere2(), 2.0) == 4

    def test_sphere_matches_enumeration(self):
        s = Sphere2()
        for lam in [0.0, 1.5, math.sqrt(6), 4.9]:
            assert weyl_count(s, lam) == len(s.enumerate_basis(lam))

    def test_lambda_zero_counts_constant(self):
        for space in [Torus(1), Torus(2), Sphere2(), FiniteGroup(8, 1)]:
            assert weyl_count(space, 0.0) == 1

    def test_nondecreasing(self):
        for space in [Torus(2), Sphere2()]:
            counts = [weyl_count(space, lam) for lam in np.linspace(0, 8, 33)]
            assert counts == sorted(counts)

    def test_weyl_law_ratio_torus(self):
        # N(lambda)/lambda^d -> |B| = pi for the d=2 torus
        n = weyl_count(Torus(2), 100.0)
        assert abs(n / 100.0**2 - math.pi) / math.pi < 0.05

    @pytest.mark.parametrize("text,top", [
        ("torus:d=1", 40), ("torus:d=2", 20), ("torus:d=3", 6), ("sphere2", 40),
        ("zn:N=64,d=2", 40), ("product(torus:d=1,sphere2)", 12),
        ("product(zn:N=4,d=1,torus:d=1)", 12)])
    def test_sequence_equals_scalar_calls(self, text, top):
        space = parse_space(text)
        lams = [2.5, math.sqrt(2), math.sqrt(13), 1.0] + np.arange(0.0, top + 0.25, 0.5).tolist()
        want = [weyl_count(space, lam) for lam in lams]
        assert want == [len(space.enumerate_basis(lam)) for lam in lams]
        assert space.count_upto(lams) == want
        assert weyl_count(space, lams) == want
        assert weyl_count(space, np.array(lams)) == want
        assert weyl_count(space, []) == []
        with pytest.raises(ValueError):
            weyl_count(space, [1.0, -0.5])

    def test_a_sequence_uses_the_closed_form(self):
        # a table of every candidate label of Torus(2) at 1e4 would need 6.0 GiB
        assert weyl_count(Torus(2), [1e4]) == [weyl_count(Torus(2), 1e4)] == [314159053]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            weyl_count(Torus(1), -1.0)


class TestLocalWeyl:
    def test_torus_constant_modulus(self):
        val = local_weyl(Torus(2), [0.4, 2.2], 5.0)
        assert val == pytest.approx(81 / TWO_PI**2)
        assert abs(val - 2.05170) < 1e-4

    def test_sphere_addition_theorem(self):
        # independent oracle: sum over a full level of |Y_l^m|^2 is (2l+1)/4pi
        val = local_weyl(Sphere2(), [1.234, 2.345], 2.0)
        assert val == pytest.approx((1 + 3) / (4 * math.pi))

    def test_lambda_zero(self):
        for space in [Torus(1), Sphere2()]:
            assert local_weyl(space, space.extreme_points()[0], 0.0) == pytest.approx(
                1 / space.total_measure
            )

    def test_nondecreasing_in_lambda(self):
        x = [0.9, 1.7]
        vals = [local_weyl(Sphere2(), x, lam) for lam in np.linspace(0, 6, 13)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("text,top", [
        ("torus:d=1", 40), ("torus:d=2", 20), ("torus:d=3", 8), ("sphere2", 20),
        ("zn:N=16,d=2", 12), ("product(torus:d=1,sphere2)", 8)])
    def test_sequence_equals_scalar_calls(self, text, top):
        # bit for bit: each sum is the pairwise np.sum over a prefix of one
        # evaluation (a running sum, np.cumsum, moves the last bits)
        space = parse_space(text)
        lams = [2.5, math.sqrt(2), math.sqrt(13), 1.0] + np.arange(0.0, top + 0.25, 0.25).tolist()
        for x in [space.extreme_points()[0], space.sample_points(1, np.random.default_rng(4))[0]]:
            # each lambda on its own: its own enumeration and evaluation
            want = [float(np.sum(np.abs(space.basis_matrix(
                space.enumerate_basis(lam), np.atleast_2d(x))[0]) ** 2)) for lam in lams]
            assert [local_weyl(space, x, lam) for lam in lams] == want
            assert local_weyl(space, x, lams) == want
            assert local_weyl(space, x, np.array(lams)) == want
        assert local_weyl(space, x, []) == []
        with pytest.raises(ValueError):
            local_weyl(space, x, [1.0, -0.5])

    def test_integrates_to_global_count(self):
        # N(lambda) = integral of N_x(lambda)
        for space, lam in [(Torus(1), 4.0), (Sphere2(), 3.5)]:
            q = space.build_quadrature(lam)
            els = space.enumerate_basis(lam)
            v = space.basis_matrix(els, q.nodes)
            nx = np.sum(np.abs(v) ** 2, axis=1)
            assert q.integrate(nx).real == pytest.approx(weyl_count(space, lam), rel=1e-10)


class TestHomogeneity:
    def test_sphere_level_7(self):
        s = Sphere2()
        pts = s.sample_points(200, np.random.default_rng(11))
        holds, dev = check_homogeneity(s, math.sqrt(7 * 8), pts, tol=1e-9)
        assert holds and dev < 1e-10

    def test_torus_sqrt5_level(self):
        t = Torus(2)
        pts = t.sample_points(64, np.random.default_rng(3))
        holds, dev = check_homogeneity(t, math.sqrt(5), pts, tol=1e-12)
        assert holds

    def test_perturbed_basis_fails(self):
        # negative control: scaling one element by 1.01 must break the identity
        class Lopsided(Sphere2):
            # the (1, 0) row of the Legendre table, which the basis matrix and the
            # summed squares both read
            def _legendre(self, labels, x):
                leg, rows = super()._legendre(labels, x)
                leg[rows[(labels[:, 0] == 1) & (labels[:, 1] == 0)]] *= 1.01
                return leg, rows

        s = Lopsided()
        pts = s.sample_points(64, np.random.default_rng(5))
        holds, dev = check_homogeneity(s, math.sqrt(2), pts, tol=1e-9)
        assert not holds
        assert dev > 1e-4

    def test_value_not_in_spectrum(self):
        with pytest.raises(ValueError):
            check_homogeneity(Sphere2(), 1.01, np.zeros((1, 2)))

    def test_joint_value(self):
        s = Sphere2()
        pts = s.sample_points(16, np.random.default_rng(0))
        # a single joint class (m=0, l(l+1)=2) is |Y_1^0|^2, not constant
        holds, dev = check_homogeneity(s, (0.0, 2.0), pts, joint=True, tol=1e-9)
        assert not holds


class TestCovering:
    # torus:d=2 frequencies: 0, 1, sqrt(2), 2, sqrt(5), sqrt(8), 3, sqrt(10), sqrt(13), ...
    def test_greedy_example(self):
        t = Torus(2)
        cov = cover_by_unit_intervals(SpectralSet(t, [1.0, math.sqrt(2), 3.0, math.sqrt(13)]))
        assert cov.starts == (1.0, 3.0)
        assert cov.n == 2

    def test_single_point(self):
        cov = cover_by_unit_intervals(SpectralSet(Torus(1), [2.0]))
        assert cov.starts == (2.0,)

    def test_gaps(self):
        cov = cover_by_unit_intervals(SpectralSet(Torus(2), [0.0, math.sqrt(2), 3.0]))
        assert cov.starts == (0.0, math.sqrt(2), 3.0)

    def test_covers_every_point(self):
        rng = np.random.default_rng(17)
        freqs = spectrum_ball(Torus(2), 20.0).values
        for _ in range(20):
            vals = rng.choice(freqs, size=rng.integers(1, 12), replace=False)
            sset = SpectralSet(Torus(2), vals)
            cov = cover_by_unit_intervals(sset)
            assert all(cov.covers(v) for v in sset.values)
            # greedy minimality: each interval starts at an uncovered point
            for k, mu in enumerate(cov.starts):
                assert not any(nu <= mu <= nu + 1 for nu in cov.starts[:k])

    def test_joint_rejected(self):
        sset = SpectralSet(Torus(2), [(1.0, 0.0)], joint=True)
        with pytest.raises(ValueError):
            cover_by_unit_intervals(sset)


class TestSpectralSet:
    def test_multiplicity_captured_whole(self):
        t = Torus(2)
        sset = SpectralSet(t, [math.sqrt(5)])
        assert sset.size == 8  # (+-1, +-2) and (+-2, +-1)

    def test_level(self):
        lvl = spectrum_level(Sphere2(), 3)
        assert lvl.size == 7
        assert all(el.label[0] == 3 for el in lvl.elements)

    def test_ball(self):
        b = spectrum_ball(Torus(2), 5.0)
        assert b.size == 81

    def test_joint_distinguishes_from_scalar(self):
        s = Sphere2()
        joint = SpectralSet(s, [(0.0, 2.0)], joint=True)
        scalar = SpectralSet(s, [math.sqrt(2.0)])
        assert joint.size == 1
        assert joint.elements[0].label == (1, 0)
        assert scalar.size == 3

    def test_empty(self):
        sset = SpectralSet(Torus(1), [])
        assert sset.size == 0

    @pytest.mark.parametrize("text", [
        "torus:d=1", "torus:d=3", "sphere2", "zn:N=8,d=2", "zn:N=9,d=1",
        "product(torus:d=1,sphere2)", "product(zn:N=4,d=1,torus:d=2)"])
    def test_zero_tolerance_joint_set_holds_exactly_the_drawn_elements(self, text):
        # a joint value identifies its element on every space kind, so the
        # drawn elements' own joint values match them and no other
        space = parse_space(text)
        elements = space.first_elements(9 if text == "zn:N=9,d=1" else 60)
        rng = np.random.default_rng(11)
        for _ in range(20):
            drawn = sorted(rng.choice(len(elements), size=int(rng.integers(0, len(elements) + 1)),
                                      replace=False).tolist())
            sset = SpectralSet(space, [elements[i].joint for i in drawn], joint=True)
            assert sset.indices == drawn

    def test_parse(self):
        assert parse_spectrum(Sphere2(), "level:ℓ=3").size == 7
        assert parse_spectrum(Sphere2(), "level:l=1").size == 3
        assert parse_spectrum(Torus(2), "ball:λ≤5").size == 81
        assert parse_spectrum(Torus(1), "list:[0,1,2]").size == 5
        assert parse_spectrum(Sphere2(), "joint:[(0,2),(0,0)]").size == 2

    def test_parse_errors(self):
        with pytest.raises(DescriptorError):
            parse_spectrum(Torus(1), "shell:3")
        with pytest.raises(DescriptorError):
            parse_spectrum(Torus(1), "list:[a]")


class TestSoggeEstimate:
    def test_torus_d1_bounded(self):
        # at most 4 exponentials of |m| in a closed unit interval
        c = sogge_constant_estimate(Torus(1), 20.0)
        assert c <= 4 / TWO_PI + 1e-12
        assert c > 0

    def test_torus_d1_grid_stable(self):
        coarse = sogge_constant_estimate(Torus(1), 20.0, grid_step=0.5)
        fine = sogge_constant_estimate(Torus(1), 20.0, grid_step=0.1)
        assert abs(coarse - fine) < 0.01 * max(coarse, fine) + 1e-9

    def test_sphere_pole_bounded(self):
        # unit-band sums at the pole behave like (2l+1)/4pi / lambda: bounded
        c = sogge_constant_estimate(Sphere2(), 15.0, x_samples=64)
        assert 0 < c < 1.0

    def test_lam_max_below_one_rejected(self):
        with pytest.raises(ValueError):
            sogge_constant_estimate(Torus(1), 0.5)
