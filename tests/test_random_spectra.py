import math

import numpy as np
import pytest

from specon import (
    CoarseQuadratureError,
    FiniteGroup,
    ProductSpace,
    RandomSubsetSpec,
    SpeconError,
    Sphere2,
    Torus,
    estimate_cq,
    generic_subset,
    gmpt_split,
    lq_norm,
    trial_rng,
)
from specon.random_spectra import interpolation_bound, qnorm_cutoff

TWO_PI = 2 * math.pi


class TestGenericSubset:
    def test_delta_formula(self):
        spec = RandomSubsetSpec(256, 4.0)
        assert spec.delta == pytest.approx(256 ** (2 / 4 - 1))
        assert spec.delta == pytest.approx(1 / 16)
        assert spec.expected_size == pytest.approx(16.0)

    def test_delta_one_keeps_everything(self):
        # q -> 2+ limit: delta -> 1 and the seeded draw keeps all indices
        spec = RandomSubsetSpec(64, 2.0 + 1e-12, seed=5)
        assert spec.delta > 1 - 1e-10
        assert generic_subset(spec) == list(range(64))

    def test_deterministic(self):
        spec = RandomSubsetSpec(256, 4.0, seed=77)
        assert generic_subset(spec) == generic_subset(spec)

    def test_q_at_most_2_rejected(self):
        with pytest.raises(ValueError):
            RandomSubsetSpec(16, 2.0)
        with pytest.raises(ValueError):
            RandomSubsetSpec(16, 1.5)

    def test_sizes_concentrate(self):
        # mean over 1000 seeds within 3 standard errors of n delta = 16
        sizes = [len(generic_subset(RandomSubsetSpec(256, 4.0, seed=s)))
                 for s in range(1000)]
        mean = np.mean(sizes)
        se = math.sqrt(256 * (1 / 16) * (15 / 16)) / math.sqrt(1000)
        assert abs(mean - 16.0) < 3 * se


class TestLqNorm:
    def test_constant_l1(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0)
        c = 2.5
        assert lq_norm(np.full(quad.nodes.shape[0], c), quad, 1) == pytest.approx(c * TWO_PI)

    def test_unit_mode_l2(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0)
        samples = np.full(quad.nodes.shape[0], TWO_PI**-0.5)
        assert lq_norm(samples, quad, 2) == pytest.approx(1.0)

    def test_unit_mode_l4(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0)
        samples = np.full(quad.nodes.shape[0], TWO_PI**-0.5)
        val = lq_norm(samples, quad, 4)
        assert val == pytest.approx(TWO_PI**-0.25)
        assert abs(val - 0.6317) < 1e-4

    def test_infinity_is_max(self):
        t = Torus(1)
        quad = t.build_quadrature(1.0)
        samples = np.linspace(0, 3, quad.nodes.shape[0])
        assert lq_norm(samples, quad, math.inf) == 3.0

    def test_q_below_1_rejected(self):
        quad = Torus(1).build_quadrature(1.0)
        with pytest.raises(ValueError):
            lq_norm(np.ones(quad.nodes.shape[0]), quad, 0.5)


class TestEstimateCq:
    def test_q2_diagnostic_ratio_is_one(self):
        g = FiniteGroup(32, 1)
        quad = g.build_quadrature()
        est = estimate_cq(g, g.first_elements(8), 2.0, quad, trials=6, seed=1)
        assert est.c_lower == pytest.approx(1.0, abs=1e-9)

    def test_single_character_ratio_one(self):
        g = FiniteGroup(64, 1)
        quad = g.build_quadrature()
        est = estimate_cq(g, g.elements_by_index([5]), 4.0, quad, trials=4, seed=2)
        assert est.c_lower == pytest.approx(1.0, abs=1e-9)
        assert est.measured_sup == pytest.approx(1.0, abs=1e-12)

    def test_interpolation_bound_respected(self):
        g = FiniteGroup(256, 1)
        quad = g.build_quadrature()
        subset = generic_subset(RandomSubsetSpec(256, 4.0, seed=3))
        est = estimate_cq(g, g.elements_by_index(subset), 4.0, quad, trials=10, seed=3)
        assert est.c_interp == pytest.approx(len(subset) ** 0.25)
        assert 1.0 - 1e-9 <= est.c_lower <= est.c_interp * (1 + 1e-9)

    def test_monotone_under_extension(self):
        g = FiniteGroup(128, 1)
        quad = g.build_quadrature()
        rng = np.random.default_rng(9)
        for pair in range(5):
            small = sorted(rng.choice(128, size=6, replace=False).tolist())
            big = sorted(set(small) | set(rng.choice(128, size=6, replace=False).tolist()))
            est_small = estimate_cq(g, g.elements_by_index(small), 4.0, quad, trials=6,
                                    seed=pair)
            pad = np.zeros(len(big), dtype=complex)
            for i, idx in enumerate(big):
                if idx in small:
                    pad[i] = est_small.best_coefficients[small.index(idx)]
            est_big = estimate_cq(g, g.elements_by_index(big), 4.0, quad, trials=6, seed=pair,
                                  extra_starts=[pad])
            assert est_big.c_lower >= est_small.c_lower - 1e-10

    def test_infinite_q(self):
        g = FiniteGroup(32, 1)
        quad = g.build_quadrature()
        est = estimate_cq(g, g.first_elements(4), math.inf, quad, trials=6, seed=4)
        assert est.c_interp == pytest.approx(2.0)
        assert 1.0 - 1e-9 <= est.c_lower <= 2.0 + 1e-9

    def test_coarse_quadrature_diagnosed(self):
        t = Torus(1)
        quad = t.build_quadrature(2.0)  # 6 nodes: far below the q-norm heuristic
        with pytest.raises(CoarseQuadratureError):
            estimate_cq(t, t.first_elements(5), 4.0, quad, trials=2, seed=5)

    def test_sphere_exploratory_run(self):
        # harmonics beyond the constant exceed one in modulus (measured_sup);
        # the interpolation bound sums 2l+1 over degrees 0, 1, 2 and 3
        s = Sphere2()
        quad = s.build_quadrature(2 * math.sqrt(12.0), oversample=2)
        est = estimate_cq(s, s.elements_by_index([0, 1, 5, 9]), 4.0, quad, trials=6, seed=6)
        assert est.measured_sup > 1.0
        assert est.c_interp == pytest.approx(16 ** 0.25, rel=1e-15)
        assert 1.0 - 1e-9 <= est.c_lower <= est.c_interp

    @pytest.mark.parametrize("space", [Sphere2(), ProductSpace(Torus(1), Sphere2())])
    @pytest.mark.parametrize("q", [3.0, 4.0, 6.0, math.inf])
    def test_lower_estimate_within_the_bound(self, space, q):
        # estimate_cq enforces c_lower <= c_interp on every space; checked here directly
        for seed in range(3):
            subset = generic_subset(RandomSubsetSpec(40, q, seed=seed)) or [0]
            elements = space.elements_by_index(subset)
            quad = space.build_quadrature(max(1.0, qnorm_cutoff(elements, q)), oversample=2)
            est = estimate_cq(space, elements, q, quad, trials=4, ascent_iterations=50, seed=seed)
            assert est.c_lower <= est.c_interp * (1 + 1e-9)
            assert est.c_interp == interpolation_bound(space, elements, q)


def _quadrature_ratio_split(space, quad, elements, trials, subsets, seed, c_param=1.0):
    """(k_observed, indices) of gmpt_split's search with both norms of each trial
    function taken by the quadrature, on the same seeded draws."""
    v, n = space.basis_matrix(elements, quad.nodes), len(elements)
    best = None
    for t in range(subsets):
        rng = trial_rng(seed, t)
        keep = rng.random(n) < 0.5
        idx = np.flatnonzero(keep)
        if abs(len(idx) - n / 2) > c_param * math.sqrt(n):
            continue
        k_worst = 0.0
        for side in (idx, np.flatnonzero(~keep)):
            if len(side):
                a = rng.normal(size=(trials, len(side))) + 1j * rng.normal(size=(trials, len(side)))
                f = v[:, side] @ a.T
                n2 = np.sqrt(np.sum(quad.weights[:, None] * np.abs(f) ** 2, axis=0))
                n1 = np.sum(quad.weights[:, None] * np.abs(f), axis=0)
                k_worst = max(k_worst, float(np.max(n2 / n1)))
        if best is None or k_worst < best[0]:
            best = (k_worst, idx.tolist())
    return best


class TestGmptSplit:
    @pytest.mark.parametrize("space,n", [
        (Torus(1), 64), (Torus(2), 30), (Sphere2(), 36), (FiniteGroup(32, 1), 20),
        (ProductSpace(Torus(1), Sphere2()), 24)], ids=repr)
    def test_plancherel_l2_matches_the_quadrature_ratio(self, space, n):
        # on an orthonormal basis and a quadrature exact on its products,
        # |f|_2 = |a|_2: the ratio by quadrature norms is the oracle
        els = space.first_elements(n)
        quad = space.build_quadrature(max(el.frequency for el in els))
        split = gmpt_split(space, quad, els, trials=8, subsets=16, seed=n)
        k_oracle, indices = _quadrature_ratio_split(space, quad, els, 8, 16, n)
        assert split.k_observed == pytest.approx(k_oracle, rel=1e-12)
        assert split.indices == indices

    def test_n2_single_character(self):
        t = Torus(1)
        quad = t.build_quadrature(2.0, oversample=16)
        split = gmpt_split(t, quad, t.first_elements(2), trials=16, subsets=32, seed=13)
        assert len(split.indices) == 1
        assert split.k_observed == pytest.approx(TWO_PI**-0.5, rel=1e-10)
        assert split.b_sup == pytest.approx(TWO_PI**-0.5, rel=1e-12)

    def test_size_constraint_always_met(self):
        t = Torus(1)
        quad = t.build_quadrature(8.0, oversample=4)
        for seed in range(5):
            split = gmpt_split(t, quad, t.first_elements(16), c_param=1.0, trials=8,
                               subsets=16, seed=seed)
            assert split.size_deviation <= math.sqrt(16)
            assert 0 < split.success_fraction <= 1

    def test_k_at_least_inverse_sqrt_measure(self):
        t = Torus(1)
        quad = t.build_quadrature(8.0, oversample=4)
        split = gmpt_split(t, quad, t.first_elements(16), trials=8, subsets=16, seed=3)
        assert split.k_observed >= t.total_measure**-0.5 - 1e-12

    def test_torus_benchmark_reported(self):
        t = Torus(1)
        quad = t.build_quadrature(16.0, oversample=2)
        split = gmpt_split(t, quad, t.first_elements(32), trials=8, subsets=16, seed=4)
        assert split.b_sup == pytest.approx(TWO_PI**-0.5, rel=1e-12)
        assert split.benchmark == pytest.approx(
            split.b_sup * math.log(32) * math.log(math.log(32)) ** 2.5)

    def test_sphere_sup_attained_at_pole(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(12.0), oversample=2)
        split = gmpt_split(s, quad, s.first_elements(16), trials=8, subsets=16, seed=5)
        # zonal harmonic of degree 3 peaks at the poles: sqrt(7/4pi)
        assert split.b_sup == pytest.approx(math.sqrt(7 / (4 * math.pi)), rel=1e-10)

    @pytest.mark.parametrize("space,n,peak", [
        (Torus(1), 8, 1.0), (Torus(2), 10, 1.0), (Sphere2(), 36, 11.0),
        (FiniteGroup(16, 1), 16, 1.0), (ProductSpace(Torus(1), Sphere2()), 12, 3.0)],
        ids=repr)
    def test_b_sup_is_exact(self, space, n, peak):
        # max_j sup |e_j| = sqrt(max_j |M| sup |e_j|^2 / |M|): (2 pi)^{-d/2} on a
        # torus, sqrt((2 l + 1) / 4 pi) at the top degree l of the sphere, N^{-1/2}
        # on Z_N, and their product on a product
        els = space.first_elements(n)
        quad = space.build_quadrature(max(el.frequency for el in els))
        split = gmpt_split(space, quad, els, trials=4, subsets=8, seed=1)
        assert split.b_sup == math.sqrt(peak / space.total_measure)
        closed = {"torus:d=1": TWO_PI**-0.5, "torus:d=2": 1 / TWO_PI,
                  "sphere2": math.sqrt(11 / (4 * math.pi)), "zn:N=16,d=1": 0.25,
                  "product(torus:d=1,sphere2)": math.sqrt(3 / (8 * math.pi**2))}[space.kind]
        assert split.b_sup == pytest.approx(closed, rel=2**-52, abs=0)

    def test_one_basis_evaluation_per_split(self, monkeypatch):
        # the exact b_sup needs no evaluation at the extreme points
        seen = []
        basis_matrix = Sphere2.basis_matrix
        monkeypatch.setattr(Sphere2, "basis_matrix", lambda self, els, pts:
                            seen.append(len(pts)) or basis_matrix(self, els, pts))
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(12.0))
        gmpt_split(s, quad, s.first_elements(16), trials=4, subsets=8, seed=2)
        assert seen == [len(quad.nodes)]

    def test_odd_n_rejected(self):
        t = Torus(1)
        quad = t.build_quadrature(4.0)
        with pytest.raises(ValueError, match="even"):
            gmpt_split(t, quad, t.first_elements(7))

    def test_no_draw_within_size_limit(self):
        # with c_param 0 a draw must keep exactly n/2 of 64 indices
        t = Torus(1)
        quad = t.build_quadrature(32.0)
        with pytest.raises(SpeconError, match="no subset met"):
            gmpt_split(t, quad, t.first_elements(64), c_param=0.0, subsets=1, seed=12345)

    def test_deterministic(self):
        t = Torus(1)
        quad = t.build_quadrature(8.0, oversample=2)
        a = gmpt_split(t, quad, t.first_elements(16), trials=8, subsets=16, seed=11)
        b = gmpt_split(t, quad, t.first_elements(16), trials=8, subsets=16, seed=11)
        assert a.indices == b.indices
        assert a.k_observed == b.k_observed


class TestTrialRng:
    def test_streams_independent_of_order(self):
        direct = [trial_rng(9, t).random(3).tolist() for t in range(4)]
        reversed_order = [trial_rng(9, t).random(3).tolist() for t in reversed(range(4))]
        assert direct == list(reversed(reversed_order))

    def test_distinct_streams(self):
        assert trial_rng(1, 0).random() != trial_rng(1, 1).random()
