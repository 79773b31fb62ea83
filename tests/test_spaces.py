import itertools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import sph_harm_y

from specon import (
    DescriptorError,
    FiniteGroup,
    ProductSpace,
    SpeconError,
    SpectralSet,
    Sphere2,
    Torus,
    concentration_levels,
    parse_region,
    parse_space,
)
import specon.spaces as spaces
from specon.spaces import MAX_BASIS_BYTES, BasisElement, _r2max

TWO_PI = 2 * math.pi


def brute_force_torus_labels(d, cutoff):
    """Independent lattice enumeration oracle."""
    r = int(math.floor(cutoff))
    out = []
    for m in itertools.product(range(-r, r + 1), repeat=d):
        if math.sqrt(sum(c * c for c in m)) <= cutoff:
            out.append(m)
    return sorted(out)


class TestEnumeration:
    def test_torus_d2_cutoff_1(self):
        els = Torus(2).enumerate_basis(1.0)
        assert len(els) == 5
        assert sorted(e.label for e in els) == [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]

    def test_torus_matches_brute_force(self):
        for cutoff in [0.0, 1.5, 3.0, 4.2]:
            els = Torus(2).enumerate_basis(cutoff)
            assert sorted(e.label for e in els) == brute_force_torus_labels(2, cutoff)

    def test_sphere_l_le_2(self):
        els = Sphere2().enumerate_basis(math.sqrt(6.0))
        assert len(els) == 1 + 3 + 5
        assert els[0].label == (0, 0)
        assert els[-1].label == (2, 2)

    def test_group_all_characters(self):
        g = FiniteGroup(4, 1)
        assert len(g.enumerate_basis(g.max_frequency())) == 4

    def test_ordering_nondecreasing_and_lexicographic(self):
        for space in [Torus(2), Sphere2(), FiniteGroup(6, 1)]:
            els = space.enumerate_basis(3.0)
            freqs = [e.frequency for e in els]
            assert freqs == sorted(freqs)
            for a, b in zip(els, els[1:]):
                if a.frequency == b.frequency:
                    assert a.label < b.label

    def test_nonfinite_cutoff_rejected(self):
        with pytest.raises(ValueError):
            Torus(1).enumerate_basis(math.inf)
        with pytest.raises(ValueError):
            Sphere2().enumerate_basis(math.nan)
        with pytest.raises(ValueError):
            Torus(1).enumerate_basis(-1.0)

    def test_determinism(self):
        a = Sphere2().enumerate_basis(5.0)
        b = Sphere2().enumerate_basis(5.0)
        assert a == b

    def test_index_stable_under_cutoff(self):
        t = Torus(2)
        small = t.enumerate_basis(3.0)
        big = t.enumerate_basis(6.0)
        assert big[: len(small)] == small


def stepping_r2max(lam):
    """The search _r2max replaced: step from floor(lam^2) one integer at a
    time.  Exact, and fast while lam^2 < 2^53; kept as the oracle."""
    if lam < 0:
        return -1
    t = int(math.floor(lam * lam))
    while math.sqrt(t + 1) <= lam:
        t += 1
    while t >= 0 and math.sqrt(t) > lam:
        t -= 1
    return t


class TestCutoffGate:
    def test_r2max_matches_the_stepping_search(self):
        rng = np.random.default_rng(8)
        roots = np.sqrt(rng.integers(0, 10**14, 500).astype(float))
        lams = np.concatenate([
            rng.uniform(0.0, 1e7, 500),
            np.exp(rng.uniform(-20.0, math.log(1e7), 500)),
            roots, np.nextafter(roots, 0.0), np.nextafter(roots, math.inf),
            [0.0, 1.0, 1e-300, -1.0, -math.inf],
        ])
        for lam in lams.tolist():
            assert _r2max(lam) == stepping_r2max(lam), lam

    def test_r2max_returns_at_large_cutoffs(self):
        start = time.perf_counter()
        t = _r2max(1e12)
        assert time.perf_counter() - start < 1.0
        assert math.sqrt(t) <= 1e12 < math.sqrt(t + 1)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, 1e155, 1e300])
    def test_r2max_names_an_unusable_cutoff(self, lam):
        with pytest.raises(ValueError, match=re.escape(f"cutoff {lam!r}")):
            _r2max(lam)

    def test_sphere_degree_is_exact(self, monkeypatch):
        # _lmax(cutoff) reads r2 = _r2max(cutoff): hand it every r2 < 10^6
        monkeypatch.setattr(spaces, "_r2max", int)
        s, l = Sphere2(), np.arange(1001)
        want = np.searchsorted(l * (l + 1), np.arange(10**6), side="right") - 1
        assert [s._lmax(r2) for r2 in range(10**6)] == want.tolist()
        assert s._lmax(-1) == -1
        # once 4 r2 + 1 passes 2^53 a float square root no longer separates
        # l(l+1) - 1 from l(l+1)
        for l in [10**7 + 3, 10**9 + 7, 2**40 + 5, 10**15 + 1]:
            assert (s._lmax(l * (l + 1) - 1), s._lmax(l * (l + 1))) == (l - 1, l)


class TestEvaluation:
    def test_torus_constant_mode(self):
        t = Torus(1)
        el = t.enumerate_basis(0.0)[0]
        v = t.evaluate(el, [1.234])
        assert v == pytest.approx((TWO_PI) ** -0.5)
        assert abs(v - 0.398942) < 1e-6

    def test_sphere_constant(self):
        s = Sphere2()
        el = s.enumerate_basis(0.0)[0]
        assert s.evaluate(el, [0.7, 2.1]) == pytest.approx((4 * math.pi) ** -0.5)
        assert abs(s.evaluate(el, [0.7, 2.1]) - 0.282095) < 1e-6

    def test_sphere_y10_explicit(self):
        # recurrence value against the closed form sqrt(3/4pi) cos(theta)
        s = Sphere2()
        el = s._element((1, 0))
        for theta in [0.0, 0.4, 1.5, 3.0]:
            assert s.evaluate(el, [theta, 0.3]) == pytest.approx(
                math.sqrt(3 / (4 * math.pi)) * math.cos(theta)
            )

    @pytest.mark.parametrize("theta", [-0.1, math.pi + 1e-9, math.nan])
    @pytest.mark.parametrize("kind", ["sphere2", "product(torus:d=1,sphere2)"])
    def test_colatitude_outside_0_pi_is_refused(self, kind, theta):
        space = parse_space(kind)
        point = [0.5] * (space.coord_dim - 2) + [theta, 1.0]
        message = re.escape(f"point ({theta!r}, 1.0) is not a point of sphere2: "
                            "its colatitude must lie in [0, pi]")
        full = parse_region(space, "full")
        for call in (lambda: space.basis_matrix(space.first_elements(4), [point]),
                     lambda: full.contains_mask(np.array([point])),
                     lambda: full.contains(point)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("kind,point,named", [
        ("torus:d=2", [0.5, math.nan], "point (0.5, nan) is not a point of torus:d=2"),
        ("sphere2", [1.0, math.nan], "point (1.0, nan) is not a point of sphere2"),
        ("sphere2", [1.0, math.inf], "point (1.0, inf) is not a point of sphere2"),
        ("zn:N=4,d=2", [1.0, -math.inf], "point (1.0, -inf) is not a point of zn:N=4,d=2"),
        ("product(torus:d=1,sphere2)", [math.inf, 1.0, 0.5],
         "point (inf,) is not a point of torus:d=1"),
    ])
    def test_non_finite_coordinates_are_refused(self, kind, point, named):
        space = parse_space(kind)
        full = parse_region(space, "full")
        for call in (lambda: space.basis_matrix(space.first_elements(4), [point]),
                     lambda: full.contains(point)):
            with pytest.raises(ValueError, match=re.escape(named) + ".*must be finite"):
                call()

    def test_sphere_against_scipy(self):
        s = Sphere2()
        rng = np.random.default_rng(42)
        pts = s.sample_points(40, rng)
        for l in range(11):
            for m in range(-l, l + 1):
                mine = s.values(s._element((l, m)), pts)
                ref = sph_harm_y(l, m, pts[:, 0], pts[:, 1])
                assert np.abs(mine - ref).max() < 1e-12

    def test_sphere_peak_squares_bound_the_harmonics(self):
        # addition theorem: 4 pi |Y_l^m|^2 <= 2l + 1, attained at the pole by m = 0
        s = Sphere2()
        theta = np.linspace(0.0, math.pi, 20001)
        elements = s.first_elements(121)  # l <= 10
        peaks = s._peak_squares(s._label_array(elements))
        for el, peak in zip(elements, peaks):
            l, m = el.label
            assert peak == 2 * l + 1
            sup = 4 * math.pi * float(np.max(np.abs(sph_harm_y(l, m, theta, 0.0)) ** 2))
            assert sup <= peak * (1 + 1e-12)
            if m == 0:
                pole = 4 * math.pi * abs(sph_harm_y(l, 0, 0.0, 0.0)) ** 2
                assert pole == pytest.approx(peak, rel=1e-12, abs=0)

    def test_character_and_product_peak_squares(self):
        for space in (Torus(2), FiniteGroup(8, 2)):
            assert space._peak_squares(space._label_array(space.first_elements(9))).tolist() \
                == [1.0] * 9
        for first, second in [(Torus(1), Sphere2()), (Sphere2(), Sphere2()),
                              (Sphere2(), FiniteGroup(4, 1))]:
            p = ProductSpace(first, second)
            labels = p._label_array(p.first_elements(40))
            a = first.dim
            assert np.array_equal(p._peak_squares(labels),
                                  first._peak_squares(labels[:, :a])
                                  * second._peak_squares(labels[:, a:]))
        p = ProductSpace(Sphere2(), Sphere2())
        assert p._peak_squares(np.array([[2, 0, 3, 1]])).tolist() == [35.0]

    def test_sphere_high_degree_stable(self):
        # normalized ascending recurrence must not overflow at large degree
        s = Sphere2()
        v = s.values(s._element((200, 150)), np.array([[1.1, 0.2]]))
        assert np.isfinite(v).all()
        assert np.abs(v) < 1e3

    def test_group_character(self):
        g = FiniteGroup(8, 1)
        el = g._element((3,))
        x = np.array([[5.0]])
        expected = 8**-0.5 * np.exp(2j * math.pi * 3 * 5 / 8)
        assert g.values(el, x)[0] == pytest.approx(expected)

    def test_group_refuses_points_off_the_group(self):
        # evaluation and membership read points by one rule: set:{0} does not
        # round 0.4 into itself
        g = FiniteGroup(4, 1)
        el = [g._element((1,))]
        members = parse_region(g, "set:{0}")
        for bad in [0.4, 0.5, -1.25, math.nan, math.inf]:
            for refuse in [lambda pts: g.basis_matrix(el, pts), g.flat_index,
                           members.contains_mask, members.complement().contains_mask,
                           lambda pts: members.contains(pts[1])]:
                with pytest.raises(ValueError, match=re.escape(f"point ({bad},) is not a point "
                                                               f"of zn:N=4,d=1")):
                    refuse([[0.0], [bad]])
        # integer coordinates reduce mod N, exactly past int64: 2^63 = 2 mod 3
        assert np.array_equal(g.basis_matrix(el, [[-3.0], [5.0]]),
                              g.basis_matrix(el, [[1.0], [1.0]]))
        assert members.contains_mask([[0.0], [4.0], [-4.0], [1.0]]).tolist() == [
            True, True, True, False]
        huge = [[2.0**63], [-(2.0**63)], [1e300]]
        assert FiniteGroup(3, 1).flat_index(huge).tolist() == [2, 1, 0]
        p = ProductSpace(Torus(1), g)
        for refuse in [lambda pts: p.basis_matrix(p.first_elements(2), pts),
                       parse_region(p, "product(full,set:{0})").contains_mask]:
            with pytest.raises(ValueError, match=re.escape("point (2.5,) is not a point of "
                                                           "zn:N=4")):
                refuse([[0.3, 2.5]])

    def test_label_mismatch_rejected(self):
        t2 = Torus(2)
        t3 = Torus(3)
        s = Sphere2()
        with pytest.raises(ValueError):
            t2.basis_matrix([t3._element((1, 0, 3))], np.zeros((1, 2)))
        with pytest.raises(ValueError):
            s.basis_matrix([t3._element((1, 0, 3))], np.zeros((1, 2)))
        with pytest.raises(ValueError):
            s._element((1, 2))  # |m| > l
        # non-integer labels are not eigenfunction labels, whatever the kernel
        g = FiniteGroup(8, 1)
        p = ProductSpace(Torus(1), Sphere2())
        bad = [(Torus(1), (0.5,)), (Torus(1), (1.0,)), (t2, (1,)), (t2, (1, 2, 3)),
               (t2, 3), (s, (1.5, 0)), (s, (1, 0.0)), (s, (2, -3)), (s, (-1, 0)),
               (g, (0.5,)), (g, (1, 1)), (p, ((0,), (1, 0, 0))), (p, ((0.5,), (1, 0))),
               (p, ((0,), (1, 2))), (p, (0, (1, 0)))]
        for space, label in bad:
            for rebuild in [lambda: space._element(label),
                            lambda: space.basis_matrix([BasisElement(0, label, 0.0, ())],
                                                       np.zeros((1, space.coord_dim)))]:
                # the message names the space, or the factor that refuses
                with pytest.raises(ValueError, match=r"inconsistent with ") as err:
                    rebuild()
                assert str(err.value).split("inconsistent with ")[1] in space.kind
        # group labels are residues mod N
        assert g._element((-1,)) == g._element((7,)) == BasisElement(-1, (7,), 1.0, (-1.0,))
        assert p._element(((np.int64(-2),), (3, np.int64(1)))).label == ((-2,), (3, 1))

    def test_point_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Torus(2).basis_matrix([Torus(2)._element((1, 0))], np.zeros((3, 1)))


class TestKernelOracles:
    """Basis matrices against independent closed forms, at points off every
    quadrature grid and with elements in no particular order."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_torus_exponentials(self, d):
        t = Torus(d)
        rng = np.random.default_rng(d)
        els = list(t.enumerate_basis(6.0))
        rng.shuffle(els)
        pts = t.sample_points(50, rng)
        v = t.basis_matrix(els, pts)
        m = np.array([el.label for el in els], dtype=float)
        phase = sum(pts[:, k, None] * m[None, :, k] for k in range(d))
        ref = np.exp(1j * phase) / TWO_PI ** (d / 2)
        assert np.abs(v - ref).max() < 1e-14

    def test_sphere_shuffled_mixed_sign_duplicates(self):
        s = Sphere2()
        rng = np.random.default_rng(7)
        labels = [(l, m) for l in range(13) for m in range(-l, l + 1)]
        labels += [labels[i] for i in rng.choice(len(labels), 30)]  # duplicates
        rng.shuffle(labels)
        pts = s.sample_points(60, rng)
        v = s.basis_matrix([s._element(lab) for lab in labels], pts)
        for col, (l, m) in enumerate(labels):
            ref = sph_harm_y(l, m, pts[:, 0], pts[:, 1])
            assert np.abs(v[:, col] - ref).max() < 1e-12

    def test_product_is_the_tensor_product(self):
        p = ProductSpace(Torus(1), Sphere2())
        rng = np.random.default_rng(3)
        els = list(p.enumerate_basis(4.0))
        els += [els[i] for i in rng.choice(len(els), 10)]
        rng.shuffle(els)
        pts = p.sample_points(40, rng)
        v = p.basis_matrix(els, pts)
        for col, el in enumerate(els):
            ea, eb = p.first._element(el.label[0]), p.second._element(el.label[1])
            ref = p.first.values(ea, pts[:, :1]) * p.second.values(eb, pts[:, 1:])
            assert np.array_equal(v[:, col], ref)

    def test_empty_element_list(self):
        for space in [Torus(2), Sphere2(), ProductSpace(Torus(1), Sphere2())]:
            pts = space.sample_points(5, np.random.default_rng(0))
            assert space.basis_matrix([], pts).shape == (5, 0)

    @pytest.mark.parametrize("d,radius", [(1, 40), (2, 40), (3, 5)])
    def test_torus_on_grid_nodes(self, d, radius):
        # repeated coordinates, and |m_k| up to the radius on every axis
        t = Torus(d)
        rng = np.random.default_rng(d)
        labels = [m for m in itertools.product(range(-radius, radius + 1), repeat=d)
                  if max(map(abs, m)) in (0, 1, radius) or rng.random() < 0.02]
        rng.shuffle(labels)
        pts = t.build_quadrature(radius).nodes
        v = t.basis_matrix([t._element(m) for m in labels], pts)
        phase = pts @ np.array(labels, dtype=float).T
        assert np.abs(v - np.exp(1j * phase) / TWO_PI ** (d / 2)).max() < 1e-14

    def test_sphere_on_grid_nodes(self):
        # every degree up to 40, on rings that repeat each colatitude and longitude
        s = Sphere2()
        rng = np.random.default_rng(40)
        labels = [(l, m) for l in range(41) for m in range(-l, l + 1)
                  if l <= 6 or abs(m) in (0, 1, l) or rng.random() < 0.05]
        rng.shuffle(labels)
        pts = s.build_quadrature(math.sqrt(40 * 41)).nodes
        v = s.basis_matrix([s._element(lab) for lab in labels], pts)
        l, m = np.array(labels).T
        ref = sph_harm_y(l[None, :], m[None, :], pts[:, :1], pts[:, 1:])
        assert np.abs(v - ref).max() < 1e-12

    @pytest.mark.parametrize("order,dim", [(4096, 1), (97, 2), (64, 2)])
    def test_group_characters_at_large_exponents(self, order, dim):
        # <k, x> reaches dim (N - 1)^2; its residue mod N, taken in integers,
        # keeps the angle below 2 pi
        g = FiniteGroup(order, dim)
        rng = np.random.default_rng(order)
        labels = rng.integers(0, order, size=(60, dim))
        pts = g.sample_points(50, rng)
        v = g.basis_matrix([g._element(tuple(k)) for k in labels.tolist()], pts)
        residue = (pts.astype(np.int64) @ labels.T) % order
        ref = np.exp(2j * math.pi * residue / order) * order ** (-dim / 2)
        assert np.abs(v - ref).max() < 1e-15


class TestDistinctCoordinateTables:
    """Each kernel tables its factors on the distinct coordinates of the points
    it is given, so a batch must not depend on what else is in it."""

    @staticmethod
    def _labels(space, rng):
        # shuffled, with duplicates and negative m
        els = list(space.enumerate_basis(4.0))
        els += [els[i] for i in rng.choice(len(els), 8)]
        rng.shuffle(els)
        return els

    @pytest.mark.parametrize("space", [Torus(1), Torus(2), Torus(3), Sphere2(),
                                       ProductSpace(Torus(1), Sphere2())], ids=repr)
    def test_batch_equals_one_point_at_a_time(self, space):
        rng = np.random.default_rng(5)
        els = self._labels(space, rng)
        assert space._label_array(els).min() < 0
        grid = space.build_quadrature(3.0).nodes
        for pts in [grid, space.sample_points(40, rng), space.extreme_points(),
                    np.concatenate([grid[::5], space.extreme_points(), grid[:7]])]:
            v = space.basis_matrix(els, pts)
            single = np.concatenate([space.basis_matrix(els, pts[i:i + 1])
                                     for i in range(len(pts))])
            assert np.array_equal(v, single)
            columns = np.stack([space.values(el, pts) for el in els], axis=1)
            assert np.array_equal(v, columns)

    @pytest.mark.parametrize("space,cutoff,grid", [
        (Torus(2), 5.0, False), (Torus(2), 5.0, True), (Sphere2(), 10.5, False),
        (Sphere2(), 10.5, True)], ids=["torus-random", "torus-grid", "sphere-random",
                                       "sphere-grid"])
    def test_transient_memory_per_cell(self, space, cutoff, grid):
        # 16 bytes a cell hold the matrix; the tables and the block gathers stay
        # within the 8 more that the dense phase array took
        els = space.enumerate_basis(cutoff)
        pts = (space.build_quadrature(cutoff, oversample=8).nodes if grid
               else space.sample_points(20000, np.random.default_rng(1)))
        tracemalloc.start()
        try:
            v = space.basis_matrix(els, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * v.size

    def test_lone_high_degree_gathers_in_small_blocks(self):
        # Y_150^0 on 20000 points: the recurrence's 151 rows dominate, and the
        # gathers from them stay within a block of 2^14 cells; the 2 MiB over
        # it are the matrix, the phase table and the per-point index arrays
        s = Sphere2()
        pts = s.sample_points(20000, np.random.default_rng(2))
        tracemalloc.start()
        try:
            s.basis_matrix([s._element((150, 0))], pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 151 * 20000 * 8 + 2**21

    def test_legendre_table_is_sized_before_it_is_allocated(self, monkeypatch):
        # a lone Y_150^0 at 10^4 points: a 160 kB basis matrix, but its
        # recurrence holds 151 degrees at each of 10^4 colatitudes
        monkeypatch.setattr(spaces, "MAX_BASIS_BYTES", 2**20)
        s = Sphere2()
        pts = s.sample_points(10**4, np.random.default_rng(0))
        with pytest.raises(SpeconError, match=r"Legendre table on sphere2 of 151 degrees x "
                                              r"10,000 colatitudes needs 12,080,000 bytes"):
            s.basis_matrix([s._element((150, 0))], pts)
        assert s.basis_matrix([s._element((150, 150))], pts).shape == (10**4, 1)

    def test_phase_table_is_sized_before_it_is_allocated(self, monkeypatch):
        # 65 nonnegative frequencies at 1000 distinct points: the table is as
        # wide as the basis matrix and holds its phases too
        monkeypatch.setattr(spaces, "MAX_BASIS_BYTES", 1_250_000)
        t = Torus(1)
        pts = t.sample_points(1000, np.random.default_rng(0))
        with pytest.raises(SpeconError, match=r"phase table on torus:d=1 of 1,000 "
                                              r"coordinates x 65 frequencies needs 1,560,000"):
            t.basis_matrix([t._element((k,)) for k in range(65)], pts)
        assert t.basis_matrix([t._element((k,)) for k in range(-32, 33)], pts).shape \
            == (1000, 65)


def dense_summed_squares(space, elements, points):
    """The oracle: row sums of |basis_matrix|^2."""
    return np.sum(np.abs(space.basis_matrix(elements, points)) ** 2, axis=1)


class TestSummedSquares:
    @pytest.mark.parametrize("kind,cutoff", [
        ("torus:d=1", 7.0), ("torus:d=2", 3.0), ("torus:d=3", 2.0), ("zn:N=8,d=2", 3.0),
        ("product(torus:d=1,sphere2)", 3.0),
    ])
    def test_off_the_sphere_it_is_the_dense_row_sum(self, kind, cutoff):
        space = parse_space(kind)
        els = space.enumerate_basis(cutoff)
        pts = np.concatenate([space.build_quadrature(cutoff, oversample=2).nodes,
                              space.sample_points(50, np.random.default_rng(4))])
        for chosen in (els, els[1::3], []):
            assert np.array_equal(space.summed_squares(chosen, pts),
                                  dense_summed_squares(space, chosen, pts))

    @pytest.mark.parametrize("cutoff", [0.0, 3.0, 12.0, 20.0])
    def test_sphere_matches_the_dense_row_sum(self, cutoff):
        s = Sphere2()
        els = s.enumerate_basis(cutoff)
        poles = np.array([[0.0, 0.7], [math.pi, 2.0]])
        for pts in (s.build_quadrature(cutoff, oversample=2).nodes, poles,
                    s.sample_points(300, np.random.default_rng(5))):
            for chosen in (els, els[::3], els[len(els) // 2:]):
                want = dense_summed_squares(s, chosen, pts)
                got = s.summed_squares(chosen, pts)
                assert got.shape == want.shape == (len(pts),)
                assert np.all(np.abs(got - want) <= 1e-13 * want)
        # at the poles only m = 0 survives, at |Y_l^0|^2 = (2l+1)/4 pi each
        lmax = s._lmax(cutoff)
        assert s.summed_squares(els, poles) == pytest.approx(
            [(lmax + 1) ** 2 / (4 * math.pi)] * 2, rel=1e-13)

    def test_sphere_with_no_elements_is_zero(self):
        s = Sphere2()
        pts = s.sample_points(7, np.random.default_rng(6))
        assert np.array_equal(s.summed_squares([], pts), np.zeros(7))
        assert np.array_equal(s.summed_squares([], pts), dense_summed_squares(s, [], pts))

    @pytest.mark.parametrize("point,named", [
        ([4.0, 0.5], "point (4.0, 0.5) is not a point of sphere2: its colatitude must lie "
                     "in [0, pi]"),
        ([1.0, math.nan], "point (1.0, nan) is not a point of sphere2: its coordinates must "
                          "be finite"),
    ])
    def test_sphere_refuses_a_point_by_name(self, point, named):
        s = Sphere2()
        with pytest.raises(ValueError, match=re.escape(named)):
            s.summed_squares(s.first_elements(4), [[0.5, 0.5], point])


class TestFlatIndex:
    @pytest.mark.parametrize("order,dim", [(5, 1), (4, 2), (3, 3)])
    def test_order_of_points_and_fourier(self, order, dim):
        g = FiniteGroup(order, dim)
        pts = g.points()
        assert g.flat_index(pts).tolist() == list(range(order**dim))
        assert g.flat_index(pts + order * np.arange(-1, dim - 1)).tolist() == \
            list(range(order**dim))
        # the transform of a character chi_k peaks at position flat_index(k)
        for k in pts[[1, -1]]:
            el = g._element(tuple(int(c) for c in k))
            peak = np.argmax(np.abs(g.fourier(g.values(el, pts))))
            assert peak == g.flat_index(k)[0]


class TestSizeGuard:
    def test_check_points_refuses_oversized_matrix(self):
        t = Torus(1)
        most = MAX_BASIS_BYTES // 16
        pts = np.zeros((1, 1))
        assert t._check_points(pts, most).shape == (1, 1)
        with pytest.raises(SpeconError, match=rf"1 nodes x {most + 1} elements needs "
                                              rf"{16 * (most + 1):,} bytes.*cutoff.*oversample"
                                              rf".*spectrum"):
            t._check_points(pts, most + 1)

    def test_raw_group_samples_need_no_character_matrix(self):
        # a delta on Z_256^2: all of its mass sits on E = {0}, and its
        # 65536 coefficients have equal modulus, one of them in X_S = {0};
        # the dense character matrix here would need 64 GiB
        g = FiniteGroup(256, 2)
        quad = g.build_quadrature()
        f = np.zeros(quad.nodes.shape[0], dtype=complex)
        f[0] = 1.0
        levels = concentration_levels(f, parse_region(g, "set:{(0,0)}"),
                                      SpectralSet(g, [0.0]), quad)
        assert levels.epsilon == 0.0
        assert levels.epsilon_prime == pytest.approx(math.sqrt(1 - 1 / 65536), rel=1e-15)


class TestQuadrature:
    def test_torus_total_weight(self):
        for d in (1, 2):
            q = Torus(d).build_quadrature(3.0)
            assert q.total_weight == pytest.approx(TWO_PI**d, rel=1e-12)

    def test_sphere_total_weight(self):
        q = Sphere2().build_quadrature(5.0)
        assert q.total_weight == pytest.approx(4 * math.pi, rel=1e-12)

    def test_group_counting(self):
        q = FiniteGroup(8, 1).build_quadrature()
        assert q.nodes.shape[0] == 8
        assert np.all(q.weights == 1.0)

    @pytest.mark.parametrize("space,cutoff", [
        (Torus(1), 10.0),
        (Torus(2), 5.0),
        (Sphere2(), math.sqrt(8 * 9)),
        (FiniteGroup(8, 1), None),
        (ProductSpace(Torus(1), Sphere2()), 3.0),
    ])
    def test_gram_is_identity(self, space, cutoff):
        # round-trip property: quadrature inner products give Kronecker deltas
        cutoff = space.max_frequency() if cutoff is None else cutoff
        els = space.enumerate_basis(cutoff)
        q = space.build_quadrature(cutoff)
        v = space.basis_matrix(els, q.nodes)
        gram = (v.conj().T * q.weights) @ v
        assert np.abs(gram - np.eye(len(els))).max() < 1e-10

    @pytest.mark.parametrize("other", [Torus(1), Sphere2(), FiniteGroup(4, 1)])
    def test_a_group_factor_takes_the_other_factors_degree(self, other):
        # the sum over every point of a group integrates every product of characters
        g = FiniteGroup(8, 1)
        assert g.build_quadrature(3.0).exactness_degree == math.inf
        own = other.build_quadrature(3.0, oversample=2).exactness_degree
        for p in (ProductSpace(g, other), ProductSpace(other, g)):
            assert p.build_quadrature(3.0, oversample=2).exactness_degree == own

    def test_sphere_l8_gram_81_elements(self):
        s = Sphere2()
        els = s.enumerate_basis(math.sqrt(8 * 9))
        assert len(els) == 81
        q = s.build_quadrature(math.sqrt(8 * 9))
        v = s.basis_matrix(els, q.nodes)
        gram = (v.conj().T * q.weights) @ v
        assert np.abs(gram - np.eye(81)).max() < 1e-10

    @pytest.mark.parametrize("space", [Torus(1), Torus(2), ProductSpace(Torus(1), Sphere2()),
                                       Sphere2(), ProductSpace(Sphere2(), FiniteGroup(4, 1))],
                             ids=repr)
    @pytest.mark.parametrize("cutoff,named", [
        (-1.0, "cutoff must be nonnegative, got -1.0"), (-1e-300, "got -1e-300"),
        (math.nan, "cutoff must be finite, got nan")])
    def test_a_negative_or_unusable_cutoff_is_named(self, space, cutoff, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            space.build_quadrature(cutoff)

    def test_unit_norms(self):
        for space, cutoff in [(Torus(1), 4.0), (Sphere2(), 4.0), (FiniteGroup(6, 2), 2.0)]:
            q = space.build_quadrature(cutoff)
            for el in space.enumerate_basis(cutoff):
                norm = q.norm(space.values(el, q.nodes), 2)
                assert norm == pytest.approx(1.0, abs=1e-10)


class TestFiniteGroupTransforms:
    def test_inversion_round_trip(self):
        g = FiniteGroup(8, 2)
        rng = np.random.default_rng(0)
        f = rng.normal(size=64) + 1j * rng.normal(size=64)
        back = g.inverse_fourier(g.fourier(f))
        assert np.abs(back - f).max() < 1e-12

    def test_transform_matches_character_inner_products(self):
        # f_hat(k) = sqrt(N^d) <f, e_k> for the unit-normalized characters
        g = FiniteGroup(6, 1)
        rng = np.random.default_rng(1)
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        q = g.build_quadrature()
        els = [g._element((k,)) for k in range(6)]
        v = g.basis_matrix(els, q.nodes)
        coeffs = (v.conj().T * q.weights) @ f
        assert np.abs(g.fourier(f) - math.sqrt(6) * coeffs).max() < 1e-10


class TestProduct:
    def test_product_reproduces_torus_d2(self):
        p = ProductSpace(Torus(1), Torus(1))
        t2 = Torus(2)
        ep, et = p.enumerate_basis(3.0), t2.enumerate_basis(3.0)
        assert len(ep) == len(et)
        assert [e.frequency for e in ep] == [e.frequency for e in et]
        assert [e.joint for e in ep] == [e.joint for e in et]
        pts2 = np.array([[0.3, 1.1], [2.0, 4.4]])
        vp = p.basis_matrix(ep, pts2)
        vt = t2.basis_matrix(et, pts2)
        assert np.abs(vp - vt).max() < 1e-12

    def test_mixed_product(self):
        p = ProductSpace(Torus(1), Sphere2())
        assert p.dim == 3
        assert p.total_measure == pytest.approx(TWO_PI * 4 * math.pi)
        el = p.enumerate_basis(0.0)[0]
        assert p.evaluate(el, [0.1, 0.2, 0.3]) == pytest.approx(
            (TWO_PI * 4 * math.pi) ** -0.5
        )


class TestDescriptors:
    @pytest.mark.parametrize("text,kind", [
        ("torus:d=2", Torus),
        ("sphere2", Sphere2),
        ("zn:N=256,d=1", FiniteGroup),
        ("product(torus:d=1,sphere2)", ProductSpace),
        ("product(zn:N=4,d=1,sphere2)", ProductSpace),
        ("product(product(torus:d=1,torus:d=1),zn:N=4,d=2)", ProductSpace),
    ])
    def test_parse(self, text, kind):
        assert isinstance(parse_space(text), kind)

    @pytest.mark.parametrize("text", ["torus", "torus:d=x", "zn:N=8;d=1", "klein", "product(torus:d=1)"])
    def test_parse_errors(self, text):
        with pytest.raises(DescriptorError):
            parse_space(text)
