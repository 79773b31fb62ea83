import itertools
import math
import re

import numpy as np
import pytest

from specon import (
    BandUnion,
    BoxUnion,
    DescriptorError,
    FiniteGroup,
    FiniteSubset,
    ProductRegion,
    ProductSpace,
    Sphere2,
    Torus,
    arc,
    cap,
    empty_region,
    full_region,
    parse_region,
)

TWO_PI = 2 * math.pi


class TestMeasure:
    def test_arc(self):
        assert arc(Torus(1), 0.0, math.pi).measure == pytest.approx(math.pi)

    def test_cap_hemisphere(self):
        assert cap(Sphere2(), math.pi / 2).measure == pytest.approx(TWO_PI)

    def test_cap_closed_form(self):
        for t0 in [0.1, 0.7853, 2.5]:
            assert cap(Sphere2(), t0).measure == pytest.approx(TWO_PI * (1 - math.cos(t0)))

    def test_finite_subset(self):
        assert FiniteSubset(FiniteGroup(12, 1), [0, 4, 8]).measure == 3.0

    def test_box(self):
        r = BoxUnion(Torus(2), [((0, 1), (0, 2))])
        assert r.measure == pytest.approx(2.0)

    def test_overlapping_union_additive(self):
        # overlap disjointified: 2x2 + 2x2 - 1x1 overlap
        r = BoxUnion(Torus(2), [((0, 2), (0, 2)), ((1, 3), (1, 3))])
        assert r.measure == pytest.approx(7.0)

    def test_band_union_merges(self):
        r = BandUnion(Sphere2(), [(0.2, 0.8), (0.5, 1.0)])
        assert r.measure == pytest.approx(TWO_PI * (math.cos(0.2) - math.cos(1.0)))

    def test_bounds(self):
        for space, region in [
            (Torus(1), arc(Torus(1), 0.3, 2.0)),
            (Sphere2(), cap(Sphere2(), 1.1)),
            (FiniteGroup(9, 1), FiniteSubset(FiniteGroup(9, 1), [1, 5])),
        ]:
            assert 0 <= region.measure <= space.total_measure


class TestContains:
    def test_arc_midpoint(self):
        assert arc(Torus(1), 0.0, math.pi).contains([math.pi / 2])

    def test_arc_boundary_inside(self):
        r = arc(Torus(1), 0.5, 1.5)
        assert r.contains([0.5]) and r.contains([1.5])
        assert not r.contains([1.5000001])

    def test_cap_excludes(self):
        assert not cap(Sphere2(), math.pi / 4).contains([math.pi / 3, 0.0])

    def test_group_membership(self):
        r = FiniteSubset(FiniteGroup(12, 1), [0, 4, 8])
        assert r.contains([4.0])
        assert not r.contains([5.0])
        # an element off the integers is refused, not truncated to one
        with pytest.raises(ValueError, match=re.escape("point (0.5,) is not a point of zn:N=4,d=1")):
            FiniteSubset(FiniteGroup(4), [0.5, 2.7])

    def test_wraparound_full_interval(self):
        r = arc(Torus(1), 0.0, TWO_PI)
        assert r.contains([0.0]) and r.contains([6.2])


class TestGroupMembership:
    @pytest.mark.parametrize("order,dim", [(7, 1), (5, 2), (4, 3)])
    def test_mask_matches_tuple_membership(self, order, dim):
        g = FiniteGroup(order, dim)
        rng = np.random.default_rng(dim)
        elements = rng.integers(-order, 2 * order, size=(order, dim))
        members = {tuple(int(c) % order for c in e) for e in elements}
        r = FiniteSubset(g, elements.tolist())
        # unreduced coordinates such as -1 and N + 2
        pts = rng.integers(-order - 2, 2 * order + 3, size=(300, dim)).astype(float)
        pts[0], pts[1] = -1.0, order + 2.0
        want = [tuple(int(c) % order for c in p) in members for p in pts]
        assert r.contains_mask(pts).tolist() == want
        assert r.contains_mask(pts).any() and not r.contains_mask(pts).all()

    @pytest.mark.parametrize("order,dim", [(12, 1), (6, 2), (4, 3)])
    def test_complement_matches_the_tuple_construction(self, order, dim):
        g = FiniteGroup(order, dim)
        pts = list(itertools.product(range(order), repeat=dim))
        rng = np.random.default_rng(order)
        for k in (0, 1, len(pts) // 3, len(pts)):
            r = FiniteSubset(g, [pts[i] for i in rng.choice(len(pts), size=k, replace=False)])
            rest = r.complement()
            kept = [p for p in pts if p not in r.elements]
            oracle = FiniteSubset(g, kept)
            assert rest.elements == oracle.elements == set(kept)
            assert rest.atoms == oracle.atoms and rest.measure == oracle.measure == len(kept)
            assert rest.descriptor == oracle.descriptor == "set:{" + ",".join(
                str(p[0]) if dim == 1 else "(" + ",".join(map(str, p)) + ")" for p in kept) + "}"
            nodes = g.points()
            assert rest.contains_mask(nodes).tolist() == oracle.contains_mask(nodes).tolist()
        full = full_region(g)
        assert full.descriptor == "full" and full.elements == set(pts)
        assert full.measure == len(pts) and full.contains_mask(g.points()).all()


class TestRegionFamilies:
    """``full``, ``empty`` and ``+`` unions build the same atoms on every
    family."""

    def test_full(self):
        assert full_region(Torus(2)).boxes == [((0.0, TWO_PI), (0.0, TWO_PI))]
        assert full_region(Sphere2()).intervals == [(0.0, math.pi)]
        assert full_region(FiniteGroup(3, 2)).elements == set(itertools.product(range(3), repeat=2))

    def test_empty(self):
        assert empty_region(Torus(2)).boxes == []
        assert empty_region(Sphere2()).intervals == []
        assert empty_region(FiniteGroup(3, 2)).elements == set()

    @pytest.mark.parametrize("space", [Torus(1), Sphere2(), FiniteGroup(4, 2),
                                       ProductSpace(FiniteGroup(4, 1), Sphere2())])
    def test_descriptors(self, space):
        assert full_region(space).descriptor == "full"
        assert empty_region(space).descriptor == "empty"
        assert empty_region(space).measure == 0.0
        assert full_region(space).measure == pytest.approx(space.total_measure, rel=1e-15)

    def test_products_factor_by_factor(self):
        p = ProductSpace(FiniteGroup(4, 1), Sphere2())
        full, empty = full_region(p), empty_region(p)
        assert isinstance(full, ProductRegion) and isinstance(empty, ProductRegion)
        assert full.first.elements == {(0,), (1,), (2,), (3,)}
        assert full.second.intervals == [(0.0, math.pi)]
        assert empty.first.elements == set() and empty.second.intervals == []
        assert (full.first.descriptor, empty.second.descriptor) == ("full", "empty")

    def test_unions(self):
        text = "arc:0:1+arc:0.5:2+empty"
        r = parse_region(Torus(1), text)
        assert r.boxes == [((0.0, 1.0),), ((0.5, 2.0),)] and r.descriptor == text
        r = parse_region(Torus(2), "box:(0,1)x(2,3)+full")
        assert r.boxes == [((0.0, 1.0), (2.0, 3.0)), ((0.0, TWO_PI), (0.0, TWO_PI))]
        r = parse_region(Sphere2(), "band:0.2:0.9+cap:0.5+band:2:3")
        assert r.intervals == [(0.0, 0.9), (2.0, 3.0)]
        r = parse_region(FiniteGroup(16, 1), "set:{0,1,3}+set:{-1,18}+empty")
        assert r.elements == {(0,), (1,), (2,), (3,), (15,)}
        assert parse_region(FiniteGroup(2, 1), "set:{1}+full").elements == {(0,), (1,)}

    def test_union_of_products_is_refused(self):
        p = ProductSpace(Torus(1), Sphere2())
        for text in ("product(arc:0:1,cap:1)+product(arc:2:3,cap:1)", "full+empty"):
            with pytest.raises(DescriptorError, match="unions of product regions are not supported"):
                parse_region(p, text)


class TestQuadratureMeasure:
    def test_full_space(self):
        for space in [Torus(2), Sphere2(), FiniteGroup(8, 1)]:
            cutoff = space.max_frequency() or 3.0
            q = space.build_quadrature(cutoff)
            assert full_region(space).quadrature_measure(q) == pytest.approx(
                space.total_measure, rel=1e-12
            )

    def test_arc_riemann_bound(self):
        t = Torus(1)
        q = t.build_quadrature(0, oversample=1000)  # 2000 nodes
        h = TWO_PI / q.nodes.shape[0]
        got = arc(t, 0.0, math.pi).quadrature_measure(q)
        assert abs(got - math.pi) <= 2 * h

    def test_empty(self):
        t = Torus(1)
        q = t.build_quadrature(2.0)
        assert empty_region(t).quadrature_measure(q) == 0.0
        assert empty_region(t).measure == 0.0


class TestInvariants:
    def test_monotone_nested_arcs(self):
        t = Torus(1)
        widths = [0.5, 1.0, 2.0, 4.0]
        measures = [arc(t, 0.0, w).measure for w in widths]
        assert measures == sorted(measures)

    def test_monotone_nested_caps(self):
        s = Sphere2()
        measures = [cap(s, t0).measure for t0 in [0.3, 0.8, 1.5, 2.9]]
        assert measures == sorted(measures)

    def test_complement_arc(self):
        r = arc(Torus(1), 0.7, 2.9)
        assert r.measure + r.complement().measure == pytest.approx(TWO_PI, abs=1e-12)

    def test_complement_cap_band(self):
        s = Sphere2()
        for r in [cap(s, 0.6), BandUnion(s, [(0.5, 1.2)])]:
            assert r.measure + r.complement().measure == pytest.approx(4 * math.pi, abs=1e-12)

    def test_complement_box_2d(self):
        r = BoxUnion(Torus(2), [((0, 1), (1, 3)), ((2, 4), (0, 2))])
        assert r.measure + r.complement().measure == pytest.approx(TWO_PI**2, abs=1e-10)

    def test_complement_subset(self):
        g = FiniteGroup(10, 1)
        r = FiniteSubset(g, [1, 2, 3])
        assert r.measure + r.complement().measure == 10.0


class TestProductRegions:
    def test_product(self):
        p = ProductSpace(Torus(1), Sphere2())
        r = ProductRegion(p, arc(p.first, 0, 1.0), cap(p.second, 0.5))
        assert r.measure == pytest.approx(1.0 * TWO_PI * (1 - math.cos(0.5)))
        assert r.contains([0.5, 0.2, 1.0])
        assert not r.contains([1.5, 0.2, 1.0])


class TestDescriptors:
    def test_parse_arc(self):
        r = parse_region(Torus(1), "arc:0:3.14159")
        assert r.measure == pytest.approx(3.14159)

    def test_parse_box(self):
        r = parse_region(Torus(2), "box:(0,1)x(0,2)")
        assert r.measure == pytest.approx(2.0)

    def test_parse_cap_band_set(self):
        assert parse_region(Sphere2(), "cap:0.7853").measure == pytest.approx(
            TWO_PI * (1 - math.cos(0.7853)))
        assert parse_region(Sphere2(), "band:0.5:1.2").measure == pytest.approx(
            TWO_PI * (math.cos(0.5) - math.cos(1.2)))
        assert parse_region(FiniteGroup(12, 1), "set:{0,4,8}").measure == 3.0

    def test_parse_set_tuples(self):
        r = parse_region(FiniteGroup(4, 2), "set:{(0,0),(1,2)}")
        assert r.measure == 2.0
        assert r.contains([1.0, 2.0])

    def test_parse_union(self):
        r = parse_region(Torus(1), "arc:0:1+arc:0.5:2")
        assert r.measure == pytest.approx(2.0)

    def test_parse_product(self):
        p = ProductSpace(Torus(1), Torus(1))
        r = parse_region(p, "product(arc:0:1,arc:0:2)")
        assert r.measure == pytest.approx(2.0)

    @pytest.mark.parametrize("text", ["arc:0", "cap:a", "blob:1", "set:{1,2", "box:(0,1)"])
    def test_parse_errors(self, text):
        space = FiniteGroup(8, 1) if text.startswith("set") else (
            Sphere2() if text.startswith("cap") else Torus(2))
        with pytest.raises(DescriptorError):
            parse_region(space, text)

    def test_parse_error_carries_token(self):
        with pytest.raises(DescriptorError) as err:
            parse_region(Torus(1), "arc:0:zebra")
        assert "arc:0:zebra" in str(err.value)
