"""Descriptors parse back: every space kind, region descriptor and spectrum
descriptor the library emits rebuilds an equivalent object."""

import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specon import (
    BandUnion,
    BoxUnion,
    DescriptorError,
    FiniteGroup,
    FiniteSubset,
    ProductRegion,
    ProductSpace,
    SpectralSet,
    Sphere2,
    Torus,
    arc,
    cap,
    empty_region,
    full_region,
    parse_region,
    parse_space,
    parse_spectrum,
    spectrum_ball,
)
from specon.spaces import bracketed, descriptor_float, split_top

TWO_PI = 2 * math.pi


class TestSplitTop:
    def test_brackets_protect_separators(self):
        assert split_top("a,(b,c),{d,e},[f,(g,h)]", ",") == ["a", "(b,c)", "{d,e}", "[f,(g,h)]"]
        assert split_top("product(arc:0:1+arc:2:3,cap:1)+x", "+") == [
            "product(arc:0:1+arc:2:3,cap:1)", "x"]

    def test_no_separator(self):
        assert split_top("", ",") == [""]
        assert split_top("sphere2", ",") == ["sphere2"]

    @pytest.mark.parametrize("text,named", [
        ("(1,0", "unpaired '('"), ("1,0)", "unpaired ')'"), ("[(1,0]", "unpaired ']'"),
        ("{(0,1}", "unpaired '}'"), ("((1,0)", "unpaired '('"), ("(1,0))", "unpaired ')'"),
        ("product(torus:d=1,sphere2", "unpaired '('"), ("a)(b", "unpaired ')'"),
    ])
    def test_unpaired_bracket_is_named(self, text, named):
        with pytest.raises(ValueError, match=re.escape(f"{named} in {text!r}")):
            split_top(text, ",")

    def test_doubled_brackets_pair_and_are_no_tuple_item(self):
        assert split_top("[((1,0))],x", ",") == ["[((1,0))]", "x"]
        assert bracketed("((1,0))") == ["(1,0)"]
        with pytest.raises(DescriptorError, match="could not convert"):
            parse_spectrum(Torus(2), "joint:[((1,0))]")
        with pytest.raises(DescriptorError, match="invalid literal"):
            parse_region(FiniteGroup(4, 2), "set:{((0,1))}")

    def test_tuple_rule(self):
        # a tuple may end in one comma; a joint value must be a tuple
        assert bracketed("(0,)") == ["0"] and bracketed("(0, 1,)") == ["0", " 1"]
        with pytest.raises(ValueError, match="empty item"):
            bracketed("(0,,)")
        with pytest.raises(ValueError, match="empty item"):
            bracketed("[0,]", "[]")
        with pytest.raises(DescriptorError, match=re.escape("'1' must look like (...)")):
            parse_spectrum(Torus(1), "joint:[1,0]")


class TestRegressions:
    def test_group_factor_first(self):
        space = ProductSpace(FiniteGroup(4), Sphere2())
        assert space.kind == "product(zn:N=4,d=1,sphere2)"
        parsed = parse_space(space.kind)
        assert parsed.kind == space.kind
        assert isinstance(parsed.first, FiniteGroup) and parsed.first.order == 4

    def test_set_inside_product_region(self):
        space = ProductSpace(FiniteGroup(4), Sphere2())
        r = parse_region(space, "product(set:{0,1},cap:1)")
        assert r.first.elements == {(0,), (1,)}
        assert r.measure == pytest.approx(2 * TWO_PI * (1 - math.cos(1.0)), rel=1e-14)

    def test_union_inside_product_region(self):
        space = ProductSpace(Torus(1), Sphere2())
        emitted = ProductRegion(space, parse_region(space.first, "arc:0:1+arc:2:3"),
                                cap(space.second, 1.0))
        assert emitted.descriptor == "product(arc:0:1+arc:2:3,cap:1)"
        parsed = parse_region(space, emitted.descriptor)
        assert parsed.measure == emitted.measure
        assert parsed.measure == pytest.approx(2 * TWO_PI * (1 - math.cos(1.0)), rel=1e-14)

    def test_product_region_needs_product_space(self):
        with pytest.raises(DescriptorError, match="product spaces"):
            parse_region(Torus(1), "product(arc:0:1,arc:0:2)")

    def test_complement_of_full_parses_back(self):
        for space in (Torus(2), Sphere2()):
            empty = full_region(space).complement()
            assert empty.descriptor == "empty"
            assert parse_region(space, empty.descriptor).measure == 0.0


class TestSpectrumAliases:
    @pytest.mark.parametrize("space,text,canonical", [
        (Sphere2(), "level:ℓ=3", "level:l=3"),
        (Sphere2(), "level:l=3", "level:l=3"),
        (Sphere2(), "level:3", "level:l=3"),
        (Torus(2), "ball:λ≤5", "ball:5"),
        (Torus(2), "ball:lambda<=5", "ball:5"),
        (Torus(2), "ball:5", "ball:5"),
    ])
    def test_alias_opens_a_level_or_ball_body(self, space, text, canonical):
        sset = parse_spectrum(space, text)
        assert sset.descriptor == canonical
        assert sset.indices == parse_spectrum(space, canonical).indices

    @pytest.mark.parametrize("space,text,named", [
        (Torus(1), "list:[λ≤1]", "'λ≤1'"),
        (Torus(1), "list:[lambda<=1]", "'lambda<=1'"),
        (Torus(2), "joint:[(lambda<=1,0)]", "'lambda<=1'"),
        (Torus(2), "joint:[(λ≤1,0)]", "'λ≤1'"),
        (Sphere2(), "list:[ℓ=1]", "'ℓ=1'"),
        (Sphere2(), "level:λ≤3", "'λ≤3'"),
        (Torus(2), "ball:ℓ=5", "'ℓ=5'"),
        (Torus(2), "ball:5λ≤", "'5λ≤'"),
    ])
    def test_alias_elsewhere_is_refused_by_name(self, space, text, named):
        with pytest.raises(DescriptorError, match=re.escape(named)) as info:
            parse_spectrum(space, text)
        assert text in str(info.value)


# -- round-trip properties ------------------------------------------------------

LEAF_SPACES = st.one_of(
    st.integers(1, 2).map(Torus),
    st.builds(Sphere2),
    st.builds(FiniteGroup, st.integers(2, 5), st.integers(1, 2)),
)
SPACES = st.recursive(LEAF_SPACES, lambda inner: st.builds(ProductSpace, inner, inner),
                      max_leaves=3)


def _intervals(top_eighths):
    """Intervals with ends on multiples of 1/8: exact in the 12-digit
    descriptors and never on a quadrature node."""
    ends = st.tuples(st.integers(0, top_eighths), st.integers(0, top_eighths))
    return ends.map(lambda ab: (min(ab) / 8, max(ab) / 8))


def regions(space):
    """Regions of every constructor family on ``space``, unions included."""
    if isinstance(space, Torus):
        box = st.lists(_intervals(50), min_size=space.dim, max_size=space.dim).map(tuple)
        shapes = st.lists(box, min_size=1, max_size=3).map(lambda bs: BoxUnion(space, bs))
        if space.dim == 1:
            shapes |= _intervals(50).map(lambda ab: arc(space, *ab))
    elif isinstance(space, Sphere2):
        shapes = st.one_of(
            st.lists(_intervals(25), min_size=1, max_size=3).map(lambda iv: BandUnion(space, iv)),
            st.integers(0, 25).map(lambda k: cap(space, k / 8)),
        )
    elif isinstance(space, FiniteGroup):
        point = st.tuples(*[st.integers(0, space.order - 1)] * space.dim)
        shapes = st.lists(point, max_size=6).map(lambda pts: FiniteSubset(space, pts))
    else:
        shapes = st.builds(ProductRegion, st.just(space), regions(space.first),
                           regions(space.second))
    return shapes | st.sampled_from([full_region, empty_region]).map(lambda make: make(space))


@settings(deadline=None)
@given(SPACES)
def test_space_kind_round_trip(space):
    assert parse_space(space.kind).kind == space.kind


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_region_descriptor_round_trip(data):
    space = data.draw(SPACES)
    region = data.draw(regions(space))
    parsed = parse_region(space, region.descriptor)
    assert parsed.measure == region.measure
    nodes = space.build_quadrature(2.0).nodes
    assert np.array_equal(parsed.contains_mask(nodes), region.contains_mask(nodes))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_spectrum_descriptor_round_trip(data):
    space = data.draw(SPACES)
    chosen = data.draw(st.lists(st.sampled_from(space.enumerate_basis(2.0)),
                                min_size=1, max_size=5))
    if data.draw(st.booleans()):
        sset = SpectralSet(space, [el.joint for el in chosen], joint=True)
        assert sset.descriptor.startswith("joint:[")
    else:
        sset = SpectralSet(space, [el.frequency for el in chosen])
        assert sset.descriptor.startswith("list:[")
    assert parse_spectrum(space, sset.descriptor).indices == sset.indices


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_deleting_any_bracket_is_refused(data):
    # from emitted space, region and spectrum descriptors: never parsed to another object
    space = data.draw(SPACES)
    chosen = data.draw(st.lists(st.sampled_from(space.enumerate_basis(2.0)),
                                min_size=1, max_size=3))
    spectra = [SpectralSet(space, [el.joint for el in chosen], joint=True),
               SpectralSet(space, [el.frequency for el in chosen])]
    emitted = [(space.kind, parse_space),
               (data.draw(regions(space)).descriptor, lambda text: parse_region(space, text))]
    emitted += [(sset.descriptor, lambda text: parse_spectrum(space, text)) for sset in spectra]
    for descriptor, parse in emitted:
        for i in (i for i, ch in enumerate(descriptor) if ch in "(){}[]"):
            with pytest.raises(DescriptorError):
                parse(descriptor[:i] + descriptor[i + 1:])


# -- exact floats in descriptors ------------------------------------------------


class TestExactFloats:
    def test_arc_to_pi_round_trips_exactly(self):
        t = Torus(1)
        r = arc(t, 0.0, math.pi)
        parsed = parse_region(t, r.descriptor)
        assert parsed.boxes == r.boxes
        assert parsed.measure == r.measure

    def test_cap_of_a_third_round_trips_exactly(self):
        s = Sphere2()
        r = cap(s, 1 / 3)
        parsed = parse_region(s, r.descriptor)
        assert parsed.intervals == r.intervals
        assert parsed.measure == r.measure

    def test_box_and_band_round_trip_exactly(self):
        t2, s = Torus(2), Sphere2()
        box = BoxUnion(t2, [((1 / 3, math.pi), (0.1, 2 / 3)), ((math.e, 5.0), (0.0, 1 / 7))])
        assert parse_region(t2, box.descriptor).boxes == box.boxes
        band = BandUnion(s, [(1 / 7, 1 / 3), (2.0, math.pi / 1.5)])
        assert parse_region(s, band.descriptor).intervals == band.intervals

    def test_spectra_round_trip_exactly(self):
        # to the same values and the same spectral index set
        t2, s = Torus(2), Sphere2()
        irrational = SpectralSet(t2, [math.sqrt(2), math.sqrt(5)])
        assert irrational.descriptor == "list:[1.4142135623730951,2.23606797749979]"
        for space, sset in [(t2, irrational),
                            (t2, SpectralSet(t2, [(1.0, 2.0), (0.0, -1.0)], joint=True)),
                            (t2, spectrum_ball(t2, math.sqrt(5))),
                            (s, SpectralSet(s, [math.sqrt(6), math.sqrt(12)])),
                            (s, SpectralSet(s, [(-1.0, 2.0), (3.0, 12.0)], joint=True))]:
            back = parse_spectrum(space, sset.descriptor)
            assert back.values == sset.values
            assert back.indices == sset.indices and sset.indices

    def test_short_descriptors_unchanged(self):
        t, s = Torus(1), Sphere2()
        assert cap(s, 1.5708).descriptor == "cap:1.5708"
        assert arc(t, 0, 2).descriptor == "arc:0:2"
        assert parse_region(t, "arc:0:3.14159").descriptor == "arc:0:3.14159"
        assert parse_region(Torus(2), "box:(0,1)x(0,2)").descriptor == "box:(0,1)x(0,2)"
        assert BandUnion(s, [(0.5, 1.2)]).descriptor == "band:0.5:1.2"
        assert spectrum_ball(t, 5).descriptor == "ball:5"


# a space of each descriptor kind in the README's table
README_SPACES = {"arc": "torus:d=1", "box": "torus:d=2", "cap": "sphere2", "band": "sphere2",
                 "full": "torus:d=1", "empty": "sphere2", "product": "product(torus:d=1,sphere2)",
                 "level": "sphere2", "ball": "torus:d=2", "list": "torus:d=2",
                 "joint": "torus:d=2"}


def test_readme_descriptor_examples_parse():
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md"),
              encoding="utf-8") as fh:
        rows = {m.group(1): re.findall(r"`([^`]+)`", m.group(2))
                for m in re.finditer(r"^\| (space|region|spectrum) \|(.*)\|$", fh.read(), re.M)}
    assert sorted(rows) == ["region", "space", "spectrum"]
    for text in rows["space"]:
        parse_space(text)
    kinds = set()
    # `+` names the union operator, not a region
    for text in [text for text in rows["region"] if text != "+"]:
        kinds.add(kind := text.split(":")[0].split("(")[0])
        if kind == "set":
            space = parse_space("zn:N=16,d=2" if "(" in text else "zn:N=16")
        else:
            space = parse_space(README_SPACES[kind])
        assert parse_region(space, text).measure >= 0
    for text in rows["spectrum"]:
        kinds.add(kind := text.split(":")[0])
        assert parse_spectrum(parse_space(README_SPACES[kind]), text).size > 0
    assert kinds == set(README_SPACES) | {"set"}


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_descriptor_float_is_exact(x):
    text = descriptor_float(x)
    back = float(text)
    assert back == x and math.copysign(1.0, back) == math.copysign(1.0, x)
    short = f"{x:.12g}"
    if float(short) == x:
        assert text == short


@settings(deadline=None)
@given(st.floats(0.0, TWO_PI), st.floats(0.0, TWO_PI), st.floats(0.0, math.pi))
def test_arc_and_cap_round_trip_exactly(a, b, theta):
    t, s = Torus(1), Sphere2()
    r = arc(t, min(a, b), max(a, b))
    assert parse_region(t, r.descriptor).boxes == r.boxes
    c = cap(s, theta)
    assert parse_region(s, c.descriptor).intervals == c.intervals
