"""The basis enumeration against an independent brute force over label boxes,
on random spaces and cutoffs, products and nested products included."""

import itertools
import json
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specon import (FiniteGroup, ProductSpace, SpectralSet, Sphere2, Torus, parse_space,
                    spectrum_ball, weyl_count)
from specon.cli import main
from specon.spaces import descriptor_float


def brute_force(space, cutoff):
    """(label, frequency, joint, eigenvalue) of every element with frequency
    <= cutoff, sorted by (eigenvalue, label), from loops over a box of labels.
    Eigenvalues are integers, a product's the sum of its factors', and a
    frequency is the square root of its eigenvalue."""
    if isinstance(space, Torus):
        r = int(cutoff)
        rows = [(m, sum(c * c for c in m), tuple(float(c) for c in m))
                for m in itertools.product(range(-r, r + 1), repeat=space.dim)]
    elif isinstance(space, Sphere2):
        rows = [((l, m), l * (l + 1), (float(m), float(l * (l + 1))))
                for l in range(int(cutoff) + 1) for m in range(-l, l + 1)]
    elif isinstance(space, FiniteGroup):
        n = space.order
        rows = []
        for k in itertools.product(range(n), repeat=space.dim):
            c = [ki if ki <= n // 2 else ki - n for ki in k]
            rows.append((k, sum(ci * ci for ci in c), tuple(float(ci) for ci in c)))
    else:
        rows = [((la, lb), ea + eb, ja + jb)
                for la, _, ja, ea in brute_force(space.first, cutoff)
                for lb, _, jb, eb in brute_force(space.second, cutoff)]
    rows = [(label, math.sqrt(e), joint, e) for label, e, joint in rows]
    return sorted((row for row in rows if row[1] <= cutoff), key=lambda row: (row[3], row[0]))


LEAVES = st.one_of(
    st.integers(1, 3).map(Torus),
    st.builds(Sphere2),
    st.builds(FiniteGroup, st.integers(2, 9), st.integers(1, 3)),
)
PAIRS = st.builds(ProductSpace, LEAVES, LEAVES)
SPACES = st.one_of(LEAVES, PAIRS, st.builds(ProductSpace, PAIRS, LEAVES),
                   st.builds(ProductSpace, LEAVES, PAIRS))
CUTOFFS = st.one_of(
    st.just(0.0),
    st.integers(1, 64).map(math.sqrt),        # exact square roots: sqrt(2), sqrt(5), ...
    st.just(7.0710678118654755),              # sqrt(50)
    st.floats(0.0, 8.0, allow_nan=False),
)


def _cap(space):
    """Largest cutoff that keeps the brute force over ``space`` small."""
    return {1: 8.0, 2: 8.0, 3: 5.0, 4: 5.0, 5: 3.2, 6: 3.2}.get(space.dim, 2.3)


@settings(deadline=None, max_examples=120)
@given(SPACES, CUTOFFS, st.data())
def test_enumeration_matches_brute_force(space, cutoff, data):
    assume(cutoff <= _cap(space))
    els = space.enumerate_basis(cutoff)
    want = brute_force(space, cutoff)
    assert len(els) == len(want)
    for j, (el, (label, freq, joint, _)) in enumerate(zip(els, want)):
        assert el.index == j
        assert el.label == label
        assert el.frequency == freq
        assert el.joint == joint

    # first_elements(n) is a prefix of the global enumeration
    n = data.draw(st.integers(1, len(els)))
    assert space.first_elements(n) == els[:n]

    # spectral index sets select exactly the brute-force classes of their values
    joint = data.draw(st.booleans())
    picked = data.draw(st.lists(st.sampled_from(want), min_size=1, max_size=4))
    key = 2 if joint else 1
    values = [row[key] for row in picked]
    sset = SpectralSet(space, values, joint=joint)
    ball = brute_force(space, sset.max_frequency)
    assert sset.indices == [j for j, row in enumerate(ball) if row[key] in values]

    # a value moved off its class, by one ulp or by 0.5, is refused by name
    move = data.draw(st.sampled_from([lambda c: math.nextafter(c, math.inf),
                                      lambda c: c + 0.5]))
    if joint:
        k = data.draw(st.integers(0, space.joint_dim - 1))
        moved = tuple(move(c) if i == k else c for i, c in enumerate(values[0]))
        text = "(" + ",".join(map(descriptor_float, moved)) + ")"
    else:
        moved = move(values[0])
        text = descriptor_float(moved)
    with pytest.raises(ValueError, match=re.escape(f"{text} is not in the spectrum of "
                                                   f"{space.kind}")):
        SpectralSet(space, values + [moved], joint=joint)


@pytest.mark.parametrize("space", [Torus(1), Torus(3), Sphere2(), FiniteGroup(6, 2),
                                   ProductSpace(Torus(1), Sphere2())])
def test_first_elements_is_a_prefix_of_a_larger_enumeration(space):
    big = space.enumerate_basis(9.0)
    for n in [0, 1, 2, 5, 17, len(big) // 2, len(big)]:
        assert space.first_elements(n) == big[:n]


def test_first_elements_beyond_a_finite_spectrum():
    with pytest.raises(ValueError, match="space has only 36 basis elements, 37 requested"):
        FiniteGroup(6, 2).first_elements(37)
    with pytest.raises(ValueError, match="space has only 144 basis elements, 145 requested"):
        ProductSpace(FiniteGroup(4), FiniteGroup(6, 2)).first_elements(145)


@pytest.mark.parametrize("space", [Torus(1), Sphere2(), FiniteGroup(6, 2)], ids=repr)
def test_elements_by_index(space):
    els = space.enumerate_basis(3.0)
    assert space.elements_by_index([]) == []
    assert space.elements_by_index([4, 0, 4]) == [els[4], els[0], els[4]]
    with pytest.raises(ValueError, match="element index -1 is negative"):
        space.elements_by_index([2, -1])


def test_a_finite_spectrum_takes_any_cutoff():
    # 1e10 squared is past int64: every element of a product of groups is below it
    space = ProductSpace(FiniteGroup(4), FiniteGroup(6, 2))
    assert len(space.enumerate_basis(1e10)) == space.count_upto(1e10) == 144


class TestProductTies:
    """On product(torus:d=1,sphere2) eleven elements share the eigenvalue
    6 = 2^2 + 1*2 = 0 + 2*3, so they share one frequency, sqrt(6); a float
    hypot of the factor frequencies gives two values a bit apart."""

    SPACE = "product(torus:d=1,sphere2)"

    def test_the_class_is_contiguous_with_one_frequency_in_label_order(self):
        els = parse_space(self.SPACE).enumerate_basis(2.5)
        six = [el for el in els if el.joint[0] ** 2 + el.joint[2] == 6]
        assert len(six) == 11
        assert [el.index for el in six] == list(range(six[0].index, six[0].index + 11))
        assert {el.frequency for el in six} == {math.sqrt(6)}
        assert [el.label for el in six] == sorted(el.label for el in six)

    @pytest.mark.parametrize("lam", [2.449489742783178, 2.4494897427831783])
    def test_counts_take_the_whole_class(self, lam):
        space = parse_space(self.SPACE)
        assert weyl_count(space, lam) == space.count_upto(lam) == 25

    def test_a_ball_lists_each_eigenvalue_once(self, capsys):
        assert len(spectrum_ball(parse_space(self.SPACE), 2.5).values) == 6
        code = main(["homogeneity", "--space", self.SPACE, "--spectrum", "ball:2.5"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 6
