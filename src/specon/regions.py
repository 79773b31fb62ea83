"""Measurable subsets with exact closed-form measure.

Regions are restricted to shapes whose measure is exact: unions of
axis-aligned boxes of arcs on tori, polar caps and latitude bands on the
sphere, explicit point subsets of finite groups, and products of the above.
Keeping the measure exact matters because every uncertainty inequality
multiplies by it; quadrature error is confined to the integrals over the
region, where it is reported separately.  Each family builds its own
concentration matrix (``_gram_blocks``): in closed form on torus boxes, on
the quadrature's rings for sphere bands, and by masked quadrature otherwise.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import CoarseQuadratureError, DescriptorError
from .spaces import (TWO_PI, FiniteGroup, ModelSpace, ProductSpace, Sphere2, Torus, _midpoints,
                     _RealForm, bracketed, descriptor_errors, descriptor_float, split_items,
                     split_product, split_top)

EXACTNESS_TOL = 1e-8


def _masked_gram(v: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """V^T diag(w) V over the first ``k`` rows of a real V (the nodes inside), as one
    symmetric rank-k product.  CoarseQuadratureError unless the Gram over every row is the
    identity within EXACTNESS_TOL, as a quadrature too coarse for the band leaves it."""
    inside, rest = [(u := v[s] * np.sqrt(w[s])[:, None]).T @ u for s in (slice(k), slice(k, None))]
    err = float(np.abs(inside + rest - np.eye(len(inside))).max(initial=0.0))
    if err > EXACTNESS_TOL:
        raise CoarseQuadratureError(f"quadrature is not exact on the requested band "
                                    f"(orthonormality defect {err:.3g} > {EXACTNESS_TOL:g})")
    return inside


class Region:
    """Base class: a subset of a model space with exact measure.  A region
    family of a plain space (see FAMILIES) is a union of ``atoms``: the boxes,
    intervals or elements it is built from."""

    space: ModelSpace
    descriptor: str

    @property
    def measure(self) -> float:
        raise NotImplementedError

    def contains_mask(self, points) -> np.ndarray:
        """Boolean membership for an (n, coord_dim) array; boundary points
        count as inside."""
        raise NotImplementedError

    def contains(self, point) -> bool:
        pts = self.space._check_points(np.asarray(point, float))
        return bool(self.contains_mask(pts)[0])

    def quadrature_measure(self, quad) -> float:
        """Sum of quadrature weights at nodes inside the region; a diagnostic
        against the exact measure."""
        return float(quad.weights[self.contains_mask(quad.nodes)].sum())

    def nodes_inside(self, quad) -> int:
        return int(self.contains_mask(quad.nodes).sum())

    def _gram_blocks(self, elements, quad, mask) -> list:
        """The concentration matrix's diagonal blocks, zero off them, as (positions in
        ``elements``, block, form): a block is the Gram over its elements when ``form`` is
        None, else the real symmetric Gram over the real basis of that _RealForm.  Each
        family builds its own; this default, by masked quadrature over the nodes in
        ``mask``, is one dense block over the real basis of the elements' conjugation
        closure, from one basis evaluation of its fixed points and representatives, and a
        set that is not closed comes back over its elements.  A path that integrates by
        quadrature checks it (_masked_gram)."""
        space, order = self.space, np.argsort(~mask, kind="stable")
        form = _RealForm(space, space._label_array(elements))
        v = space.basis_matrix([elements[j] for j in form.evaluated], quad.nodes[order])
        g = _masked_gram(v.view(float)[:, form.pick] * form.scale, quad.weights[order],
                         int(mask.sum()))
        cols = np.arange(len(elements))
        return [(cols, g, form) if form.closed else (cols, form.gram(g), None)]

    def complement(self) -> "Region":
        raise NotImplementedError(f"complement not defined for {type(self).__name__}")

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor!r} on {self.space.kind})"


def _disjoint_cells(boxes, lo, hi, dim):
    """Partition [lo, hi]^dim along all box edges; return the cells covered by
    at least one box and the cells covered by none.  Makes union measures
    additive regardless of overlap."""
    edges = [sorted({lo, hi, *(x for box in boxes for x in box[axis])}) for axis in range(dim)]
    covered, uncovered = [], []
    for cell in itertools.product(*[zip(e[:-1], e[1:]) for e in edges]):
        center = [0.5 * (a + b) for a, b in cell]
        if any(all(box[i][0] <= center[i] <= box[i][1] for i in range(dim)) for box in boxes):
            covered.append(tuple(cell))
        else:
            uncovered.append(tuple(cell))
    return covered, uncovered


class BoxUnion(Region):
    """Finite union of axis-aligned boxes of arcs on a torus.

    Each box is a tuple of per-axis intervals (a, b) with 0 <= a <= b <= 2 pi.
    Overlaps are disjointified internally, so the measure is additive.
    """

    def __init__(self, space: Torus, boxes, descriptor=None):
        if not isinstance(space, Torus):
            raise ValueError("BoxUnion regions live on tori")
        self.space = space
        norm = []
        for box in boxes:
            box = tuple((float(a), float(b)) for a, b in box)
            if len(box) != space.dim:
                raise ValueError(f"box needs {space.dim} intervals, got {len(box)}")
            for a, b in box:
                if not (0.0 <= a <= b <= TWO_PI + 1e-12):
                    raise ValueError(f"interval ({a}, {b}) must satisfy 0 <= a <= b <= 2*pi")
            norm.append(box)
        self.boxes = self.atoms = norm
        self._cells, self._gaps = _disjoint_cells(norm, 0.0, TWO_PI, space.dim)
        self.descriptor = descriptor or "+".join(
            "box:" + "x".join(f"({descriptor_float(a)},{descriptor_float(b)})" for a, b in box)
            for box in norm
        ) or "empty"

    @property
    def measure(self):
        return float(sum(math.prod(b - a for a, b in cell) for cell in self._cells))

    def contains_mask(self, points):
        pts = self.space._check_points(points) % TWO_PI
        mask = np.zeros(pts.shape[0], dtype=bool)
        for box in self.boxes:
            inside = np.ones(pts.shape[0], dtype=bool)
            for axis, (a, b) in enumerate(box):
                x = pts[:, axis]
                inside &= ((a <= x) & (x <= b)) | ((a <= x + TWO_PI) & (x + TWO_PI <= b))
            mask |= inside
        return mask

    def _gram_blocks(self, elements, quad, mask):
        """One block in closed form, with no quadrature: G_jk = int_E conj(e_j) e_k is the sum
        over the disjoint cells of the product over axes a of F_a[m_ja, m_ka], where F_a is
        (1/2 pi) int e^{i delta x} dx over the cell's interval, delta = m_ka - m_ja (Slepian's
        prolate matrix on one axis).  e^{imx} at the cell edges comes from one basis evaluation
        at points on the axes.  A set closed under conjugation comes back over its real basis."""
        space, labels, d = self.space, self.space._label_array(elements), self.space.dim
        cells = np.array(self._cells, dtype=float).reshape(-1, d, 2)
        # per axis the cells' edges, of which a cell's interval joins two consecutive ones
        edges = [np.unique(cells[:, a]) for a in range(d)]
        pts = np.concatenate([x[:, None] * np.eye(d)[a] for a, x in enumerate(edges)])
        values = np.split(space.basis_matrix(elements, pts) * TWO_PI ** (d / 2),
                          np.cumsum([len(x) for x in edges])[:-1])
        factors = []
        for x, v, m in zip(edges, values, labels.T):
            u, first, at = np.unique(m, return_index=True, return_inverse=True)
            e = v[:, first]                                          # e^{iux} at the edges
            rise = np.diff(e.conj()[:, :, None] * e[:, None, :], axis=0)
            delta = (u - u[:, None]).astype(float)
            f = np.empty_like(rise)
            f[:] = (np.diff(x) / TWO_PI)[:, None, None]
            np.divide(rise, 1j * TWO_PI * delta, out=f, where=delta != 0)
            factors.append(f[:, at[:, None], at])
        g = np.zeros((len(labels),) * 2, dtype=complex)
        for cell in zip(*(np.searchsorted(x, cells[:, a, 0]) for a, x in enumerate(edges))):
            g += math.prod(f[i] for f, i in zip(factors, cell))
        cols, form = np.arange(len(labels)), _RealForm(space, labels)
        return [(cols, form.real_gram(g), form) if form.closed else (cols, g, None)]

    def complement(self):
        return BoxUnion(self.space, self._gaps)


def arc(space: Torus, a: float, b: float) -> BoxUnion:
    """Arc [a, b] on the one-dimensional torus."""
    return BoxUnion(space, [((a, b),)],
                    descriptor=f"arc:{descriptor_float(a)}:{descriptor_float(b)}")


class BandUnion(Region):
    """Union of latitude bands {theta_a <= colatitude <= theta_b} on the sphere.

    A polar cap of angular radius theta0 is the band [0, theta0]; its measure
    is 2 pi (1 - cos theta0).
    """

    def __init__(self, space: Sphere2, intervals, descriptor=None):
        if not isinstance(space, Sphere2):
            raise ValueError("BandUnion regions live on the sphere")
        self.space = space
        ivals = sorted((float(a), float(b)) for a, b in intervals)
        for a, b in ivals:
            if not (0.0 <= a <= b <= math.pi + 1e-12):
                raise ValueError(f"band ({a}, {b}) must satisfy 0 <= a <= b <= pi")
        merged = []
        for a, b in ivals:
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        self.intervals = self.atoms = merged
        self.descriptor = descriptor or "+".join(
            f"band:{descriptor_float(a)}:{descriptor_float(b)}" for a, b in merged) or "empty"

    @property
    def measure(self):
        return float(sum(TWO_PI * (math.cos(a) - math.cos(b)) for a, b in self.intervals))

    def contains_mask(self, points):
        pts = self.space._check_points(points)
        theta = pts[:, 0]
        mask = np.zeros(pts.shape[0], dtype=bool)
        for a, b in self.intervals:
            mask |= (a <= theta) & (theta <= b)
        return mask

    def _gram_blocks(self, elements, quad, mask):
        """One block per order m on the theta-major rings Sphere2.build_quadrature emits
        (n_phi nodes at ``_midpoints(n_phi)``, one colatitude and weight each), on which a
        band's mask is constant: sums of e^{i(m - m')phi} vanish for n_phi > 2 max|m| (Simons,
        Dahlen & Wieczorek, SIAM Rev. 48 (2006)).  Other node sets take the dense path."""
        theta = quad.nodes[:, 0]
        n_phi = (int(np.argmax(theta != theta[0])) or len(theta)) if len(theta) else 1
        rings = [a.reshape(-1, n_phi) for a in (theta, quad.weights, quad.nodes[:, 1])
                 ] if len(theta) % n_phi == 0 else []
        if (not rings or any((r != r[:, :1]).any() for r in rings[:2])
                or (rings[2] != _midpoints(n_phi)).any()):
            return super()._gram_blocks(elements, quad, mask)
        labels = self.space._label_array(elements)
        if n_phi <= 2 * (top := int(np.abs(labels[:, 1]).max(initial=0))):
            raise CoarseQuadratureError(f"rings of {n_phi} nodes do not separate the orders "
                                        f"up to |m| = {top}; refine the quadrature")
        inside = mask[::n_phi]
        order = np.argsort(~inside, kind="stable")
        leg, rows = self.space._legendre(labels, np.cos(rings[0][order, 0]))
        w, k = rings[1].sum(axis=1)[order], int(inside.sum())
        blocks = []
        for m in np.unique(labels[:, 1]).tolist():
            cols = np.flatnonzero(labels[:, 1] == m)
            # Y_l^{-m} = (-1)^m conj(Y_l^m): orders m and -m have equal blocks
            blocks.append((cols, _masked_gram(leg[rows[cols]].T, w, k), None))
        return blocks

    def complement(self):
        gaps = _disjoint_cells([(band,) for band in self.intervals], 0.0, math.pi, 1)[1]
        return BandUnion(self.space, [gap for gap, in gaps])


def cap(space: Sphere2, theta0: float) -> BandUnion:
    """Polar cap of angular radius theta0 about the north pole."""
    return BandUnion(space, [(0.0, theta0)], descriptor=f"cap:{descriptor_float(theta0)}")


class FiniteSubset(Region):
    """Explicit subset of a finite group; measure is the cardinality.  Held
    as sorted flat indices (``flat``, or those of ``elements``): its point
    tuples and ``set:{...}`` descriptor are built when first read."""

    def __init__(self, space: FiniteGroup, elements, descriptor=None, flat=None):
        if not isinstance(space, FiniteGroup):
            raise ValueError("FiniteSubset regions live on finite groups")
        self.space = space
        rows = [(e,) if np.isscalar(e) else tuple(e) for e in elements]
        for e in rows:
            if len(e) != space.dim:
                raise ValueError(f"element {e!r} needs {space.dim} coordinates")
        if flat is None:
            flat = np.unique(space.flat_index(np.array(rows, dtype=float).reshape(-1, space.dim)))
        self._flat = flat
        if descriptor:
            self.descriptor = descriptor

    @cached_property
    def elements(self) -> frozenset:
        shape = (self.space.order,) * self.space.dim
        return frozenset(zip(*(a.tolist() for a in np.unravel_index(self._flat, shape))))

    atoms = property(lambda self: self.elements)

    @cached_property
    def descriptor(self) -> str:
        return "set:{" + ",".join(
            (str(p[0]) if self.space.dim == 1 else "(" + ",".join(map(str, p)) + ")")
            for p in sorted(self.elements)
        ) + "}"

    @property
    def measure(self):
        return float(len(self._flat))

    def contains_mask(self, points):
        return np.isin(self.space.flat_index(points), self._flat)

    def complement(self):
        rest = np.setdiff1d(np.arange(int(self.space.total_measure)), self._flat)
        return FiniteSubset(self.space, [], flat=rest)


class ProductRegion(Region):
    """Product of a region on each factor of a product space."""

    def __init__(self, space: ProductSpace, first: Region, second: Region):
        if not isinstance(space, ProductSpace):
            raise ValueError("ProductRegion regions live on product spaces")
        self.space = space
        self.first = first
        self.second = second
        self.descriptor = f"product({first.descriptor},{second.descriptor})"

    @property
    def measure(self):
        return self.first.measure * self.second.measure

    def contains_mask(self, points):
        pts = self.space._check_points(points)
        pa, pb = self.space._split(pts)
        return self.first.contains_mask(pa) & self.second.contains_mask(pb)


# the region family of each plain space; a product's regions are products
# of its factors' regions
FAMILIES = {Torus: BoxUnion, Sphere2: BandUnion, FiniteGroup: FiniteSubset}


def _whole(space: ModelSpace, full: bool) -> Region:
    """The full or the empty region, built factor by factor on a product."""
    if isinstance(space, ProductSpace):
        r = ProductRegion(space, _whole(space.first, full), _whole(space.second, full))
    else:
        r = FAMILIES[type(space)](space, [])
        r = r.complement() if full else r
    r.descriptor = "full" if full else "empty"
    return r


def full_region(space: ModelSpace) -> Region:
    return _whole(space, True)


def empty_region(space: ModelSpace) -> Region:
    return _whole(space, False)


def _parse_one(space, token):
    t = token.strip()
    kind, _, body = t.partition(":")
    with descriptor_errors(token, "region"):
        if t in ("full", "empty"):
            return _whole(space, t == "full")
        if (factors := split_product(t)) is not None:
            if not isinstance(space, ProductSpace):
                raise ValueError("product regions live on product spaces")
            return ProductRegion(space, parse_region(space.first, factors[0]),
                                 parse_region(space.second, factors[1]))
        if kind in ("arc", "band"):
            a, b = map(float, body.split(":"))
            return arc(space, a, b) if kind == "arc" else BandUnion(space, [(a, b)], descriptor=t)
        if kind == "box":
            box = [tuple(map(float, bracketed(p))) for p in split_top(body, "x")]
            return BoxUnion(space, [box])
        if kind == "cap":
            return cap(space, float(body))
        if kind == "set":
            # an element is a tuple in (), as on Z_N^d for d > 1, or a bare integer
            return FiniteSubset(space, [tuple(map(int, bracketed(e))) if "(" in e else int(e)
                                        for e in bracketed(body, "{}")], descriptor=t)
    raise DescriptorError(token, "unrecognized region descriptor")


def parse_region(space: ModelSpace, text: str) -> Region:
    """Build a region from a descriptor.

    Examples: ``arc:0:3.14159``, ``box:(0,1)x(0,2)``, ``cap:0.7853``,
    ``band:0.5:1.2``, ``set:{0,4,8}``, ``full``,
    ``product(arc:0:1+arc:2:3,cap:1)``; constituents of the same shape family
    may be joined with ``+``.
    """
    with descriptor_errors(text, "region"):
        tokens = split_items(text, "+")
    if not tokens:
        raise DescriptorError(text, "empty region descriptor")
    parts = [_parse_one(space, t) for t in tokens]
    if len(parts) == 1:
        return parts[0]
    if type(space) not in FAMILIES:
        raise DescriptorError(text, "unions of product regions are not supported; "
                                    "a + union goes inside one factor of product(...)")
    return FAMILIES[type(space)](space, [a for p in parts for a in p.atoms], descriptor=text)
