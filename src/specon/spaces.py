"""Model domains with closed-form orthonormal eigenbases.

Four kinds of space are supported:

* flat tori ``R^d / (2 pi Z)^d`` with exponentials ``(2 pi)^{-d/2} e^{i<m,x>}``,
* the round two-sphere with complex spherical harmonics (Condon-Shortley phase),
* finite abelian groups ``Z_N^d`` under counting measure, with characters
  normalized to unit L2 norm,
* cartesian products of any two of the above (tensor-product eigenbasis).

Every space states its (-Laplacian) eigenvalues as integers, enumerates its
basis in nondecreasing eigenvalue order (ties broken lexicographically on the
label), evaluates elements at points, and builds a quadrature rule that
integrates products of any two basis elements below a requested frequency
cutoff exactly.  A frequency is the square root of an integer eigenvalue:
``|m|`` on the torus, ``sqrt(l(l+1))`` on the sphere; a product adds its
factors' eigenvalues, so equal eigenvalues share one frequency.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DescriptorError, SpeconError

TWO_PI = 2.0 * math.pi

# largest dense basis matrix (nodes x elements complex entries) that
# basis_matrix will allocate
MAX_BASIS_BYTES = 2 * 2**30


def _r2max(lam: float) -> int:
    """Largest integer t with sqrt(t) <= lam in floating point, so integer
    squared-norm tests agree exactly with frequency comparisons; bisection on
    that monotone predicate."""
    if lam < 0:
        return -1
    if not math.isfinite(2.0 * lam * lam):
        raise ValueError(f"cutoff {lam!r} is not finite or too large to square")
    lo, hi = 0, 2 * int(lam * lam) + 2  # sqrt(lo) <= lam < sqrt(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if math.sqrt(mid) <= lam else (lo, mid)
    return lo


def _check_cutoff(cutoff: float):
    """ValueError naming a cutoff that is not finite or is negative."""
    if not math.isfinite(cutoff):
        raise ValueError(f"cutoff must be finite, got {cutoff}")
    if cutoff < 0:
        raise ValueError(f"cutoff must be nonnegative, got {cutoff}")


def _refuse_oversized(table: str, size: int, cause: str):
    """SpeconError, before anything is allocated, for a ``table`` of ``size``
    bytes over MAX_BASIS_BYTES."""
    if size > MAX_BASIS_BYTES:
        raise SpeconError(f"{table} needs {size:,} bytes ({size / 2**30:.1f} GiB), over the "
                          f"{MAX_BASIS_BYTES / 2**30:g} GiB limit; {cause}")


def _phase_table(kind: str, coords, freqs):
    """(table, rows, cols): e^{i c f} is [table, conj(table)][rows, cols] for coordinates c
    and integers f, with cos and sin taken of the distinct c and |f| only."""
    u, rows = np.unique(coords, return_inverse=True)
    f, cols = np.unique(np.abs(freqs), return_inverse=True)
    _refuse_oversized(f"phase table on {kind} of {len(u):,} coordinates x {len(f):,} "
                      f"frequencies", len(u) * len(f) * 24, "the points and labels set its size")
    table = np.empty((len(u), len(f)), dtype=complex)
    np.cos(u[:, None] * f, out=table.real)
    np.sin(u[:, None] * f, out=table.imag)
    return table, rows.reshape(coords.shape), cols.reshape(freqs.shape) + len(f) * (freqs < 0)


def _factor(table, rows, cols, take=lambda t, c: np.concatenate([t, t.conj()], axis=1)[:, c]):
    """The function of a row block b giving take(table[rows[b]], cols); take runs once
    on a whole table that fits one block, as the few distinct coordinates of a grid give."""
    if len(table) * len(cols) <= 2**14:
        return lambda b, whole=take(table, cols): whole[rows[b]]
    return lambda b: take(table[rows[b]], cols)


def _gathered(shape, factors, width=0) -> np.ndarray:
    """The complex matrix of ``shape`` whose entries are products over ``factors`` (functions
    of a row block, as :func:`_factor` makes), filled in blocks of 2^14 cells (of ``width``
    columns if wider) so that each gather stays small next to the matrix."""
    out = np.empty(shape, dtype=complex)
    step = max(1, 2**14 // max(1, shape[1], width))
    for r in range(0, shape[0], step):
        b = slice(r, r + step)
        out[b] = factors[0](b)
        for factor in factors[1:]:
            out[b] *= factor(b)
    return out


def _midpoints(n: int) -> np.ndarray:
    """The midpoints of n equal cells of [0, 2 pi): the longitudes of every ring of a
    sphere quadrature and the nodes of every axis of a torus grid."""
    return (np.arange(n) + 0.5) * (TWO_PI / n)


class _Basis:
    """The orthonormal basis u of one Gram block: u_r = sum_j C[j, r] e_j over all ``size``
    elements, C nonzero in ``rows`` only, where row j holds coef_j (or one ``coef`` for all
    rows) at r = pos_j.  A Gram R over u is C R C^H over the elements and an eigenvector p of
    R is C p."""

    def __init__(self, size, rows, pos, coef):
        self.size, self.rows, self.pos, self.coef = size, rows, pos, coef

    def _times(self, x: np.ndarray) -> np.ndarray:
        """Rows ``rows`` of C x."""
        return np.reshape(self.coef, (-1, 1)) * x[self.pos]

    def lift(self, p: np.ndarray) -> np.ndarray:
        """C p: rows over u as rows over the elements."""
        out = np.zeros((self.size, p.shape[1]), dtype=complex)
        out[self.rows] = self._times(p)
        return out

    def add_gram(self, r: np.ndarray, g: np.ndarray):
        """g += C R C^H, as C (C R)^H on C's rows only."""
        g[np.ix_(self.rows, self.rows)] += self._times(self._times(r).conj().T)


def _identity(size: int, rows: np.ndarray) -> _Basis:
    """The elements ``rows`` themselves as a basis: C is 1 at (rows_r, r)."""
    return _Basis(size, rows, np.arange(len(rows)), 1.0)


def _reflection_sectors(labels: np.ndarray, scale: np.ndarray):
    """(axes, sectors): the axes a whose reflection m_a -> -m_a maps the integer label rows to
    themselves, and for each choice of odd ones among them, (odd axes, cols, _Basis).  An
    orbit's sector function sums scale_j chi_j nu_j e_j over its elements j (the labels equal
    up to signs on those axes): chi_j multiplies sign(m_ja) over the odd axes, which need
    m_ja != 0, and nu_j multiplies 1/sqrt 2 over the axes with m_ja != 0.  ``cols`` are the
    elements with signs negative exactly on the odd axes, one per orbit, which name the
    functions in order; those of all sectors partition the elements."""
    n, d = labels.shape
    axes = [a for a in range(d) if np.array_equal(*[x[np.lexsort(x.T)] for x in (
        labels, labels * np.where(np.arange(d) == a, -1, 1))])]   # the same rows, sorted
    key = np.where(np.isin(np.arange(d), axes), np.abs(labels), labels)
    order = np.lexsort(key.T)
    first = np.ones(n, dtype=bool)     # the first of each orbit in that order
    first[1:] = (key[order][1:] != key[order][:-1]).any(axis=1)
    orbit = np.empty(n, dtype=int)
    orbit[order] = np.cumsum(first) - 1
    neg = labels[:, axes] < 0
    nu = np.where(labels[:, axes] != 0, math.sqrt(0.5), 1.0).prod(axis=1)
    sectors = []
    for s in itertools.product((False, True), repeat=len(axes)):
        odd = [a for a, o in zip(axes, s) if o]
        cols, at = np.flatnonzero((neg == s).all(axis=1)), np.full(n, -1)
        at[orbit[cols]] = np.arange(len(cols))
        rows = np.flatnonzero(at[orbit] >= 0)
        chi = np.where(labels[np.ix_(rows, odd)] < 0, -1.0, 1.0).prod(axis=1)
        sectors.append((odd, cols, _Basis(n, rows, at[orbit[rows]], scale[rows] * chi * nu[rows])))
    return axes, sectors


@dataclass(frozen=True)
class BasisElement:
    """One eigenfunction: position in the global enumeration, structured label,
    scalar frequency, and the joint eigenvalue tuple."""

    index: int
    label: tuple
    frequency: float
    joint: tuple


@dataclass(frozen=True)
class Quadrature:
    """Nodes and positive weights realizing integration over the space.

    ``exactness_degree`` is the largest combined frequency degree for which
    products of two basis elements are integrated exactly (``math.inf`` when
    every product is).
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: float

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    def integrate(self, samples) -> complex:
        return complex(np.sum(self.weights * np.asarray(samples)))

    def norm(self, samples, p: float = 2) -> float:
        """Weighted L^p norm of node samples; ``p = inf`` gives the node max."""
        a = np.abs(np.asarray(samples))
        if math.isinf(p):
            return float(a.max()) if a.size else 0.0
        return float(np.sum(self.weights * a**p) ** (1.0 / p))


class ModelSpace:
    """Base class: a compact model domain with an explicit eigenbasis."""

    kind: str
    dim: int
    coord_dim: int
    joint_dim: int
    total_measure: float

    @property
    def unit_ball_volume(self) -> float:
        d = self.dim
        return math.pi ** (d / 2) / math.gamma(d / 2 + 1)

    # -- enumeration ---------------------------------------------------------

    def enumerate_basis(self, cutoff: float) -> list[BasisElement]:
        """All basis elements with frequency <= cutoff, sorted by
        (eigenvalue, label).  The position in this list is the element's global
        index and does not depend on the cutoff."""
        labels, eigs = self._eigenvalues_upto(cutoff)
        return self._elements(labels[np.lexsort((*labels.T[::-1], eigs))])

    def _eigenvalues_upto(self, cutoff: float):
        """(canonical flat labels, integer eigenvalues) of the elements with
        frequency <= cutoff, unsorted, from one candidate table."""
        _check_cutoff(cutoff)
        labels, eigs, _ = self._describe(self._candidates(cutoff))
        keep = eigs <= _r2max(cutoff)
        return labels[keep], eigs[keep]

    def first_elements(self, n: int) -> list[BasisElement]:
        """The first ``n`` elements of the global enumeration: the cutoff
        doubles on :meth:`count_upto`, then one enumeration builds them."""
        cutoff, top = 1.0, self.max_frequency()
        while (count := self.count_upto(cutoff)) < n:
            if top is not None and cutoff >= top:
                raise ValueError(f"space has only {count} basis elements, {n} requested")
            cutoff = 2 * cutoff if top is None else min(2 * cutoff, top)
        return self.enumerate_basis(cutoff)[:n]

    def elements_by_index(self, indices) -> list[BasisElement]:
        """The elements at global positions ``indices``, in their order;
        ValueError naming a negative index."""
        if min(indices, default=0) < 0:
            raise ValueError(f"element index {min(indices)} is negative")
        els = self.first_elements(max(indices, default=-1) + 1)
        return [els[i] for i in indices]

    def count_upto(self, lam):
        """Number of eigenvalues (with multiplicity) of frequency <= lam, or
        the list of them for a sequence of lambdas."""
        counts = self._counts(np.atleast_1d(np.asarray(lam, float)).tolist())
        return counts if np.ndim(lam) else counts[0]

    def _counts(self, lams: list) -> list:
        """count_upto of each of ``lams``: searchsorted on the sorted
        eigenvalues of one candidate table at the largest."""
        eigs = np.sort(self._describe(self._candidates(max(lams + [0.0])))[1])
        return np.searchsorted(eigs, [_r2max(x) for x in lams], side="right").tolist()

    def max_frequency(self):
        """Largest frequency in the spectrum, or None if unbounded."""
        top = self._max_eigenvalue()
        return None if top is None else math.sqrt(top)

    def _max_eigenvalue(self):
        """Largest eigenvalue (an int), or None if unbounded."""
        return None

    # A space states its spectrum once, on flat labels (rows of ``dim`` ints):
    # enumeration, element rebuilds and kernel label arrays build on these two.

    def _candidates(self, cutoff: float) -> np.ndarray:
        """Flat labels of a superset of the elements of frequency <= cutoff."""
        raise NotImplementedError

    def _refuse_labels(self, rows: int, cutoff: float):
        """Refuse a table of ``rows`` candidate labels over MAX_BASIS_BYTES."""
        _refuse_oversized(f"candidate-label table on {self.kind} at cutoff {cutoff} "
                          f"({rows:,} x {self.dim})", rows * self.dim * 8,
                          "the cutoff sets the row count")

    def _describe(self, labels: np.ndarray):
        """(canonical labels, integer eigenvalues, joint rows) of flat labels;
        ValueError naming the space for a label of none of its elements."""
        raise NotImplementedError

    def _peak_squares(self, labels: np.ndarray) -> np.ndarray:
        """|M| sup |e_j|^2 for canonical flat labels: 1 for characters."""
        return np.ones(len(labels))

    def _flat(self, label) -> tuple:
        """A structured label as a flat tuple of ints."""
        flat = tuple(map(operator.index, label))
        if len(flat) != self.dim:
            raise ValueError(f"label has {len(flat)} entries")
        return flat

    def _structured(self, flat: list):
        """Inverse of :meth:`_flat`."""
        return tuple(flat)

    def _label_rows(self, labels) -> np.ndarray:
        """Labels as int rows; ValueError naming the space for a non-integer
        label or one of the wrong length."""
        flat = []
        for label in labels:
            try:
                flat.append(self._flat(label))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"label {label!r} inconsistent with {self.kind}") from exc
        return np.array(flat, dtype=int).reshape(len(flat), self.dim)

    def _label_array(self, elements) -> np.ndarray:
        """The canonical flat labels of ``elements``, validated."""
        return self._describe(self._label_rows([el.label for el in elements]))[0]

    def _elements(self, labels, numbered: bool = True) -> list[BasisElement]:
        """Elements for rows of flat labels, indexed by row (or -1)."""
        labels, eigs, joints = self._describe(labels)
        labels, freqs, joints = labels.tolist(), np.sqrt(eigs).tolist(), joints.tolist()
        return [BasisElement(j if numbered else -1, self._structured(lab), f, tuple(jt))
                for j, (lab, f, jt) in enumerate(zip(labels, freqs, joints))]

    def _element(self, label) -> BasisElement:
        """Rebuild an element from its label (index left at -1)."""
        return self._elements(self._label_rows([label]), numbered=False)[0]

    # -- evaluation ----------------------------------------------------------

    def values(self, element: BasisElement, points) -> np.ndarray:
        """Eigenfunction values at an (n, coord_dim) array of points."""
        return self.basis_matrix([element], points)[:, 0]

    def evaluate(self, element: BasisElement, point) -> complex:
        return complex(self.values(element, np.atleast_2d(np.asarray(point, float)))[0])

    def basis_matrix(self, elements, points) -> np.ndarray:
        """Matrix V with V[i, j] = e_j(points[i])."""
        raise NotImplementedError

    def summed_squares(self, elements, points) -> np.ndarray:
        """sum_j |e_j(x)|^2 over ``elements`` at each of ``points``: the pointwise
        quantity of band energy, homogeneity and the sup-norm bound."""
        return np.sum(np.abs(self.basis_matrix(elements, points)) ** 2, axis=1)

    def coefficients(self, elements, quad: Quadrature, samples) -> np.ndarray:
        """<g, e_j> = sum_x w_x g(x) conj(e_j(x)) by ``quad``, for node samples
        ``g`` and each of ``elements``."""
        v = self.basis_matrix(elements, quad.nodes)
        return (v.conj().T * quad.weights) @ np.asarray(samples, dtype=complex)

    def _check_points(self, points, elements: int = 0) -> np.ndarray:
        """Points as an (n, coord_dim) float array.  With an element count,
        refuse before allocation a dense basis matrix over these points that
        would exceed MAX_BASIS_BYTES."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.coord_dim:
            raise ValueError(
                f"points for {self.kind} must have {self.coord_dim} coordinates, "
                f"got shape {pts.shape}"
            )
        _refuse_oversized(f"basis matrix on {self.kind} of {pts.shape[0]} nodes x "
                          f"{elements} elements", pts.shape[0] * elements * 16,
                          "the quadrature cutoff and oversample set the node count and the "
                          "spectrum sets the element count")
        self._check_coordinates(pts)
        return pts

    def _check_coordinates(self, pts: np.ndarray):
        """ValueError naming a point with a coordinate that is not finite."""
        if not np.isfinite(pts).all():
            off = np.flatnonzero(~np.isfinite(pts).all(axis=1))[0]
            raise ValueError(f"point {tuple(pts[off].tolist())} is not a point of {self.kind}: "
                             "its coordinates must be finite")

    # -- quadrature and sampling ---------------------------------------------

    def build_quadrature(self, cutoff: float, oversample: int = 1) -> Quadrature:
        """Quadrature exact for products of two elements of frequency <= cutoff.
        ``oversample`` multiplies the node counts for region-resolution needs."""
        raise NotImplementedError

    def _refuse_grid(self, nodes: int, cutoff: float, oversample: int):
        """Refuse a quadrature of ``nodes`` nodes over MAX_BASIS_BYTES."""
        _refuse_oversized(f"quadrature on {self.kind} at cutoff {cutoff} and oversample "
                          f"{oversample} ({nodes:,} nodes)", nodes * (self.coord_dim + 1) * 8,
                          "the cutoff and oversample set the node count")

    def sample_points(self, k: int, rng) -> np.ndarray:
        """k points drawn from the normalized volume measure, refused before
        allocation over MAX_BASIS_BYTES."""
        _refuse_oversized(f"sample table on {self.kind} ({k:,} points x {self.coord_dim})",
                          k * self.coord_dim * 8, "the sample count sets the row count")
        return self._sample(k, rng)

    def _sample(self, k: int, rng) -> np.ndarray:
        raise NotImplementedError

    def extreme_points(self) -> np.ndarray:
        """Canonical points where eigenfunctions peak (poles on the sphere);
        used to seed sup-norm estimates."""
        return np.zeros((1, self.coord_dim))

    def _eigenvalue_from_joint(self, joint) -> float:
        """The eigenvalue of a joint eigenvalue tuple (its squared norm on tori
        and groups)."""
        return sum(c * c for c in joint)

    def __repr__(self):
        return f"{type(self).__name__}({self.kind!r})"


class Torus(ModelSpace):
    """Flat torus R^d / (2 pi Z)^d; eigenfunctions (2 pi)^{-d/2} e^{i<m, x>}
    indexed by m in Z^d with eigenvalue |m|^2."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("torus dimension must be >= 1")
        self.dim = dim
        self.coord_dim = dim
        self.joint_dim = dim
        self.total_measure = TWO_PI**dim
        self.kind = f"torus:d={dim}"

    def _candidates(self, cutoff):
        r = math.isqrt(_r2max(cutoff))
        self._refuse_labels((2 * r + 1) ** self.dim, cutoff)
        return np.indices((2 * r + 1,) * self.dim).reshape(self.dim, -1).T - r

    def _describe(self, labels):
        return labels, np.sum(labels * labels, axis=1), labels.astype(float)

    def _counts(self, lams):
        return [self._lattice_count(_r2max(x), self.dim) if x >= 0 else 0 for x in lams]

    @staticmethod
    def _lattice_count(r2: int, d: int) -> int:
        r = math.isqrt(r2)
        if d == 1:
            return 2 * r + 1
        return sum(Torus._lattice_count(r2 - m * m, d - 1) for m in range(-r, r + 1))

    def basis_matrix(self, elements, points):
        pts = self._check_points(points, len(elements))
        # a tensor product of (2 pi)^{-1/2} e^{i m_k x_k}: one table serves every axis
        table, rows, cols = _phase_table(self.kind, pts, self._label_array(elements))
        table *= TWO_PI ** -0.5
        return _gathered((len(pts), len(elements)),
                         [_factor(table, rows[:, k], cols[:, k]) for k in range(self.dim)])

    def build_quadrature(self, cutoff, oversample=1):
        _check_cutoff(cutoff)
        # midpoint grid: exact for e^{ikx} with |k| < n per axis, and region
        # boundaries at cell edges never collide with nodes
        n = 2 * (math.ceil(cutoff) + 1) * max(1, int(oversample))
        self._refuse_grid(n**self.dim, cutoff, oversample)
        axis = _midpoints(n)
        grids = np.meshgrid(*([axis] * self.dim), indexing="ij")
        nodes = np.stack([g.ravel() for g in grids], axis=-1)
        weights = np.full(nodes.shape[0], (TWO_PI / n) ** self.dim)
        return Quadrature(nodes, weights, exactness_degree=n - 1)

    def _sample(self, k, rng):
        return rng.uniform(0.0, TWO_PI, size=(k, self.dim))


class Sphere2(ModelSpace):
    """Round two-sphere (radius 1) with complex spherical harmonics Y_l^m.

    Points are (colatitude theta, longitude phi).  Normalization makes the
    basis orthonormal under the area measure (total 4 pi); the phase follows
    the Condon-Shortley convention, so Y_l^{-m} = (-1)^m conj(Y_l^m).
    The eigenvalue is l(l+1); the joint eigenvalue is (m, l(l+1)) for the
    commuting pair (rotation generator, -Laplacian).
    """

    def __init__(self):
        self.dim = 2
        self.coord_dim = 2
        self.joint_dim = 2
        self.total_measure = 4.0 * math.pi
        self.kind = "sphere2"

    def _lmax(self, cutoff: float) -> int:
        """Largest degree l with sqrt(l(l+1)) <= cutoff: in integers,
        l(l+1) <= r2 exactly when (2l+1)^2 <= 4 r2 + 1."""
        r2 = _r2max(cutoff)
        return (math.isqrt(4 * r2 + 1) - 1) // 2 if r2 >= 0 else -1

    def _candidates(self, cutoff):
        lmax = self._lmax(cutoff)
        self._refuse_labels((lmax + 1) ** 2, cutoff)
        l = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
        # row l * l + l + m holds (l, m)
        return np.stack([l, np.arange(len(l)) - l * l - l], axis=1)

    def _describe(self, labels):
        l, m = labels[:, 0], labels[:, 1]
        bad = labels[np.abs(m) > l]
        if len(bad):
            raise ValueError(f"label {tuple(bad[0].tolist())} inconsistent with {self.kind}")
        lam = l * (l + 1)
        return labels, lam, np.stack([m, lam], axis=1).astype(float)

    def _counts(self, lams):
        return [(self._lmax(x) + 1) ** 2 for x in lams]

    def _peak_squares(self, labels):
        # addition theorem: |Y_l^m|^2 <= (2l+1) / 4 pi, attained at the poles by m = 0
        return 2.0 * labels[:, 0] + 1.0

    def _check_coordinates(self, pts):
        """As on any space, after a ValueError naming a point whose colatitude is not in
        [0, pi]."""
        off = np.flatnonzero(~((0.0 <= pts[:, 0]) & (pts[:, 0] <= math.pi)))
        if len(off):
            raise ValueError(f"point {tuple(pts[off[0]].tolist())} is not a point of {self.kind}: "
                             "its colatitude must lie in [0, pi]")
        super()._check_coordinates(pts)

    def _legendre(self, labels, x):
        """(table, rows): Y_l^m / e^{i m phi} at x = cos(theta) for each order m = |m_j| of
        ``labels`` and l = m..max l_j, rows[j] the row of labels[j], by one normalized ascending
        recurrence in l for all those orders at once, bounded well past l ~ 150."""
        orders, at = np.unique(np.abs(labels[:, 1]), return_inverse=True)
        size = np.zeros(len(orders), dtype=int)
        np.maximum.at(size, at, labels[:, 0] - orders[at] + 1)
        _refuse_oversized(f"Legendre table on {self.kind} of {size.sum():,} degrees x {len(x):,} "
                          f"colatitudes", int(size.sum()) * len(x) * 8, "the labels and points")
        m, first = np.repeat(orders, size), np.cumsum(size) - size
        l = m + np.arange(len(m)) - np.repeat(first, size)
        leg, s = np.empty((len(m), len(x))), np.sqrt(np.maximum(0.0, 1.0 - x * x))
        p = np.full(len(x), math.sqrt(1.0 / (4.0 * math.pi)))
        for k in range(int(orders.max(initial=-1)) + 1):
            p = -math.sqrt((2 * k + 1) / (2.0 * k)) * s * p if k else p
            leg[first[orders == k]] = p
        r = np.flatnonzero(l == m + 1)
        leg[r] = (np.sqrt(2 * m[r] + 3)[:, None] * x) * leg[r - 1]
        with np.errstate(divide="ignore", invalid="ignore"):   # rows l < m + 2 take neither
            a = np.sqrt((4 * l * l - 1) / (l * l - m * m))[:, None]
            b = np.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))[:, None]
        for depth in range(2, int(size.max(initial=0))):
            r = np.flatnonzero(l - m == depth)
            leg[r] = a[r] * (x * leg[r - 1] - b[r] * leg[r - 2])
        return leg, first[at] + labels[:, 0] - orders[at]

    def basis_matrix(self, elements, points):
        pts = self._check_points(points, len(elements))
        labels = self._label_array(elements)
        # tables on the distinct colatitudes and longitudes; Y_l^{-m} = (-1)^m conj(Y_l^m)
        u, at = np.unique(pts[:, 0], return_inverse=True)
        leg, rows = self._legendre(labels, np.cos(u))
        sign = np.where(labels[:, 1] < 0, (-1.0) ** np.abs(labels[:, 1]), 1.0)
        eim, ph, cols = _phase_table(self.kind, pts[:, 1], labels[:, 1])
        return _gathered((len(pts), len(elements)), [
            _factor(leg.T, at, rows, lambda t, c: t[:, c] * sign), _factor(eim, ph, cols)],
            width=len(leg))

    def summed_squares(self, elements, points):
        # |Y_l^m(theta, phi)| = |P_l^m(cos theta)|: no phase, one table on the distinct colatitudes
        pts = self._check_points(points)
        u, at = np.unique(pts[:, 0], return_inverse=True)
        leg, rows = self._legendre(self._label_array(elements), np.cos(u))
        # distinct colatitudes x elements, each row summed contiguously as a basis matrix row is
        return np.sum(np.take(leg.T, rows, axis=1) ** 2, axis=1)[at]

    def build_quadrature(self, cutoff, oversample=1):
        _check_cutoff(cutoff)
        lmax = self._lmax(cutoff)
        over = max(1, int(oversample))
        n_theta = (lmax + 1) * over
        n_phi = (2 * lmax + 1) * over
        self._refuse_grid(n_theta * n_phi, cutoff, oversample)
        x, w = np.polynomial.legendre.leggauss(n_theta)
        theta = np.arccos(x)
        tt, pp = np.meshgrid(theta, _midpoints(n_phi), indexing="ij")
        ww = np.repeat(w, n_phi) * (TWO_PI / n_phi)
        nodes = np.stack([tt.ravel(), pp.ravel()], axis=-1)
        return Quadrature(nodes, ww, exactness_degree=min(2 * n_theta - 1, n_phi - 1))

    def _sample(self, k, rng):
        theta = np.arccos(rng.uniform(-1.0, 1.0, size=k))
        phi = rng.uniform(0.0, TWO_PI, size=k)
        return np.stack([theta, phi], axis=-1)

    def extreme_points(self):
        return np.array([[0.0, 0.0], [math.pi, 0.0]])

    def _eigenvalue_from_joint(self, joint):
        return max(0.0, joint[1])


class FiniteGroup(ModelSpace):
    """Finite abelian group Z_N^d under counting measure (total mass N^d).

    Characters chi_k(x) = exp(2 pi i <k, x> / N) are normalized by N^{-d/2} to
    unit L2 norm.  The eigenvalue of a character is the squared norm of its
    centered residue vector (components mapped to (-N/2, N/2]); the joint
    eigenvalue is that centered vector.  The dual measure assigns weight
    1/N^d per character, so Fourier inversion holds exactly (see
    :meth:`fourier` / :meth:`inverse_fourier`).
    """

    def __init__(self, order: int, dim: int = 1):
        if order < 1 or dim < 1:
            raise ValueError("group order and dimension must be >= 1")
        self.order = order
        self.dim = dim
        self.coord_dim = dim
        self.joint_dim = dim
        self.total_measure = float(order**dim)
        self.kind = f"zn:N={order},d={dim}"

    def _candidates(self, cutoff):
        self._refuse_labels(self.order**self.dim, cutoff)
        return np.indices((self.order,) * self.dim).reshape(self.dim, -1).T

    def _describe(self, labels):
        k = labels % self.order
        centered = np.where(k <= self.order // 2, k, k - self.order)
        return k, np.sum(centered * centered, axis=1), centered.astype(float)

    def _max_eigenvalue(self):
        return self.dim * (self.order // 2) ** 2

    def _group_points(self, points, elements: int = 0) -> np.ndarray:
        """Checked points as int rows mod N; ValueError naming one off the group."""
        pts = self._check_points(points, elements)
        off = np.flatnonzero((np.rint(pts) != pts).any(axis=1))
        if len(off):
            raise ValueError(f"point {tuple(pts[off[0]].tolist())} is not a point of {self.kind}: "
                             "its coordinates must be integers")
        return np.mod(pts, self.order).astype(int)  # exact float mod, then a cast that fits

    def basis_matrix(self, elements, points):
        x = self._group_points(points, len(elements))
        # <k, x> mod N in integers indexes the N-th roots of unity, each taken at an
        # angle of at most pi, so chi_{-k} = conj(chi_k) holds exactly
        r, n = np.arange(self.order), self.order
        roots = np.exp(2j * math.pi * np.minimum(r, n - r) / n) * n ** (-self.dim / 2)
        roots[r > n // 2] = roots[r > n // 2].conj()
        return roots[(x @ self._label_array(elements).T) % n]

    def points(self) -> np.ndarray:
        """All group elements in lexicographic (C) order."""
        return self._candidates(0.0).astype(float)

    def flat_index(self, points) -> np.ndarray:
        """Position of each point (coordinates reduced mod N) in the order of
        :meth:`points` and :meth:`fourier`; a point off the group is refused."""
        return np.ravel_multi_index(self._group_points(points).T, (self.order,) * self.dim)

    def build_quadrature(self, cutoff=None, oversample=1):
        # the sum over every point integrates every product of characters
        nodes = self.points()
        return Quadrature(nodes, np.ones(nodes.shape[0]), exactness_degree=math.inf)

    def _sample(self, k, rng):
        return rng.integers(0, self.order, size=(k, self.dim)).astype(float)

    # -- exact Fourier pair ---------------------------------------------------

    def fourier(self, samples) -> np.ndarray:
        """Unnormalized transform f_hat(k) = sum_x f(x) conj(chi_k(x)) with
        samples (and output) in the lexicographic order of :meth:`points`."""
        a = np.asarray(samples, dtype=complex).reshape((self.order,) * self.dim)
        return np.fft.fftn(a).ravel()

    def weighted_fourier(self, quad: Quadrature, samples) -> np.ndarray:
        """sum_x w_x f(x) conj(chi_k(x)) over the nodes of any quadrature on
        the group (nodes reduced mod N), for every k in the order of points."""
        scattered = np.zeros(int(self.total_measure), dtype=complex)
        np.add.at(scattered, self.flat_index(quad.nodes), quad.weights * samples)
        return self.fourier(scattered)

    def coefficients(self, elements, quad, samples):
        """As on any space, gathered from one :meth:`weighted_fourier`."""
        hat = self.weighted_fourier(quad, samples)
        return hat[self.flat_index(self._label_array(elements))] * self.order ** (-self.dim / 2)

    def inverse_fourier(self, coeffs) -> np.ndarray:
        """Inverse with dual weight 1/N^d: f(x) = N^{-d} sum_k f_hat(k) chi_k(x)."""
        a = np.asarray(coeffs, dtype=complex).reshape((self.order,) * self.dim)
        return np.fft.ifftn(a).ravel()


class ProductSpace(ModelSpace):
    """Cartesian product of two model spaces with the tensor-product basis.

    Coordinates concatenate; the joint eigenvalue concatenates; the
    eigenvalue is the sum of the factors' eigenvalues."""

    def __init__(self, first: ModelSpace, second: ModelSpace):
        self.first = first
        self.second = second
        self.dim = first.dim + second.dim
        self.coord_dim = first.coord_dim + second.coord_dim
        self.joint_dim = first.joint_dim + second.joint_dim
        self.total_measure = first.total_measure * second.total_measure
        self.kind = f"product({first.kind},{second.kind})"

    def _candidates(self, cutoff):
        # pair each first element with the second elements of eigenvalue at most its
        # residual; capping r2 at the largest pair sum keeps huge cutoffs in int64
        la, ea, _ = self.first._describe(self.first._candidates(cutoff))
        lb, eb, _ = self.second._describe(self.second._candidates(cutoff))
        r2 = min(_r2max(cutoff), int(ea.max(initial=0)) + int(eb.max(initial=0)))
        order = np.argsort(eb, kind="stable")
        counts = np.searchsorted(eb[order], r2 - ea, side="right")
        self._refuse_labels(int(counts.sum()), cutoff)
        ia = np.repeat(np.arange(len(la)), counts)
        ib = order[np.arange(len(ia)) - np.repeat(np.cumsum(counts) - counts, counts)]
        return np.hstack([la[ia], lb[ib]])

    def _describe(self, labels):
        a = self.first.dim
        la, ea, ja = self.first._describe(labels[:, :a])
        lb, eb, jb = self.second._describe(labels[:, a:])
        return np.hstack([la, lb]), ea + eb, np.hstack([ja, jb])

    def _peak_squares(self, labels):
        a = self.first.dim
        return self.first._peak_squares(labels[:, :a]) * self.second._peak_squares(labels[:, a:])

    def _flat(self, label):
        first, second = label
        return self.first._flat(first) + self.second._flat(second)

    def _structured(self, flat):
        a = self.first.dim
        return self.first._structured(flat[:a]), self.second._structured(flat[a:])

    def _max_eigenvalue(self):
        a, b = self.first._max_eigenvalue(), self.second._max_eigenvalue()
        return None if a is None or b is None else a + b

    def _split(self, pts):
        c = self.first.coord_dim
        return pts[:, :c], pts[:, c:]

    def _check_coordinates(self, pts):
        """Each factor's check on its own coordinates, so a refusal names the factor."""
        for space, part in zip((self.first, self.second), self._split(pts)):
            space._check_coordinates(part)

    def basis_matrix(self, elements, points):
        pts = self._check_points(points, len(elements))
        pa, pb = self._split(pts)
        labels = self._label_array(elements)
        a = self.first.dim
        ua, ia = np.unique(labels[:, :a], axis=0, return_inverse=True)
        ub, ib = np.unique(labels[:, a:], axis=0, return_inverse=True)
        va = self.first.basis_matrix(self.first._elements(ua, numbered=False), pa)
        vb = self.second.basis_matrix(self.second._elements(ub, numbered=False), pb)
        ia, ib = ia.ravel(), ib.ravel()
        return _gathered((len(pts), len(elements)), [lambda b: va[b][:, ia],
                                                     lambda b: vb[b][:, ib]])

    def build_quadrature(self, cutoff, oversample=1):
        qa = self.first.build_quadrature(cutoff, oversample)
        qb = self.second.build_quadrature(cutoff, oversample)
        self._refuse_grid(len(qa.weights) * len(qb.weights), cutoff, oversample)
        weights = _row_pairs(qa.weights[:, None], qb.weights[:, None]).prod(axis=1)
        return Quadrature(_row_pairs(qa.nodes, qb.nodes), weights,
                          exactness_degree=min(qa.exactness_degree, qb.exactness_degree))

    def _sample(self, k, rng):
        return np.concatenate([self.first._sample(k, rng), self.second._sample(k, rng)], axis=1)

    def extreme_points(self):
        return _row_pairs(self.first.extreme_points(), self.second.extreme_points())

    def _eigenvalue_from_joint(self, joint):
        wa = self.first.joint_dim
        return (self.first._eigenvalue_from_joint(joint[:wa])
                + self.second._eigenvalue_from_joint(joint[wa:]))


def _row_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of ``a`` joined to each row of ``b``, rows of ``a`` major."""
    return np.concatenate([np.repeat(a, len(b), axis=0), np.tile(b, (len(a), 1))], axis=1)


def descriptor_float(x: float) -> str:
    """``x`` to 12 significant digits when that text parses back to exactly
    ``x``, else ``repr(x)``: descriptors stay short and round-trip."""
    short = f"{x:.12g}"
    return short if float(short) == x else repr(x)


def split_top(text: str, sep: str) -> list[str]:
    """Split ``text`` at every ``sep`` that lies outside (), {} and [];
    ValueError naming a bracket that does not pair."""
    parts, open_, start = [], [], 0
    for i, ch in enumerate(text):
        if ch in "({[":
            open_.append(ch)
        elif ch in ")}]":
            if not open_ or open_.pop() + ch not in ("()", "{}", "[]"):
                raise ValueError(f"unpaired {ch!r} in {text!r}")
        elif ch == sep and not open_:
            parts.append(text[start:i])
            start = i + 1
    if open_:
        raise ValueError(f"unpaired {open_[-1]!r} in {text!r}")
    return parts + [text[start:]]


def split_items(text: str, sep: str = ",") -> list[str]:
    """The items of ``split_top(text, sep)``, none for a blank ``text``;
    ValueError for an empty item, as a doubled or trailing ``sep`` leaves."""
    items = split_top(text, sep) if text.strip() else []
    if not all(item.strip() for item in items):
        raise ValueError(f"empty item in {text!r}")
    return items


def bracketed(text: str, brackets: str = "()") -> list[str]:
    """The comma-separated items of ``text`` inside one pair of ``brackets``;
    a tuple, in (), may end in one comma, as (0,) does.  ValueError naming
    ``text`` when it is not one bracketed body, or a bracket that does not pair."""
    t = text.strip()
    split_top(t, ",")
    if not (t[:1] == brackets[0] and t[-1:] == brackets[1]):
        raise ValueError(f"{t!r} must look like {brackets[0]}...{brackets[1]}")
    body = t[1:-1]
    return split_items(body.removesuffix(",") if brackets == "()" else body)


def split_product(text: str) -> list[str] | None:
    """The two factor descriptors of ``product(a,b)``, split at its top-level
    comma, or None for another descriptor.  A key=value item such as the "d=1"
    of "zn:N=4,d=1" continues its factor; ValueError unless there are two."""
    if not text.startswith("product("):
        return None
    factors = []
    for item in bracketed(text[len("product"):]):
        if factors and re.match(r"\s*\w+=", item):
            factors[-1] += "," + item
        else:
            factors.append(item)
    if len(factors) != 2:
        raise ValueError(f"a product needs two comma-separated factors, got {len(factors)}")
    return factors


@contextmanager
def descriptor_errors(text: str, kind: str):
    """Raise a ValueError or TypeError from the block as
    ``DescriptorError(text, "bad <kind> descriptor (...)")``; a DescriptorError
    of an inner descriptor passes through, naming its own token."""
    try:
        yield
    except DescriptorError:
        raise
    except (ValueError, TypeError) as exc:
        raise DescriptorError(text, f"bad {kind} descriptor ({exc})") from exc


def _fields(body: str, keys: tuple) -> dict:
    """The key=value fields of a descriptor body; ValueError naming a field
    that is not key=value with a key of ``keys``, or whose key repeats, and
    naming the first key when it is missing."""
    fields = {}
    for token in body.split(","):
        key, eq, value = token.partition("=")
        key = key.strip()
        if key in fields:
            raise ValueError(f"repeated field {token!r}")
        if key not in keys or not eq:
            raise ValueError(f"unknown field {token!r}, expected "
                             + ",".join(f"{k}=<int>" for k in keys))
        fields[key] = value
    if keys[0] not in fields:
        raise ValueError(f"missing field {keys[0]}=<int>")
    return fields


def parse_space(text: str) -> ModelSpace:
    """Build a space from a compact descriptor.

    Examples: ``torus:d=2``, ``sphere2``, ``zn:N=256,d=1``,
    ``product(torus:d=1,sphere2)``, ``product(zn:N=4,d=1,sphere2)``.
    """
    s = text.strip()
    kind, _, body = s.partition(":")
    with descriptor_errors(text, {"torus": "torus", "zn": "finite-group"}.get(kind, "space")):
        if (factors := split_product(s)) is not None:
            return ProductSpace(*map(parse_space, factors))
        if s == "sphere2":
            return Sphere2()
        if kind == "torus":
            return Torus(int(_fields(body, ("d",))["d"]))
        if kind == "zn":
            fields = _fields(body, ("N", "d"))
            return FiniteGroup(int(fields["N"]), int(fields.get("d", 1)))
    raise DescriptorError(text, "unrecognized space descriptor")
