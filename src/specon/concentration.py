"""The operator core: spatial cut-off, band-limiting, the concentration
(Gram) matrix over a region, its eigenproblem, and concentration levels.

The Gram matrix G_{jk} = int_E e_j conj(e_k) represents the composition
"band-limit, then cut off" on the span of X_S; its top eigenvalue is the
largest fraction of L2 mass a function band-limited to X_S can place inside
E, which is the classical concentration problem of Slepian type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoarseQuadratureError
from .regions import Region
from .spaces import FiniteGroup, Quadrature
from .spectral import SpectralSet

EIG_EXCURSION = 1e-8
EXACTNESS_TOL = 1e-8


@dataclass
class BandlimitedFunction:
    """f = sum over X_S of a_j e_j, stored as coefficients aligned with the
    elements of its spectral set."""

    spectral_set: SpectralSet
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != (self.spectral_set.size,):
            raise ValueError(
                f"need {self.spectral_set.size} coefficients, got {self.coefficients.shape}"
            )

    @property
    def norm(self) -> float:
        """L2 norm by Plancherel on the orthonormal system."""
        return float(np.linalg.norm(self.coefficients))

    def values(self, points) -> np.ndarray:
        space = self.spectral_set.space
        v = space.basis_matrix(self.spectral_set.elements, points)
        return v @ self.coefficients

    def samples(self, quad: Quadrature) -> np.ndarray:
        return self.values(quad.nodes)

    def full_coefficients(self, size: int) -> np.ndarray:
        """Embed into a coefficient vector over the first ``size`` elements of
        the global enumeration."""
        out = np.zeros(size, dtype=complex)
        for idx, a in zip(self.spectral_set.indices, self.coefficients):
            if idx >= size:
                raise ValueError(f"index {idx} does not fit in a vector of size {size}")
            out[idx] = a
        return out


@dataclass(frozen=True)
class ConcentrationLevels:
    """Spatial and spectral tail fractions and the equivalent levels:
    epsilon is the L^p mass fraction outside E, epsilon_prime the l2
    coefficient fraction outside X_S, and L = (1 - epsilon^p)^{-1/p},
    L_prime = (1 - epsilon_prime^2)^{-1/2}."""

    epsilon: float
    epsilon_prime: float
    p: int

    @property
    def L(self) -> float:
        base = 1.0 - self.epsilon**self.p
        return math.inf if base <= 0 else base ** (-1.0 / self.p)

    @property
    def L_prime(self) -> float:
        base = 1.0 - self.epsilon_prime**2
        return math.inf if base <= 0 else base**-0.5

    @property
    def informative(self) -> bool:
        """The (1 - epsilon - epsilon') bounds say something only here."""
        return self.epsilon + self.epsilon_prime < 1.0

    @property
    def gap(self) -> float:
        """1 - epsilon - epsilon', the base of every (1 - eps - eps') bound."""
        return 1.0 - self.epsilon - self.epsilon_prime

    @property
    def caveats(self) -> list:
        """The vacuity caveat of a (1 - eps - eps') bound at these levels."""
        return [] if self.informative else ["vacuous: epsilon + epsilon_prime >= 1"]


def sample_values(f, quad: Quadrature) -> np.ndarray:
    """Node samples of ``f``: a BandlimitedFunction, or an array already
    aligned with the nodes."""
    if isinstance(f, BandlimitedFunction):
        return f.samples(quad)
    a = np.asarray(f, dtype=complex)
    if a.shape != (quad.nodes.shape[0],):
        raise ValueError(f"sample vector shape {a.shape} does not match {quad.nodes.shape[0]} nodes")
    return a


def band_project(f_hat, sset: SpectralSet) -> BandlimitedFunction:
    """Keep the coordinates of a full coefficient vector (indexed by the
    global enumeration) that lie in X_S, zeroing the rest.  Idempotent."""
    f_hat = np.asarray(f_hat, dtype=complex)
    if sset.indices and max(sset.indices) >= f_hat.shape[0]:
        raise ValueError(
            f"coefficient vector of length {f_hat.shape[0]} does not cover X_S "
            f"(max index {max(sset.indices)})"
        )
    return BandlimitedFunction(sset, f_hat[sset.indices] if sset.indices else np.zeros(0))


def restrict_band(f: BandlimitedFunction, sset: SpectralSet) -> BandlimitedFunction:
    """Band-limiting projection of an expanded function onto another spectral
    set over the same space (coefficients matched by global index)."""
    size = max([*f.spectral_set.indices, *sset.indices], default=-1) + 1
    return band_project(f.full_coefficients(size), sset)


def cutoff(f, region: Region, quad: Quadrature) -> np.ndarray:
    """Samples of 1_E f at the quadrature nodes.  Idempotent."""
    vals = sample_values(f, quad)
    return vals * region.contains_mask(quad.nodes)


@dataclass
class GramMatrix:
    """Hermitian G_{jk} = int_E e_j conj(e_k) over a spectral set by masked quadrature,
    zero off its diagonal ``blocks`` of (element positions, block, the real form the block
    is over or None for the elements); None is one block of ``entries``."""

    spectral_set: SpectralSet
    region: Region
    entries: np.ndarray
    nodes_inside: int
    blocks: list | None = None

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.entries)))

    @cached_property
    def _eigh(self):
        """The one eigendecomposition every eigen accessor reads, solved per
        block (in real arithmetic over a real form) and merged by a stable sort
        of the eigenvalues."""
        n = self.entries.shape[0]
        vals, vecs, at = np.empty(n), np.zeros((n, n), dtype=complex), 0
        for cols, block, form in self.blocks or [(np.arange(n), self.entries, None)]:
            span = slice(at, at := at + len(cols))
            vals[span], v = np.linalg.eigh(block)
            vecs[cols, span] = v if form is None else form.lift(v)
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order]

    def raw_eigenvalues(self) -> np.ndarray:
        return self._eigh[0].copy()

    def _checked_eigenvalues(self) -> np.ndarray:
        vals = self._eigh[0]
        if vals.size and (vals.min() < -EIG_EXCURSION or vals.max() > 1.0 + EIG_EXCURSION):
            raise CoarseQuadratureError(
                f"Gram eigenvalues escape [0, 1] by more than {EIG_EXCURSION} "
                f"(range [{vals.min()}, {vals.max()}]); refine the quadrature"
            )
        return vals

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues clamped to [0, 1]; excursions beyond 1e-8 raise."""
        return np.clip(self._checked_eigenvalues(), 0.0, 1.0)

    def eigenvectors(self) -> np.ndarray:
        """Unit eigenvectors as columns, in the order of :meth:`eigenvalues`;
        excursions beyond 1e-8 raise as there."""
        self._checked_eigenvalues()
        return self._eigh[1].copy()

    def top_eigenpair(self):
        """Largest eigenvalue, clamped to [0, 1], and a unit eigenvector;
        excursions beyond 1e-8 raise as in :meth:`eigenvalues`."""
        lam = float(np.clip(self._checked_eigenvalues()[-1], 0.0, 1.0))
        vec = self._eigh[1][:, -1]
        return lam, vec / np.linalg.norm(vec)

    def to_json_dict(self) -> dict:
        """Row-major entries as [re, im] pairs, for external cross-checking."""
        return {
            "spectrum": self.spectral_set.descriptor,
            "region": self.region.descriptor,
            "size": int(self.entries.shape[0]),
            "nodes_inside": self.nodes_inside,
            "trace": self.trace,
            "entries": [[float(z.real), float(z.imag)] for z in self.entries.ravel()],
        }


def gram_matrix(sset: SpectralSet, region: Region, quad: Quadrature) -> GramMatrix:
    """Assemble the concentration matrix over E by masked quadrature, in the
    diagonal blocks the space splits it into (ModelSpace._gram_blocks), each
    over the elements or, for a set closed under conjugation, over their real
    basis, where the eigenproblem is real symmetric.  The full-space Gram of
    each block, over the region's nodes and the rest, is verified to be the
    identity within EXACTNESS_TOL, which catches a quadrature too coarse for
    the requested band."""
    mask = region.contains_mask(quad.nodes)
    g = np.zeros((sset.size, sset.size), dtype=complex)
    blocks, err = [], 0.0
    for cols, b, full, form in sset.space._gram_blocks(sset.elements, quad, mask):
        err = max(err, float(np.abs(full - np.eye(len(cols))).max(initial=0.0)))
        b = 0.5 * (b + b.conj().T)
        g[np.ix_(cols, cols)] = b if form is None else form.gram(b)
        blocks.append((cols, b, form))
    if err > EXACTNESS_TOL:
        raise CoarseQuadratureError(
            f"quadrature is not exact on the requested band "
            f"(orthonormality defect {err:.3g} > {EXACTNESS_TOL:g})"
        )
    return GramMatrix(sset, region, g, int(mask.sum()), blocks)


def max_concentration(gram: GramMatrix):
    """Top eigenpair of the concentration matrix: the largest achievable
    fraction of L2 mass inside E for a function band-limited to X_S, and the
    coefficient vector achieving it."""
    return gram.top_eigenpair()


def concentration_levels(f, region: Region, sset: SpectralSet,
                         quad: Quadrature) -> ConcentrationLevels:
    """Tail fractions of ``f``: spatial epsilon = |f - 1_E f|_2 / |f|_2 by
    quadrature, spectral epsilon' = l2 coefficient fraction outside X_S.

    The spectral tail needs a coefficient representation: a
    BandlimitedFunction, or node samples on a finite group, whose
    coefficients one FFT gives.
    """
    vals = sample_values(f, quad)
    total = quad.norm(vals, 2)
    if total < 1e-300:
        raise ValueError("concentration levels are undefined for the zero function")
    outside = quad.norm(vals * ~region.contains_mask(quad.nodes), 2)
    eps = min(outside / total, 1.0)

    space = sset.space
    if isinstance(f, BandlimitedFunction):
        coeffs = f.coefficients
        inside_idx = set(sset.indices)
        tail = [a for j, a in zip(f.spectral_set.indices, coeffs) if j not in inside_idx]
    elif isinstance(space, FiniteGroup):
        # unnormalized: the common N^{-d/2} cancels in the ratio below
        coeffs = space.weighted_fourier(quad, vals)
        tail = coeffs.copy()
        tail[space.flat_index(space._label_array(sset.elements))] = 0.0
    else:
        raise ValueError("spectral tail needs a BandlimitedFunction on continuum spaces")
    norm2 = float(np.linalg.norm(coeffs))
    tail2 = float(np.linalg.norm(tail))
    eps_prime = min(tail2 / norm2, 1.0) if norm2 > 0 else 0.0
    return ConcentrationLevels(epsilon=eps, epsilon_prime=eps_prime, p=2)


def masked_band_energy(sset: SpectralSet, region: Region, quad: Quadrature) -> float:
    """int_E sum over X_S of |e_j|^2 by masked quadrature (the Gram trace,
    without assembling the matrix)."""
    if not sset.size:
        return 0.0
    v = sset.space.basis_matrix(sset.elements, quad.nodes)
    mask = region.contains_mask(quad.nodes)
    return float(np.sum(quad.weights * mask * np.sum(np.abs(v) ** 2, axis=1)))

