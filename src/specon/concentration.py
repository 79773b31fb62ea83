"""The operator core: spatial cut-off, band-limiting, the concentration
(Gram) matrix over a region, its eigenproblem, and concentration levels.

The Gram matrix G_{jk} = int_E conj(e_j) e_k represents the composition
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
from .spaces import FiniteGroup, Quadrature, _identity, _refuse_oversized
from .spectral import SpectralSet

EIG_EXCURSION = 1e-8


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
        sset = self.spectral_set
        return sset.space.synthesize(sset.elements, self.coefficients, points)

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


class GramMatrix:
    """Hermitian G_{jk} = int_E conj(e_j) e_k over a spectral set, so that a^H G a is the
    mass inside E of sum_j a_j e_j, held as the (block, basis) pairs of Region._gram_blocks;
    the dense ``entries`` are built from them when first read, or given as one block."""

    def __init__(self, spectral_set: SpectralSet, region: Region, entries=None, blocks=None):
        self.spectral_set, self.region = spectral_set, region
        if blocks is None:
            self.entries = entries = np.asarray(entries)
            blocks = [(entries, _identity(len(entries), np.arange(len(entries))))]
        self.blocks, self.size = blocks, sum(len(block) for block, _ in blocks)
        if self.size != spectral_set.size:
            raise ValueError(f"Gram blocks of {self.size} functions do not cover the "
                             f"{spectral_set.size} elements of {spectral_set.descriptor!r}")

    @cached_property
    def entries(self) -> np.ndarray:
        """The n x n complex matrix, refused before allocation over MAX_BASIS_BYTES."""
        n = self.size
        _refuse_oversized(f"dense Gram of {self.spectral_set.descriptor!r} ({n:,} x {n:,})",
                          16 * n * n, "the spectrum sets its size")
        g = np.zeros((n, n), dtype=complex)
        for block, basis in self.blocks:
            basis.add_gram(block, g)
        return g

    @property
    def trace(self) -> float:
        return float(sum(np.real(np.trace(block)) for block, _ in self.blocks))

    @cached_property
    def _eigh(self):
        """(eigenvalues, their positions in block order, each block's eigenvectors): each
        distinct block solved once, in real arithmetic for the real sector and ring-order
        blocks and in complex for a block over the elements, and the eigenvalues merged by a
        stable sort."""
        solved = {}
        for block, _ in self.blocks:
            if id(block) not in solved:
                solved[id(block)] = np.linalg.eigh(block)
        pairs = [solved[id(b)] for b, _ in self.blocks]
        vals = np.concatenate([np.empty(0)] + [v for v, _ in pairs])
        order = np.argsort(vals, kind="stable")
        return vals[order], order, [p for _, p in pairs]

    def _lift(self, at: np.ndarray) -> np.ndarray:
        """Unit eigenvectors over the elements, as columns, at sorted positions ``at``."""
        _, order, vecs = self._eigh
        starts = np.cumsum([0] + [len(block) for block, _ in self.blocks])
        block = np.searchsorted(starts, order[at], side="right") - 1
        out = np.zeros((self.size, len(at)), dtype=complex)
        for i in np.unique(block).tolist():
            mine = np.flatnonzero(block == i)
            out[:, mine] = self.blocks[i][1].lift(vecs[i][:, order[at][mine] - starts[i]])
        return out

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
        """Unit eigenvectors as columns, in the order of :meth:`eigenvalues`, lifted from
        the blocks on each call; excursions beyond 1e-8 raise as there."""
        return self._lift(np.arange(len(self._checked_eigenvalues())))

    def top_eigenpair(self):
        """Largest eigenvalue, clamped to [0, 1], and a unit eigenvector, the one column
        lifted; excursions beyond 1e-8 raise as in :meth:`eigenvalues`, and an empty
        spectral set."""
        vals = self._checked_eigenvalues()
        if not vals.size:
            raise ValueError(f"spectral set {self.spectral_set.descriptor!r} is empty: "
                             f"no top eigenpair")
        lam = float(np.clip(vals[-1], 0.0, 1.0))
        vec = self._lift(np.array([len(vals) - 1]))[:, 0]
        return lam, vec / np.linalg.norm(vec)

    def to_json_dict(self) -> dict:
        """Row-major entries, which dumps_stable writes as [re, im] pairs, for external
        cross-checking."""
        return {
            "spectrum": self.spectral_set.descriptor,
            "region": self.region.descriptor,
            "size": self.size,
            "trace": self.trace,
            "entries": self.entries.ravel(),
        }


def gram_matrix(sset: SpectralSet, region: Region, quad: Quadrature) -> GramMatrix:
    """The concentration matrix over E as the blocks its region's family builds
    (Region._gram_blocks): in closed form on torus boxes, by quadrature elsewhere."""
    mask = region.contains_mask(quad.nodes)
    return GramMatrix(sset, region, blocks=region._gram_blocks(sset.elements, quad, mask))


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
    """int_E sum over X_S of |e_j|^2 by masked quadrature: the trace of a Gram built
    by quadrature, which a torus box's exact Gram matches only on cell-aligned boxes.
    The sum at each inside node is the space's :meth:`~ModelSpace.summed_squares`: the
    sphere reads it from its Legendre table, every other space from the basis matrix."""
    if not sset.size:
        return 0.0
    mask = region.contains_mask(quad.nodes)
    sums = sset.space.summed_squares(sset.elements, quad.nodes[mask])
    return float(np.sum(quad.weights[mask] * sums))

