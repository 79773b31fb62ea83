"""Spectrum-side machinery: spectral sets, Weyl counting, homogeneity checks,
unit-interval coverings, and empirical sup-norm constants."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DescriptorError
from .random_spectra import DEFAULT_SEED
from .spaces import ModelSpace, Sphere2, bracketed, descriptor_errors, descriptor_float


class SpectralSet:
    """A finite set S of eigenvalues (scalar frequencies or joint tuples)
    together with the induced index set X_S = {j : lambda_j in S}, counting
    multiplicity.  Selection is exact: eigenvalues are integers, so a class
    shares its frequency and joint tuple bit for bit.  A value that selects
    no element is off the spectrum: ValueError names it and the space.
    """

    def __init__(self, space: ModelSpace, values, joint: bool = False,
                 descriptor: str | None = None):
        self.space = space
        self.is_joint = bool(joint)
        if joint:
            vals = sorted({tuple(float(c) for c in v) for v in values})
            for v in vals:
                if len(v) != space.joint_dim:
                    raise ValueError(
                        f"joint value {v} has {len(v)} components, "
                        f"{space.kind} has joint dimension {space.joint_dim}"
                    )
        else:
            vals = sorted({float(v) for v in values})
            if vals and vals[0] < 0:
                raise ValueError("frequencies are nonnegative")
        self.values = tuple(vals)
        if descriptor is None:
            descriptor = ("joint:[" if joint else "list:[") + ",".join(map(self._text, vals)) + "]"
        self.descriptor = descriptor
        self.elements = self._match()
        self.indices = [el.index for el in self.elements]

    def _text(self, value) -> str:
        """A value as its descriptor writes it."""
        return ("(" + ",".join(map(descriptor_float, value)) + ")" if self.is_joint
                else descriptor_float(value))

    def _match(self):
        """The elements whose frequency (joint tuple) is a value: one enumeration
        at max_frequency holds them all, as _r2max(sqrt(e)) >= e."""
        if not self.values:
            return []
        key = operator.attrgetter("joint" if self.is_joint else "frequency")
        wanted = set(self.values)
        picked = [el for el in self.space.enumerate_basis(self.max_frequency) if key(el) in wanted]
        missing = wanted.difference(map(key, picked))
        if missing:
            raise ValueError(f"{self._text(min(missing))} is not in the spectrum of "
                             f"{self.space.kind}")
        return picked

    @property
    def size(self) -> int:
        """#X_S, counting multiplicity."""
        return len(self.elements)

    @property
    def max_frequency(self) -> float:
        if not self.values:
            return 0.0
        if self.is_joint:
            return math.sqrt(max(self.space._eigenvalue_from_joint(v) for v in self.values))
        return max(self.values)

    def scalar_values(self):
        if self.is_joint:
            raise ValueError("spectral set is joint-valued")
        return self.values

    def __repr__(self):
        return f"SpectralSet({self.descriptor!r}, #X_S={self.size})"


def spectrum_ball(space: ModelSpace, lam: float) -> SpectralSet:
    """All distinct frequencies <= lam: the set keeps each once."""
    freqs = np.sqrt(space._eigenvalues_upto(lam)[1]).tolist()
    return SpectralSet(space, freqs, descriptor=f"ball:{descriptor_float(lam)}")


def spectrum_level(space: Sphere2, degree: int) -> SpectralSet:
    """The single sphere level l = degree (all 2l+1 orders)."""
    if not isinstance(space, Sphere2):
        raise ValueError("level spectra are defined on the sphere")
    if degree < 0:
        raise ValueError(f"degree {degree} is negative")
    return SpectralSet(space, [math.sqrt(degree * (degree + 1))], descriptor=f"level:l={degree}")


def _unprefix(body: str, *prefixes: str) -> str:
    """``body`` without the first of ``prefixes`` it starts with."""
    return next((body[len(p):] for p in prefixes if body.startswith(p)), body)


def parse_spectrum(space: ModelSpace, text: str) -> SpectralSet:
    """Build a spectral set from a descriptor.

    Examples: ``level:l=3`` (sphere degree, ``ℓ`` accepted), ``ball:5``
    (frequencies <= 5, ``ball:λ≤5`` accepted), ``list:[1,2.23606797749979]``,
    ``joint:[(1,2),(0,0)]``; a value off the spectrum is refused, and so is
    an alias anywhere but at the start of a ``level:`` or ``ball:`` body.
    """
    kind, _, body = text.strip().partition(":")
    with descriptor_errors(text, "spectrum"):
        if kind == "level":
            return spectrum_level(space, int(_unprefix(body, "l=", "ℓ=")))
        if kind == "ball":
            return spectrum_ball(space, float(_unprefix(body, "λ≤", "lambda<=")))
        if kind == "list":
            return SpectralSet(space, [float(v) for v in bracketed(body, "[]")],
                               descriptor=text.strip())
        if kind == "joint":
            vals = [tuple(map(float, bracketed(v))) for v in bracketed(body, "[]")]
            return SpectralSet(space, vals, joint=True, descriptor=text.strip())
    raise DescriptorError(text, "unrecognized spectrum descriptor")


# -- counting ------------------------------------------------------------------


def weyl_count(space: ModelSpace, lam):
    """N(lambda): eigenvalues with frequency <= lambda, with multiplicity, or the
    list of them for a sequence of lambdas (:meth:`ModelSpace.count_upto`)."""
    if (np.asarray(lam, float) < 0).any():
        raise ValueError("lambda must be nonnegative")
    return space.count_upto(lam)


def local_weyl(space: ModelSpace, x, lam):
    """N_x(lambda) = sum over frequencies <= lambda of |e_j(x)|^2, or the list of
    them for a sequence of lambdas: each is the pairwise np.sum of a prefix of one
    evaluation at the largest lambda, as the enumeration is sorted by frequency."""
    lams = np.atleast_1d(np.asarray(lam, float))
    if (lams < 0).any():
        raise ValueError("lambda must be nonnegative")
    els = space.enumerate_basis(float(lams.max(initial=0.0)))
    freqs = np.array([el.frequency for el in els])
    mags = np.abs(space.basis_matrix(els, np.atleast_2d(np.asarray(x, float)))[0]) ** 2
    sums = [float(np.sum(mags[:k])) for k in np.searchsorted(freqs, lams, side="right")]
    return sums if np.ndim(lam) else sums[0]


def check_homogeneity(space: ModelSpace, value, sample_points, tol: float = 1e-9,
                      joint: bool = False):
    """Test whether the degeneracy class of ``value`` has a constant summed
    square modulus, equal to multiplicity / |M|, at the sample points.

    Returns (holds, max_deviation).  Sampling cannot certify the identity
    everywhere; it can only refute it, which is what the tolerance check does.
    The sums are the space's :meth:`~ModelSpace.summed_squares`, which the
    sphere reads from its Legendre table at the distinct colatitudes.
    """
    sset = SpectralSet(space, [value], joint=joint)
    sums = space.summed_squares(sset.elements, sample_points)
    target = sset.size / space.total_measure
    dev = float(np.max(np.abs(sums - target)))
    return dev <= tol, dev


def homogeneity_deviations(sset: SpectralSet, samples: int, rng, tol: float):
    """:func:`check_homogeneity`'s (holds, max_deviation) for each value of
    ``sset``, at the space's extreme points and ``samples`` points drawn from
    ``rng``."""
    space = sset.space
    pts = np.concatenate([space.extreme_points(), space.sample_points(samples, rng)])
    return [check_homogeneity(space, value, pts, tol=tol, joint=sset.is_joint)
            for value in sset.values]


@dataclass(frozen=True)
class Covering:
    """Left ends of unit intervals [mu_k, mu_k + 1] covering a scalar set."""

    starts: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.starts)

    def covers(self, x: float) -> bool:
        return any(mu <= x <= mu + 1.0 for mu in self.starts)


def cover_by_unit_intervals(sset: SpectralSet) -> Covering:
    """Greedy left-to-right covering of a scalar spectral set by unit
    intervals; greedy is optimal for points on a line."""
    vals = sorted(sset.scalar_values())
    starts = []
    for v in vals:
        if not starts or v > starts[-1] + 1.0:
            starts.append(v)
    return Covering(tuple(starts))


def sogge_constant_estimate(space: ModelSpace, lam_max: float, x_samples: int = 64,
                            grid_step: float = 0.5, seed: int = DEFAULT_SEED,
                            extra_lambdas=()) -> float:
    """Empirical constant C with sum_{lambda_j in [lambda, lambda+1]}
    |e_j(x)|^2 <= C lambda^{d-1} over a lambda grid in [1, lam_max] and
    sampled x (canonical extreme points are always included).

    This is a maximum over a finite grid, not a bound on the true supremum.
    """
    if lam_max < 1:
        raise ValueError("lam_max must be >= 1")
    grid = sorted(set(np.arange(1.0, lam_max + grid_step, grid_step).tolist())
                  | {float(v) for v in extra_lambdas if 1.0 <= v <= lam_max})
    els = space.enumerate_basis(lam_max + 1.0)
    freqs = np.array([el.frequency for el in els])
    rng = np.random.default_rng(seed)
    pts = np.concatenate([space.extreme_points(), space.sample_points(x_samples, rng)])
    mags = np.abs(space.basis_matrix(els, pts)) ** 2
    best = 0.0
    for lam in grid:
        cols = (freqs >= lam) & (freqs <= lam + 1.0)
        if not cols.any():
            continue
        peak = float(np.max(np.sum(mags[:, cols], axis=1)))
        best = max(best, peak / lam ** (space.dim - 1))
    return best
