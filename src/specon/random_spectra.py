"""Randomized spectral-subset experiments: generic index subsets, Monte-Carlo
lower estimates of q-orthogonality constants, and random-half splits with
observed L2/L1 norm equivalences.

Randomness is reproducible by construction: every routine takes an integer
seed, and independent trials use the stream-splitting rule

    rng(seed, t) = numpy PCG64 seeded with SeedSequence(seed, spawn_key=(t,))

so serial and parallel executions of the same trial list agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CoarseQuadratureError, SpeconError
from .spaces import ModelSpace, Quadrature, _refuse_oversized

DEFAULT_SEED = 12345
# an ascent stops once a step no longer raises the best ratio by more than
# this, relative to max(best, 1)
RATIO_TOL = 1e-8


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The documented per-trial generator: PCG64 over SeedSequence(seed,
    spawn_key=(trial,))."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))


@dataclass(frozen=True)
class RandomSubsetSpec:
    """Parameters of a generic random subset of {0, ..., n-1}: each index is
    kept independently with probability delta = n^{2/q - 1}, so the expected
    size is n^{2/q}."""

    n: int
    q: float
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.q > 2:
            raise ValueError("generic subsets need q > 2")

    @property
    def delta(self) -> float:
        return float(self.n) ** (2.0 / self.q - 1.0)

    @property
    def expected_size(self) -> float:
        return self.n * self.delta


def generic_subset(spec: RandomSubsetSpec) -> list[int]:
    """Indices kept by independent coin flips of bias delta; deterministic
    given the spec's seed."""
    _refuse_oversized(f"generic-subset draw of {spec.n:,} indices", spec.n * 8,
                      "n sets the draw size")
    rng = trial_rng(spec.seed, 0)
    keep = rng.random(spec.n) < spec.delta
    return [int(i) for i in np.flatnonzero(keep)]


def lq_norm(samples, quad: Quadrature, q: float) -> float:
    """Weighted L^q norm of node samples; q = inf returns the node maximum."""
    if not q >= 1:
        raise ValueError("q must be >= 1")
    return quad.norm(samples, q)


@dataclass
class LambdaQEstimate:
    """Monte-Carlo lower estimate of a subset's q-orthogonality constant
    C(q) = sup |sum a_i psi_i|_q / |a|_2 under the normalized measure, by node
    sums and so not a certified bound, together with its
    :func:`interpolation_bound` ``c_interp``.
    ``measured_sup`` is the largest |psi_i| at the quadrature nodes.
    """

    subset: list[int]
    q: float
    c_lower: float
    c_interp: float
    trials: int
    ascent_iterations: int
    seed: int
    measured_sup: float
    best_coefficients: np.ndarray = field(repr=False, default=None)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in ("subset", "q", "c_lower", "c_interp", "trials",
                                                    "ascent_iterations", "seed", "measured_sup")}


def qnorm_cutoff(elements, q: float) -> float:
    """The quadrature cutoff at which node sums resolve q-norms on the span of
    ``elements``: q/2 times their top frequency, or the band's own at q = inf,
    as a node maximum is a lower estimate of the sup at any resolution."""
    fmax = max((el.frequency for el in elements), default=0.0)
    return fmax if math.isinf(q) else fmax * (q / 2.0)


def interpolation_bound(space: ModelSpace, elements, q: float) -> float:
    """(sum over ``elements`` of |M| sup |e_j|^2)^{1/2 - 1/q}, which bounds
    their q-orthogonality constant under the normalized measure: the sup of
    sum a_j psi_j is at most |a|_2 (sum sup |psi_j|^2)^{1/2}, and Hoelder
    interpolates between that and the L2 norm.  For characters it is
    (#S)^{1/2 - 1/q}."""
    peaks = space._peak_squares(space._label_array(elements))
    return float(peaks.sum()) ** (0.5 - (0.0 if math.isinf(q) else 1.0 / q))


def _qnorm_resolution_check(elements, quad, q):
    needed = int(math.ceil(2 * qnorm_cutoff(elements, q)))
    if not math.isinf(q) and quad.exactness_degree < needed:
        raise CoarseQuadratureError(f"quadrature degree {quad.exactness_degree} is below the "
                                    f"q-norm resolution heuristic {needed} (q={q})")


def estimate_cq(space: ModelSpace, elements, q: float, quad: Quadrature,
                trials: int = 20, ascent_iterations: int = 200,
                seed: int = DEFAULT_SEED, extra_starts=()) -> LambdaQEstimate:
    """Monte-Carlo lower estimate of the q-orthogonality constant of the basis
    slice ``elements``, refined by projected fixed-point ascent on the norm ratio.

    The measure is normalized to total mass one and the basis elements are
    rescaled by sqrt(|M|), so characters have modulus exactly one.  Trials
    start from every coordinate vector, ``trials`` random unit vectors, and
    any ``extra_starts``; the result never falls below the ratio of any
    start, which makes the estimate monotone under subset extension when the
    smaller problem's best vector is passed back in (zero-padded).

    q = 2 is allowed as a diagnostic: the ratio is identically one there.
    """
    if not q >= 2:
        raise ValueError("q must be >= 2 (q = 2 is the orthogonality diagnostic)")
    if not elements:
        raise ValueError("elements must be nonempty")
    _qnorm_resolution_check(elements, quad, q)
    m = len(elements)
    _refuse_oversized(f"estimate_cq start table of ({m:,} + {trials:,} trials) x {m:,}",
                      (m + trials) * m * 16, "the trial count and the subset size set its size")

    scale = math.sqrt(space.total_measure)
    psi = space.basis_matrix(elements, quad.nodes) * scale
    # the ascent's products are einsum loops, not BLAS calls, so the printed
    # digits do not depend on how BLAS splits its sums across threads
    psi_h = np.ascontiguousarray(psi.conj().T)
    w = quad.weights / space.total_measure
    measured_sup = float(np.abs(psi).max())

    def ratio(a):
        f = np.einsum("ij,j->i", psi, a)
        if math.isinf(q):
            num = float(np.abs(f).max())
        else:
            num = float(np.sum(w * np.abs(f) ** q) ** (1.0 / q))
        return num / float(np.linalg.norm(a)), f

    def ascend(a):
        a = a / np.linalg.norm(a)
        (best, f), best_a = ratio(a), a
        for _ in range(ascent_iterations):
            mag = np.abs(f)
            if math.isinf(q):
                k = int(np.argmax(mag))
                g = psi_h[:, k] * (f[k] / mag[k] if mag[k] > 0 else 1.0)
            else:
                phase = np.where(mag > 0, f / np.where(mag > 0, mag, 1.0), 1.0)
                g = np.einsum("ij,j->i", psi_h, w * mag ** (q - 1.0) * phase)
            gn = np.linalg.norm(g)
            if gn == 0:
                break
            a = g / gn
            r, f = ratio(a)
            if r > best:
                best, best_a = r, a
            if abs(r - best) <= RATIO_TOL * max(best, 1.0) and r <= best:
                break
        return best, best_a

    rng = trial_rng(seed, 0)
    starts = list(np.eye(m, dtype=complex)) + [np.asarray(x, dtype=complex) for x in extra_starts]
    starts += [rng.normal(size=m) + 1j * rng.normal(size=m) for _ in range(trials)]

    c_lower, best_a = 0.0, starts[0]
    for s in starts:
        r, a = ascend(s)
        if r > c_lower:
            c_lower, best_a = r, a
    c_interp = interpolation_bound(space, elements, q)
    if c_lower > c_interp * (1.0 + 1e-9):
        raise CoarseQuadratureError(f"lower estimate {c_lower} exceeds the interpolation "
                                    f"bound {c_interp}; the quadrature under-resolves the q-norm")
    return LambdaQEstimate(subset=[el.index for el in elements], q=q, c_lower=c_lower,
                           c_interp=c_interp, trials=trials,
                           ascent_iterations=ascent_iterations, seed=seed,
                           measured_sup=measured_sup, best_coefficients=best_a)


def gmpt_benchmark(b_sup: float, n: int) -> float:
    """The shape B log(n) loglog(n)^{5/2} of the generic-split theorem's
    L2/L1 constant, for a system of n elements bounded by B."""
    if n < 4:
        raise ValueError(f"n must be an even integer >= 4, got {n}")
    return b_sup * math.log(n) * math.log(math.log(n)) ** 2.5


@dataclass
class GmptSplit:
    """A near-half subset I of positions in n basis elements together with
    the worst observed L2/L1 norm ratio over trial coefficient vectors, taken
    over both I and its complement.  ``b_sup`` is the exact uniform bound
    max_j sup |e_j| of the system and ``benchmark`` the shape
    B log(n) loglog(n)^{5/2} the observed constant is compared against."""

    indices: list[int]
    n: int
    c_param: float
    k_observed: float
    b_sup: float
    seed: int
    size_deviation: float
    success_fraction: float

    @property
    def complement(self) -> list[int]:
        chosen = set(self.indices)
        return [i for i in range(self.n) if i not in chosen]

    @property
    def benchmark(self) -> float:
        return gmpt_benchmark(self.b_sup, self.n)

    def to_json_dict(self) -> dict:
        return {key: getattr(self, key) for key in ("indices", "n", "c_param", "k_observed",
                                                    "b_sup", "benchmark", "seed",
                                                    "size_deviation", "success_fraction")}


def gmpt_split(space: ModelSpace, quad: Quadrature, elements, c_param: float = 1.0,
               trials: int = 32, subsets: int = 64,
               seed: int = DEFAULT_SEED) -> GmptSplit:
    """Search random near-half subsets I of the positions of ``elements`` (n of
    them) for a small worst-case L2/L1 ratio of coefficient combinations, on
    both I and its complement.

    The split is chosen as the best of ``subsets`` seeded random draws
    subject to |#I - n/2| <= c_param sqrt(n); the fraction of draws meeting
    the size constraint is recorded.  Norms use the volume measure, so the
    ratio is always at least |M|^{-1/2} (attained by constant-modulus
    functions when they exist).  The L2 norm of f = sum_j a_j e_j is |a|_2 by
    Plancherel, which needs ``quad`` exact on the elements' products; the L1
    norm is the quadrature sum of |f|.
    """
    n = len(elements)
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be a positive even integer, got {n}")
    nodes = len(quad.weights)
    _refuse_oversized(f"gmpt trial block of {trials:,} trials x ({n:,} elements + {nodes:,} "
                      f"nodes)", trials * (n + nodes) * 16, "the trial count sets the row count")
    v = space.basis_matrix(elements, quad.nodes)
    # max_j sup |e_j|, exactly: the peak squares hold |M| sup |e_j|^2
    b_sup = math.sqrt(float(space._peak_squares(space._label_array(elements)).max())
                      / space.total_measure)

    limit = c_param * math.sqrt(n)
    best = None
    accepted = 0
    for t in range(subsets):
        rng = trial_rng(seed, t)
        keep = rng.random(n) < 0.5
        idx = np.flatnonzero(keep)
        if abs(len(idx) - n / 2) > limit:
            continue
        accepted += 1
        k_worst = 0.0
        for side in (idx, np.flatnonzero(~keep)):
            if len(side) == 0:
                continue
            a = rng.normal(size=(trials, len(side))) + 1j * rng.normal(size=(trials, len(side)))
            f = v[:, side] @ a.T
            n2 = np.linalg.norm(a, axis=1)
            k_worst = max(k_worst, float(np.max(n2 / (quad.weights @ np.abs(f)))))
        if best is None or k_worst < best[0]:
            best = (k_worst, [int(i) for i in idx])
    if best is None:
        raise SpeconError(
            f"no subset met |#I - n/2| <= {limit:.3g} in {subsets} draws; "
            "increase c_param or the number of draws"
        )
    k_observed, indices = best
    return GmptSplit(indices=indices, n=n, c_param=c_param, k_observed=k_observed,
                     b_sup=b_sup, seed=seed,
                     size_deviation=abs(len(indices) - n / 2),
                     success_fraction=accepted / subsets)
