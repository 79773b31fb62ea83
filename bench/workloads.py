"""The benchmark's three workloads.

A workload is built once (its set-up: importing specon and everything made
before the first timed pass) and then runs *passes*.  A pass is a fixed batch
of inputs drawn from ``trial_rng(seed, i)``, so the same seed and pass index
always give the same inputs.  ``compute(p)`` is the timed part of pass ``p``;
``check(raw)`` applies the correctness gates outside the timed part and
returns a :class:`PassOutput`.

Every operation of a pass either succeeds or is counted as failed: it failed
when it raised, produced a report with holds=false that is not vacuous, or
failed an output check.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

TRACE_REL_TOL = 1e-10
OFF_BLOCK_TOL = 1e-12
SPLIT_STREAM = 1 << 40    # trial_rng streams of the manifold-sweep subset splits


@dataclass
class PassOutput:
    results: int
    ops: int
    failures: list = field(default_factory=list)
    digest: str = ""
    # gates too slow to run inside the measuring window; each returns a
    # failure message or None and is run once the window has closed
    deferred: list = field(default_factory=list)

    def run_deferred(self):
        for gate in self.deferred:
            problem = gate()
            if problem:
                self.failures.append(problem)
        self.deferred = []


def _digest(parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _float_bits(x) -> str:
    return float(x).hex()


def _specon():
    import specon
    import specon.cli  # noqa: F401  (cli is not imported by the package)

    return specon


def _cell_aligned_box(space, quad, rng, min_cells=2):
    """Box whose edges sit on quadrature cell boundaries, so the masked node
    mass equals the exact measure."""
    n = round((space.total_measure / quad.weights[0]) ** (1 / space.dim))
    h = 2 * math.pi / n
    box = []
    for _ in range(space.dim):
        i = int(rng.integers(0, n - min_cells))
        j = int(rng.integers(i + min_cells, n + 1))
        box.append((i * h, j * h))
    return tuple(box)


def _trace_failure(gram_trace, energy):
    if abs(gram_trace - energy) <= TRACE_REL_TOL * max(abs(gram_trace), abs(energy)):
        return None
    return f"Gram trace {gram_trace!r} != masked band energy {energy!r}"


class ManifoldSweep:
    """Acceptance criterion 07 trials: for each trial index and each of three
    spaces, a random spectral subset and a cell-aligned region, the Slepian
    top vector, then prop / homogeneous / supnorm / covering for two
    functions plus the joint check.  One operation is one (trial, space); a
    pass is two trial indices."""

    name = "manifold-sweep"
    trials_per_pass = 2    # one complementary pair, see _values

    def __init__(self, seed: int, tiny: bool = False):
        sp = _specon()
        self.sp = sp
        self.seed = seed
        sphere, t1, t2 = sp.Sphere2(), sp.Torus(1), sp.Torus(2)
        if tiny:
            plan = [(sphere, math.sqrt(6), 2), (t1, 3.0, 4), (t2, 2.0, 2)]
        else:
            plan = [(sphere, math.sqrt(42), 4), (t1, 6.0, 8), (t2, 4.0, 4)]
        self.families = []
        for space, ball, over in plan:
            quad = space.build_quadrature(ball, oversample=over)
            freqs = sorted({el.frequency for el in space.enumerate_basis(ball)})
            c_m = sp.sogge_constant_estimate(space, max(freqs) + 1.0, x_samples=64,
                                             seed=seed, extra_lambdas=freqs)
            self.families.append((space, quad, freqs, c_m))

    def sizes(self) -> dict:
        return {space.kind: {"nodes": int(quad.nodes.shape[0]),
                             "elements": space.count_upto(max(freqs))}
                for space, quad, freqs, _ in self.families}

    def inputs(self, p: int) -> list:
        """The (trial, space, spectral values, region) of pass ``p``, drawn the
        same way :meth:`trial` draws them."""
        out = []
        for t in self._trial_indices(p):
            for i, (space, quad, _, _) in enumerate(self.families):
                rng = self.sp.trial_rng(self.seed, t)
                out.append((t, space.kind, self._values(i, t),
                            self._draw_region(space, quad, rng).descriptor))
        return out

    def _trial_indices(self, p):
        return range(p * self.trials_per_pass, (p + 1) * self.trials_per_pass)

    def _values(self, family_index, t):
        """Trials 2q and 2q+1 split a space's frequency list between them: a
        random nonempty part and its complement.  A pass then covers every
        frequency once per space, so its cost does not depend on the subset
        sizes drawn and runs with different seeds stay comparable."""
        rng = self.sp.trial_rng(self.seed, SPLIT_STREAM + t // 2)
        for freqs in [fam[2] for fam in self.families][:family_index + 1]:
            take = set(rng.choice(len(freqs), size=int(rng.integers(1, len(freqs))),
                                  replace=False).tolist())
        return [f for j, f in enumerate(freqs) if (j in take) == (t % 2 == 0)]

    def _draw_region(self, space, quad, rng):
        sp = self.sp
        if isinstance(space, sp.Sphere2):
            return sp.cap(space, float(rng.uniform(0.4, 2.6)))
        return sp.BoxUnion(space, [_cell_aligned_box(space, quad, rng)])

    def trial(self, family_index, t):
        """One operation: returns (gram trace, top eigenvalue, reports)."""
        sp = self.sp
        space, quad, freqs, c_m = self.families[family_index]
        rng = sp.trial_rng(self.seed, t)
        sset = sp.SpectralSet(space, self._values(family_index, t))
        region = self._draw_region(space, quad, rng)
        fs = [sp.BandlimitedFunction(
            sset, rng.normal(size=sset.size) + 1j * rng.normal(size=sset.size))]
        gram = sp.gram_matrix(sset, region, quad)
        lam, top = gram.top_eigenpair()
        fs.append(sp.BandlimitedFunction(sset, top))

        ball = space.enumerate_basis(max(freqs))
        picks = rng.choice(len(ball), size=int(rng.integers(1, 8)), replace=False)
        jset = sp.SpectralSet(space, [ball[i].joint for i in sorted(picks)], joint=True)
        jf = sp.BandlimitedFunction(
            jset, rng.normal(size=jset.size) + 1j * rng.normal(size=jset.size))

        reports = []
        for f in fs:
            reports.append(sp.check_eigenfunction_mass_bound(f, region, sset, quad))
            reports.append(sp.check_homogeneous_uncertainty(f, region, sset, quad, rng=rng))
            reports.append(sp.check_supnorm_uncertainty(f, region, sset, quad,
                                                        x_samples=32, rng=rng))
            reports.append(sp.check_covering_uncertainty(f, region, sset, quad, c_m))
        reports.extend(sp.check_joint_uncertainty(jf, region, jset, quad, rng=rng))
        return gram.trace, lam, reports

    def compute(self, p: int) -> list:
        out = []
        for t in self._trial_indices(p):
            for i in range(len(self.families)):
                try:
                    out.append(self.trial(i, t))
                except Exception as exc:  # counted as a failed operation
                    out.append(exc)
        return out

    def check(self, raw) -> PassOutput:
        res = PassOutput(results=0, ops=len(raw))
        parts = []
        for item in raw:
            if isinstance(item, Exception):
                res.failures.append(f"raised {type(item).__name__}: {item}")
                parts.append(("raised", type(item).__name__))
                continue
            trace, lam, reports = item
            res.results += len(reports)
            bad = [r.name for r in reports if not r.passed]
            problem = _trace_failure(trace, reports[0].inputs["band_energy_in_region"])
            if bad:
                problem = f"reports failed: {bad}"
            if problem:
                res.failures.append(problem)
            parts.append(_float_bits(lam))
            parts.extend((r.name, _float_bits(r.lhs), _float_bits(r.rhs)) for r in reports)
        res.digest = _digest(parts)
        return res


class SlepianLarge:
    """One large concentration problem per family, region drawn fresh each
    pass: a sphere cap at ball 20, a torus d=2 box at ball 8 and a torus d=1
    arc at ball 128.  Each runs gram_matrix, eigenvalues() and
    top_eigenpair().  One operation is one problem."""

    name = "slepian-large"

    def __init__(self, seed: int, tiny: bool = False):
        sp = _specon()
        self.sp = sp
        self.seed = seed
        sphere, t2, t1 = sp.Sphere2(), sp.Torus(2), sp.Torus(1)
        if tiny:
            plan = [(sphere, 4.0, 4), (t2, 3.0, 4), (t1, 16.0, 8)]
        else:
            # the torus d=1 family is oversampled 8x (2064 nodes) like the
            # d=1 torus of criterion 07, so arcs resolve to 1/8 of a period
            plan = [(sphere, 20.0, 4), (t2, 8.0, 4), (t1, 128.0, 8)]
        self.families = []
        for space, ball, over in plan:
            self.families.append((space, space.build_quadrature(ball, oversample=over),
                                  sp.spectrum_ball(space, ball)))

    def sizes(self) -> dict:
        return {space.kind: {"nodes": int(quad.nodes.shape[0]), "elements": sset.size}
                for space, quad, sset in self.families}

    def _regions(self, p):
        sp = self.sp
        rng = sp.trial_rng(self.seed, p)
        out = []
        for space, quad, _ in self.families:
            if isinstance(space, sp.Sphere2):
                out.append(sp.cap(space, float(rng.uniform(0.4, 2.6))))
            else:
                out.append(sp.BoxUnion(space, [_cell_aligned_box(space, quad, rng)]))
        return out

    def inputs(self, p: int) -> list:
        return [r.descriptor for r in self._regions(p)]

    def compute(self, p: int) -> list:
        out = []
        for (space, quad, sset), region in zip(self.families, self._regions(p)):
            try:
                gram = self.sp.gram_matrix(sset, region, quad)
                vals = gram.eigenvalues()
                lam, _ = gram.top_eigenpair()
                out.append((gram, quad, vals, lam))
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def check(self, raw) -> PassOutput:
        res = PassOutput(results=0, ops=len(raw))
        parts = []
        for item in raw:
            if isinstance(item, Exception):
                res.failures.append(f"raised {type(item).__name__}: {item}")
                parts.append(("raised", type(item).__name__))
                continue
            gram, quad, vals, lam = item
            problem = self._off_block(gram)
            if problem:
                res.failures.append(problem)
            else:
                res.results += 1
                res.deferred.append(functools.partial(
                    self._trace_gate, gram.trace, gram.spectral_set, gram.region, quad))
            parts += [gram.entries.tobytes(), vals.tobytes(), _float_bits(lam)]
        res.digest = _digest(parts)
        return res

    def _trace_gate(self, trace, sset, region, quad):
        return _trace_failure(trace, self.sp.masked_band_energy(sset, region, quad))

    def _off_block(self, gram):
        """Caps are rotation invariant, so their Gram is block-diagonal by
        the order m of the spherical harmonics."""
        if not isinstance(gram.spectral_set.space, self.sp.Sphere2):
            return None
        m = np.array([el.label[1] for el in gram.spectral_set.elements])
        off = np.abs(gram.entries[m[:, None] != m[None, :]])
        worst = float(off.max()) if off.size else 0.0
        return None if worst <= OFF_BLOCK_TOL else f"sphere Gram off-block entry {worst:.3g}"


def _cli_commands(tiny):
    """The CLI invocations of one pass; ``{seed}`` is replaced per pass.  The
    first four are the README examples."""
    return [
        ["weyl", "--space", "torus:d=2", "--lambda", "5"],
        ["check", "--inequality", "homogeneous", "--space", "sphere2",
         "--region", "cap:1.5708", "--spectrum", "level:ℓ=1"],
        ["lambda-q", "--space", "zn:N=256,d=1", "--n", "256", "--q", "4"]
        + (["--trials", "2", "--ascent-iterations", "10"] if tiny else []),
        ["donoho-stark", "--space", "zn:N=16,d=1", "--trials", "20" if tiny else "500",
         "--format", "csv"],
        ["weyl", "--space", "sphere2", "--lambda-max", "10" if tiny else "40"],
        ["basis", "--space", "torus:d=3", "--cutoff", "2" if tiny else "4", "--format", "csv"],
        ["homogeneity", "--space", "sphere2", "--spectrum", "ball:6"],
        ["check", "--inequality", "lca", "--space", "zn:N=16,d=2", "--trials", "50"],
        ["check", "--inequality", "bourgain", "--space", "zn:N=256,d=1", "--q", "4",
         "--region", "set:{0,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15}", "--trials", "5"],
        ["lambda-q", "--space", "zn:N=512,d=1", "--n", "512", "--q", "4",
         "--trials", "2" if tiny else "10", "--ascent-iterations", "10" if tiny else "100"],
        ["gmpt", "--space", "torus:d=1", "--n", "64"],
        ["gmpt", "--space", "sphere2", "--n", "36"],
        ["check", "--inequality", "random-manifold", "--space", "torus:d=1",
         "--region", "arc:0:2", "--n", "32", "--trials", "3"],
        ["check", "--inequality", "covering", "--space", "sphere2", "--region", "cap:1.0",
         "--spectrum", "ball:5", "--f-mode", "tails", "--trials", "5"],
        ["check", "--inequality", "prop", "--space", "torus:d=2",
         "--region", "box:(0,2)x(1,3)", "--spectrum", "ball:4", "--f-mode", "slepian",
         "--trials", "2"],
        ["check", "--inequality", "joint", "--space", "torus:d=2",
         "--region", "box:(0,3)x(0,3)", "--spectrum", "joint:[(1,0),(0,1),(1,1)]",
         "--trials", "5"],
        ["concentrate", "--space", "torus:d=2", "--spectrum", "ball:3" if tiny else "ball:5",
         "--region", "box:(0,2)x(0,2)", "--top", "5"],
        ["check", "--inequality", "supnorm", "--space", "product(torus:d=1,sphere2)",
         "--region", "product(arc:0:3,cap:1)", "--spectrum", "ball:3", "--trials", "3"],
    ]


def _parse_output(argv, text):
    """Raise unless ``text`` is the well-formed JSON or CSV the command emits."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged or empty CSV")
    else:
        doc = json.loads(text)
        if not (doc.get("reports") or doc.get("rows") or doc.get("result")):
            raise ValueError("JSON document has no reports, rows or result")


class CliBatch:
    """In-process ``specon.cli.main`` invocations with captured output.  One
    operation is one invocation; it succeeds when it exits 0 and its output
    parses."""

    name = "cli-batch"

    def __init__(self, seed: int, tiny: bool = False):
        self.sp = _specon()
        self.seed = seed
        self.commands = _cli_commands(tiny)

    def sizes(self) -> dict:
        return {"invocations": len(self.commands)}

    def pass_seed(self, p: int) -> int:
        return int(self.sp.trial_rng(self.seed, p).integers(2**31))

    def inputs(self, p: int) -> list:
        return [argv + ["--seed", str(self.pass_seed(p))] for argv in self.commands]

    def compute(self, p: int) -> list:
        out = []
        for argv in self.inputs(p):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = self.sp.cli.main(list(argv))
                except Exception as exc:  # counted as a failed operation
                    code = f"raised {type(exc).__name__}: {exc}"
            out.append((argv, code, stdout.getvalue(), stderr.getvalue()))
        return out

    def check(self, raw) -> PassOutput:
        res = PassOutput(results=0, ops=len(raw))
        parts = []
        for argv, code, text, err in raw:
            parts += [code, text.encode()]
            if code != 0:
                res.failures.append(f"{' '.join(argv[:3])}: exit {code} {err.strip()[:200]}")
                continue
            try:
                _parse_output(argv, text)
            except ValueError as exc:
                res.failures.append(f"{' '.join(argv[:3])}: unparseable output ({exc})")
                continue
            res.results += 1
        res.digest = _digest(parts)
        return res


WORKLOADS = {cls.name: cls for cls in (ManifoldSweep, SlepianLarge, CliBatch)}
