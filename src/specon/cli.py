"""Batch front-end: parse descriptors, run checks, emit deterministic reports.

Exit codes: 0 when every evaluated inequality holds or is vacuous, 2 when any
report fails, 1 on configuration or computation errors.  Same configuration
and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .concentration import BandlimitedFunction, gram_matrix, max_concentration
from .errors import SpeconError
from .random_spectra import (
    DEFAULT_SEED,
    RandomSubsetSpec,
    estimate_cq,
    generic_subset,
    gmpt_split,
    qnorm_cutoff,
    trial_rng,
)
from .regions import parse_region
from .reports import (
    SCHEMA_VERSION,
    InequalityReport,
    csv_table,
    dumps_stable,
    reports_to_csv,
    reports_to_json,
)
from .spaces import FiniteGroup, _refuse_oversized, parse_space
from .spectral import (
    SpectralSet,
    cover_by_unit_intervals,
    homogeneity_deviations,
    local_weyl,
    parse_spectrum,
    sogge_constant_estimate,
    spectrum_ball,
    weyl_count,
)
from . import uncertainty

OUTPUT_DIR_ENV = "SPECON_OUTPUT_DIR"
PHASE_TIE_TOL = 1e-9
# peak bytes of one emitted weyl row, as tuple, floats, JSON dict and text:
# tracemalloc read 996 to 1,041 bytes a row over whole JSON tables of 10^4 and
# 10^5 rows on torus:d=1 and sphere2, and about half that as CSV
WEYL_ROW_BYTES = 1_050
# most bytes dumps_stable writes for one [re, im] pair of concentrate's entries: two floats
# of at most 24 characters and 36 of indentation, brackets, commas and newlines
ENTRY_PAIR_BYTES = 84


# -- emission -------------------------------------------------------------------


def _write(text: str, path):
    """``text`` to stdout, or to ``path``; a relative path joins $SPECON_OUTPUT_DIR
    (os.path.join keeps an absolute one as it is)."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), path), "w") as fh:
        fh.write(text)


def emit_reports(args, reports) -> int:
    """Serialize inequality reports; stable field order, floats at 17
    significant digits, no computation at emit time.  Returns the exit code:
    0 when every report holds or is vacuous, else 2."""
    _write(reports_to_json(reports) if args.format == "json" else reports_to_csv(reports),
           args.output)
    return 0 if all(r.passed for r in reports) else 2


def emit_rows(args, header, rows) -> int:
    """A table of rows under the command's name, as JSON objects or CSV lines."""
    if args.format == "json":
        doc = {"schema_version": SCHEMA_VERSION, "command": args.command,
               "rows": [dict(zip(header, row)) for row in rows]}
        _write(dumps_stable(doc) + "\n", args.output)
    else:
        _write(csv_table(["schema_version", *header], [(SCHEMA_VERSION, *row) for row in rows]),
               args.output)
    return 0


def emit_result(args, doc, header=None, rows=None) -> int:
    """One result document as JSON; as CSV, the given rows or else one row of
    the document's values."""
    if args.format == "csv":
        return emit_rows(args, header or list(doc), [tuple(doc.values())] if rows is None else rows)
    _write(dumps_stable({"schema_version": SCHEMA_VERSION, "command": args.command,
                         "result": doc}) + "\n", args.output)
    return 0


# -- shared construction ----------------------------------------------------------


def _quad_for(space, max_freq, args):
    return space.build_quadrature(max(max_freq, 1.0), oversample=args.quad_oversample)


def _first_with_quad(space, n, args):
    """The first ``n`` basis elements and a quadrature for their band; a finite
    spectrum's nodes do not depend on the band, so they are size-checked first."""
    if (top := space.max_frequency()) is not None:
        quad = _quad_for(space, top, args)
        space._check_points(quad.nodes, n)
        return space.first_elements(n), quad
    elements = space.first_elements(n)
    return elements, _quad_for(space, max(el.frequency for el in elements), args)


def _random_band_function(sset, rng) -> BandlimitedFunction:
    a = rng.normal(size=sset.size) + 1j * rng.normal(size=sset.size)
    return BandlimitedFunction(sset, a)


def _nonempty(sset, what):
    """``sset``, or SpeconError when it selects no eigenfunction."""
    if not sset.size:
        raise SpeconError(f"spectrum {sset.descriptor!r} selects no eigenfunction of "
                          f"{sset.space.kind}: {what} needs one")
    return sset


def _trial_draw(space, sset, region, quad, mode):
    """The trial functions of the manifold checks as a draw from a trial's
    generator, built once: random coefficients over X_S, random coefficients
    with a spectral tail, or the region's top concentration eigenvector,
    which draws nothing."""
    if mode != "tails":
        _nonempty(sset, f"a {mode} trial function")
    if mode == "slepian":
        top = BandlimitedFunction(sset, max_concentration(gram_matrix(sset, region, quad))[1])
        return lambda rng: top
    if mode == "tails":
        ambient = spectrum_ball(space, sset.max_frequency + 2.0)
        # keep most mass on X_S so the bounds stay informative
        damping = np.where(np.isin(ambient.indices, sset.indices), 1.0, 0.15)
        return lambda rng: BandlimitedFunction(
            ambient, _random_band_function(ambient, rng).coefficients * damping)
    return lambda rng: _random_band_function(sset, rng)


def _drawn_set(space, elements) -> SpectralSet:
    """The spectral set of exactly ``elements``: a joint value identifies its
    element, so their own joint values select no other."""
    return SpectralSet(space, [el.joint for el in elements], joint=True)


def _per_trial(args, one):
    """Reports of ``one(rng)`` over ``--trials`` trials, trial t drawing from
    trial_rng(seed, t).  ``one`` returns ``(reports, extra)``: each report gets
    ``inputs["trial"] = t`` and then the ``extra`` inputs; no reports skip
    the trial."""
    reports = []
    for t in range(args.trials):
        trial_reports, extra = one(trial_rng(args.seed, t))
        for rep in trial_reports:
            rep.inputs["trial"] = t
            rep.inputs.update(extra)
            reports.append(rep)
    return reports


# -- subcommand handlers ----------------------------------------------------------


def cmd_basis(args):
    space = parse_space(args.space)
    cutoff = space.max_frequency() if args.cutoff is None else args.cutoff
    if cutoff is None:
        raise SpeconError("--cutoff is required on spaces with unbounded spectrum")
    rows = [
        (el.index, str(el.label), el.frequency, list(el.joint))
        for el in space.enumerate_basis(cutoff)
    ]
    return emit_rows(args, ["index", "label", "frequency", "joint"], rows)


def cmd_weyl(args):
    space = parse_space(args.space)
    lams = [args.lam] if args.lam is not None else []
    if args.lam_max is not None:
        rows = max(0, math.ceil((args.lam_max - args.lam_step / 2) / args.lam_step))
        _refuse_oversized(f"weyl table of {rows:,} lambdas", rows * 8,
                          "--lambda-max over --lambda-step sets the row count")
        _refuse_oversized(f"weyl output of {rows:,} rows", rows * WEYL_ROW_BYTES,
                          "--lambda-max over --lambda-step sets the row count")
        lams = np.arange(args.lam_step, args.lam_max + args.lam_step / 2,
                         args.lam_step).tolist()
    if not lams:
        raise SpeconError("weyl needs --lambda, or a --lambda-max above half its --lambda-step")
    point = space.extreme_points()[0] if args.point is None else args.point
    weyl_const = space.total_measure * space.unit_ball_volume / (2 * math.pi) ** space.dim
    rows = []
    for lam, nx, n in zip(lams, local_weyl(space, point, lams), weyl_count(space, lams)):
        pred = weyl_const * lam**space.dim
        rows.append((lam, n, nx, pred, n / pred if pred > 0 else math.inf))
    return emit_rows(args, ["lambda", "count", "local_count", "weyl_prediction", "ratio"], rows)


def cmd_homogeneity(args):
    space = parse_space(args.space)
    sset = _nonempty(parse_spectrum(space, args.spectrum), "a homogeneity check")
    checks = homogeneity_deviations(sset, args.samples, trial_rng(args.seed, 0), args.tol)
    samples = int(space.extreme_points().shape[0]) + args.samples
    reports = [InequalityReport(
        name="homogeneity",
        lhs=dev,
        rhs=args.tol,
        inputs={"space": space.kind, "value": list(np.atleast_1d(value).astype(float)),
                "samples": samples},
        seed=args.seed,
    ) for value, (_, dev) in zip(sset.values, checks)]
    return emit_reports(args, reports)


def cmd_concentrate(args):
    space = parse_space(args.space)
    sset = _nonempty(parse_spectrum(space, args.spectrum), "a concentration matrix")
    region = parse_region(space, args.region)
    n = sset.size
    _refuse_oversized(f"concentrate output of spectrum {sset.descriptor!r} ({n:,} x {n:,} "
                      f"entries)", n * n * ENTRY_PAIR_BYTES, "the spectrum sets the entry count")
    quad = _quad_for(space, sset.max_frequency, args)
    gram = gram_matrix(sset, region, quad)
    doc = gram.to_json_dict()
    doc["eigenvalues"] = gram.eigenvalues()[::-1]
    doc["top_vectors"] = [_fix_phase(vec) for vec in gram.eigenvectors()[:, ::-1][:, : args.top].T]
    doc["indices"] = sset.indices
    return emit_result(args, doc, ["rank", "eigenvalue"], list(enumerate(doc["eigenvalues"])))


def _fix_phase(vec):
    """``vec`` times the unit phase that makes its largest-modulus entry real
    and positive, so the printed vector does not swing with the arbitrary
    phase an eigensolver returns.  On a real region the entries for m and -m
    often have equal moduli, so moduli within PHASE_TIE_TOL (relative) of the
    largest count as tied, and the first of them is chosen."""
    mag = np.abs(vec)
    k = np.flatnonzero(mag >= mag.max() * (1.0 - PHASE_TIE_TOL))[0]
    out = vec * (np.conj(vec[k]) / mag[k])
    out[k] = mag[k]  # the product leaves a last-bit imaginary part
    return out


def cmd_lambda_q(args):
    space = parse_space(args.space)
    spec = RandomSubsetSpec(args.n, args.q, seed=args.seed)
    subset = generic_subset(spec)
    if not subset:
        raise SpeconError(f"the generic draw kept no indices (delta={spec.delta:.3g})")
    elements = space.elements_by_index(subset)
    quad = _quad_for(space, qnorm_cutoff(elements, args.q), args)
    est = estimate_cq(space, elements, args.q, quad, trials=args.trials,
                      ascent_iterations=args.ascent_iterations, seed=args.seed)
    doc = est.to_json_dict()
    doc["delta"] = spec.delta
    doc["expected_size"] = spec.expected_size
    return emit_result(args, doc)


def cmd_gmpt(args):
    space = parse_space(args.space)
    elements, quad = _first_with_quad(space, args.n, args)
    split = gmpt_split(space, quad, elements, c_param=args.c_param, trials=args.trials,
                       subsets=args.subsets, seed=args.seed)
    return emit_result(args, split.to_json_dict())


def cmd_donoho_stark(args):
    return emit_reports(args, _check_lca(args, parse_space(args.space), "donoho-stark"))


def _check_lca(args, space, what="--inequality lca"):
    if not isinstance(space, FiniteGroup):
        raise SpeconError(f"{what} runs on finite groups (zn:...)")
    size = int(space.total_measure)

    def one(rng):
        support = rng.choice(size, size=int(rng.integers(1, size + 1)), replace=False)
        f = np.zeros(size, dtype=complex)
        f[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
        return [uncertainty.check_group_uncertainty(space, f, seed=args.seed)], {}

    return _per_trial(args, one)


def _check_bourgain(args, space):
    if args.q is None:
        raise SpeconError("--inequality bourgain needs --q")
    region = parse_region(space, args.region)
    top = space.max_frequency()
    if args.n is None and top is None:
        raise SpeconError("--inequality bourgain needs --n on continuum spaces")
    n = space.count_upto(top) if args.n is None else args.n
    # no dense size check: a group's coefficients come from one FFT
    elements = space.first_elements(n)
    quad = _quad_for(space, max(el.frequency for el in elements), args)
    full_hat = space.coefficients(elements, quad, region.contains_mask(quad.nodes))

    def one(rng):
        subset = generic_subset(RandomSubsetSpec(n, args.q, seed=int(rng.integers(2**63))))
        coeffs = full_hat[subset]
        norm = np.linalg.norm(coeffs)
        # below roundoff the indicator has no coefficient here: a zero f is vacuous
        f = BandlimitedFunction(_drawn_set(space, [elements[i] for i in subset]),
                                coeffs / norm if norm >= 1e-12 else 0.0 * coeffs)
        rep = uncertainty.check_generic_subset_uncertainty(f, region, quad, args.q,
                                                           seed=args.seed)
        return [rep], {"subset_size": len(subset)}

    return _per_trial(args, one)


def _spectrum(args, space):
    if args.spectrum is None:
        raise SpeconError(f"--inequality {args.inequality} needs --spectrum")
    return parse_spectrum(space, args.spectrum)


def _check_manifold(args, space):
    region = parse_region(space, args.region)
    sset = _spectrum(args, space)
    mode = args.f_mode
    if args.inequality == "joint":
        if not sset.is_joint:
            raise SpeconError("--inequality joint needs a joint:[...] spectrum")
        # joint trials draw no spectral tail: tails mode draws as bandlimited
        mode = "bandlimited" if mode == "tails" else mode
    elif args.inequality == "covering" and sset.is_joint:
        raise SpeconError(f"--inequality covering needs a scalar spectrum, not {sset.descriptor!r}")
    pad = 2.0 if mode == "tails" else 0.0
    quad = _quad_for(space, sset.max_frequency + pad, args)
    draw = _trial_draw(space, sset, region, quad, mode)
    if args.inequality == "covering":
        covering = cover_by_unit_intervals(sset)
        lam_top = max(sset.values) if sset.values else 1.0
        c_m = sogge_constant_estimate(space, max(1.0, lam_top + 1.0),
                                      x_samples=args.x_samples, seed=args.seed,
                                      extra_lambdas=covering.starts)
        c_m_spec = (f"grid step 0.5 on [1, {max(1.0, lam_top + 1.0):g}] with covering "
                    f"starts, {args.x_samples} sample points, seed {args.seed}")
    check = {
        "prop": lambda f, rng: [uncertainty.check_eigenfunction_mass_bound(
            f, region, sset, quad, seed=args.seed)],
        "homogeneous": lambda f, rng: [uncertainty.check_homogeneous_uncertainty(
            f, region, sset, quad, rng=rng, seed=args.seed)],
        "supnorm": lambda f, rng: [uncertainty.check_supnorm_uncertainty(
            f, region, sset, quad, x_samples=args.x_samples, rng=rng, seed=args.seed)],
        "covering": lambda f, rng: [uncertainty.check_covering_uncertainty(
            f, region, sset, quad, c_m, c_m_spec, seed=args.seed)],
        "joint": lambda f, rng: uncertainty.check_joint_uncertainty(
            f, region, sset, quad, rng=rng, seed=args.seed),
    }[args.inequality]
    return _per_trial(args, lambda rng: (check(draw(rng), rng), {}))


def _check_random_manifold(args, space):
    region = parse_region(space, args.region)
    if args.n is None:
        raise SpeconError("--inequality random-manifold needs --n")
    elements, quad = _first_with_quad(space, args.n, args)

    def one(rng):
        split = gmpt_split(space, quad, elements, c_param=args.c_param,
                           trials=args.gmpt_trials, subsets=args.subsets,
                           seed=int(rng.integers(2**63)))
        side = split.indices or split.complement
        f = _random_band_function(_drawn_set(space, [elements[i] for i in side]), rng)
        rep = uncertainty.check_random_half_uncertainty(
            f, region, quad, k_emp=split.k_observed, n=args.n,
            b_sup=split.b_sup, seed=args.seed)
        return [rep], {"split_size": len(split.indices)}

    return _per_trial(args, one)


CHECKS = {
    "lca": _check_lca,
    "bourgain": _check_bourgain,
    "prop": _check_manifold,
    "homogeneous": _check_manifold,
    "supnorm": _check_manifold,
    "covering": _check_manifold,
    "joint": _check_manifold,
    "random-manifold": _check_random_manifold,
}


def cmd_check(args):
    return emit_reports(args, CHECKS[args.inequality](args, parse_space(args.space)))


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise, so main reports them as bad input (exit 1)."""

    def error(self, message):
        raise SpeconError(message)


def _number(kind, low: float, strict: bool = False):
    """Flag type: a ``kind`` value, finite and >= ``low`` (> ``low`` if strict)."""
    def parse(text):
        value = kind(text)
        if not ((low < value if strict else low <= value) and value < math.inf):
            raise argparse.ArgumentTypeError(
                f"must be a finite number {'>' if strict else '>='} {low}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse names the kind when kind() fails
    return parse


_COUNT = _number(int, 0)
_POSITIVE = _number(int, 1)
_NONNEGATIVE = _number(float, 0)


def _exponent(text):
    """--q: a float > 2 as ``_number`` types it, or inf (the sup norm)."""
    return math.inf if float(text) == math.inf else _number(float, 2, strict=True)(text)


_exponent.__name__ = "float"


def _point(text):
    """--point: comma-separated finite floats; _check_points counts them."""
    coords = np.array([float(c) for c in text.split(",")])
    if not np.isfinite(coords).all():
        raise argparse.ArgumentTypeError(f"coordinates must be finite, got {text!r}")
    return coords


_point.__name__ = "float"


def _add_common(p):
    p.add_argument("--space", required=True, help="space descriptor, e.g. torus:d=2")
    p.add_argument("--seed", type=_COUNT, default=DEFAULT_SEED,
                   help=f"base seed (default {DEFAULT_SEED}, never time-based)")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None,
                   help=f"output path (default stdout; relative paths join ${OUTPUT_DIR_ENV})")
    p.add_argument("--config", default=None,
                   help="key=value file inserted as defaults before the flags")
    p.add_argument("--quad-oversample", type=_POSITIVE, default=4,
                   help="multiply quadrature node counts (region resolution)")


@functools.cache
def build_parser():
    parser = _Parser(
        prog="specon",
        description="Concentration operators and uncertainty inequalities on "
                    "model spaces (tori, the 2-sphere, finite abelian groups, products).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="enumerate the eigenbasis below a cutoff")
    _add_common(p)
    p.add_argument("--cutoff", type=float, default=None)
    p.set_defaults(handler=cmd_basis)

    p = sub.add_parser("weyl", help="eigenvalue counting tables N and N_x")
    _add_common(p)
    lam = p.add_mutually_exclusive_group()
    lam.add_argument("--lambda", dest="lam", type=_number(float, 0), default=None)
    lam.add_argument("--lambda-max", dest="lam_max", type=_number(float, 0), default=None)
    p.add_argument("--lambda-step", dest="lam_step", type=_number(float, 0, strict=True),
                   default=1.0)
    p.add_argument("--point", type=_point, default=None,
                   help="comma-separated finite coordinates for N_x")
    p.set_defaults(handler=cmd_weyl)

    p = sub.add_parser("homogeneity", help="constant-degeneracy-sum check per eigenvalue")
    _add_common(p)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--samples", type=_COUNT, default=200)
    p.add_argument("--tol", type=_NONNEGATIVE, default=1e-9)
    p.set_defaults(handler=cmd_homogeneity)

    p = sub.add_parser("concentrate", help="concentration matrix and its eigenpairs")
    _add_common(p)
    p.add_argument("--spectrum", required=True)
    p.add_argument("--region", required=True)
    p.add_argument("--top", type=_COUNT, default=1, help="eigenvectors to include")
    p.set_defaults(handler=cmd_concentrate)

    p = sub.add_parser("check", help="evaluate one uncertainty inequality")
    _add_common(p)
    p.add_argument("--inequality", required=True, choices=list(CHECKS))
    p.add_argument("--region", default="full")
    p.add_argument("--spectrum", default=None)
    p.add_argument("--q", type=_exponent, default=None)
    p.add_argument("--n", type=_POSITIVE, default=None)
    p.add_argument("--trials", type=_COUNT, default=1)
    p.add_argument("--f-mode", choices=["bandlimited", "tails", "slepian"],
                   default="bandlimited")
    p.add_argument("--x-samples", type=_COUNT, default=256)
    p.add_argument("--c-param", type=_NONNEGATIVE, default=1.0)
    p.add_argument("--subsets", type=_COUNT, default=16)
    p.add_argument("--gmpt-trials", type=_POSITIVE, default=16)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("lambda-q", help="generic subset and q-orthogonality estimate")
    _add_common(p)
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--q", type=_exponent, required=True)
    p.add_argument("--trials", type=_COUNT, default=20)
    p.add_argument("--ascent-iterations", type=_COUNT, default=200)
    p.set_defaults(handler=cmd_lambda_q)

    p = sub.add_parser("gmpt", help="random near-half split with observed L2/L1 constant")
    _add_common(p)
    p.add_argument("--n", type=_POSITIVE, required=True)
    p.add_argument("--c-param", type=_NONNEGATIVE, default=1.0)
    p.add_argument("--trials", type=_POSITIVE, default=32)
    p.add_argument("--subsets", type=_COUNT, default=64)
    p.set_defaults(handler=cmd_gmpt)

    p = sub.add_parser("donoho-stark", help="support uncertainty sweep on a finite group")
    _add_common(p)
    p.add_argument("--trials", type=_COUNT, default=100)
    p.set_defaults(handler=cmd_donoho_stark)

    return parser


def _expand_config(argv):
    """Replace ``--config FILE`` with the file's key=value pairs, inserted
    right after the subcommand so explicit flags still win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise SpeconError("--config needs a file path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    try:
        pairs = []
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise SpeconError(f"config line without '=': {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                pairs += [f"--{key.replace('_', '-')}", value]
    except OSError as exc:
        raise SpeconError(f"cannot read config {path!r}: {exc}") from exc
    return rest[:1] + pairs + rest[1:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv := _expand_config(argv))
        if args.config is not None:    # a --config that _expand_config did not expand
            token = next(t for t in argv
                         if len(key := t.split("=")[0]) > 2 and "--config".startswith(key))
            raise SpeconError(f"{token!r} (config {args.config!r}) is not read: only one "
                              f"--config FILE is, written out on the command line")
        return args.handler(args)
    except (SpeconError, ValueError, OSError) as exc:
        print(f"specon: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
