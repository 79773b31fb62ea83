#!/usr/bin/env python3
"""specon benchmark.

Run one workload in this process and print its metrics, ending with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``:

    python3 bench/run.py --workload manifold-sweep --seed 1 --seconds 30 --trace 0

Without ``--workload``, every workload runs in its own fresh process, one
after another, and a table of all end-to-end metrics follows:

    python3 bench/run.py --seed 1 --seconds 30

Each workload process is a closed loop with a single client: this
single-threaded Python loop calls specon, one pass after another, until the
measuring window closes.  ``--trace 1`` runs the same passes in pairs, one
untraced and one traced, and reports the per-layer metrics instead.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = ("manifold-sweep", "slepian-large", "cli-batch")
BLAS_THREADS = 1          # at most nproc; one thread keeps runs steady
SETUP_REPEATS = 15
TAIL_BEYOND = 10
END_TO_END_UNITS = {"setup_s": "s", "results_per_s": "1/s", "pass_s_p50": "s",
                    "pass_s_tail": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="specon benchmark")
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="length of the measuring window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny problem sizes (smoke runs)")
    return p.parse_args(argv)


# -- statistics -----------------------------------------------------------------


def tail(times):
    """The highest pass-time percentile with at least TAIL_BEYOND passes
    beyond it: the (TAIL_BEYOND + 1)-th largest time, but never below the
    median.  Returns (value, percentile, passes beyond)."""
    s = sorted(times)
    n = len(s)
    if n <= 2 * TAIL_BEYOND:
        value, pct = statistics.median(s), 50.0
    else:
        value, pct = s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    return value, pct, sum(t > value for t in s)


# -- provenance -----------------------------------------------------------------


def git_commit():
    """Commit of the checkout from .git, without running git; None outside a
    git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def provenance(args, wl):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "problem_sizes": wl.sizes(),
    }


# -- one workload -----------------------------------------------------------------


def purge_specon():
    for name in [m for m in sys.modules if m == "specon" or m.startswith("specon.")]:
        del sys.modules[name]


def measure_setup(cls, args):
    """Median over SETUP_REPEATS of a fresh ``import specon`` plus the
    workload's set-up; returns the last workload built and the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        purge_specon()
        t0 = time.perf_counter()
        wl = cls(args.seed, tiny=args.tiny)
        times.append(time.perf_counter() - t0)
    return wl, statistics.median(times)


def timed(wl, p):
    t0 = time.perf_counter()
    raw = wl.compute(p)
    dt = time.perf_counter() - t0
    return dt, wl.check(raw)


def run_untraced(wl, args):
    # the untimed warm-up runs pass 0 once; the timed pass 0 then re-runs it,
    # and the two digests must agree
    _, warm = timed(wl, 0)
    times, outs = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        dt, out = timed(wl, len(times))
        times.append(dt)
        outs.append(out)
    rerun_ok = outs[0].digest == warm.digest
    return times, outs, rerun_ok


def run_traced(wl, args, tracer):
    """Passes in pairs, untraced then traced (order alternating); the traced
    pass must give the untraced pass's digest."""
    timed(wl, 0)  # warm-up
    times, traced_times, outs = [], [], []
    mismatches = 0
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        p = len(times)
        pair = {}
        for traced in ((False, True) if p % 2 == 0 else (True, False)):
            if traced:
                with tracer.recording(p):
                    pair[traced] = timed(wl, p)
            else:
                pair[traced] = timed(wl, p)
        times.append(pair[False][0])
        traced_times.append(pair[True][0])
        outs.append(pair[False][1])
        mismatches += pair[False][1].digest != pair[True][1].digest
    return times, traced_times, outs, mismatches


def run_one(args):
    # BLAS threads must be fixed before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "specon", "__init__.py")):
        print(f"bench: no specon sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (imported before set-up is timed)

    import workloads

    cls = workloads.WORKLOADS[args.workload]
    wl, setup_s = measure_setup(cls, args)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        with tracer.recording(tracing.SETUP):
            wl = cls(args.seed, tiny=args.tiny)
        times, traced_times, outs, mismatches = run_traced(wl, args, tracer)
        tracer.uninstall()
        extra_ops, extra_failed = len(outs), mismatches
    else:
        times, outs, rerun_ok = run_untraced(wl, args)
        extra_ops, extra_failed = 1, 0 if rerun_ok else 1
    for out in outs:
        out.run_deferred()

    attempted = sum(o.ops for o in outs) + extra_ops
    failed = sum(len(o.failures) for o in outs) + extra_failed
    results = sum(o.results for o in outs)
    prov = provenance(args, wl)
    record = {"provenance": prov, "passes": len(times), "pass_times_s": times,
              "results": results, "attempted": attempted, "failed": failed,
              "failures": [f for o in outs for f in o.failures][:20]}

    if args.trace:
        metrics = tracer.layer_metrics(len(times))
        metrics["trace.overhead_frac"] = sum(traced_times) / sum(times) - 1.0
        units = tracing.metric_units()
        record["missing_wrappers"] = tracer.missing
        record["layers_seen"] = sorted(tracer.layers_seen())
    else:
        tail_s, tail_pct, beyond = tail(times)
        metrics = {
            "setup_s": setup_s,
            "results_per_s": results / sum(times),
            "pass_s_p50": statistics.median(times),
            "pass_s_tail": tail_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        record["tail"] = {"percentile": tail_pct, "passes": len(times), "beyond": beyond}
    record["metrics"] = metrics

    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write_spans(stem + ".spans.jsonl")

    print(f"workload {args.workload}: seed {args.seed}, {len(times)} passes "
          f"in {args.seconds:g} s, trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  pass_s_tail is p{tail_pct:.1f} of {len(times)} passes, {beyond} beyond it")
    print(f"  {'failed_frac':48s} {failed / attempted:14.6g} frac ({failed}/{attempted})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


# -- every workload -----------------------------------------------------------------


def run_all(args):
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= result["correct"]
        frac = result["failed"] / result["attempted"]
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append((name, "failed_frac", frac, "frac"))
    print()
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:48s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
