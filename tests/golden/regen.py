"""Committed CLI goldens: stdout, stderr and exit code of a fixed set of
in-process ``specon`` invocations.

The set is the cli-batch commands of the benchmark (``bench/workloads.py``)
at seeds 7 and 12345, the bad arguments of
``tests/test_cli.py::TestErrors::test_bad_argument_exits_1_and_is_named``,
run as that test runs them (``spaces.MAX_BASIS_BYTES`` lowered to 1 MiB),
and the commands of ``EXTRA`` at both seeds.
A ``concentrate`` stdout is stored as its sha256; everything else in full.
The header records the numpy version, BLAS, ``OPENBLAS_NUM_THREADS`` setting
and CPU count the goldens were written under.

Rewrite the goldens from the working tree, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

or, writing nothing, print each stored case whose rerun differs (its argv, a
unified diff of stdout and stderr, or both sha256 of a hashed stdout, and both
exit codes) and exit 1 if any does:

    PYTHONPATH=src python tests/golden/regen.py --diff
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
GOLDEN = os.path.join(HERE, "cli.json")
SEEDS = (7, 12345)
HASHED = ("concentrate",)
# a sphere band energy and a sphere sup estimate, which no cli-batch command prints; then
# the Gram paths no cli-batch command prints: the dense block of a group's ball and of a
# group's joint set, a union of cells and a dense product
EXTRA = [
    ["check", "--inequality", "prop", "--space", "sphere2", "--region", "cap:1.1",
     "--spectrum", "ball:5", "--trials", "2"],
    ["check", "--inequality", "supnorm", "--space", "sphere2", "--region", "band:0.4:1.9",
     "--spectrum", "ball:4", "--trials", "2"],
    ["concentrate", "--space", "zn:N=9,d=1", "--spectrum", "ball:4", "--region", "set:{0,1,2}",
     "--top", "3"],
    ["concentrate", "--space", "zn:N=8,d=2", "--spectrum", "joint:[(1,0),(0,1),(1,1)]",
     "--region", "set:{(0,0),(1,2)}", "--top", "3"],
    ["concentrate", "--space", "torus:d=1", "--spectrum", "ball:6", "--region", "arc:0:1+arc:2:3",
     "--top", "3"],
    ["concentrate", "--space", "product(torus:d=1,sphere2)", "--spectrum", "ball:2",
     "--region", "product(arc:0:1,cap:1)", "--top", "3"],
]


def environment() -> dict:
    """The numpy version, the BLAS numpy was built against, the
    ``OPENBLAS_NUM_THREADS`` setting (``unset`` if none) and the CPU count:
    BLAS sums in a thread-dependent order, so the last digits may move with them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "cpu_count": os.cpu_count()}


def cases() -> list[tuple[list[str], int | None]]:
    """(argv, MAX_BASIS_BYTES override or None) of every golden invocation."""
    for path in (os.path.join(ROOT, "bench"), os.path.join(ROOT, "tests")):
        if path not in sys.path:
            sys.path.insert(0, path)
    import test_cli
    import workloads

    batch = [(argv + ["--seed", str(seed)], None)
             for seed in SEEDS for argv in workloads._cli_commands(False)]
    test = test_cli.TestErrors.test_bad_argument_exits_1_and_is_named
    params = next(m for m in test.pytestmark if m.name == "parametrize").args[1]
    extra = [(argv + ["--seed", str(seed)], None) for seed in SEEDS for argv in EXTRA]
    return batch + [(list(argv), 2**20) for argv, _ in params] + extra


def run_case(argv, max_basis_bytes) -> dict:
    """One invocation through ``cli.main``, as the golden file stores it."""
    from specon import cli, spaces

    limit = spaces.MAX_BASIS_BYTES
    if max_basis_bytes is not None:
        spaces.MAX_BASIS_BYTES = max_basis_bytes
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        spaces.MAX_BASIS_BYTES = limit
    stdout = out.getvalue()
    case = {"argv": list(argv), "max_basis_bytes": max_basis_bytes, "code": code}
    if argv[0] in HASHED:
        case["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
    else:
        case["stdout"] = stdout
    case["stderr"] = err.getvalue()
    return case


def load() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    doc = {"environment": environment(),
           "cases": [run_case(argv, limit) for argv, limit in cases()]}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(doc['cases'])} cases to {os.path.relpath(GOLDEN, ROOT)}")


def diff() -> int:
    """Print how each stored case's rerun differs from it; 1 if any does."""
    changed = 0
    for case in load()["cases"]:
        now = run_case(case["argv"], case["max_basis_bytes"])
        if now == case:
            continue
        changed += 1
        print(" ".join(case["argv"]))
        if case.get("stdout_sha256") != now.get("stdout_sha256"):
            print(f"stdout sha256: {case['stdout_sha256']} -> {now['stdout_sha256']}")
        for key in ("stdout", "stderr"):
            if key in case:
                sys.stdout.writelines(difflib.unified_diff(
                    case[key].splitlines(True), now[key].splitlines(True),
                    f"golden {key}", f"rerun {key}"))
        print(f"exit code: {case['code']} -> {now['code']}\n")
    return 1 if changed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the CLI goldens from the working tree.")
    parser.add_argument("--diff", action="store_true",
                        help="write nothing; print each stored case whose rerun differs")
    sys.exit(diff() if parser.parse_args().diff else main())
