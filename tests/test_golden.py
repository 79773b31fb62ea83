"""The committed CLI goldens (``tests/golden/cli.json``): every stored
invocation, rerun in-process, prints the same stdout and stderr and exits
with the same code, and does so again at another BLAS thread count.
``tests/golden/regen.py`` rewrites them."""

import os
import subprocess
import sys

from golden import regen


def test_cli_matches_goldens():
    golden = regen.load()
    stored = [(case["argv"], case["max_basis_bytes"]) for case in golden["cases"]]
    assert stored == regen.cases(), \
        "the golden set differs from the current command set; rerun tests/golden/regen.py"
    changed = []
    for case in golden["cases"]:
        now = regen.run_case(case["argv"], case["max_basis_bytes"])
        fields = [key for key in case if case[key] != now[key]]
        if fields:
            changed.append(f"{' '.join(case['argv'])}: {', '.join(fields)} differ")
    env = regen.environment()

    def setting(e):
        return (f"numpy {e['numpy']} with {e['blas']}, OPENBLAS_NUM_THREADS "
                f"{e['OPENBLAS_NUM_THREADS']} on {e['cpu_count']} CPUs")

    assert not changed, (
        f"{len(changed)} of {len(stored)} invocations differ from the goldens, written "
        f"under {setting(golden['environment'])}; this run has {setting(env)}"
        + (" (the same)" if env == golden["environment"] else "")
        + "; PYTHONPATH=src python tests/golden/regen.py --diff prints the differences:\n"
        + "\n".join(changed))


def test_goldens_hold_at_another_blas_thread_count():
    """No printed digit depends on how BLAS splits its sums across threads:
    ``regen.py --diff`` in a fresh process on one BLAS thread (on two when the
    goldens were written on one) finds no case that differs."""
    threads = "2" if regen.load()["environment"]["OPENBLAS_NUM_THREADS"] == "1" else "1"
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(regen.ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(regen.HERE, "regen.py"), "--diff"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, (
        f"at OPENBLAS_NUM_THREADS={threads}:\n{proc.stdout}{proc.stderr}")
