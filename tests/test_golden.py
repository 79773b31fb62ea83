"""The committed CLI goldens (``tests/golden/cli.json``): every stored
invocation, rerun in-process, prints the same stdout and stderr and exits
with the same code.  ``tests/golden/regen.py`` rewrites them."""

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
