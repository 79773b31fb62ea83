"""Tests of the benchmark itself: smoke runs at tiny sizes, seed handling,
tracer coverage and call counts, and the runner's output contract.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter

import pytest

import run
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# the layers each workload must record spans for (set-up included), from the
# layer -> end-to-end mapping in README.md
EXPECTED_LAYERS = {
    "manifold-sweep": {
        "spaces.basis_matrix", "spaces.enumerate_basis", "spaces.build_quadrature",
        "regions.contains_mask", "spectral.SpectralSet", "spectral.check_homogeneity",
        "spectral.sogge_constant_estimate", "concentration.gram_matrix", "concentration.eig",
        "concentration.concentration_levels", "concentration.masked_band_energy",
        "concentration.samples", "uncertainty.check_eigenfunction_mass_bound",
        "uncertainty.check_homogeneous_uncertainty", "uncertainty.check_supnorm_uncertainty",
        "uncertainty.check_covering_uncertainty", "uncertainty.check_joint_uncertainty",
    },
    "slepian-large": {
        "spaces.basis_matrix", "spaces.enumerate_basis", "spaces.build_quadrature",
        "concentration.gram_matrix", "concentration.eig",
    },
    "cli-batch": {
        "spaces.basis_matrix", "spaces.enumerate_basis", "spaces.build_quadrature",
        "spaces.fourier", "spectral.local_weyl", "uncertainty.check_group_uncertainty",
        "uncertainty.check_generic_subset_uncertainty",
        "uncertainty.check_random_half_uncertainty", "random_spectra.estimate_cq",
        "random_spectra.gmpt_split", "reports.serialize", "cli.main",
    },
}


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke(name):
    wl = workloads.WORKLOADS[name](5, tiny=True)
    out = wl.check(wl.compute(0))
    out.run_deferred()
    assert out.failures == []
    assert out.ops > 0 and out.results > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_gives_inputs(name):
    cls = workloads.WORKLOADS[name]
    a, b, other = cls(7, tiny=True), cls(7, tiny=True), cls(8, tiny=True)
    assert a.inputs(0) == b.inputs(0) and a.inputs(3) == b.inputs(3)
    assert a.inputs(0) != other.inputs(0)
    assert a.inputs(0) != a.inputs(1)


def test_every_layer_is_mapped_to_a_workload():
    assert set().union(*EXPECTED_LAYERS.values()) == set(tracing.LAYERS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_covers_its_layers(name, tracer):
    cls = workloads.WORKLOADS[name]
    plain = cls(5, tiny=True)
    untraced = plain.check(plain.compute(0))
    with tracer.recording(tracing.SETUP):
        wl = cls(5, tiny=True)
    with tracer.recording(0):
        traced = wl.check(wl.compute(0))
    assert tracer.missing == []
    assert EXPECTED_LAYERS[name] <= tracer.layers_seen()
    assert traced.digest == untraced.digest


def test_uninstall_restores_bindings():
    import specon
    import specon.cli
    from specon import concentration, spaces

    before = (specon.gram_matrix, specon.cli.gram_matrix, spaces.Torus.basis_matrix,
              concentration.GramMatrix.eigenvalues)
    t = tracing.Tracer()
    t.install()
    assert specon.cli.gram_matrix is not before[1]
    assert specon.gram_matrix is specon.cli.gram_matrix is concentration.gram_matrix
    t.uninstall()
    after = (specon.gram_matrix, specon.cli.gram_matrix, spaces.Torus.basis_matrix,
             concentration.GramMatrix.eigenvalues)
    assert after == before


def test_manifold_trial_call_counts(tracer):
    """Counts for one trial on the 1-torus, worked out from the library code.
    k = #values of the scalar spectral set, J = #joint values; nested calls
    into the same layer belong to the outer span."""
    wl = workloads.ManifoldSweep(5, tiny=True)
    assert wl.families[1][0].kind == "torus:d=1"
    k = len(wl.inputs(0)[1][2])
    with tracer.recording(0):
        _, _, reports = wl.trial(1, 0)
    J = next(r for r in reports if r.name == "joint").inputs["index_count"]
    calls = Counter(s[0] for s in tracer.spans)
    expected = {
        "concentration.gram_matrix": 1,
        "concentration.eig": 1,                      # top_eigenpair
        # prop, homogeneous, supnorm, covering for two functions, plus joint
        "concentration.concentration_levels": 2 * 4 + 1,
        "concentration.masked_band_energy": 2 * 1 + 1,   # prop twice, joint
        # levels (9) + prop's projection (2)
        "concentration.samples": 9 + 2,
        # gram 1; per function: prop 3, homogeneous 1 + k, supnorm 2,
        # covering 1; joint 2 + J
        "spaces.basis_matrix": 1 + 2 * (3 + 1 + k + 2 + 1) + 2 + J,
        # gram 1; per function: prop 4, homogeneous 2, supnorm 2, covering 2;
        # joint 3
        "regions.contains_mask": 1 + 2 * 10 + 3,
        "spectral.check_homogeneity": 2 * k + J,
        "spectral.SpectralSet": 2 + 2 * k + J,
        # both sets' matching, the joint draw's ball, one per homogeneity check
        "spaces.enumerate_basis": 3 + 2 * k + J,
        "uncertainty.check_eigenfunction_mass_bound": 2,
        "uncertainty.check_homogeneous_uncertainty": 2,
        "uncertainty.check_supnorm_uncertainty": 2,
        "uncertainty.check_covering_uncertainty": 2,
        "uncertainty.check_joint_uncertainty": 1,
    }
    assert dict(calls) == expected


def test_tail_has_ten_passes_beyond():
    times = [float(i) for i in range(30)]
    value, pct, beyond = run.tail(times)
    assert value == 19.0 and beyond == 10 == sum(t > value for t in times)
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail(times[:20])[0] == 9.5   # too few passes: the median
    assert run.tail(times[:15])[0] == 7.0


def _bench_json():
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def _run(*argv, cwd=None):
    cmd = [sys.executable, os.path.join(cwd or os.path.dirname(HERE), "bench", "run.py"), *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=cwd)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_runner_output_contract(trace):
    proc = _run("--workload", "slepian-large", "--seed", "4", "--seconds", "0.2",
                "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _bench_json()["per_layer" if trace == "1" else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


def test_benchmark_json_lists_every_metric():
    spec = _bench_json()
    assert [m["name"] for m in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def test_runner_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCHMARK_JSON, tmp_path)
    proc = _run("--workload", "cli-batch", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
