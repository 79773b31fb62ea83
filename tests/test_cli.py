import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

import specon.cli as cli
import specon.spaces as spaces
from specon import (
    BandlimitedFunction,
    GramMatrix,
    ModelSpace,
    Sphere2,
    cap,
    check_homogeneous_uncertainty,
    spectrum_ball,
    trial_rng,
)
from specon.cli import main
from specon.spectral import homogeneity_deviations
from specon.uncertainty import HOMOGENEITY_SAMPLES

CONCENTRATE = ("concentrate", "--space", "zn:N=16,d=1", "--spectrum", "ball:3",
               "--region", "set:{0,1,3,7,12}", "--top", "7")


def complex_rows(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_basis_zn4(self, capsys):
        code, out, _ = run_cli(capsys, "basis", "--space", "zn:N=4,d=1")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert len(doc["rows"]) == 4

    def test_basis_needs_cutoff_on_torus(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--space", "torus:d=1")
        assert code == 1
        assert "cutoff" in err

    def test_weyl_single_lambda(self, capsys):
        code, out, _ = run_cli(capsys, "weyl", "--space", "torus:d=2", "--lambda", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0]["count"] == 81

    def test_weyl_table(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, "weyl", "--space", "sphere2",
                               "--lambda-max", "4", "--lambda-step", "1")
        assert code == 0
        rows = json.loads(out)["rows"]
        # degrees with sqrt(l(l+1)) <= lambda: 0; 0,1; 0..2; 0..3
        assert [r["count"] for r in rows] == [1, 4, 9, 16]
        # the whole table reads prefixes of one evaluation at the top lambda
        calls = []
        for cls, name in [(ModelSpace, "enumerate_basis"), (Sphere2, "basis_matrix")]:
            method = getattr(cls, name)
            monkeypatch.setattr(cls, name, lambda self, *a, _m=method, _n=name:
                                calls.append(_n) or _m(self, *a))
        code, out, _ = run_cli(capsys, "weyl", "--space", "sphere2", "--lambda-max", "40")
        assert code == 0 and len(json.loads(out)["rows"]) == 40
        assert sorted(calls) == ["basis_matrix", "enumerate_basis"]

    def test_weyl_row_cost_matches_its_size_guard(self, capsys):
        # the guard books WEYL_ROW_BYTES an emitted row: a 4000-row JSON table
        # peaks within a quarter of that under tracemalloc
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "weyl", "--space", "torus:d=1",
                                   "--lambda-max", "40", "--lambda-step", "0.01")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and len(json.loads(out)["rows"]) == 4000
        assert 0.75 <= peak / (4000 * cli.WEYL_ROW_BYTES) <= 1.25

    def test_homogeneity_pass_and_fail_exit_codes(self, capsys):
        code, out, _ = run_cli(capsys, "homogeneity", "--space", "sphere2",
                               "--spectrum", "level:l=2")
        assert code == 0
        assert json.loads(out)["reports"][0]["holds"]
        # an impossible tolerance flips the exit code to 2
        code, out, _ = run_cli(capsys, "homogeneity", "--space", "sphere2",
                               "--spectrum", "level:l=2", "--tol", "1e-30")
        assert code == 2

    def test_concentrate(self, capsys):
        code, out, _ = run_cli(capsys, "concentrate", "--space", "torus:d=1",
                               "--spectrum", "ball:2", "--region", "arc:0:3.141592653589793",
                               "--quad-oversample", "64")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["size"] == 5
        assert len(doc["eigenvalues"]) == 5
        assert all(0 <= v <= 1 for v in doc["eigenvalues"])
        assert len(doc["entries"]) == 25
        assert doc["trace"] == pytest.approx(2.5, abs=1e-9)

    def test_torus_concentrate_reads_no_quadrature(self, capsys):
        outs = {run_cli(capsys, "concentrate", "--space", "torus:d=1", "--spectrum", "ball:3",
                        "--region", "arc:0:1", "--quad-oversample", over)[1]
                for over in ("1", "4", "16")}
        assert len(outs) == 1
        assert json.loads(outs.pop())["result"]["eigenvalues"][0] == pytest.approx(
            0.83271521940985127, abs=1e-15)

    def test_concentrate_vectors_have_a_fixed_phase(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, *CONCENTRATE)
        assert code == 0
        doc = json.loads(out)["result"]
        g = complex_rows(doc["entries"]).reshape(doc["size"], doc["size"])
        vecs = [complex_rows(v) for v in doc["top_vectors"]]
        assert len(vecs) == 7
        for lam, v in zip(doc["eigenvalues"], vecs):
            assert np.max(np.abs(g @ v - lam * v)) < 1e-12
            mag = np.abs(v)
            # the first entry of largest modulus, up to the tie tolerance
            top = v[np.flatnonzero(mag >= mag.max() * (1 - cli.PHASE_TIE_TOL))[0]]
            assert top.imag == 0.0 and top.real > 0.0
        # the phase the eigensolver returns does not reach the output
        eigenvectors = GramMatrix.eigenvectors
        monkeypatch.setattr(GramMatrix, "eigenvectors",
                            lambda self: eigenvectors(self) * np.exp(0.7j))
        _, out, _ = run_cli(capsys, *CONCENTRATE)
        for v, w in zip(vecs, json.loads(out)["result"]["top_vectors"]):
            assert np.max(np.abs(v - complex_rows(w))) < 1e-14

    def test_concentrate_eigenvalue_excursion_exits_1(self, capsys, monkeypatch):
        gram_matrix = cli.gram_matrix

        def inflated(*args):
            g = gram_matrix(*args)
            return GramMatrix(g.spectral_set, g.region, 1.5 * g.entries)

        monkeypatch.setattr(cli, "gram_matrix", inflated)
        code, out, err = run_cli(capsys, *CONCENTRATE)
        assert code == 1 and out == ""
        assert "escape [0, 1]" in err

    def test_homogeneity_draws_like_the_homogeneous_check(self, capsys):
        code, out, _ = run_cli(capsys, "homogeneity", "--space", "sphere2", "--spectrum",
                               "ball:3", "--samples", str(HOMOGENEITY_SAMPLES), "--seed", "5")
        assert code == 0
        devs = [r["lhs"] for r in json.loads(out)["reports"]]
        s = Sphere2()
        sset = spectrum_ball(s, 3.0)
        assert devs == [dev for _, dev in
                        homogeneity_deviations(sset, HOMOGENEITY_SAMPLES, trial_rng(5, 0), 1e-9)]
        f = BandlimitedFunction(sset, np.ones(sset.size) + 0j)
        rep = check_homogeneous_uncertainty(f, cap(s, 1.0), sset, s.build_quadrature(3.0),
                                            rng=trial_rng(5, 0))
        assert rep.inputs["homogeneity_max_deviation"] == max(devs) > 0.0

    def test_lambda_q(self, capsys):
        code, out, _ = run_cli(capsys, "lambda-q", "--space", "zn:N=256,d=1",
                               "--n", "256", "--q", "4", "--trials", "5",
                               "--ascent-iterations", "40")
        assert code == 0
        doc = json.loads(out)["result"]
        assert doc["delta"] == pytest.approx(1 / 16)
        assert doc["c_lower"] <= doc["c_interp"] * (1 + 1e-9)

    def test_lambda_q_sup_norm_on_a_continuum(self, capsys):
        # q = inf builds the band's own quadrature: a node maximum is a lower
        # estimate of the sup at any resolution
        code, out, err = run_cli(capsys, "lambda-q", "--space", "torus:d=1", "--n", "64",
                                 "--q", "inf", "--seed", "2")
        assert code == 0, err
        doc = json.loads(out)["result"]
        assert doc["q"] == "inf" and doc["c_lower"] <= doc["c_interp"] * (1 + 1e-9)

    def test_gmpt(self, capsys):
        code, out, _ = run_cli(capsys, "gmpt", "--space", "torus:d=1", "--n", "8",
                               "--trials", "8", "--subsets", "16")
        assert code == 0
        doc = json.loads(out)["result"]
        assert abs(len(doc["indices"]) - 4) <= math.sqrt(8)
        assert doc["k_observed"] >= (2 * math.pi) ** -0.5 - 1e-12

    def test_donoho_stark(self, capsys):
        code, out, _ = run_cli(capsys, "donoho-stark", "--space", "zn:N=16,d=1",
                               "--trials", "20")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert len(reports) == 20
        assert all(r["holds"] for r in reports)


class TestCheckCommand:
    def test_homogeneous_acceptance_example(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inequality", "homogeneous",
                               "--space", "sphere2", "--region", "cap:1.5708",
                               "--spectrum", "level:ℓ=1")
        assert code == 0
        rep = json.loads(out)["reports"][0]
        assert rep["holds"] is True

    def test_lca(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inequality", "lca",
                               "--space", "zn:N=16,d=1", "--trials", "10")
        assert code == 0
        assert len(json.loads(out)["reports"]) == 10

    def test_bourgain(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inequality", "bourgain",
                               "--space", "zn:N=64,d=1", "--q", "4",
                               "--region", "set:{0,1,2,3,4,5,6,7}", "--trials", "5")
        assert code == 0
        assert all(r["holds"] for r in json.loads(out)["reports"])

    def test_prop_supnorm_covering_joint(self, capsys):
        for name, spectrum in [("prop", "ball:2"), ("supnorm", "ball:2"),
                               ("covering", "ball:2"), ("joint", "joint:[(0,),(1,)]")]:
            code, out, _ = run_cli(capsys, "check", "--inequality", name,
                                   "--space", "torus:d=1", "--region", "arc:0:4",
                                   "--spectrum", spectrum, "--trials", "3")
            assert code == 0, f"{name} failed"
            assert all(r["holds"] or any(str(c).startswith("vacuous") for c in r["caveats"])
                       for r in json.loads(out)["reports"])

    def test_bourgain_on_a_continuum(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inequality", "bourgain",
                               "--space", "torus:d=1", "--n", "16", "--q", "4",
                               "--region", "arc:0:2", "--trials", "3")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert reports and all(r["holds"] for r in reports)

    @pytest.mark.parametrize("seed", ["5", "12345"])
    def test_bourgain_on_the_sphere_holds(self, capsys, seed):
        # draws with a zonal Y_l^0, l >= 1, need the certified constant: with
        # (#S)^{1/2} in place of (sum of 2l+1)^{1/2} they failed at both seeds
        code, out, err = run_cli(capsys, "check", "--inequality", "bourgain", "--space", "sphere2",
                                 "--n", "441", "--q", "inf", "--region", "cap:0.3",
                                 "--trials", "40", "--seed", seed)
        assert code == 0, err
        assert len(json.loads(out)["reports"]) == 40

    def test_bourgain_reports_every_trial(self, capsys):
        # with the full region, a draw that misses index 0 has no indicator
        # coefficient: its trial reports as vacuous instead of vanishing
        code, out, err = run_cli(capsys, "check", "--inequality", "bourgain",
                                 "--space", "zn:N=16", "--q", "inf", "--trials", "5")
        assert code == 0, err
        reports = json.loads(out)["reports"]
        assert [r["inputs"]["trial"] for r in reports] == [0, 1, 2, 3, 4]
        assert all(r["inputs"]["subset_size"] == r["inputs"]["index_count"] for r in reports)
        assert any(r["caveats"][:1] == ["vacuous: f is zero, as when the region's indicator "
                                        "has no coefficient on the drawn subset"]
                   for r in reports)

    @pytest.mark.parametrize("argv,owner,name", [
        (("check", "--inequality", "prop", "--space", "torus:d=2", "--region", "box:(0,2)x(1,3)",
          "--spectrum", "ball:3", "--f-mode", "slepian", "--trials", "3"), cli, "gram_matrix"),
        (("check", "--inequality", "covering", "--space", "sphere2", "--region", "cap:1.0",
          "--spectrum", "ball:3", "--f-mode", "tails", "--trials", "3"), cli, "spectrum_ball"),
        (("lambda-q", "--space", "zn:N=64", "--n", "64", "--q", "4", "--trials", "2"),
         ModelSpace, "enumerate_basis"),
    ])
    def test_trial_independent_work_runs_once(self, capsys, monkeypatch, argv, owner, name):
        # the slepian Gram, the tails ambient ball and the lambda-q enumeration
        # do not depend on the trial
        calls, method = [], getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(a) or method(*a, **k))
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(calls) == 1

    def test_tails_mode_runs_on_an_empty_spectrum(self, capsys):
        # the ambient tail gives a nonzero trial function where X_S is empty
        code, out, err = run_cli(capsys, "check", "--inequality", "prop", "--space", "torus:d=1",
                                 "--spectrum", "list:[]", "--f-mode", "tails")
        assert code == 0, err
        assert json.loads(out)["reports"][0]["inputs"]["index_count"] == 0

    def test_joint_tails_mode_draws_as_bandlimited(self, capsys):
        argv = ("check", "--inequality", "joint", "--space", "torus:d=2",
                "--region", "box:(0,3)x(0,3)", "--spectrum", "joint:[(1,0),(0,1),(1,1)]",
                "--trials", "3")
        tails = run_cli(capsys, *argv, "--f-mode", "tails")
        assert tails[0] == 0
        assert tails == run_cli(capsys, *argv, "--f-mode", "bandlimited")

    def test_random_manifold(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inequality", "random-manifold",
                               "--space", "torus:d=1", "--region", "arc:0:6",
                               "--n", "8", "--trials", "3", "--subsets", "8")
        assert code == 0

    def test_slepian_mode(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inequality", "homogeneous",
                               "--space", "sphere2", "--region", "cap:1.5708",
                               "--spectrum", "level:l=1", "--f-mode", "slepian")
        assert code == 0

    def test_tails_mode(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--inequality", "prop",
                               "--space", "torus:d=1", "--region", "arc:0:5",
                               "--spectrum", "ball:1", "--f-mode", "tails",
                               "--trials", "3")
        assert code == 0
        reports = json.loads(out)["reports"]
        assert any(r["inputs"]["epsilon_prime"] > 0 for r in reports)

    @pytest.mark.parametrize("argv", [
        ("check", "--inequality", "bourgain", "--space", "product(zn:N=4,d=1,zn:N=4,d=1)",
         "--q", "4", "--region", "product(set:{0},set:{1})"),
        ("lambda-q", "--space", "product(zn:N=8,d=1,zn:N=8,d=1)", "--n", "64", "--q", "8"),
        ("lambda-q", "--space", "product(zn:N=4,d=1,torus:d=1)", "--n", "40", "--q", "6"),
    ])
    def test_products_of_groups_run(self, capsys, argv):
        # a product of groups has a finite spectrum (bourgain defaults --n to
        # all of it), and a group factor's quadrature caps no exactness degree
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert json.loads(out)["schema_version"] == 1


class TestErrors:
    def test_bad_space_descriptor(self, capsys):
        code, _, err = run_cli(capsys, "basis", "--space", "moebius:d=2")
        assert code == 1
        assert "moebius:d=2" in err

    def test_bad_region_descriptor(self, capsys):
        code, _, err = run_cli(capsys, "check", "--inequality", "prop",
                               "--space", "torus:d=1", "--region", "blob:9",
                               "--spectrum", "ball:1")
        assert code == 1
        assert "blob:9" in err

    def test_bourgain_without_q(self, capsys):
        code, _, err = run_cli(capsys, "check", "--inequality", "bourgain",
                               "--space", "zn:N=16,d=1")
        assert code == 1
        assert "--q" in err

    def test_bourgain_on_a_continuum_without_n(self, capsys):
        code, _, err = run_cli(capsys, "check", "--inequality", "bourgain",
                               "--space", "torus:d=1", "--q", "4", "--region", "arc:0:2")
        assert code == 1
        assert "--n" in err

    @pytest.mark.parametrize("name", ["prop", "homogeneous", "supnorm", "covering", "joint"])
    def test_missing_spectrum(self, capsys, name):
        code, _, err = run_cli(capsys, "check", "--inequality", name, "--space", "torus:d=1")
        assert code == 1
        assert "--spectrum" in err

    def test_gmpt_no_draw_within_size_limit(self, capsys):
        code, _, err = run_cli(capsys, "gmpt", "--space", "torus:d=1", "--n", "64",
                               "--c-param", "0", "--subsets", "1")
        assert code == 1
        assert "no subset met" in err

    def test_product_region_on_plain_space(self, capsys):
        code, _, err = run_cli(capsys, "check", "--inequality", "prop", "--space", "torus:d=1",
                               "--region", "product(arc:0:1,arc:0:2)", "--spectrum", "ball:1")
        assert code == 1
        assert "product(arc:0:1,arc:0:2)" in err

    def test_oversized_basis_matrix(self, capsys):
        # all 65536 characters of Z_256^2 on all 65536 points: refused with
        # its exact size, and not allocated
        code, _, err = run_cli(capsys, "gmpt", "--space", "zn:N=256,d=2", "--n", "65536")
        assert code == 1
        assert "65536 nodes x 65536 elements needs 68,719,476,736 bytes (64.0 GiB)" in err
        assert "cutoff" in err and "oversample" in err and "spectrum" in err

    @pytest.mark.parametrize("argv,calls", [
        (("gmpt", "--space", "torus:d=1", "--n", "8", "--trials", "4", "--subsets", "8"), 1),
        (("gmpt", "--space", "zn:N=16,d=1", "--n", "8", "--trials", "4", "--subsets", "8"), 1),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1", "--n", "8",
          "--region", "arc:0:2", "--trials", "3", "--gmpt-trials", "4", "--subsets", "8"), 1),
        # on a group the size guard refuses before any enumeration
        (("gmpt", "--space", "zn:N=256,d=2", "--n", "65536"), 0),
    ])
    def test_gmpt_enumerates_once(self, capsys, monkeypatch, argv, calls):
        # enumerations made inside each first_elements call
        seen, enumerations = [], []
        first_elements, enumerate_basis = ModelSpace.first_elements, ModelSpace.enumerate_basis

        def counted(self, n):
            before = len(enumerations)
            els = first_elements(self, n)
            seen.append(len(enumerations) - before)
            return els

        monkeypatch.setattr(ModelSpace, "first_elements", counted)
        monkeypatch.setattr(ModelSpace, "enumerate_basis", lambda self, cutoff:
                            enumerations.append(cutoff) or enumerate_basis(self, cutoff))
        code, _, err = run_cli(capsys, *argv)
        assert code == (1 if calls == 0 else 0), err
        assert seen == [1] * calls

    @pytest.mark.parametrize("argv,named", [
        (("weyl", "--space", "torus:d=1", "--lambda-max", "5", "--lambda-step", "0"),
         "argument --lambda-step"),
        (("weyl", "--space", "torus:d=1", "--lambda-max", "5", "--lambda-step", "-1"),
         "argument --lambda-step"),
        (("weyl", "--space", "torus:d=1", "--lambda-max", "-3"), "argument --lambda-max"),
        (("weyl", "--space", "torus:d=1", "--lambda-max", "nan"), "argument --lambda-max"),
        (("weyl", "--space", "torus:d=1", "--lambda", "inf"), "argument --lambda"),
        (("weyl", "--space", "torus:d=1", "--lambda", "-1"), "argument --lambda"),
        (("weyl", "--space", "torus:d=1", "--lambda", "abc"), "argument --lambda"),
        (("weyl", "--space", "torus:d=1", "--lambda", "1e300"), "cutoff 1e+300"),
        (("weyl", "--space", "sphere2", "--lambda", "1e300"), "cutoff 1e+300"),
        (("basis", "--space", "torus:d=1", "--cutoff", "1e300"), "cutoff 1e+300"),
        (("homogeneity", "--space", "torus:d=1", "--spectrum", "ball:1e200"), "ball:1e200"),
        (("check", "--inequality", "nope", "--space", "torus:d=1"), "argument --inequality"),
        (("check", "--space", "torus:d=1"), "required: --inequality"),
        (("concentrate", "--space", "torus:d=1", "--spectrum", "ball:2",
          "--region", "arc:0:1", "--top", "-1"), "argument --top"),
        (("check", "--inequality", "lca", "--space", "zn:N=4", "--trials", "-1"), "argument --trials"),
        (("check", "--inequality", "supnorm", "--space", "torus:d=1", "--spectrum", "ball:1",
          "--x-samples", "-1"), "argument --x-samples"),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1", "--n", "4",
          "--subsets", "-1"), "argument --subsets"),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1", "--n", "4",
          "--gmpt-trials", "-2"), "argument --gmpt-trials"),
        (("homogeneity", "--space", "sphere2", "--spectrum", "level:l=1", "--samples", "-5"),
         "argument --samples"),
        (("lambda-q", "--space", "zn:N=16", "--n", "16", "--q", "4",
          "--ascent-iterations", "-1"), "argument --ascent-iterations"),
        (("gmpt", "--space", "torus:d=1", "--n", "8", "--trials", "-1"), "argument --trials"),
        (("donoho-stark", "--space", "zn:N=4", "--trials", "-1"), "argument --trials"),
        # descriptors parse as written
        (("basis", "--space", "torus:d=2,x=3", "--cutoff", "1"), "unknown field 'x=3'"),
        (("basis", "--space", "torus:d=1,d=2", "--cutoff", "1"), "repeated field 'd=2'"),
        (("basis", "--space", "zn:N=4,d=1,q=2"), "unknown field 'q=2'"),
        (("basis", "--space", "product(zn:N=4,d=1,q=2,sphere2)", "--cutoff", "1"),
         "unknown field 'q=2'"),
        (("homogeneity", "--space", "sphere2", "--spectrum", "level:l=-1"), "'level:l=-1'"),
        (("homogeneity", "--space", "sphere2", "--spectrum", "level:l=-3"), "'level:l=-3'"),
        # numeric flags
        (("concentrate", "--space", "torus:d=1", "--spectrum", "ball:2", "--region", "full",
          "--quad-oversample", "0"), "argument --quad-oversample"),
        (("concentrate", "--space", "torus:d=1", "--spectrum", "ball:2", "--region", "full",
          "--quad-oversample", "-3"), "argument --quad-oversample"),
        (("concentrate", "--space", "torus:d=2", "--spectrum", "ball:2", "--region", "full",
          "--match-tol", "-1"), "unrecognized arguments: --match-tol"),
        (("concentrate", "--space", "torus:d=2", "--spectrum", "ball:2", "--region", "full",
          "--match-tol", "nan"), "unrecognized arguments: --match-tol"),
        (("homogeneity", "--space", "sphere2", "--spectrum", "level:l=1", "--tol", "nan"),
         "argument --tol"),
        (("gmpt", "--space", "torus:d=1", "--n", "8", "--c-param", "nan"), "argument --c-param"),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1", "--n", "8",
          "--c-param", "-1"), "argument --c-param"),
        (("check", "--inequality", "bourgain", "--space", "zn:N=16", "--q", "nan"),
         "argument --q"),
        (("check", "--inequality", "bourgain", "--space", "zn:N=16", "--q", "2"), "argument --q"),
        (("lambda-q", "--space", "zn:N=16", "--n", "16", "--q", "-inf"), "argument --q"),
        (("check", "--inequality", "bourgain", "--space", "torus:d=1", "--q", "4", "--n", "0",
          "--region", "arc:0:1"), "argument --n"),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1", "--n", "0",
          "--region", "arc:0:1"), "argument --n"),
        (("gmpt", "--space", "torus:d=1", "--n", "-2"), "argument --n"),
        # sizes, refused under a limit lowered to 1 MiB
        (("concentrate", "--space", "product(sphere2,sphere2)", "--spectrum", "ball:3",
          "--region", "full"), "oversample 4 (57,600 nodes) needs 2,304,000 bytes"),
        (("concentrate", "--space", "torus:d=2", "--spectrum", "ball:1", "--region", "full",
          "--quad-oversample", "100"), "oversample 100 (160,000 nodes) needs 3,840,000 bytes"),
        (("basis", "--space", "torus:d=6", "--cutoff", "3"),
         "on torus:d=6 at cutoff 3.0 (117,649 x 6) needs 5,647,152 bytes"),
        (("basis", "--space", "product(zn:N=16,d=2,zn:N=16,d=2)"), "(65,536 x 4) needs"),
        (("basis", "--space", "torus:d=40", "--cutoff", "1"), "(12,157,665,459,056,928,801 x 40)"),
        # trial counts, seeds and points
        (("gmpt", "--space", "zn:N=16", "--n", "16", "--trials", "0"), "argument --trials"),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1", "--n", "16",
          "--gmpt-trials", "0"), "argument --gmpt-trials"),
        (("check", "--inequality", "lca", "--space", "zn:N=4", "--seed", "-5"), "argument --seed"),
        (("weyl", "--space", "torus:d=2", "--lambda", "3", "--point", "nan,0"), "argument --point"),
        (("weyl", "--space", "torus:d=1", "--lambda", "3", "--point", "inf"), "argument --point"),
        (("weyl", "--space", "torus:d=2", "--lambda", "3", "--point", "a,b"), "argument --point"),
        (("weyl", "--space", "torus:d=2", "--lambda", "3", "--point", "1"), "2 coordinates"),
        # empty spectra and empty descriptor items
        (("check", "--inequality", "prop", "--space", "torus:d=1", "--spectrum", "list:[]",
          "--f-mode", "slepian"), "'list:[]'"),
        (("check", "--inequality", "prop", "--space", "torus:d=1", "--spectrum", "list:[]"),
         "'list:[]'"),
        (("check", "--inequality", "joint", "--space", "torus:d=1", "--spectrum", "joint:[]",
          "--f-mode", "slepian"), "'joint:[]'"),
        (("check", "--inequality", "prop", "--space", "torus:d=1", "--spectrum", "list:[1,,2]"),
         "'list:[1,,2]'"),
        (("check", "--inequality", "joint", "--space", "torus:d=1",
          "--spectrum", "joint:[(1,,)]"), "'joint:[(1,,)]'"),
        (("check", "--inequality", "prop", "--space", "torus:d=1", "--spectrum", "ball:1",
          "--region", "arc:0:1+"), "'arc:0:1+'"),
        # checks that need a kind of space, spectrum or size
        (("check", "--inequality", "lca", "--space", "torus:d=1"),
         "--inequality lca runs on finite groups"),
        (("donoho-stark", "--space", "sphere2"), "donoho-stark runs on finite groups"),
        (("check", "--inequality", "joint", "--space", "torus:d=1", "--spectrum", "ball:1"),
         "--inequality joint needs a joint:[...] spectrum"),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1"),
         "--inequality random-manifold needs --n"),
        (("check", "--inequality", "covering", "--space", "torus:d=1",
          "--spectrum", "joint:[(1,)]"),
         "--inequality covering needs a scalar spectrum, not 'joint:[(1,)]'"),
        (("homogeneity", "--space", "torus:d=1", "--spectrum", "list:[]"),
         "spectrum 'list:[]' selects no eigenfunction"),
        (("concentrate", "--space", "torus:d=1", "--spectrum", "list:[]", "--region", "full"),
         "spectrum 'list:[]' selects no eigenfunction"),
        (("basis", "--space", "zn:d=2"), "missing field N=<int>): 'zn:d=2'"),
        (("check", "--inequality", "prop", "--space", "product(torus:d=1,sphere2)",
          "--spectrum", "ball:2", "--region", "product(arc:0:1,cap:1)+product(arc:2:3,cap:1)"),
         "unions of product regions are not supported"),
        (("check", "--inequality", "prop", "--space", "product(torus:d=1,sphere2)",
          "--spectrum", "ball:2", "--region", "full+empty"),
         "unions of product regions are not supported"),
        (("gmpt", "--space", "torus:d=1", "--n", "2"), "n must be an even integer >= 4, got 2"),
        # working tables, refused under the same lowered limit
        (("homogeneity", "--space", "sphere2", "--spectrum", "ball:1", "--samples", "100000"),
         "sample table on sphere2 (100,000 points x 2) needs 1,600,000 bytes"),
        (("check", "--inequality", "supnorm", "--space", "torus:d=1", "--spectrum", "ball:1",
          "--region", "arc:0:1", "--x-samples", "200000"),
         "sample table on torus:d=1 (200,000 points x 1) needs 1,600,000 bytes"),
        (("gmpt", "--space", "torus:d=1", "--n", "8", "--trials", "10000"),
         "gmpt trial block of 10,000 trials x (8 elements + 40 nodes) needs 7,680,000 bytes"),
        (("check", "--inequality", "random-manifold", "--space", "torus:d=1", "--n", "8",
          "--region", "arc:0:1", "--gmpt-trials", "10000"),
         "gmpt trial block of 10,000 trials x (8 elements + 40 nodes) needs 7,680,000 bytes"),
        (("lambda-q", "--space", "torus:d=1", "--n", "200000", "--q", "4"),
         "generic-subset draw of 200,000 indices needs 1,600,000 bytes"),
        (("lambda-q", "--space", "zn:N=16", "--n", "16", "--q", "4", "--trials", "50000"),
         "estimate_cq start table of (3 + 50,000 trials) x 3 needs 2,400,144 bytes"),
        (("weyl", "--space", "torus:d=1", "--lambda-max", "100", "--lambda-step", "0.0001"),
         "weyl table of 1,000,000 lambdas needs 8,000,000 bytes"),
        (("weyl", "--space", "zn:N=4", "--lambda", "1", "--point", "0.5"),
         "point (0.5,) is not a point of zn:N=4,d=1"),
        (("weyl", "--space", "sphere2", "--lambda", "3", "--point", "5,0"),
         "point (5.0, 0.0) is not a point of sphere2: its colatitude must lie in [0, pi]"),
        (("weyl", "--space", "torus:d=1", "--lambda-max", "100", "--lambda-step", "0.01"),
         "weyl output of 10,000 rows needs 10,500,000 bytes"),
        (("weyl", "--space", "torus:d=1", "--lambda", "3", "--lambda-max", "2"),
         "argument --lambda-max: not allowed with argument --lambda"),
    ] + [
        # values off the spectrum; 15 is the uncentered residue of the joint value -1
        ((*command, "--space", space, "--spectrum", spectrum),
         f"bad spectrum descriptor ({value} is not in the spectrum of {space}): {spectrum!r}")
        for space, spectrum, value in [("torus:d=2", "list:[1,2.236]", "2.236"),
                                       ("torus:d=1", "list:[0.5]", "0.5"),
                                       ("zn:N=16,d=1", "joint:[(1,),(15,)]", "(15)")]
        for command in [("check", "--inequality", "prop"), ("check", "--inequality", "covering"),
                        ("concentrate", "--region", "full"), ("homogeneity",)]
    ] + [
        # brackets pair, a tuple is read once, and a ball cutoff is finite and >= 0
        (("homogeneity", "--space", "torus:d=2", "--spectrum", "joint:[(1,0]"),
         "(unpaired ']' in '[(1,0]'): 'joint:[(1,0]'"),
        (("homogeneity", "--space", "torus:d=2", "--spectrum", "joint:[((1,0))]"),
         "(could not convert string to float: '(1,0)'): 'joint:[((1,0))]'"),
        (("concentrate", "--space", "zn:N=4,d=2", "--spectrum", "ball:1", "--region", "set:{(0,1}"),
         "(unpaired '}' in 'set:{(0,1}'): 'set:{(0,1}'"),
        (("concentrate", "--space", "torus:d=2", "--spectrum", "ball:1",
          "--region", "box:(0,2x(1,3)"), "(unpaired '(' in 'box:(0,2x(1,3)'): 'box:(0,2x(1,3)'"),
        (("basis", "--space", "product(torus:d=1,sphere2"),
         "(unpaired '(' in '(torus:d=1,sphere2'): 'product(torus:d=1,sphere2'"),
        (("homogeneity", "--space", "torus:d=1", "--spectrum", "ball:-1"),
         "(cutoff must be nonnegative, got -1.0): 'ball:-1'"),
        (("homogeneity", "--space", "torus:d=1", "--spectrum", "ball:nan"),
         "(cutoff must be finite, got nan): 'ball:nan'"),
    ])
    def test_bad_argument_exits_1_and_is_named(self, capsys, monkeypatch, argv, named):
        # exit 2 is kept for a failed report; a size guard that misfires
        # allocates a few MB
        monkeypatch.setattr(spaces, "MAX_BASIS_BYTES", 2**20)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert named in err and "Traceback" not in err

    def test_config_errors_exit_1_and_are_named(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("space = zn:N=4\ntrials 5\n")
        for argv, named in [(("--config",), "--config needs a file path"),
                            (("--config", str(bad)), "config line without '=': 'trials 5'"),
                            (("--config", str(tmp_path / "missing.cfg")), "cannot read config")]:
            code, out, err = run_cli(capsys, "donoho-stark", *argv)
            assert (code, out) == (1, "")
            assert named in err and "Traceback" not in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["weyl", "--help"])
        assert exc.value.code == 0
        assert "--lambda-max" in capsys.readouterr().out

    def test_bourgain_on_a_large_group_builds_no_character_matrix(self, capsys):
        # the 16384 x 16384 character matrix would need 4 GiB; one FFT of the
        # indicator gives its coefficients instead
        code, out, err = run_cli(capsys, "check", "--inequality", "bourgain",
                                 "--space", "zn:N=128,d=2", "--q", "4",
                                 "--region", "set:{(0,0),(1,1)}")
        assert code == 0, err
        assert json.loads(out)["reports"]


class TestDeterminismAndFormats:
    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built, init = [], cli._Parser.__init__
        monkeypatch.setattr(cli._Parser, "__init__", lambda self, *a, **k:
                            built.append(k.get("prog")) or init(self, *a, **k))
        cli.build_parser.cache_clear()
        for _ in range(2):
            assert run_cli(capsys, "weyl", "--space", "torus:d=2", "--lambda", "5")[0] == 0
        assert built.count("specon") == 1

    def test_byte_identical_json(self, capsys):
        args = ["check", "--inequality", "homogeneous", "--space", "sphere2",
                "--region", "cap:0.9", "--spectrum", "level:l=2", "--trials", "4",
                "--seed", "321"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_sphere_concentrate_vectors_are_of_one_order(self, capsys):
        args = ["concentrate", "--space", "sphere2", "--spectrum", "ball:6",
                "--region", "cap:1.1", "--top", "3"]
        code, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert code == 0 and out1 == out2
        doc = json.loads(out1)["result"]
        elements = Sphere2().first_elements(max(doc["indices"]) + 1)
        orders = np.array([elements[i].label[1] for i in doc["indices"]])
        assert len(doc["top_vectors"]) == 3
        for vec in doc["top_vectors"]:
            assert len(set(orders[complex_rows(vec) != 0].tolist())) == 1

    def test_byte_identical_csv(self, capsys):
        args = ["donoho-stark", "--space", "zn:N=16,d=1", "--trials", "50",
                "--format", "csv", "--seed", "7"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "schema_version,name,lhs,rhs,holds,slack,seed,inputs,caveats"
        assert len(lines) == 51

    @pytest.mark.parametrize("argv", [
        ("weyl", "--space", "sphere2", "--lambda-max", "3"),
        ("concentrate", "--space", "torus:d=1", "--spectrum", "ball:2", "--region", "arc:0:3"),
        ("lambda-q", "--space", "zn:N=64", "--n", "64", "--q", "4", "--trials", "2"),
        ("gmpt", "--space", "torus:d=1", "--n", "8", "--trials", "4", "--subsets", "8"),
    ])
    def test_csv_tables_are_rectangular(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and rows[0][0] == "schema_version"
        assert all(len(row) == len(rows[0]) for row in rows)

    def test_csv_keeps_runs_of_spaces_in_strings(self, capsys):
        argv = ("check", "--inequality", "prop", "--space", "torus:d=1",
                "--spectrum", "list:[1.0,  2.0]", "--region", "arc:0:1")
        _, out, _ = run_cli(capsys, *argv)
        want = json.loads(out)["reports"][0]["inputs"]
        _, out, _ = run_cli(capsys, *argv, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert json.loads(rows[0]["inputs"]) == want
        assert want["spectrum"] == "list:[1.0,  2.0]"

    def test_different_seeds_differ(self, capsys):
        args = ["donoho-stark", "--space", "zn:N=16,d=1", "--trials", "5"]
        _, out1, _ = run_cli(capsys, *args, "--seed", "1")
        _, out2, _ = run_cli(capsys, *args, "--seed", "2")
        assert out1 != out2

    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECON_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(capsys, "basis", "--space", "zn:N=4,d=1",
                               "--output", "basis.json")
        assert code == 0
        assert out == ""
        assert json.loads((tmp_path / "basis.json").read_text())["rows"]

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("space = zn:N=16,d=1\ntrials = 5\nseed = 99\n")
        code, out, _ = run_cli(capsys, "donoho-stark", "--config", str(cfg))
        assert code == 0
        assert len(json.loads(out)["reports"]) == 5
        # explicit flags override config values
        code, out, _ = run_cli(capsys, "donoho-stark", "--config", str(cfg),
                               "--trials", "2")
        assert len(json.loads(out)["reports"]) == 2

    def test_json_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(capsys, "weyl", "--space", "torus:d=1", "--lambda", "2")
        assert "0.79577471545947676" in out  # 5/(2 pi) at 17 significant digits
