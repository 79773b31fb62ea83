"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria marked "exact" rest on identities that hold for the discrete
quadrature measure as well, so they are deterministic for the frozen seeds.
Torus trial regions are aligned to quadrature cells (the masked node mass
then equals the exact measure); sphere caps keep nodes on both sides of the
boundary.
"""

import math

import numpy as np
import pytest

from specon import (
    BandlimitedFunction,
    BoxUnion,
    FiniteGroup,
    RandomSubsetSpec,
    SpectralSet,
    Sphere2,
    Torus,
    cap,
    check_eigenfunction_mass_bound,
    check_generic_subset_uncertainty,
    check_group_uncertainty,
    check_homogeneous_uncertainty,
    check_joint_uncertainty,
    check_projection_bounds,
    check_random_half_uncertainty,
    check_supnorm_uncertainty,
    check_covering_uncertainty,
    estimate_cq,
    generic_subset,
    gmpt_split,
    gram_matrix,
    max_concentration,
    parse_region,
    sogge_constant_estimate,
    spectrum_ball,
    trial_rng,
)
from specon.cli import main

TWO_PI = 2 * math.pi
SEED = 20240901


def announce(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def aligned_arc(space, quad, rng, min_cells=2):
    """Random arc with endpoints on quadrature cell boundaries, so the masked
    node mass equals the exact measure."""
    n = round((space.total_measure / quad.weights[0]) ** (1 / space.dim))
    h = TWO_PI / n
    i = int(rng.integers(0, n - min_cells))
    j = int(rng.integers(i + min_cells, n + 1))
    return BoxUnion(space, [((i * h, j * h),)])


def aligned_box(space, quad, rng, min_cells=2):
    n = round((space.total_measure / quad.weights[0]) ** (1 / space.dim))
    h = TWO_PI / n
    box = []
    for _ in range(space.dim):
        i = int(rng.integers(0, n - min_cells))
        j = int(rng.integers(i + min_cells, n + 1))
        box.append((i * h, j * h))
    return BoxUnion(space, [tuple(box)])


def test_01_addition_theorem_homogeneity():
    s = Sphere2()
    rng = np.random.default_rng(SEED)
    pts = s.sample_points(200, rng)
    worst = 0.0
    for l in range(21):
        v = s.basis_matrix([s._element((l, m)) for m in range(-l, l + 1)], pts)
        sums = np.sum(np.abs(v) ** 2, axis=1)
        worst = max(worst, float(np.abs(sums - (2 * l + 1) / (4 * math.pi)).max()))
    announce(1, worst < 1e-9,
             f"sphere degeneracy sums constant for l <= 20, max deviation {worst:.3g}")


def test_02_orthonormality():
    worst = 0.0
    for space, cutoff in [(Torus(1), 10.0), (Torus(2), 10.0),
                          (Sphere2(), math.sqrt(10 * 11))]:
        els = space.enumerate_basis(cutoff)
        quad = space.build_quadrature(cutoff)
        v = space.basis_matrix(els, quad.nodes)
        gram = (v.conj().T * quad.weights) @ v
        worst = max(worst, float(np.abs(gram - np.eye(len(els))).max()))
    announce(2, worst < 1e-10, f"full-space Grams are the identity, max defect {worst:.3g}")


def test_03_weyl_law():
    n_torus = Torus(2).count_upto(100.0)
    torus_err = abs(n_torus / (math.pi * 100.0**2) - 1.0)
    lam = math.sqrt(40 * 41)
    n_sphere = Sphere2().count_upto(lam)
    sphere_err = abs(n_sphere / lam**2 - 1.0)
    announce(3, torus_err < 0.05 and sphere_err < 0.10,
             f"N(100)={n_torus} vs pi*10^4 ({torus_err:.2%}); "
             f"sphere N/lambda^2 off by {sphere_err:.2%}")


def test_04_exact_group_uncertainty():
    g12 = FiniteGroup(12, 1)
    f = np.zeros(12)
    f[[0, 4, 8]] = 1.0
    rep = check_group_uncertainty(g12, f)
    exact = rep.rhs == 1.0

    g16 = FiniteGroup(16, 1)
    dft = np.array([[np.exp(-2j * math.pi * j * k / 16) for j in range(16)]
                    for k in range(16)])
    all_hold = True
    for t in range(500):
        rng = trial_rng(SEED, t)
        size = int(rng.integers(1, 17))
        support = rng.choice(16, size=size, replace=False)
        f = np.zeros(16, dtype=complex)
        f[support] = rng.normal(size=size) + 1j * rng.normal(size=size)
        rep = check_group_uncertainty(g16, f)
        fhat = dft @ f
        oracle = (
            int(np.count_nonzero(np.abs(f) > 1e-12 * np.abs(f).max()))
            * int(np.count_nonzero(np.abs(fhat) > 1e-12 * np.abs(fhat).max())) / 16.0
        )
        all_hold &= rep.holds and rep.rhs == pytest.approx(oracle, rel=1e-12) and oracle >= 1.0
    announce(4, exact and all_hold,
             "subgroup indicator attains equality; 500 random Z_16 trials >= 1 "
             "against the exhaustive DFT oracle")


def test_05_operator_bounds_seeded_trials():
    rel = 1e-10
    failures = 0

    g = FiniteGroup(64, 1)
    gq = g.build_quadrature()
    gfreqs = sorted({el.frequency for el in g.first_elements(64)})
    for t in range(500):
        rng = trial_rng(SEED + 1, t)
        f = rng.normal(size=64) + 1j * rng.normal(size=64)
        support = rng.choice(64, size=int(rng.integers(1, 65)), replace=False)
        region = parse_region(g, "set:{" + ",".join(map(str, sorted(support))) + "}")
        chosen = rng.choice(len(gfreqs), size=int(rng.integers(1, len(gfreqs) + 1)),
                            replace=False)
        sset = SpectralSet(g, [gfreqs[i] for i in chosen])
        lower, upper = check_projection_bounds(f, region, sset, gq)
        if lower.lhs > lower.rhs * (1 + rel) + rel or upper.lhs > upper.rhs * (1 + rel) + rel:
            failures += 1

    t1 = Torus(1)
    tq = t1.build_quadrature(10.0, oversample=4)
    ball = spectrum_ball(t1, 10.0)
    for t in range(500):
        rng = trial_rng(SEED + 2, t)
        f = BandlimitedFunction(ball, rng.normal(size=ball.size) + 1j * rng.normal(size=ball.size))
        a, b = np.sort(rng.uniform(0.0, TWO_PI, size=2))
        region = BoxUnion(t1, [((a, b),)])
        freqs = list(range(11))
        chosen = rng.choice(11, size=int(rng.integers(1, 12)), replace=False)
        sset = SpectralSet(t1, [float(freqs[i]) for i in chosen])
        lower, upper = check_projection_bounds(f, region, sset, tq)
        if lower.lhs > lower.rhs * (1 + rel) + rel or upper.lhs > upper.rhs * (1 + rel) + rel:
            failures += 1
    announce(5, failures == 0,
             f"both projection bounds held on 1000 seeded (f, E, S) trials "
             f"(Z_64 and torus d=1), {failures} failures")


def test_06_concentration_eigenproblem():
    t1 = Torus(1)
    quad = t1.build_quadrature(2.0, oversample=700)
    sset = spectrum_ball(t1, 2.0)
    region = BoxUnion(t1, [((0.0, math.pi),)])
    gram = gram_matrix(sset, region, quad)

    raw = gram.raw_eigenvalues()
    in_range = raw.min() > -1e-8 and raw.max() < 1 + 1e-8
    diag_sum = float(np.sum(
        quad.weights * region.contains_mask(quad.nodes)
        * np.sum(np.abs(t1.basis_matrix(sset.elements, quad.nodes)) ** 2, axis=1)))
    trace_ok = abs(gram.trace - diag_sum) < 1e-8

    lam, _ = max_concentration(gram)
    ms = [el.label[0] for el in sset.elements]
    oracle = np.empty((5, 5), dtype=complex)
    for i, mi in enumerate(ms):
        for j, mj in enumerate(ms):
            d = mi - mj
            oracle[i, j] = (math.pi / TWO_PI if d == 0 else
                            (np.exp(1j * d * math.pi) - 1.0) / (2j * math.pi * d))
    lam_oracle = float(np.linalg.eigvalsh(oracle)[-1])
    close = abs(lam - lam_oracle) < 1e-12
    announce(6, in_range and trace_ok and close,
             f"eigenvalues in [-1e-8, 1+1e-8]; trace identity; top eigenvalue "
             f"{lam:.9f} vs direct-integration oracle {lam_oracle:.9f}")


def _criterion7_spaces():
    s = Sphere2()
    t1, t2 = Torus(1), Torus(2)
    return [
        (s, s.build_quadrature(math.sqrt(6 * 7), oversample=4),
         [math.sqrt(l * (l + 1)) for l in range(7)]),
        (t1, t1.build_quadrature(6.0, oversample=8), [float(k) for k in range(7)]),
        (t2, t2.build_quadrature(4.0, oversample=4),
         sorted({el.frequency for el in t2.enumerate_basis(4.0)})),
    ]


def _criterion7_region(space, quad, rng):
    if isinstance(space, Sphere2):
        return cap(space, float(rng.uniform(0.4, 2.6)))
    if space.dim == 1:
        return aligned_arc(space, quad, rng)
    return aligned_box(space, quad, rng)


def test_07_manifold_uncertainty_trials():
    checked = 0
    vacuous = 0
    failures = []
    for space, quad, freqs in _criterion7_spaces():
        c_m = sogge_constant_estimate(space, max(freqs) + 1.0, x_samples=64,
                                      seed=SEED, extra_lambdas=freqs)
        for t in range(200):
            rng = trial_rng(SEED + 3, t)
            take = rng.choice(len(freqs), size=int(rng.integers(1, len(freqs) + 1)),
                              replace=False)
            sset = SpectralSet(space, [freqs[i] for i in sorted(take)])
            region = _criterion7_region(space, quad, rng)
            fs = [BandlimitedFunction(
                sset, rng.normal(size=sset.size) + 1j * rng.normal(size=sset.size))]
            top = max_concentration(gram_matrix(sset, region, quad))[1]
            fs.append(BandlimitedFunction(sset, top))

            joint_vals = [space.enumerate_basis(max(freqs))[i].joint
                          for i in sorted(rng.choice(
                              space.count_upto(max(freqs)),
                              size=int(rng.integers(1, 8)), replace=False))]
            jset = SpectralSet(space, joint_vals, joint=True)
            jf = BandlimitedFunction(
                jset, rng.normal(size=jset.size) + 1j * rng.normal(size=jset.size))

            reports = []
            for f in fs:
                reports.append(check_eigenfunction_mass_bound(f, region, sset, quad))
                reports.append(check_homogeneous_uncertainty(f, region, sset, quad, rng=rng))
                reports.append(check_supnorm_uncertainty(f, region, sset, quad,
                                                         x_samples=32, rng=rng))
                reports.append(check_covering_uncertainty(f, region, sset, quad, c_m))
            reports.extend(check_joint_uncertainty(jf, region, jset, quad, rng=rng))
            for rep in reports:
                checked += 1
                if rep.vacuous:
                    vacuous += 1
                elif not rep.holds:
                    failures.append((space.kind, t, rep.name, rep.lhs, rep.rhs))
    announce(7, not failures,
             f"{checked} reports over 200 trials per space (sphere, torus d=1,2); "
             f"{vacuous} vacuous; failures: {failures[:3]}")


def test_08_generic_subset_bound_z256():
    g = FiniteGroup(256, 1)
    quad = g.build_quadrature()
    els = g.first_elements(256)
    v = g.basis_matrix(els, quad.nodes)
    all_hold = True
    evaluated = 0
    for t in range(100):
        rng = trial_rng(SEED + 4, t)
        spec = RandomSubsetSpec(256, 4.0, seed=int(rng.integers(2**63)))
        subset = generic_subset(spec)
        if not subset:
            continue
        start = int(rng.integers(0, 256))
        width = int(rng.integers(8, 128))
        members = [(start + k) % 256 for k in range(width)]
        region = parse_region(g, "set:{" + ",".join(map(str, sorted(members))) + "}")
        indicator = region.contains_mask(quad.nodes).astype(complex)
        coeffs = ((v.conj().T * quad.weights) @ indicator)[subset]
        norm = np.linalg.norm(coeffs)
        if norm < 1e-12:
            continue
        sset = SpectralSet(g, [els[i].joint for i in subset], joint=True)
        f = BandlimitedFunction(sset, coeffs / norm)
        rep = check_generic_subset_uncertainty(f, region, quad, q=4.0)
        evaluated += 1
        all_hold &= rep.holds
    announce(8, all_hold and evaluated >= 95,
             f"{evaluated} generic-subset reports on Z_256 at q=4 all hold")


def test_09_lambda_q_estimator_sanity():
    g = FiniteGroup(128, 1)
    quad = g.build_quadrature()

    interp_ok = True
    for t in range(25):
        rng = trial_rng(SEED + 5, t)
        subset = sorted(rng.choice(128, size=int(rng.integers(1, 17)),
                                   replace=False).tolist())
        est = estimate_cq(g, g.elements_by_index(subset), 4.0, quad, trials=6,
                          ascent_iterations=60, seed=t)
        interp_ok &= est.c_lower <= est.c_interp * (1 + 1e-9)

    single = estimate_cq(g, g.elements_by_index([7]), 4.0, quad, trials=4, seed=1)
    single_ok = abs(single.c_lower - 1.0) < 1e-9

    monotone_ok = True
    for t in range(50):
        rng = trial_rng(SEED + 6, t)
        small = sorted(rng.choice(128, size=6, replace=False).tolist())
        extension = sorted(set(small) | set(rng.choice(128, size=6, replace=False).tolist()))
        est_small = estimate_cq(g, g.elements_by_index(small), 4.0, quad, trials=5,
                                ascent_iterations=60, seed=t)
        pad = np.zeros(len(extension), dtype=complex)
        for i, idx in enumerate(extension):
            if idx in small:
                pad[i] = est_small.best_coefficients[small.index(idx)]
        est_big = estimate_cq(g, g.elements_by_index(extension), 4.0, quad, trials=5,
                              ascent_iterations=60, seed=t, extra_starts=[pad])
        monotone_ok &= est_big.c_lower >= est_small.c_lower - 1e-10
    announce(9, interp_ok and single_ok and monotone_ok,
             "interpolation cap respected on 25 runs; single-character ratio = 1; "
             "monotone on 50 nested pairs")


def test_10_random_half_chain():
    # the split needs an even system size, so the 49-element sphere system
    # (degrees <= 6) is split over its first 48 elements
    cases = [(Sphere2(), 49, math.sqrt(6 * 7)), (Torus(1), 64, 32.0)]
    evaluated = 0
    skipped = 0
    failures = 0
    for space, n, fmax in cases:
        quad = space.build_quadrature(fmax, oversample=2)
        elements = space.first_elements(n)
        for t in range(100):
            rng = trial_rng(SEED + 7, t)
            split = gmpt_split(space, quad, elements[:n - n % 2], trials=12, subsets=8,
                               seed=int(rng.integers(2**63)))
            side = split.indices or split.complement
            sset = SpectralSet(space, [elements[i].joint for i in side], joint=True)
            f = BandlimitedFunction(
                sset, rng.normal(size=sset.size) + 1j * rng.normal(size=sset.size))
            region = (cap(space, float(rng.uniform(0.4, 2.6)))
                      if isinstance(space, Sphere2) else aligned_arc(space, quad, rng))
            rep = check_random_half_uncertainty(f, region, quad,
                                                k_emp=split.k_observed, n=n,
                                                b_sup=split.b_sup)
            if not rep.inputs["k_emp_bounds_f"]:
                skipped += 1
                continue
            evaluated += 1
            failures += 0 if rep.holds else 1
    announce(10, failures == 0 and evaluated >= 150,
             f"random-half mass bound held on {evaluated} trials "
             f"({skipped} skipped where the observed constant did not bound the draw)")


def test_11_determinism(tmp_path, capsys):
    argsets = [
        ["check", "--inequality", "homogeneous", "--space", "sphere2",
         "--region", "cap:1.2", "--spectrum", "level:l=2", "--trials", "5",
         "--seed", "777"],
        ["donoho-stark", "--space", "zn:N=32,d=1", "--trials", "25",
         "--seed", "777", "--format", "csv"],
        ["lambda-q", "--space", "zn:N=64,d=1", "--n", "64", "--q", "4",
         "--trials", "5", "--ascent-iterations", "40", "--seed", "777"],
    ]
    ok = True
    for args in argsets:
        outs = []
        for _ in range(2):
            code = main(list(args))
            outs.append(capsys.readouterr().out)
            ok &= code == 0
        ok &= outs[0] == outs[1] and len(outs[0]) > 0
    # file emission is byte-identical too
    for i in range(2):
        path = tmp_path / f"run{i}.json"
        main(["check", "--inequality", "prop", "--space", "torus:d=1",
              "--region", "arc:0:3", "--spectrum", "ball:2", "--trials", "3",
              "--seed", "9", "--output", str(path)])
        capsys.readouterr()
    ok &= (tmp_path / "run0.json").read_bytes() == (tmp_path / "run1.json").read_bytes()
    announce(11, ok, "byte-identical JSON/CSV across repeated seeded runs")
