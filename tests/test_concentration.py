import itertools
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from specon import (
    BandlimitedFunction,
    BoxUnion,
    CoarseQuadratureError,
    FiniteGroup,
    FiniteSubset,
    GramMatrix,
    ProductSpace,
    Quadrature,
    Region,
    SpectralSet,
    Sphere2,
    Torus,
    arc,
    band_project,
    cap,
    check_projection_bounds,
    concentration_levels,
    cutoff,
    empty_region,
    full_region,
    gram_matrix,
    masked_band_energy,
    max_concentration,
    parse_region,
    restrict_band,
    spectrum_ball,
    spectrum_level,
)

TWO_PI = 2 * math.pi
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def torus_setup():
    t = Torus(1)
    quad = t.build_quadrature(2.0, oversample=700)  # 4200 midpoint nodes
    sset = spectrum_ball(t, 2.0)  # |m| <= 2, five modes
    region = arc(t, 0.0, math.pi)
    return t, quad, sset, region


def sinc_kernel_oracle(ms, a, b):
    """Closed-form arc Gram entries (1/2pi) int_a^b e^{i(mj-mk)x} dx,
    diagonalized independently of the quadrature path."""
    n = len(ms)
    g = np.empty((n, n), dtype=complex)
    for i, mi in enumerate(ms):
        for j, mj in enumerate(ms):
            d = mi - mj
            if d == 0:
                g[i, j] = (b - a) / TWO_PI
            else:
                g[i, j] = (np.exp(1j * d * b) - np.exp(1j * d * a)) / (2j * math.pi * d)
    return g


class TestBandProject:
    def test_fixes_its_range(self):
        t = Torus(1)
        sset = spectrum_ball(t, 1.0)
        f_hat = np.zeros(7, dtype=complex)
        f_hat[[0, 1, 2]] = [1.0, 2.0, 3.0]
        f = band_project(f_hat, sset)
        again = band_project(f.full_coefficients(7), sset)
        assert np.array_equal(f.coefficients, again.coefficients)

    def test_orthogonal_input_gives_zero(self):
        t = Torus(1)
        sset = SpectralSet(t, [2.0])  # indices 3, 4
        f_hat = np.zeros(10, dtype=complex)
        f_hat[[0, 1, 2]] = 1.0
        assert band_project(f_hat, sset).norm == 0.0

    def test_z8_keeps_two_coordinates(self):
        # index set {0, 1} realized through the joint (centered residue) values
        g = FiniteGroup(8, 1)
        sset = SpectralSet(g, [(0.0,), (1.0,)], joint=True)
        assert sset.indices == [0, 1]
        rng = np.random.default_rng(2)
        f = rng.normal(size=8) + 1j * rng.normal(size=8)
        f_hat = g.fourier(f)  # order matches enumeration of labels (0,),(1,),(7,),...
        coeffs_full = np.array([f_hat[el.label[0]] for el in g.first_elements(8)])
        proj = band_project(coeffs_full, sset)
        assert proj.coefficients.shape == (2,)
        # direct DFT oracle for the retained l2 mass
        dft = np.array([[np.exp(-2j * math.pi * k * x / 8) for x in range(8)] for k in range(8)])
        oracle = dft @ f
        assert proj.norm**2 == pytest.approx(abs(oracle[0]) ** 2 + abs(oracle[1]) ** 2)

    def test_short_vector_rejected(self):
        t = Torus(1)
        sset = spectrum_ball(t, 2.0)
        with pytest.raises(ValueError):
            band_project(np.zeros(3), sset)


class TestCutoff:
    def test_full_space_identity(self, torus_setup):
        t, quad, sset, _ = torus_setup
        f = BandlimitedFunction(sset, np.arange(1.0, 6.0) + 0j)
        vals = f.samples(quad)
        assert np.array_equal(cutoff(f, full_region(t), quad), vals)

    def test_empty_gives_zero(self, torus_setup):
        t, quad, sset, _ = torus_setup
        f = BandlimitedFunction(sset, np.ones(5) + 0j)
        assert not cutoff(f, empty_region(t), quad).any()

    def test_idempotent(self, torus_setup):
        t, quad, _, region = torus_setup
        rng = np.random.default_rng(0)
        vals = rng.normal(size=quad.nodes.shape[0])
        once = cutoff(vals, region, quad)
        assert np.array_equal(cutoff(once, region, quad), once)

    def test_constant_mode_arc_mass(self, torus_setup):
        t, quad, _, region = torus_setup
        sset = SpectralSet(t, [0.0])
        f = BandlimitedFunction(sset, np.array([1.0 + 0j]))
        masked = cutoff(f, region, quad)
        assert quad.norm(masked, 2) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_norm_nonincreasing(self, torus_setup):
        t, quad, sset, region = torus_setup
        rng = np.random.default_rng(1)
        for _ in range(10):
            f = BandlimitedFunction(sset, rng.normal(size=5) + 1j * rng.normal(size=5))
            assert quad.norm(cutoff(f, region, quad), 2) <= quad.norm(f.samples(quad), 2) + 1e-12


class TestGramMatrix:
    def test_full_space_identity(self, torus_setup):
        t, quad, sset, _ = torus_setup
        g = gram_matrix(sset, full_region(t), quad)
        assert np.abs(g.entries - np.eye(5)).max() < 1e-10

    def test_constant_mode_arc(self, torus_setup):
        t, quad, _, region = torus_setup
        g = gram_matrix(SpectralSet(t, [0.0]), region, quad)
        assert g.entries.shape == (1, 1)
        assert g.entries[0, 0].real == pytest.approx(0.5, abs=1e-9)

    def test_sphere_level1_hemisphere_trace(self):
        s = Sphere2()
        quad = s.build_quadrature(math.sqrt(2.0), oversample=8)
        g = gram_matrix(spectrum_level(s, 1), cap(s, math.pi / 2), quad)
        # addition theorem (3/4pi) times the cap measure 2pi
        assert g.trace == pytest.approx(1.5, abs=1e-12)

    def test_hermitian(self, torus_setup):
        t, quad, sset, region = torus_setup
        g = gram_matrix(sset, region, quad)
        assert np.abs(g.entries - g.entries.conj().T).max() < 1e-12

    def test_trace_identity(self, torus_setup):
        t, quad, sset, region = torus_setup
        g = gram_matrix(sset, region, quad)
        assert g.trace == pytest.approx(masked_band_energy(sset, region, quad), abs=1e-10)

    def test_eigenvalues_in_unit_interval(self, torus_setup):
        t, quad, sset, region = torus_setup
        g = gram_matrix(sset, region, quad)
        raw = g.raw_eigenvalues()
        assert raw.min() > -1e-8 and raw.max() < 1 + 1e-8
        clamped = g.eigenvalues()
        assert clamped.min() >= 0.0 and clamped.max() <= 1.0

    def test_json_export(self, torus_setup):
        t, quad, sset, region = torus_setup
        doc = gram_matrix(sset, region, quad).to_json_dict()
        assert len(doc["entries"]) == 25
        assert list(doc) == ["spectrum", "region", "size", "trace", "entries"]


def _oracle_cases():
    """(space, quadrature, spectral set, region) on every space kind whose Gram is built
    by quadrature (a torus box's is built in closed form, see TestTorusClosedForm)."""
    tg, s, g = ProductSpace(Torus(2), FiniteGroup(4)), Sphere2(), FiniteGroup(8, 2)
    p = ProductSpace(Torus(1), Sphere2())
    return [
        (tg, tg.build_quadrature(3.0, oversample=2), spectrum_ball(tg, 3.0),
         parse_region(tg, "product(box:(0.5,2)x(1,4)+box:(3,6)x(0,1.5),set:{0,2})")),
        (s, s.build_quadrature(4.0, oversample=2), spectrum_ball(s, 4.0), cap(s, 1.1)),
        (p, p.build_quadrature(3.0, oversample=2), spectrum_ball(p, 3.0),
         parse_region(p, "product(arc:0:2,band:0.5:2)")),
        (g, g.build_quadrature(), spectrum_ball(g, 3.0), parse_region(g, "set:{(0,0),(1,2),(7,3)}")),
        # sphere ring quadratures at oversample 1 to 4 take the per-order path
        (s, s.build_quadrature(4.0, oversample=1), spectrum_ball(s, 4.0),
         parse_region(s, "band:0.3:0.9+band:1.5:2.2")),
        (s, s.build_quadrature(4.0, oversample=3), spectrum_ball(s, 4.0), cap(s, 1.1).complement()),
        (s, s.build_quadrature(4.0, oversample=4), spectrum_ball(s, 4.0), cap(s, 2.3)),
        # a ring quadrature built by hand, exact for l <= 5
        (s, _ring_quadrature(6, 11), spectrum_ball(s, 6.0), cap(s, 1.0)),
    ]


SPHERE_CASES = [1, 4, 5, 6, 7]


def _ring_quadrature(n_theta, n_phi):
    """Gauss-Legendre rings of n_phi equispaced nodes, built by hand."""
    x, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.repeat(np.arccos(x), n_phi)
    phi = np.tile((np.arange(n_phi) + 0.5) * (TWO_PI / n_phi), n_theta)
    return Quadrature(np.stack([theta, phi], axis=-1), np.repeat(w, n_phi) * (TWO_PI / n_phi),
                      exactness_degree=min(2 * n_theta - 1, n_phi - 1))


class TestGramOracle:
    """gram_matrix against the direct masked quadrature V^H diag(w 1_E) V,
    with V evaluated on the nodes in their own order."""

    @pytest.mark.parametrize("case", range(len(_oracle_cases())))
    @pytest.mark.parametrize("which", ["region", "full", "empty", "no-spectrum"])
    def test_matches_masked_quadrature(self, case, which):
        space, quad, sset, region = _oracle_cases()[case]
        if which == "full":
            region = full_region(space)
        elif which == "empty":
            region = empty_region(space)
        elif which == "no-spectrum":
            sset = SpectralSet(space, [])
        v = space.basis_matrix(sset.elements, quad.nodes)
        mask = region.contains_mask(quad.nodes)
        oracle = v.conj().T @ (v * (quad.weights * mask)[:, None])
        g = gram_matrix(sset, region, quad)
        assert g.entries.shape == (sset.size, sset.size)
        if sset.size:
            assert np.abs(g.entries - oracle).max() < 1e-13

    @pytest.mark.parametrize("make", [full_region, empty_region])
    def test_coarse_quadrature_raises_without_outside_or_inside_rows(self, make):
        p = ProductSpace(Torus(1), FiniteGroup(3))
        coarse = p.build_quadrature(2.0)
        with pytest.raises(CoarseQuadratureError):
            gram_matrix(spectrum_ball(p, 6.0), make(p), coarse)

    def test_coarse_sphere_quadrature_raises(self):
        s = Sphere2()
        with pytest.raises(CoarseQuadratureError):
            gram_matrix(spectrum_ball(s, 6.0), cap(s, 1.0), s.build_quadrature(2.0))

    @pytest.mark.parametrize("n_theta,n_phi,message", [
        # exact in theta for l <= 5, but 10 longitudes alias |m| = 5
        (6, 10, "do not separate the orders up to |m| = 5"),
        # enough longitudes, too few rings
        (3, 11, "orthonormality defect"),
    ])
    def test_coarse_ring_quadrature_raises(self, n_theta, n_phi, message):
        s = Sphere2()
        with pytest.raises(CoarseQuadratureError, match=re.escape(message)):
            gram_matrix(spectrum_ball(s, 6.0), cap(s, 1.0), _ring_quadrature(n_theta, n_phi))

    @pytest.mark.parametrize("case", SPHERE_CASES)
    @pytest.mark.parametrize("which", ["region", "full", "empty"])
    def test_sphere_gram_is_solved_per_order(self, case, which):
        space, quad, sset, region = _oracle_cases()[case]
        region = {"region": region, "full": full_region(space), "empty": empty_region(space)}[which]
        g = gram_matrix(sset, region, quad)
        m = np.array([el.label[1] for el in sset.elements])
        assert len(g.blocks) == len(set(m.tolist()))
        assert not g.entries[m[:, None] != m[None, :]].any()  # exact zeros off the blocks
        raw = g.raw_eigenvalues()
        assert np.abs(raw - np.linalg.eigvalsh(g.entries)).max() < 1e-13
        vecs = g.eigenvectors()
        assert np.abs(g.entries @ vecs - raw * vecs).max() < 1e-12
        for v in vecs.T:
            assert len(set(m[v != 0].tolist())) == 1

    def test_mask_varying_on_a_ring_takes_the_dense_path(self):
        s, quad, sset, _ = _oracle_cases()[1]
        v = s.basis_matrix(sset.elements, quad.nodes)
        mask = _WestHalf(s).contains_mask(quad.nodes)
        g = gram_matrix(sset, _WestHalf(s), quad)
        assert len(g.blocks) == 1
        assert np.abs(g.entries - v.conj().T @ (v * (quad.weights * mask)[:, None])).max() < 1e-13

    def test_permuted_sphere_nodes_take_the_dense_path(self, monkeypatch):
        s, quad, sset, region = _oracle_cases()[1]
        perm = np.random.default_rng(0).permutation(quad.weights.shape[0])
        shuffled = Quadrature(quad.nodes[perm], quad.weights[perm], quad.exactness_degree)
        calls = []
        basis_matrix = Sphere2.basis_matrix
        monkeypatch.setattr(Sphere2, "basis_matrix",
                            lambda self, *a: calls.append(1) or basis_matrix(self, *a))
        ring = gram_matrix(sset, region, quad)
        assert calls == [] and len(ring.blocks) > 1
        dense = gram_matrix(sset, region, shuffled)
        assert calls == [1] and len(dense.blocks) == 1
        assert np.abs(dense.entries - ring.entries).max() < 1e-13


def _torus_regions(t):
    """Box unions on a torus: one box, overlapping boxes, boxes sharing an edge, and a
    union reaching 0 and 2 pi on every axis; then full and empty (TORUS_REGIONS)."""
    d = t.dim
    return [
        BoxUnion(t, [tuple((0.5, 2.0 + 0.3 * a) for a in range(d))]),
        BoxUnion(t, [tuple((0.5, 3.0) for _ in range(d)),
                     tuple((2.0, 4.5) if a == 0 else (1.0, 5.0) for a in range(d))]),
        BoxUnion(t, [tuple((0.5, 2.0) if a == 0 else (1.0, 3.0) for a in range(d)),
                     tuple((2.0, 4.0) if a == 0 else (1.0, 3.0) for a in range(d))]),
        BoxUnion(t, [tuple((5.0, TWO_PI) for _ in range(d)),
                     tuple((0.0, 1.2) for _ in range(d)),
                     tuple((0.0, 0.7) if a == 0 else (4.0, TWO_PI) for a in range(d))]),
        full_region(t),
        empty_region(t),
    ]


TORUS_REGIONS = ["box", "overlapping", "sharing-an-edge", "through-0", "full", "empty"]
TORUS_BALLS = {1: 6.0, 2: 4.0, 3: 2.0}


def _torus_set(t, kind):
    """The ball of TORUS_BALLS, a random set of its frequencies, or a joint set of a random
    half of the ball."""
    ball = TORUS_BALLS[t.dim]
    if kind == "ball":
        return spectrum_ball(t, ball)
    if kind == "joint":
        return _gram_set(t, ball, joint=True)
    freqs = sorted({el.frequency for el in t.enumerate_basis(ball)})
    rng = np.random.default_rng(t.dim)
    return SpectralSet(t, rng.choice(freqs, size=int(rng.integers(1, len(freqs))),
                                     replace=False).tolist())


def _axis_integral(delta, lo, hi):
    """(1/2 pi) int_lo^hi e^{i delta x} dx by scipy.integrate.quad."""
    parts = [integrate.quad(f, lo, hi, epsabs=1e-13, epsrel=0.0)[0]
             for f in (lambda x: math.cos(delta * x), lambda x: math.sin(delta * x))]
    return complex(*parts) / TWO_PI


def _quad_entry(region, mj, mk):
    """int_E conj(e_j) e_k = (2 pi)^-d int_E e^{i<m_k - m_j, x>} dx: over each intersection
    of boxes the product of per-axis scipy integrals, joined by inclusion-exclusion."""
    total = 0j
    for r in range(1, len(region.boxes) + 1):
        for boxes in itertools.combinations(region.boxes, r):
            term = (-1) ** (r + 1)
            for a, delta in enumerate((np.asarray(mk) - np.asarray(mj)).tolist()):
                lo, hi = max(b[a][0] for b in boxes), min(b[a][1] for b in boxes)
                term *= _axis_integral(delta, lo, hi) if lo < hi else 0.0
            total += term
    return total


def _box_gram(sset, region):
    """Every entry of a torus box union's Gram from the prolate formula
    (e^{i delta b} - e^{i delta a}) / (2 pi i delta) per axis, by inclusion-exclusion."""
    labels = sset.space._label_array(sset.elements)
    delta = (labels[None, :, :] - labels[:, None, :]).astype(float)
    g = np.zeros((sset.size, sset.size), dtype=complex)
    for r in range(1, len(region.boxes) + 1):
        for boxes in itertools.combinations(region.boxes, r):
            term = np.full(g.shape, (-1.0) ** (r + 1), dtype=complex)
            for a in range(sset.space.dim):
                lo, hi = max(b[a][0] for b in boxes), min(b[a][1] for b in boxes)
                d = delta[:, :, a]
                safe = np.where(d == 0, 1.0, d)
                term *= np.where(d == 0, (hi - lo) / TWO_PI, (np.exp(1j * d * hi) - np.exp(
                    1j * d * lo)) / (2j * math.pi * safe)) if lo < hi else 0.0
            g += term
    return g


def _calls_to_basis_matrix(monkeypatch):
    calls = []
    basis_matrix = Torus.basis_matrix
    monkeypatch.setattr(Torus, "basis_matrix",
                        lambda self, *a: calls.append(1) or basis_matrix(self, *a))
    return calls


class TestTorusClosedForm:
    """A torus box union's Gram is exact: checked against oracles that share no code
    with it, and against the quadrature it no longer depends on."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("region", TORUS_REGIONS)
    @pytest.mark.parametrize("spectrum", ["ball", "random", "joint"])
    def test_entries_match_scipy_quad(self, dim, region, spectrum):
        t = Torus(dim)
        sset, r = _torus_set(t, spectrum), _torus_regions(t)[TORUS_REGIONS.index(region)]
        g = gram_matrix(sset, r, t.build_quadrature(TORUS_BALLS[dim])).entries
        labels = t._label_array(sset.elements)
        picks = np.random.default_rng(dim).integers(sset.size, size=(12, 2)).tolist()
        for j, k in [*picks, (0, 0)]:
            assert abs(g[j, k] - _quad_entry(r, labels[j], labels[k])) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("region", TORUS_REGIONS)
    def test_region_and_complement_sum_to_identity(self, dim, region):
        t = Torus(dim)
        sset, quad = spectrum_ball(t, TORUS_BALLS[dim]), t.build_quadrature(TORUS_BALLS[dim])
        r = _torus_regions(t)[TORUS_REGIONS.index(region)]
        total = gram_matrix(sset, r, quad).entries + gram_matrix(sset, r.complement(), quad).entries
        assert np.abs(total - np.eye(sset.size)).max() < 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_shift_covariance(self, dim):
        """G_{E+t} = D^H G_E D with D = diag(e^{i<m, t>})."""
        t = Torus(dim)
        sset, quad = spectrum_ball(t, TORUS_BALLS[dim]), t.build_quadrature(TORUS_BALLS[dim])
        r, shift = _torus_regions(t)[1], 0.4 + 0.3 * np.arange(dim)
        moved = BoxUnion(t, [tuple((a + s, b + s) for (a, b), s in zip(box, shift))
                             for box in r.boxes])
        d = np.exp(1j * t._label_array(sset.elements) @ shift)
        g, gm = gram_matrix(sset, r, quad).entries, gram_matrix(sset, moved, quad).entries
        assert np.abs(gm - d.conj()[:, None] * g * d).max() < 1e-13

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_cell_aligned_quadrature_is_the_closed_form_over_a_sinc(self, dim):
        """With box edges on the grid's cell boundaries, the midpoint sum over each axis is
        the integral times (delta h / 2) / sin(delta h / 2), h the cell width."""
        t = Torus(dim)
        sset, quad = spectrum_ball(t, TORUS_BALLS[dim]), t.build_quadrature(TORUS_BALLS[dim], 2)
        n = round(len(quad.weights) ** (1 / dim))
        h = TWO_PI / n
        r = BoxUnion(t, [tuple((h, (n // 2 + a) * h) for a in range(dim)),
                         tuple((n // 3 * h, (n - 2) * h) for _ in range(dim))])
        labels = t._label_array(sset.elements)
        half = (labels[None, :, :] - labels[:, None, :]) * (h / 2)
        sinc = np.prod(np.sinc(half / math.pi), axis=2)   # sin(delta h/2) / (delta h/2)
        exact = gram_matrix(sset, r, quad).entries
        assert np.abs(_dense_masked_gram(sset, r, quad) * sinc - exact).max() < 1e-14

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_no_quadrature_moves_a_byte(self, dim):
        """The same bytes at oversample 1, 4 and 16, and on a grid too coarse for the band."""
        t, ball = Torus(dim), TORUS_BALLS[dim]
        sset, r = spectrum_ball(t, ball), _torus_regions(t)[1]
        quads = [t.build_quadrature(ball, over) for over in (1, 4, 16)]
        grams = [gram_matrix(sset, r, q) for q in [*quads, t.build_quadrature(1.0)]]
        assert len({g.entries.tobytes() for g in grams}) == 1
        assert len({g.eigenvalues().tobytes() for g in grams}) == 1

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_one_basis_evaluation_per_gram(self, dim, monkeypatch):
        t = Torus(dim)
        sset, quad = spectrum_ball(t, TORUS_BALLS[dim]), t.build_quadrature(TORUS_BALLS[dim])
        calls = _calls_to_basis_matrix(monkeypatch)
        for r in _torus_regions(t):
            gram_matrix(sset, r, quad)
        assert len(calls) == len(TORUS_REGIONS)

    def test_entries_hold_at_another_blas_thread_count(self):
        """At slepian-large's sizes (torus:d=1 at ball 128, torus:d=2 at ball 8, the sphere
        cap at ball 20) the entries, eigenvalues and eigenvectors have the same bytes on one
        BLAS thread and on two."""
        script = (
            "import hashlib\n"
            "from specon import Sphere2, Torus, gram_matrix, parse_region, spectrum_ball\n"
            "for space, ball, over, region in [(Torus(1), 128.0, 8, 'arc:0.7:3.9'),\n"
            "                                  (Torus(2), 8.0, 4, 'box:(0.4,2.9)x(1.3,5.2)'),\n"
            "                                  (Sphere2(), 20.0, 4, 'cap:1.5')]:\n"
            "    g = gram_matrix(spectrum_ball(space, ball), parse_region(space, region),\n"
            "                    space.build_quadrature(ball, over))\n"
            "    for a in (g.entries, g.raw_eigenvalues(), g.eigenvectors()):\n"
            "        print(hashlib.sha256(a.tobytes()).hexdigest())\n")
        out = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            out[threads] = proc.stdout
        assert out["1"] == out["2"] and len(out["1"].split()) == 9


def _dense_masked_gram(sset, region, quad):
    """V^H diag(w 1_E) V over every node, V evaluated on the nodes in their own order."""
    v = sset.space.basis_matrix(sset.elements, quad.nodes)
    return v.conj().T @ (v * (quad.weights * region.contains_mask(quad.nodes))[:, None])


class _WestHalf(Region):
    """phi < pi on the sphere: a region that couples the orders m, so the sphere's Gram
    takes the dense path."""

    descriptor = "phi < pi"

    def __init__(self, space):
        self.space = space

    def contains_mask(self, points):
        return np.asarray(points)[:, 1] < math.pi


def _gram_cases():
    """(name, space, quadrature, ball radius, region) on every family and path: tori take
    their closed form (sectors for one box, one block for a union), groups the dense path,
    the sphere its ring path (and the dense one on a region that varies along rings), and
    products the dense path."""
    t1, t2, s = Torus(1), Torus(2), Sphere2()
    g1, g2 = FiniteGroup(9, 1), FiniteGroup(8, 2)
    ts, sg = ProductSpace(Torus(1), Sphere2()), ProductSpace(Sphere2(), FiniteGroup(6, 1))
    return [
        ("torus1", t1, t1.build_quadrature(8.0, 3), 8.0, arc(t1, 0.3, 2.1)),
        ("torus2", t2, t2.build_quadrature(4.0, 2), 4.0,
         BoxUnion(t2, [((0.5, 2.0), (1.0, 4.0)), ((3.0, 6.0), (0.0, 1.5))])),
        ("z9", g1, g1.build_quadrature(), 4.0, parse_region(g1, "set:{0,1,2,5}")),
        ("z8^2", g2, g2.build_quadrature(), 3.0, parse_region(g2, "set:{(0,0),(1,2),(7,3),(4,4)}")),
        ("sphere-rings", s, s.build_quadrature(4.0, 2), 4.0, cap(s, 1.1)),
        ("sphere-dense", s, s.build_quadrature(4.0, 2), 4.0, _WestHalf(s)),
        ("torus x sphere", ts, ts.build_quadrature(3.0, 2), 3.0,
         parse_region(ts, "product(arc:0.4:2,band:0.5:2)")),
        ("sphere x z6", sg, sg.build_quadrature(3.0, 2), 3.0,
         parse_region(sg, "product(cap:1.2,set:{0,1,4})")),
    ]


GRAM_CASES = {case[0]: case for case in _gram_cases()}
# the cases solved in real blocks: one box's reflection sectors and the sphere's ring orders
REAL_BLOCK_CASES = ["torus1", "sphere-rings"]


def _gram_set(space, ball, joint):
    """The ball, or a joint set of a random half of it."""
    sset = spectrum_ball(space, ball)
    if not joint:
        return sset
    rng = np.random.default_rng(sset.size)
    return SpectralSet(space, [el.joint for el in sset.elements if rng.random() < 0.5],
                       joint=True)


class TestGramPaths:
    """Every path's entries are the element-basis Gram, checked against the prolate
    formula on tori and the masked quadrature V^H diag(w 1_E) V elsewhere, and its
    eigenpairs against them."""

    @pytest.mark.parametrize("joint", [False, True], ids=["ball", "joint"])
    @pytest.mark.parametrize("name", list(GRAM_CASES))
    def test_entries_and_eigenpairs(self, name, joint):
        _, space, quad, ball, region = GRAM_CASES[name]
        sset = _gram_set(space, ball, joint)
        g = gram_matrix(sset, region, quad)
        oracle = (_box_gram(sset, region) if isinstance(region, BoxUnion)
                  else _dense_masked_gram(sset, region, quad))
        assert np.abs(g.entries - oracle).max() < 1e-13
        raw, vecs = g.raw_eigenvalues(), g.eigenvectors()
        assert np.abs(raw - np.linalg.eigvalsh(g.entries)).max() < 1e-13
        assert np.abs(g.entries @ vecs - raw * vecs).max() < 1e-13
        assert np.abs(vecs.conj().T @ vecs - np.eye(sset.size)).max() < 1e-13

    @pytest.mark.parametrize("joint", [False, True], ids=["ball", "joint"])
    @pytest.mark.parametrize("name", list(GRAM_CASES))
    def test_sectors_and_rings_are_real_and_the_rest_one_hermitian_block(self, name, joint):
        """Reflection sectors and ring orders are real blocks; groups, products, the sphere's
        dense path and torus unions give one complex block over the elements that equals
        its conjugate transpose exactly."""
        _, space, quad, ball, region = GRAM_CASES[name]
        sset = _gram_set(space, ball, joint)
        blocks = gram_matrix(sset, region, quad).blocks
        if name in REAL_BLOCK_CASES:
            assert all(block.dtype == float for block, _ in blocks)
            return
        [(block, basis)] = blocks
        assert block.dtype == complex and np.array_equal(block, block.conj().T)
        assert np.array_equal(basis.lift(np.eye(sset.size)), np.eye(sset.size))

    def test_hand_built_gram_is_solved_complex(self, monkeypatch):
        t = Torus(1)
        sset = spectrum_ball(t, 1.0)
        entries = np.array([[0.5, 0.1j, 0.0], [-0.1j, 0.4, 0.0], [0.0, 0.0, 0.3]])
        g = GramMatrix(sset, arc(t, 0.0, 1.0), entries)
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a.dtype.name) or eigh(a))
        assert np.abs(g.raw_eigenvalues() - np.linalg.eigvalsh(entries)).max() < 1e-15
        assert seen == ["complex128"]

    def test_dense_path_evaluates_the_basis_once(self, monkeypatch):
        _, g, quad, ball, region = GRAM_CASES["z9"]
        sset = spectrum_ball(g, ball)
        seen = []
        basis_matrix = FiniteGroup.basis_matrix
        monkeypatch.setattr(FiniteGroup, "basis_matrix", lambda self, els, pts:
                            seen.append(len(els)) or basis_matrix(self, els, pts))
        gram_matrix(sset, region, quad)
        assert sset.size == 9 and seen == [9]


class TestGramBlocks:
    """Every family's Region._gram_blocks returns (block, basis) pairs, and each path that
    integrates by quadrature checks that quadrature itself."""

    @pytest.mark.parametrize("joint", [False, True], ids=["ball", "joint"])
    @pytest.mark.parametrize("name", list(GRAM_CASES))
    def test_pairs_lift_to_an_orthonormal_basis_of_the_elements(self, name, joint):
        _, space, quad, ball, region = GRAM_CASES[name]
        sset = _gram_set(space, ball, joint)
        pairs = region._gram_blocks(sset.elements, quad, region.contains_mask(quad.nodes))
        assert all(len(pair) == 2 for pair in pairs)
        lifted = [basis.lift(np.eye(len(block))) for block, basis in pairs]
        u = np.concatenate(lifted, axis=1)
        assert u.shape == (sset.size,) * 2
        assert np.abs(u.conj().T @ u - np.eye(sset.size)).max() < 1e-13
        for (block, _), c in zip(pairs, lifted):
            identity = (np.count_nonzero(c, axis=0) == 1).all() and (c.sum(axis=0) == 1).all()
            assert block.shape == (c.shape[1],) * 2
            assert identity or block.dtype == float

    @pytest.mark.parametrize("region", [_WestHalf(Sphere2()), cap(Sphere2(), 1.0)],
                             ids=["dense", "rings"])
    def test_each_path_checks_its_own_quadrature(self, region):
        s = Sphere2()
        coarse = _ring_quadrature(3, 11)
        with pytest.raises(CoarseQuadratureError, match="orthonormality defect"):
            region._gram_blocks(spectrum_ball(s, 6.0).elements, coarse,
                                region.contains_mask(coarse.nodes))

    @pytest.mark.parametrize("given", ["entries", "blocks"])
    def test_blocks_that_miss_the_spectral_set_are_refused(self, torus_setup, given):
        t, quad, sset, region = torus_setup    # five elements, solved in two sectors
        if given == "entries":
            args, size = {"entries": np.eye(4, dtype=complex)}, 4
        else:
            blocks = gram_matrix(sset, region, quad).blocks
            args, size = {"blocks": blocks[1:]}, len(blocks[1][0])
        with pytest.raises(ValueError, match=re.escape(
                f"Gram blocks of {size} functions do not cover the 5 elements of 'ball:2'")):
            GramMatrix(sset, region, **args)


def _reflected(labels, vec, axis, centre):
    """The coefficients of f(x with x_axis -> 2 centre - x_axis), f = sum_j vec_j e_j on
    torus labels closed under m_axis -> -m_axis: e_m maps to e^{2i m_axis centre} e_m'."""
    flipped = labels * np.where(np.arange(labels.shape[1]) == axis, -1, 1)
    where = {tuple(r): i for i, r in enumerate(labels.tolist())}
    out = np.zeros_like(vec)
    out[[where[tuple(r)] for r in flipped.tolist()]] = vec * np.exp(
        2j * centre * labels[:, axis])[:, None]
    return out


class TestReflectionSectors:
    """One torus box is solved in the reflection sectors of its set about its centre, each
    distinct block once, and a union of cells by the summed path; the dense entries are
    built only when read."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("spectrum", ["ball", "random", "joint"])
    def test_eigenpairs_hold_and_have_a_parity(self, dim, spectrum):
        t = Torus(dim)
        sset, region = _torus_set(t, spectrum), _torus_regions(t)[0]
        g = gram_matrix(sset, region, t.build_quadrature(TORUS_BALLS[dim]))
        raw, vecs = g.raw_eigenvalues(), g.eigenvectors()
        assert np.abs(raw - np.linalg.eigvalsh(g.entries)).max() < 1e-13
        assert np.abs(vecs.conj().T @ vecs - np.eye(sset.size)).max() < 1e-12
        assert np.abs(g.entries @ vecs - raw * vecs).max() < 1e-12
        labels = t._label_array(sset.elements)
        rows = {tuple(r) for r in labels.tolist()}
        axes = [a for a in range(dim) if all(
            tuple(r) in rows for r in (labels * np.where(np.arange(dim) == a, -1, 1)).tolist())]
        assert spectrum == "joint" or (axes == list(range(dim)) and len(g.blocks) == 2 ** dim)
        for a in axes:
            (lo, hi), = [box[a] for box in region.boxes]
            moved = _reflected(labels, vecs, a, (lo + hi) / 2)
            parity = np.minimum(np.abs(moved - vecs).max(axis=0), np.abs(moved + vecs).max(axis=0))
            assert parity.max() < 1e-12

    def test_a_box_cut_in_two_cells_gives_the_same_gram(self):
        t = Torus(2)
        sset, quad = spectrum_ball(t, 4.0), t.build_quadrature(4.0)
        one, two = (gram_matrix(sset, parse_region(t, r), quad)
                    for r in ("box:(0,2)x(0,2)", "box:(0,1)x(0,2)+box:(1,2)x(0,2)"))
        assert len(one.blocks) == 4 and len(two.blocks) == 1
        assert np.abs(one.entries - two.entries).max() < 1e-14
        assert np.abs(one.raw_eigenvalues() - two.raw_eigenvalues()).max() < 1e-13

    def test_a_cap_solves_each_order_once(self, monkeypatch):
        s = Sphere2()
        sset = spectrum_ball(s, 6.0)
        g = gram_matrix(sset, cap(s, 1.1), s.build_quadrature(6.0, 2))
        seen = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(1) or eigh(a))
        vals, vecs = g.raw_eigenvalues(), g.eigenvectors()
        m = np.array([el.label[1] for el in sset.elements])
        assert len(seen) == len(set(np.abs(m).tolist())) == 6 and len(g.blocks) == 11
        assert np.abs(g.entries @ vecs - vals * vecs).max() < 1e-12

    @pytest.mark.parametrize("name", ["torus1", "torus2", "z9", "sphere-rings"])
    def test_eigen_accessors_and_trace_build_no_entries(self, name):
        _, space, quad, ball, region = GRAM_CASES[name]
        g = gram_matrix(spectrum_ball(space, ball), region, quad)
        g.eigenvalues()
        g.top_eigenpair()
        trace = g.trace
        assert "entries" not in vars(g)
        assert trace == pytest.approx(np.trace(g.entries).real, abs=1e-13)


class TestBandEnergy:
    @pytest.mark.parametrize("space,region", [
        (Torus(2), "box:(0.5,2)x(1,4)"), (Sphere2(), "cap:1.5"), (Torus(1), "arc:0.3:2.1"),
        (ProductSpace(Torus(1), Sphere2()), "product(arc:0:2,band:0.5:2)"),
    ])
    def test_basis_is_evaluated_at_the_inside_nodes_only(self, space, region, monkeypatch):
        region = parse_region(space, region)
        quad, sset = space.build_quadrature(3.0, oversample=2), spectrum_ball(space, 3.0)
        mask = region.contains_mask(quad.nodes)
        v = space.basis_matrix(sset.elements, quad.nodes)
        dense = float(np.sum(quad.weights * mask * np.sum(np.abs(v) ** 2, axis=1)))
        seen = {}
        for cls in {type(space), Torus, Sphere2}:
            monkeypatch.setattr(cls, "basis_matrix", lambda self, els, pts, f=cls.basis_matrix:
                                seen.setdefault(type(self), []).append(np.array(pts))
                                or f(self, els, pts))
        energy = masked_band_energy(sset, region, quad)
        inside = quad.nodes[mask]
        if isinstance(space, Sphere2):   # summed from the Legendre table, no basis matrix
            assert seen == {}
        elif isinstance(space, ProductSpace):   # each factor at its own inside coordinates
            assert list(seen) == [Torus, Sphere2] and list(map(len, seen.values())) == [1, 1]
            assert np.array_equal(seen[Torus][0], inside[:, :1])
            assert np.array_equal(seen[Sphere2][0], inside[:, 1:])
        else:
            assert list(seen) == [type(space)] and len(seen[type(space)]) == 1
            assert np.array_equal(seen[type(space)][0], inside)
        assert 0 < mask.sum() < len(mask) and energy == pytest.approx(dense, rel=1e-13)

    @staticmethod
    def dense_energy(sset, region, quad):
        """The oracle: the masked quadrature sum of the row sums of |basis_matrix|^2."""
        mask = region.contains_mask(quad.nodes)
        v = sset.space.basis_matrix(sset.elements, quad.nodes[mask])
        return float(np.sum(quad.weights[mask] * np.sum(np.abs(v) ** 2, axis=1)))

    @pytest.mark.parametrize("oversample", [1, 2, 4, 8])
    @pytest.mark.parametrize("region,complement", [
        ("cap:0.7", False), ("cap:2.6", False), ("band:0.3:0.9+band:1.5:2.2", False),
        ("cap:1.1", True),
    ])
    def test_sphere_energy_is_the_dense_sum_and_the_ring_trace(self, region, complement,
                                                               oversample):
        s = Sphere2()
        region = parse_region(s, region)
        region = region.complement() if complement else region
        quad, sset = s.build_quadrature(6.0, oversample=oversample), spectrum_ball(s, 6.0)
        energy = masked_band_energy(sset, region, quad)
        assert energy == pytest.approx(self.dense_energy(sset, region, quad), rel=1e-13)
        assert energy == pytest.approx(gram_matrix(sset, region, quad).trace, rel=1e-14)

    def test_sphere_energy_holds_no_basis_matrix(self):
        # slepian-large's cap: 400 elements on up to 12,480 nodes, whose masked basis
        # matrix alone takes tens of MB; the Legendre table takes kilobytes
        s = Sphere2()
        quad, sset = s.build_quadrature(20.0, oversample=4), spectrum_ball(s, 20.0)
        region = cap(s, 1.5)
        tracemalloc.start()
        try:
            energy = masked_band_energy(sset, region, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        assert energy == pytest.approx(self.dense_energy(sset, region, quad), rel=1e-13)


class TestEigenCache:
    def test_one_eigensolve_serves_every_accessor(self, torus_setup, monkeypatch):
        t, quad, sset, region = torus_setup
        g = gram_matrix(sset, region, quad)
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(1) or eigh(a))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        raw = g.raw_eigenvalues()
        vals = g.eigenvalues()
        lam, vec = g.top_eigenpair()
        vecs = g.eigenvectors()
        assert len(calls) == len(g.blocks) == 2   # the arc's even and odd sectors
        assert np.array_equal(vals, np.clip(raw, 0.0, 1.0))
        assert lam == vals[-1]
        assert np.abs(g.entries @ vec - lam * vec).max() < 1e-12
        assert np.abs(g.entries @ vecs - raw * vecs).max() < 1e-12
        vecs[:] = 5.0
        assert np.abs(g.eigenvectors()[:, -1] - vec).max() < 1e-15  # the cache, not the copy
        raw[:] = 5.0  # the caller's copy, not the cache
        assert np.array_equal(g.eigenvalues(), vals)

    @pytest.mark.parametrize("diag", [[0.2, 1.0 + 1e-6], [-1e-6, 0.7]])
    def test_excursions_raise_on_both_paths(self, torus_setup, diag):
        t, _, _, region = torus_setup
        g = GramMatrix(SpectralSet(t, [1.0]), region, np.diag(diag).astype(complex))
        with pytest.raises(CoarseQuadratureError):
            g.eigenvalues()
        with pytest.raises(CoarseQuadratureError):
            g.top_eigenpair()
        with pytest.raises(CoarseQuadratureError):
            g.eigenvectors()

    def test_small_excursion_is_clamped(self, torus_setup):
        t, _, _, region = torus_setup
        g = GramMatrix(SpectralSet(t, [1.0]), region, np.diag([-1e-9, 1.0 + 1e-9]) + 0j)
        assert g.top_eigenpair()[0] == 1.0
        assert list(g.eigenvalues()) == [0.0, 1.0]


class TestMaxConcentration:
    def test_identity_gram(self, torus_setup):
        t, quad, sset, _ = torus_setup
        lam, vec = max_concentration(gram_matrix(sset, full_region(t), quad))
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(vec) == pytest.approx(1.0)

    def test_half_mass_1x1(self, torus_setup):
        t, quad, _, region = torus_setup
        lam, _ = max_concentration(gram_matrix(SpectralSet(t, [0.0]), region, quad))
        assert lam == pytest.approx(0.5, abs=1e-9)

    def test_matches_sinc_kernel_oracle(self, torus_setup):
        t, quad, sset, region = torus_setup
        lam, vec = max_concentration(gram_matrix(sset, region, quad))
        ms = [el.label[0] for el in sset.elements]
        oracle = np.linalg.eigvalsh(sinc_kernel_oracle(ms, 0.0, math.pi))[-1]
        assert abs(lam - oracle) < 1e-12

    def test_empty_spectral_set_is_refused_by_name(self, torus_setup):
        t, quad, _, region = torus_setup
        g = gram_matrix(SpectralSet(t, []), region, quad)
        with pytest.raises(ValueError, match=re.escape("spectral set 'list:[]' is empty")):
            max_concentration(g)

    def test_monotone_in_region(self, torus_setup):
        t, quad, sset, _ = torus_setup
        lams = []
        for width in [0.5, 1.5, 3.0, 5.0]:
            g = gram_matrix(sset, arc(t, 0.0, width), quad)
            lams.append(max_concentration(g)[0])
        assert all(b >= a - 1e-9 for a, b in zip(lams, lams[1:]))

    def test_eigenvalue_optimality(self, torus_setup):
        # |P_E B_S f|^2 <= lambda_max |B_S f|^2 for every f, and lambda_max <= trace
        t, quad, sset, region = torus_setup
        g = gram_matrix(sset, region, quad)
        lam, _ = max_concentration(g)
        assert lam <= g.trace + 1e-12
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=5) + 1j * rng.normal(size=5)
            f = BandlimitedFunction(sset, a)
            pe = quad.norm(cutoff(f, region, quad), 2)
            assert pe**2 <= lam * f.norm**2 + 1e-9


class TestConcentrationLevels:
    def test_bandlimited_has_no_spectral_tail(self, torus_setup):
        t, quad, sset, region = torus_setup
        f = BandlimitedFunction(sset, np.ones(5) + 0j)
        levels = concentration_levels(f, region, sset, quad)
        assert levels.epsilon_prime == 0.0
        assert levels.L_prime == 1.0

    def test_constant_mode_arc(self, torus_setup):
        t, quad, _, region = torus_setup
        sset = SpectralSet(t, [0.0])
        f = BandlimitedFunction(sset, np.array([1.0 + 0j]))
        levels = concentration_levels(f, region, sset, quad)
        assert levels.epsilon == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert levels.L == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_supported_function_is_level_one(self):
        g = FiniteGroup(16, 1)
        quad = g.build_quadrature()
        region = parse_region(g, "set:{0,1,2,3}")
        f = np.zeros(16, dtype=complex)
        f[:4] = [1, 2, 3, 4]
        sset = spectrum_ball(g, g.max_frequency())
        levels = concentration_levels(f, region, sset, quad)
        assert levels.epsilon == 0.0
        assert levels.L == 1.0

    @pytest.mark.parametrize("order,dim", [(12, 1), (6, 2), (4, 3)])
    def test_raw_group_levels_match_the_character_matrix(self, order, dim):
        # oracle: coefficients sum_x w_x f(x) conj(chi_k(x)) from the dense
        # N^d x N^d character matrix, on the group's own quadrature and on
        # one with unreduced, repeated nodes and unequal weights
        g = FiniteGroup(order, dim)
        size = order**dim
        rng = np.random.default_rng(order)
        pts = g.points()
        shifted = pts + order * rng.integers(-1, 2, size=pts.shape)
        quads = [g.build_quadrature(),
                 Quadrature(np.concatenate([pts, shifted]), rng.uniform(0.5, 1.5, 2 * size),
                            exactness_degree=0)]
        chars_all = g.first_elements(size)
        for quad in quads:
            chars = g.basis_matrix(chars_all, quad.nodes)
            for _ in range(4):
                f = rng.normal(size=len(quad.weights)) + 1j * rng.normal(size=len(quad.weights))
                region = FiniteSubset(g, pts[rng.random(size) < 0.5])
                sset = spectrum_ball(g, rng.uniform(0.0, g.max_frequency()))
                coeffs = (chars.conj().T * quad.weights) @ f
                outside = np.setdiff1d(np.arange(size), sset.indices)
                want = np.linalg.norm(coeffs[outside]) / np.linalg.norm(coeffs)
                got = concentration_levels(f, region, sset, quad).epsilon_prime
                assert abs(got - want) <= 1e-13
                # the bourgain check's <1_E, e_j>, over characters in random order
                pick = rng.permutation(size)[:size // 2]
                want = (chars[:, pick].conj().T * quad.weights) @ region.contains_mask(quad.nodes)
                got = g.coefficients([chars_all[i] for i in pick], quad,
                                     region.contains_mask(quad.nodes))
                assert np.abs(got - want).max() <= 1e-13

    @pytest.mark.parametrize("space,cutoff", [
        (Sphere2(), 3.0),
        (ProductSpace(Torus(1), Sphere2()), 2.0),
    ])
    def test_continuum_coefficients_are_the_dense_quadrature_sums(self, space, cutoff):
        quad = space.build_quadrature(cutoff, oversample=2)
        rng = np.random.default_rng(3)
        els = space.enumerate_basis(cutoff)
        pick = [els[i] for i in rng.permutation(len(els))]
        v = space.basis_matrix(pick, quad.nodes)
        g = rng.normal(size=len(quad.weights)) + 1j * rng.normal(size=len(quad.weights))
        want = (v.conj().T * quad.weights) @ g
        assert np.abs(space.coefficients(pick, quad, g) - want).max() <= 1e-13
        # the quadrature is exact on the band: samples of sum a_j e_j give back a
        a = rng.normal(size=len(pick)) + 1j * rng.normal(size=len(pick))
        assert np.abs(space.coefficients(pick, quad, v @ a) - a).max() <= 1e-12

    def test_level_identity(self):
        # L = (1 - eps^p)^{-1/p} by construction
        from specon import ConcentrationLevels

        lv = ConcentrationLevels(epsilon=0.6, epsilon_prime=0.3, p=2)
        assert lv.L == pytest.approx((1 - 0.36) ** -0.5)
        assert lv.L_prime == pytest.approx((1 - 0.09) ** -0.5)
        lv1 = ConcentrationLevels(epsilon=0.25, epsilon_prime=0.0, p=1)
        assert lv1.L == pytest.approx(1 / 0.75)

    def test_zero_function_rejected(self, torus_setup):
        t, quad, sset, region = torus_setup
        f = BandlimitedFunction(sset, np.zeros(5))
        with pytest.raises(ValueError):
            concentration_levels(f, region, sset, quad)

    def test_plancherel(self, torus_setup):
        t, quad, sset, _ = torus_setup
        rng = np.random.default_rng(9)
        for _ in range(5):
            f = BandlimitedFunction(sset, rng.normal(size=5) + 1j * rng.normal(size=5))
            assert quad.norm(f.samples(quad), 2) == pytest.approx(f.norm, abs=1e-8)


class TestProjectionBounds:
    def test_no_truncation_equality(self, torus_setup):
        t, quad, _, _ = torus_setup
        sset = SpectralSet(t, [0.0])
        f = BandlimitedFunction(sset, np.array([1.0 + 0j]))
        lower, upper = check_projection_bounds(f, full_region(t), sset, quad)
        assert lower.lhs == pytest.approx(1.0, abs=1e-9)
        assert lower.rhs == pytest.approx(1.0, abs=1e-9)
        assert lower.holds and upper.holds

    def test_upper_bound_is_trace_identity(self, torus_setup):
        t, quad, sset, region = torus_setup
        rng = np.random.default_rng(12)
        f = BandlimitedFunction(sset, rng.normal(size=5) + 1j * rng.normal(size=5))
        _, upper = check_projection_bounds(f, region, sset, quad)
        g = gram_matrix(sset, region, quad)
        assert upper.rhs == pytest.approx(math.sqrt(g.trace) * f.norm, abs=1e-10)

    def test_seeded_trials_on_group(self):
        g = FiniteGroup(64, 1)
        quad = g.build_quadrature()
        ball = spectrum_ball(g, g.max_frequency())
        rng = np.random.default_rng(100)
        for trial in range(100):
            f = rng.normal(size=64) + 1j * rng.normal(size=64)
            support = rng.choice(64, size=rng.integers(1, 65), replace=False)
            region = parse_region(g, "set:{" + ",".join(map(str, sorted(support))) + "}")
            freqs = sorted({el.frequency for el in ball.elements})
            chosen = rng.choice(len(freqs), size=rng.integers(1, len(freqs) + 1), replace=False)
            sset = SpectralSet(g, [freqs[i] for i in chosen])
            lower, upper = check_projection_bounds(f, region, sset, quad)
            assert lower.holds, f"trial {trial}: lower bound failed"
            assert upper.holds, f"trial {trial}: upper bound failed"

    def test_restrict_band_is_projection(self, torus_setup):
        t, quad, sset, _ = torus_setup
        sub = SpectralSet(t, [0.0, 1.0])
        rng = np.random.default_rng(3)
        f = BandlimitedFunction(sset, rng.normal(size=5) + 1j * rng.normal(size=5))
        bf = restrict_band(f, sub)
        assert bf.norm <= f.norm
        assert np.array_equal(restrict_band(bf, sub).coefficients, bf.coefficients)
