"""Per-layer tracing of specon from outside the library.

:class:`Tracer` wraps specon's public functions and methods at every binding
they have: the defining class's dictionary for methods, and for module-level
functions every specon module (and the package namespace) that holds the
same object, which covers by-name imports such as
``uncertainty.concentration_levels`` and ``cli.gram_matrix``.  Each call made
while a pass is recording becomes one in-memory span (layer, start, end,
parent span, pass id); :meth:`Tracer.layer_metrics` turns the spans into
per-layer metrics.  ``uninstall`` restores every binding, and nothing in
specon changes on disk.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_SPACES = ("Torus", "Sphere2", "FiniteGroup", "ProductSpace")
_REGIONS = ("BoxUnion", "BandUnion", "FiniteSubset", "ProductRegion")
_CHECKS = ("check_group_uncertainty", "check_generic_subset_uncertainty",
           "check_eigenfunction_mass_bound", "check_homogeneous_uncertainty",
           "check_supnorm_uncertainty", "check_covering_uncertainty",
           "check_joint_uncertainty", "check_random_half_uncertainty")

# layer -> (specon module, wrapped names); "Class.method" names are wrapped in
# that class's own dictionary, bare names at every binding of the function
LAYERS = {
    "spaces.basis_matrix": ("spaces", [f"{c}.basis_matrix" for c in _SPACES]),
    "spaces.enumerate_basis": ("spaces", ["ModelSpace.enumerate_basis"]),
    "spaces.build_quadrature": ("spaces", [f"{c}.build_quadrature" for c in _SPACES]),
    "spaces.fourier": ("spaces", ["FiniteGroup.fourier"]),
    "regions.contains_mask": ("regions", [f"{c}.contains_mask" for c in _REGIONS]),
    "spectral.SpectralSet": ("spectral", ["SpectralSet.__init__"]),
    "spectral.check_homogeneity": ("spectral", ["check_homogeneity"]),
    "spectral.sogge_constant_estimate": ("spectral", ["sogge_constant_estimate"]),
    "spectral.local_weyl": ("spectral", ["local_weyl"]),
    "concentration.gram_matrix": ("concentration", ["gram_matrix"]),
    "concentration.eig": ("concentration", ["GramMatrix.raw_eigenvalues",
                                            "GramMatrix.eigenvalues",
                                            "GramMatrix.top_eigenpair"]),
    "concentration.concentration_levels": ("concentration", ["concentration_levels"]),
    "concentration.masked_band_energy": ("concentration", ["masked_band_energy"]),
    "concentration.samples": ("concentration", ["BandlimitedFunction.values"]),
    **{f"uncertainty.{name}": ("uncertainty", [name]) for name in _CHECKS},
    "random_spectra.estimate_cq": ("random_spectra", ["estimate_cq"]),
    "random_spectra.gmpt_split": ("random_spectra", ["gmpt_split"]),
    "reports.serialize": ("reports", ["dumps_stable", "reports_to_json", "reports_to_csv"]),
    "cli.main": ("cli", ["main"]),
}

# layers whose self time during the workload's set-up is reported on its own
SETUP_LAYERS = ("spaces.enumerate_basis", "spaces.build_quadrature", "spaces.basis_matrix",
                "spectral.SpectralSet", "spectral.sogge_constant_estimate")

SETUP = "setup"


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "calls/pass"
        units[f"{layer}.self_ms"] = "ms/pass"
    units.update({
        "spaces.basis_matrix.cells": "cells/pass",
        "spaces.basis_matrix.ns_per_cell": "ns/cell",
        "spaces.basis_matrix.mb_computed": "MB/pass",
        "spaces.basis_matrix.repeat_frac": "frac",
        "regions.contains_mask.points": "points/pass",
        "regions.contains_mask.repeat_frac": "frac",
        "concentration.gram_matrix.gflop_computed": "GFLOP/pass",
        "concentration.eig.n_max": "count",
        "reports.serialize.bytes": "bytes/pass",
    })
    for layer in SETUP_LAYERS:
        units[f"{layer}.setup_ms"] = "ms"
    units["trace.overhead_frac"] = "frac"
    return units


# -- counters: attributes of one call, computed after its span closes ----------


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _points_key(points):
    a = np.ascontiguousarray(points, dtype=float)
    return a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


def _count_basis(args, kwargs, out):
    elements = _arg(args, kwargs, 1, "elements")
    key = (args[0].kind, hash(tuple(el.label for el in elements)),
           _points_key(_arg(args, kwargs, 2, "points")))
    return {"cells": int(out.size), "key": key}


def _count_mask(args, kwargs, out):
    region = args[0]
    key = (type(region).__name__, region.descriptor,
           _points_key(_arg(args, kwargs, 1, "points")))
    return {"points": int(out.shape[0]), "key": key}


def _count_gram(args, kwargs, out):
    # two complex GEMMs (orthonormality check, masked Gram) of 8 N n^2 flops
    quad = _arg(args, kwargs, 2, "quad")
    check = kwargs.get("check_exactness", args[3] if len(args) > 3 else True)
    n = out.entries.shape[0]
    return {"gflop": (2 if check else 1) * 8.0 * quad.nodes.shape[0] * n * n / 1e9}


def _count_eig(args, kwargs, out):
    return {"n": int(args[0].entries.shape[0])}


def _count_bytes(args, kwargs, out):
    return {"bytes": len(out.encode())}


COUNTERS = {
    "spaces.basis_matrix": _count_basis,
    "regions.contains_mask": _count_mask,
    "concentration.gram_matrix": _count_gram,
    "concentration.eig": _count_eig,
    "reports.serialize": _count_bytes,
}


class Tracer:
    """Installs span-recording wrappers around specon's layers."""

    def __init__(self):
        self.spans = []        # [layer, start_ns, end_ns, parent index, pass id, attrs]
        self.pass_id = None    # spans are recorded only while this is set
        self.missing = []      # wrapped names the installed specon does not have
        self._stack = []
        self._patched = []

    # -- installation --------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "specon" or name.startswith("specon.")]
        for layer, (modname, names) in LAYERS.items():
            mod = sys.modules[f"specon.{modname}"]
            for qual in names:
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    if cls is None or attr not in vars(cls):
                        self.missing.append(f"{modname}.{qual}")
                        continue
                    self._patch(cls, attr, self._wrap(layer, vars(cls)[attr]))
                    continue
                orig = getattr(mod, qual, None)
                if orig is None:
                    self.missing.append(f"{modname}.{qual}")
                    continue
                traced = self._wrap(layer, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._patch(m, attr, traced)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap(self, layer, fn):
        counter = COUNTERS.get(layer)
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pass_id = tracer.pass_id
            # a layer's span covers its own nested and recursive calls
            if pass_id is None or (stack and spans[stack[-1]][0] == layer):
                return fn(*args, **kwargs)
            span = [layer, 0, 0, stack[-1] if stack else -1, pass_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def recording(self, pass_id):
        self.pass_id = pass_id
        try:
            yield
        finally:
            self.pass_id = None

    # -- results -------------------------------------------------------------

    def layers_seen(self) -> set:
        return {s[0] for s in self.spans}

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics averaged over ``passes`` recorded passes; spans
        recorded under :data:`SETUP` feed only the ``.setup_ms`` metrics.
        ``trace.overhead_frac`` is left for the caller."""
        spans = self.spans
        covered = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        agg = defaultdict(lambda: defaultdict(float))
        seen = defaultdict(set)
        for i, (layer, start, end, parent, pass_id, attrs) in enumerate(spans):
            self_ns = end - start - covered[i]
            a = agg[layer]
            if pass_id == SETUP:
                a["setup_ns"] += self_ns
                continue
            a["calls"] += 1
            a["self_ns"] += self_ns
            if not attrs:
                continue
            for name in ("cells", "points", "bytes"):
                a[name] += attrs.get(name, 0)
            if "key" in attrs:
                keys = seen[(layer, pass_id)]
                if attrs["key"] in keys:
                    a["repeats"] += 1
                keys.add(attrs["key"])
            a["gflop"] += attrs.get("gflop", 0.0)
            a["n_max"] = max(a["n_max"], attrs.get("n", 0))

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = agg[layer]["calls"] / passes
            out[f"{layer}.self_ms"] = agg[layer]["self_ns"] / 1e6 / passes
        basis = agg["spaces.basis_matrix"]
        mask = agg["regions.contains_mask"]
        out.update({
            "spaces.basis_matrix.cells": basis["cells"] / passes,
            "spaces.basis_matrix.ns_per_cell": frac(basis["self_ns"], basis["cells"]),
            "spaces.basis_matrix.mb_computed": basis["cells"] * 16 / 1e6 / passes,
            "spaces.basis_matrix.repeat_frac": frac(basis["repeats"], basis["calls"]),
            "regions.contains_mask.points": mask["points"] / passes,
            "regions.contains_mask.repeat_frac": frac(mask["repeats"], mask["calls"]),
            "concentration.gram_matrix.gflop_computed":
                agg["concentration.gram_matrix"]["gflop"] / passes,
            "concentration.eig.n_max": agg["concentration.eig"]["n_max"],
            "reports.serialize.bytes": agg["reports.serialize"]["bytes"] / passes,
        })
        for layer in SETUP_LAYERS:
            out[f"{layer}.setup_ms"] = agg[layer]["setup_ns"] / 1e6
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for layer, start, end, parent, pass_id, _ in self.spans:
                fh.write(json.dumps({"name": layer, "start_ns": start, "end_ns": end,
                                     "parent": parent, "pass": pass_id}) + "\n")
