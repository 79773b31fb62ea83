"""Inequality reports and their deterministic JSON/CSV serialization.

Serialization is byte-stable: fixed key order, floats at 17 significant
digits, no computation at emit time.  Non-finite floats are emitted as the
strings "inf", "-inf", "nan" (JSON has no token for them).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

REL_TOL = 1e-12
SCHEMA_VERSION = 1

CSV_HEADER = ["schema_version", "name", "lhs", "rhs", "holds", "slack", "seed", "inputs", "caveats"]

# every control character below 0x20 as \u00XX, except the short forms of
# newline, carriage return and tab
_CONTROL_ESCAPES = str.maketrans({chr(c): f"\\u{c:04x}" for c in range(0x20)}
                                 | {"\n": "\\n", "\r": "\\r", "\t": "\\t"})


@dataclass
class InequalityReport:
    """One checked inequality lhs <= rhs with provenance.

    ``holds`` allows a 1e-12 relative tolerance on the right side.  A report
    whose caveats start with "vacuous" carries raw numbers for a case where
    the bound is uninformative; such reports never count as failures.
    """

    name: str
    lhs: float
    rhs: float
    inputs: dict = field(default_factory=dict)
    caveats: list = field(default_factory=list)
    seed: int | None = None

    @property
    def holds(self) -> bool:
        return bool(self.lhs <= self.rhs + REL_TOL * abs(self.rhs))

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def vacuous(self) -> bool:
        return any(str(c).startswith("vacuous") for c in self.caveats)

    @property
    def passed(self) -> bool:
        return self.holds or self.vacuous

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "holds": self.holds,
            "slack": self.slack,
            "inputs": self.inputs,
            "caveats": list(self.caveats),
            "seed": self.seed,
        }


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps_stable(obj, indent: int = 0) -> str:
    """JSON with insertion-ordered keys and 17-significant-digit floats; a numpy scalar or
    array is written as the Python values it holds, and a complex number as [re, im]."""
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        if not out.isprintable():
            out = out.translate(_CONTROL_ESCAPES)
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  {dumps_stable(str(k))}: {dumps_stable(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {dumps_stable(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, (np.generic, np.ndarray)):
        return dumps_stable(obj.tolist(), indent)
    if isinstance(obj, complex):
        return dumps_stable([obj.real, obj.imag], indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _csv_cell(value) -> str:
    if isinstance(value, float):
        s = format_float(value).strip('"')
    elif isinstance(value, bool):
        s = "true" if value else "false"
    elif isinstance(value, (dict, list, tuple)):
        # only structural newlines: dumps_stable escapes those inside strings
        s = re.sub(r"\n *", " ", dumps_stable(value))
    elif value is None:
        s = ""
    else:
        s = str(value)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def reports_to_json(reports) -> str:
    doc = {"schema_version": SCHEMA_VERSION, "reports": [r.to_dict() for r in reports]}
    return dumps_stable(doc) + "\n"


def csv_table(header, rows) -> str:
    """A header line and one line of CSV cells per row."""
    return "".join(",".join(map(_csv_cell, row)) + "\n" for row in [header, *rows])


def reports_to_csv(reports) -> str:
    dicts = [r.to_dict() for r in reports]
    return csv_table(CSV_HEADER, [[SCHEMA_VERSION] + [d[k] for k in CSV_HEADER[1:]] for d in dicts])
