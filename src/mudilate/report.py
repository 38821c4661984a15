"""Structured check reports and the JSON matrix wire format.

Complex entries serialize as [re, im] pairs; operators as
{"rows": r, "cols": c, "data": [[re, im], ...]} in row-major order.
Serialization is deterministic: equal reports produce identical bytes.
"""

from __future__ import annotations

import json
import numbers
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .opcore import _mat


@dataclass
class CheckItem:
    label: str
    residual: float
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "label": self.label,
            "residual": float(self.residual),
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }


class ItemsMixin:
    """Item recording and JSON serialization shared by the report
    dataclasses; each defines ``items`` and ``to_dict``."""

    def add(self, label: str, residual: float, tol: float, ok=None) -> CheckItem:
        if ok is None:
            ok = residual <= tol
        item = CheckItem(label, float(residual), float(tol), bool(ok))
        self.items.append(item)
        return item

    def to_json(self) -> str:
        return dumps(self.to_dict())


@dataclass
class CheckReport(ItemsMixin):
    """Outcome of a predicate suite.

    verdict is "pass" iff every item passes, "hypothesis-violated" when the
    failed items are hypothesis checks rather than necessary conditions,
    otherwise "fail".  Conditions with no finite test are listed in
    ``undecided`` and never enter the verdict.
    """

    name: str
    items: list = field(default_factory=list)
    window_margin: int | None = None
    undecided: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    hypothesis_only: bool = False
    margins: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        if all(i.passed for i in self.items):
            return "pass"
        return "hypothesis-violated" if self.hypothesis_only else "fail"

    def worst(self) -> float:
        return max((i.residual for i in self.items), default=0.0)

    def to_dict(self):
        out = {
            "name": self.name,
            "items": [i.to_dict() for i in self.items],
            "verdict": self.verdict,
            "window_margin": self.window_margin,
            "undecided": list(self.undecided),
            "notes": list(self.notes),
        }
        if self.margins:
            out["margins"] = {k: (None if v is None else float(v))
                              for k, v in self.margins.items()}
        return out

    def to_text(self) -> str:
        width = max([len(i.label) for i in self.items] + [len(self.name), 4])
        lines = [f"{self.name}  [{self.verdict}]"]
        lines.append(f"{'condition':<{width}}  {'residual':>12}  {'tol':>9}  status")
        for i in self.items:
            status = "pass" if i.passed else "FAIL"
            lines.append(f"{i.label:<{width}}  {i.residual:>12.3e}  {i.tol:>9.1e}  {status}")
        for label in self.undecided:
            lines.append(f"{label:<{width}}  {'-':>12}  {'-':>9}  not decided")
        for note in self.notes:
            lines.append(f"# {note}")
        return "\n".join(lines) + "\n"


@dataclass
class MembershipReport(ItemsMixin):
    """Domain-membership result: verdict plus the evaluated sub-criteria."""

    kind: str
    verdict: str
    items: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "items": [i.to_dict() for i in self.items],
            "meta": self.meta,
        }


def dumps(obj) -> str:
    """Compact, key-sorted JSON; NaN and infinity raise, since JSON has no
    token for them."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def complex_to_pair(z):
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(p):
    """A [re, im] pair of real numbers as a complex number; anything else
    raises ValueError naming what it got."""
    if not (isinstance(p, list) and len(p) == 2 and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in p)):
        raise ValueError(f"a complex entry must be a [re, im] pair of real "
                         f"numbers, got {reprlib.repr(p)}")
    return complex(p[0], p[1])


def operator_to_dict(op):
    m = _mat(op)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": [complex_to_pair(z) for z in m.reshape(-1)],
    }


def json_of_type(what: str, value, expected: type):
    """``value`` if it has the JSON type ``expected`` (dict or list); else a
    ValueError naming ``what`` and the value it got."""
    if not isinstance(value, expected):
        name = "object" if expected is dict else "list"
        raise ValueError(f"{what} must be a JSON {name}, got {reprlib.repr(value)}")
    return value


def operator_from_dict(d) -> np.ndarray:
    json_of_type("a matrix", d, dict)
    missing = [key for key in ("rows", "cols", "data") if key not in d]
    if missing:
        raise ValueError(f"a matrix needs the keys 'rows', 'cols' and 'data', "
                         f"missing {', '.join(map(repr, missing))}")
    rows, cols = d["rows"], d["cols"]
    # JSON integers, or numbers with an integral value (2.0); a bool is no size
    if not all((isinstance(x, numbers.Integral) and not isinstance(x, bool))
               or (isinstance(x, float) and x.is_integer()) for x in (rows, cols)):
        got = f"{reprlib.repr(rows)} and {reprlib.repr(cols)}"
        raise ValueError(f"matrix rows and cols must be integers, got {got}")
    rows, cols = int(rows), int(cols)
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix dimensions must be positive, got {rows}x{cols}")
    data = json_of_type("a matrix's 'data'", d["data"], list)
    if len(data) != rows * cols:
        raise ValueError(f"matrix payload has {len(data)} entries, expected {rows * cols}")
    flat = np.array([pair_to_complex(p) for p in data], dtype=complex)
    return _mat(flat.reshape(rows, cols))
