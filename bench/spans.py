"""Span recording around the public functions of mudilate, from outside.

``Tracer.install`` wraps each listed function and rebinds every name that
refers to it in the loaded ``mudilate`` modules (modules that did
``from .opcore import numerical_radius`` hold their own binding); methods
are wrapped on their class.  Spans stay in memory: name, start, end,
parent span and the id of the item (gallery case or domain point) being
run.  ``self_times`` subtracts from each span the time its children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _targets(prefix, module, *paths):
    return [(f"{prefix}.{path}", module, path) for path in paths]


# (span name, defining module, attribute path) of each wrapped function.  A
# span name is <layer>.<attribute path>; build_exam3_dilation counts
# in the dilate layer but keeps its module's name, and emit_report, defined
# in gallery, is the report layer's serializer.
TARGETS = (
    _targets("opcore", "opcore", "numerical_radius", "spectral_radius", "op_norm",
             "herm_sqrt", "kernel_basis", "commutator_norms")
    + _targets("spaces", "spaces", "window", "Window.wnorm", "Window.equal",
               "Window.compress", "Window.psd_min_eig")
    + _targets("fundamentals", "fundamentals", "defect", "solve_fundamentals",
               "chain_report", "rho")
    + _targets("dilate", "dilate", "schaffer", "pentablock_dilation", "pushforward",
               "DilationResult.window", "DilationResult.coextension_residuals")
    + _targets("gallery", "gallery", "build_exam3_dilation", "run_example")
    + _targets("verify", "verify", "is_commuting", "isometry_check",
               "necessary_conditions", "commutator_profile")
    + _targets("domains", "domains", "membership", "certificate_search", "mu_E",
               "psi3_supnorm")
    + _targets("report", "gallery", "emit_report")
)
SPAN_NAMES = [name for name, _, _ in TARGETS]


class Tracer:
    def __init__(self):
        self.names = []     # span name per span
        self.start = []
        self.end = []
        self.parent = []    # index of the enclosing span, -1 at the top
        self.item = []      # id of the item being run
        self.stack = []
        self.current_item = None
        self.returns = {}   # span name -> hook called with each return value
        self._undo = []

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.end.append(None)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            hook = tracer.returns.get(name)
            if hook is not None:
                hook(out)
            return out

        return traced

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        pkg = sys.modules["mudilate"]
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "mudilate" or k.startswith("mudilate."))]
        for name, mod, path in TARGETS:
            owner = getattr(pkg, mod)
            parts = path.split(".")
            for p in parts[:-1]:
                owner = getattr(owner, p)
            attr = parts[-1]
            original = owner.__dict__[attr]
            wrapped = self.wrap(name, original)
            if len(parts) > 1:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------
    def spans(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "item": it}
                for n, s, e, p, it in zip(self.names, self.start, self.end,
                                          self.parent, self.item)]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans()):
                fh.write(json.dumps(dict(sp, id=i)) + "\n")


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus the part of its interval
    covered by its children.  Children of one span never overlap in a
    single-threaded run, but the union is taken anyway."""
    children = [[] for _ in spans]
    for i, sp in enumerate(spans):
        if sp["parent"] >= 0:
            children[sp["parent"]].append(i)
    out = []
    for i, sp in enumerate(spans):
        covered, last = 0.0, sp["start"]
        for j in sorted(children[i], key=lambda k: spans[k]["start"]):
            lo = max(spans[j]["start"], last)
            hi = min(spans[j]["end"], sp["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        out.append((sp["end"] - sp["start"]) - covered)
    return out


def aggregate(spans: list, key=lambda sp: sp["name"]) -> dict:
    """{key: (calls, total self seconds)} over the spans."""
    acc = {}
    for sp, st in zip(spans, self_times(spans)):
        k = key(sp)
        calls, total = acc.get(k, (0, 0.0))
        acc[k] = (calls + 1, total + st)
    return acc
