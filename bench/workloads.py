"""The benchmark's workloads: seeded items, how each runs, and its checks.

A workload is a list of rounds, each a list of items; the measuring loop
runs the items in order, round after round, one call at a time.  Every
call into mudilate goes through a module attribute looked up at call
time, so the span wrappers of ``spans.Tracer`` see it.
"""

from __future__ import annotations

import mudilate.domains as domains
import mudilate.gallery as gallery

import gen

VERDICTS = ("inside", "boundary", "outside", "unknown")


class Item:
    """One call: ``run()`` returns the program's output, ``check(out)``
    returns (error message or None, decided?, decode path or None)."""

    __slots__ = ("id", "kind", "run", "check")

    def __init__(self, id, kind, run, check):
        self.id, self.kind, self.run, self.check = id, kind, run, check


class Gallery:
    """The six gallery cases at one truncation; a round is one pass."""

    pass_counts = {cid: 1 for cid in gallery.CASE_IDS}
    # pi_family and axis_family take about 10 ms, too short to time steadily
    geomean_kinds = ("exam1", "exam2", "exam3", "exam5")
    decision_kinds = gallery.CASE_IDS

    def __init__(self, trunc: int, trace_rounds: int):
        self.trunc = trunc
        self.trace_rounds = trace_rounds
        self.first_bytes = {}

    def params(self, trunc, seed):
        # the seed draws the random points of pi_family and axis_family
        return dict(trunc=trunc, alpha=0.5, depth=4, z_samples=8, seed=seed)

    def _round(self, trunc, seed, tag):
        p = self.params(trunc, seed)
        return [Item(f"{tag}{cid}", cid, self._runner(cid, p), self._checker(cid, p))
                for cid in gallery.CASE_IDS]

    def _runner(self, cid, p):
        def run():
            rep = gallery.run_example(gallery.GalleryCase(cid, dict(p)))
            return rep, gallery.emit_report(rep)
        return run

    def _checker(self, cid, p):
        key = (cid, tuple(sorted(p.items())))

        def check(out):
            rep, blob = out
            if rep.verdict != "pass":
                return f"{cid}: verdict {rep.verdict}", False, None
            first = self.first_bytes.setdefault(key, blob)
            if blob != first:
                return f"{cid}: report bytes differ between passes", True, None
            return None, True, None
        return check

    def build(self, seed):
        return [self._round(self.trunc, seed, "")]

    def warmup(self, seed):
        return self._round(8, seed, "warmup-")


def _point_check(p):
    """Truths known by construction: a point realised by a matrix of norm
    < 1 is never outside; a point whose first coordinate (a11, or a21 for
    penta) has modulus > 1 is never inside or on the boundary."""
    def check(rep):
        v = rep.verdict
        if v not in VERDICTS:
            return f"{p['label']}: verdict {v!r}", False, None
        if p["realiser_norm"] < 1.0 and v == "outside":
            return (f"{p['label']}: outside, but realised with norm "
                    f"{p['realiser_norm']:.6f}"), True, None
        if p["first_abs"] > 1.0 and v in ("inside", "boundary"):
            return (f"{p['label']}: {v}, but |first coordinate| = "
                    f"{p['first_abs']:.6f}"), True, None
        decode = rep.meta.get("decode", "closed")
        return None, v != "unknown", decode
    return check


def _mu_check(m):
    """mu lies between the spectral radius and the norm of the input, and
    within 1e-3 of the reference value of the fixed matrix."""
    def check(mu):
        lo, hi = m["radius"] * (1 - 1e-9), m["norm"] * (1 + 1e-9)
        if not lo <= mu <= hi:
            return f"{m['label']}: mu {mu} outside [{lo}, {hi}]", True, None
        if abs(mu - m["ref_mu"]) > 1e-3 * m["ref_mu"]:
            return f"{m['label']}: mu {mu}, reference {m['ref_mu']}", True, None
        return None, True, None
    return check


class DomainsMix:
    """Seeded realised points of the four kinds plus mu_E calls, in the
    order gen.domains_mix lays them out."""

    closed_kinds = tuple(gen.CLOSED_PER_ROUND)
    search_kinds = tuple(gen.SEARCH_CLASSES)
    mu_kinds = tuple(f"mu.{s}" for s in gen.MU_PER_SLICE)
    # a search point costs 0.4-8 s depending on the point, more spread than
    # the one point per class in a round can average, so search points are
    # timed in the detail line and enter the metrics through decided_frac
    pass_counts = dict(gen.CLOSED_PER_ROUND,
                       **{f"mu.{s}": c * gen.SLICES for s, c in gen.MU_PER_SLICE.items()})
    geomean_kinds = closed_kinds + mu_kinds
    decision_kinds = search_kinds
    trace_rounds = 1

    def _item(self, tag, i, e):
        if "matrix" in e:
            blocks = tuple(e["blocks"])
            structure = domains.BlockStructure(sum(blocks), len(blocks), blocks)
            a = e["matrix"]
            return Item(f"{tag}{e['label']}-{i}", e["label"],
                        lambda: domains.mu_E(a, structure), _mu_check(e))
        point = domains.DomainPoint(e["kind"], e["coords"])
        return Item(f"{tag}{e['label']}-{i}", e["label"],
                    lambda: domains.membership(point), _point_check(e))

    def build(self, seed):
        return [[self._item("", f"{k}.{i}", e) for i, e in enumerate(r)]
                for k, r in enumerate(gen.domains_mix(seed))]

    def warmup(self, seed):
        """One cheap item of each code path, from a separate stream."""
        seen, keep = set(), []
        for i, e in enumerate(gen.domains_mix(seed + 1, rounds=1)[0]):
            if e["label"] in ("gamma5-high", "gamma7-low", "mu.E311", "mu.E1111"):
                continue
            if e["label"] not in seen:
                seen.add(e["label"])
                keep.append(self._item("warmup-", i, e))
        return keep


WORKLOADS = {
    "gallery-t16": lambda: Gallery(16, trace_rounds=1),
    "gallery-t8": lambda: Gallery(8, trace_rounds=5),
    "domains-mix": DomainsMix,
}
