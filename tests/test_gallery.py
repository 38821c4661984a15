import json
from dataclasses import replace

import numpy as np
import pytest

from mudilate import gallery, opcore
from mudilate.fundamentals import MAX_Z_SAMPLES, solve_fundamentals
from mudilate.gallery import (CASE_IDS, GalleryCase, emit_report, run_example,
                              run_gallery)
from mudilate.report import CheckReport, dumps
from mudilate.spaces import auto_margin, window

from conftest import random_supported


# the items of the operator-case battery that every case has, then each
# case's full label set at trunc 8
_BATTERY = {"tuple commutes: worst failing residual",
            "kernel-restricted necessary conditions: worst failing residual",
            "co-extension of the original tuple"}
_SCHAFFER = {"torus condition chain: worst failing residual",
             "dilation members fail to commute (expected)"}
LABELS = {
    "exam1": _BATTERY | _SCHAFFER | {
        "fundamentals match displayed forms", "all [Fi,Fj]=0",
        "dilation relations Vi=V(7-i)*V7", "V7 isometric on window",
        "fundamental solve residual", "||[F1*,F1]-[F6*,F6]||",
        "||[F2*,F2]-[F5*,F5]||", "||[F3*,F3]-[F4*,F4]||"},
    "exam2": _BATTERY | _SCHAFFER | {
        "fundamentals match displayed forms", "fundamental operators commute",
        "dilation relations W=partner* W3", "W3 isometric on window",
        "slice of exam1 equals displayed five-tuple",
        "primed/unprimed condition pairs agree", "||[G1*,G1]-[G2t*,G2t]||",
        "||[2G2*,2G2]-[2G1t*,2G1t]||"},
    "exam3": _BATTERY | {
        "fundamentals: symbol on defect, zeros elsewhere",
        "dilation is a gamma7 isometry: worst failing residual",
        "||V1|| equals |alpha|", "||V3|| bounded by 1"},
    "exam5": _BATTERY | {
        "fundamental of the last pair equals the symbol",
        "dilation is a penta isometry: worst failing residual",
        "R2=R2*R3 on window", "R1*R1 + R2*R2/4 = I on window",
        "||R2|| equals |alpha|"},
}


def _labels(rep):
    labels = [i.label for i in rep.items]
    assert len(set(labels)) == len(labels), labels
    return set(labels)


class TestGalleryCase:
    def test_param_validation(self):
        for alpha in (1.5, float("nan")):
            with pytest.raises(ValueError, match="alpha must lie in the closed unit disc"):
                GalleryCase("exam3", {"alpha": alpha})
        with pytest.raises(ValueError):
            GalleryCase("exam1", {"trunc": 3})
        with pytest.raises(ValueError):
            GalleryCase("nope")
        for bad in (0, -1, MAX_Z_SAMPLES + 1):
            with pytest.raises(ValueError, match="z_samples"):
                GalleryCase("exam1", {"z_samples": bad})

    def test_dense_limit(self, monkeypatch):
        # the exam3 dilation, the largest case space, has
        # 4 trunc (2 + max(depth, 4)) coordinates: 192 at trunc 8, depth 4
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", 192)
        GalleryCase("pi_family", {"trunc": 8, "depth": 2})
        GalleryCase("exam3", {"trunc": 8, "depth": 4})
        for params in ({"trunc": 9}, {"depth": 5}):
            with pytest.raises(ValueError, match="dense limit 192"):
                GalleryCase("exam1", params)

    def test_defaults_filled(self):
        c = GalleryCase("exam1")
        assert c.params["trunc"] == 8 and c.params["depth"] == 4


class TestRunExample:
    @pytest.mark.parametrize("cid", CASE_IDS)
    def test_all_cases_pass(self, cid):
        rep = run_example(GalleryCase(cid))
        assert rep.verdict == "pass", [
            (i.label, i.residual) for i in rep.items if not i.passed]

    def test_exam1_expected_relations(self):
        case = GalleryCase("exam1")
        rep = run_example(case)
        by = {i.label: i.residual for i in rep.items}
        assert by["fundamentals match displayed forms"] <= 1e-10
        assert by["||[F1*,F1]-[F6*,F6]||"] >= 0.99
        assert by["||[F2*,F2]-[F5*,F5]||"] >= 0.99
        assert by["||[F3*,F3]-[F4*,F4]||"] <= 1e-10
        assert by["dilation members fail to commute (expected)"] >= 0.9

    def test_exam2_slice_identity(self):
        rep = run_example(GalleryCase("exam2"))
        by = {i.label: i.residual for i in rep.items}
        assert by["slice of exam1 equals displayed five-tuple"] <= 1e-12
        assert by["primed/unprimed condition pairs agree"] <= 1e-10

    def test_exam3_alpha_sweep(self):
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            rep = run_example(GalleryCase("exam3", {"alpha": alpha}))
            assert rep.verdict == "pass"
            assert _labels(rep) == LABELS["exam3"]
            by = {i.label: i.residual for i in rep.items}
            assert by["||V1|| equals |alpha|"] <= 1e-9

    def test_exam5_alpha_sweep(self):
        for alpha in (0.0, 0.5, 1.0):
            rep = run_example(GalleryCase("exam5", {"alpha": alpha}))
            assert rep.verdict == "pass"
            assert _labels(rep) == LABELS["exam5"]


class TestOperatorBattery:
    @pytest.mark.parametrize("cid", LABELS)
    def test_no_item_lost(self, cid):
        assert _labels(run_example(GalleryCase(cid, {"trunc": 8}))) == LABELS[cid]

    # calls per case of the names the battery must look up in gallery at
    # call time, so that a rebound module attribute (the benchmark's span
    # tracer) sees them
    CALLS = {
        "exam1": {"schaffer": 1, "chain_report": 1},
        "exam2": {"schaffer": 1, "chain_report": 1},
        "exam3": {"build_exam3_dilation": 1, "isometry_check": 1},
        "exam5": {"pentablock_dilation": 1, "isometry_check": 1},
    }

    @pytest.mark.parametrize("cid", CALLS)
    def test_rebound_names_are_called(self, cid, monkeypatch):
        calls = {}
        for name in ("schaffer", "pentablock_dilation", "build_exam3_dilation",
                     "chain_report", "isometry_check"):
            def counted(*args, _fn=getattr(gallery, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(gallery, name, counted)
        assert run_example(GalleryCase(cid, {"trunc": 8})).verdict == "pass"
        assert calls == self.CALLS[cid]


@pytest.mark.parametrize("params", [{}, {"depth": 2}, {"alpha": 0.0}])
def test_gallery_builds_no_dense_operator(params, monkeypatch):
    # every gallery operator stays a coordinate form, exam5's damping block
    # and its root included; at alpha 0 the raising symbol is the zero form
    def refuse(self):
        raise AssertionError(f"a gallery run formed a dense {self.shape} operator")
    monkeypatch.setattr(opcore._Block, "dense", refuse)
    assert all(r.verdict == "pass" for r in run_gallery(trunc=8, **params))


class TestEmitReport:
    def test_empty_report_json(self):
        rep = CheckReport(name="empty")
        payload = json.loads(emit_report(rep, "json"))
        assert payload["name"] == "empty"
        assert payload["items"] == []
        assert payload["verdict"] == "pass"

    def test_round_trip_byte_identical(self):
        rep = run_example(GalleryCase("exam1"))
        blob = emit_report(rep, "json").decode().strip()
        again = dumps(json.loads(blob))
        assert blob == again

    def test_determinism_across_runs(self):
        a = emit_report(run_example(GalleryCase("exam1")), "json")
        b = emit_report(run_example(GalleryCase("exam1")), "json")
        assert a == b

    def test_text_format_columns(self):
        rep = CheckReport(name="demo")
        rep.add("first", 0.0, 1e-9)
        rep.add("second-longer-label", 2.0, 1.0, ok=False)
        text = emit_report(rep, "text").decode()
        lines = text.splitlines()
        assert "residual" in lines[1] and "tol" in lines[1]
        assert lines[2].endswith("pass")
        assert lines[3].endswith("FAIL")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(CheckReport(name="x"), "yaml")


class TestRunGallery:
    def test_selected_subset(self):
        reports = run_gallery(["exam5"], alpha=0.25)
        assert len(reports) == 1 and reports[0].verdict == "pass"


def test_exam3_repeated_members_are_formed_once(monkeypatch):
    # exam3's tuple is (A, A, 0, A, 0, 0, P) and its dilation repeats the
    # layouts (a, a, z, a, z, z): equal members share one object, so each
    # right-hand side, F, layout and commutator is formed once per distinct
    # object, and the norms read the same bits as on equal-content copies
    space, tup, _ = gallery.build_exam3(0.5, 8)
    w = window(space, auto_margin(space, tup.forms))
    fset = solve_fundamentals(replace(tup, window=w))
    assert fset.forms["F1"] is fset.forms["F2"] is fset.forms["F4"]
    assert fset.forms["F3"] is fset.forms["F5"] is fset.forms["F6"]
    dil = gallery.build_exam3_dilation(fset.tup, 4)
    v, dw = dil.forms, dil.window()
    assert v[0] is v[1] is v[3] and v[2] is v[4] is v[5]
    assert all(len(f.v) for f in v)

    calls = []

    def counted(a, b, _fn=opcore.commutator):
        calls.append((a, b))
        return _fn(a, b)
    monkeypatch.setattr(opcore, "commutator", counted)
    opcore.commutator_norms(v, dw)
    pairs = {(id(a), id(b)) for i, a in enumerate(v) for b in v[i + 1:] if a is not b}
    assert len(calls) == len(pairs) == 4  # (A, Z), (A, P), (Z, A) and (Z, P)
    monkeypatch.undo()

    def copies(forms):
        return [opcore._Block(f.i.copy(), f.j.copy(), f.v.copy(), f.shape) for f in forms]
    rng = np.random.default_rng(0)
    a, b, c = (opcore._compact(random_supported(rng, 6, 6)) for _ in range(3))
    for forms, win in ((v, dw), (tup.forms, w), ((a, b, a, c, b), opcore.WHOLE_SPACE)):
        assert opcore.commutator_norms(forms, win) == opcore.commutator_norms(copies(forms), win)
