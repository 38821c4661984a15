import json

import numpy as np
import pytest

from mudilate import opcore
from mudilate.fundamentals import MAX_Z_SAMPLES
from mudilate.gallery import (CASE_IDS, GalleryCase, emit_report, run_example,
                              run_gallery)
from mudilate.report import CheckReport, dumps


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
            by = {i.label: i.residual for i in rep.items}
            assert by["||V1|| equals |alpha|"] <= 1e-9

    def test_exam5_alpha_sweep(self):
        for alpha in (0.0, 0.5, 1.0):
            rep = run_example(GalleryCase("exam5", {"alpha": alpha}))
            assert rep.verdict == "pass"


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
