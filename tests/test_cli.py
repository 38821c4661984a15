import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mudilate import opcore
from mudilate.cli import main
from mudilate.fundamentals import MAX_Z_SAMPLES, OperatorTuple
from mudilate.report import dumps, operator_from_dict, operator_to_dict
from mudilate.gallery import build_exam1, build_exam5

from conftest import dense_members, unchecked_fundamentals


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    space, tup, _ = build_exam1(8)
    tuple7 = root / "tuple7.json"
    tuple7.write_text(json.dumps(
        {"kind": "gamma7", "ops": [operator_to_dict(o) for o in dense_members(tup)]}))
    _, penta, _ = build_exam5(0.5, 8)
    tuple3 = root / "penta.json"
    tuple3.write_text(json.dumps(
        {"kind": "penta", "ops": [operator_to_dict(o) for o in dense_members(penta)]}))
    mat = root / "mat.json"
    mat.write_text(json.dumps(operator_to_dict(np.diag([0.3, 0.6, 0.9]))))
    contr = root / "contraction.json"
    contr.write_text(json.dumps(operator_to_dict(np.array([[0.4 + 0.3j]]))))
    return {"tuple7": str(tuple7), "penta": str(tuple3),
            "mat": str(mat), "contraction": str(contr)}


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestMatrixWireFormat:
    def test_round_trip(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        d = operator_to_dict(m)
        assert d["rows"] == 3 and d["cols"] == 4 and len(d["data"]) == 12
        np.testing.assert_allclose(operator_from_dict(d), m)

    def test_rejects_short_payload(self):
        with pytest.raises(ValueError):
            operator_from_dict({"rows": 2, "cols": 2, "data": [[1, 0]]})

    @pytest.mark.parametrize("rows, cols", [
        (2.9, 1), (1, 1.5), ("2", 1), (1, "1"), (True, True), (1, False),
        (float("nan"), 1), (1, float("inf"))])
    def test_rejects_dimensions_that_are_not_integers(self, rows, cols):
        # a bool, a string or a non-integral number is no size, even where
        # int() of it would give one
        data = [[1, 0]] * 2
        with pytest.raises(ValueError, match="rows and cols must be integers"):
            operator_from_dict({"rows": rows, "cols": cols, "data": data})

    def test_integral_float_dimensions_are_sizes(self):
        m = operator_from_dict({"rows": 2.0, "cols": 1, "data": [[1, 0], [0, 1]]})
        assert m.shape == (2, 1) and m[1, 0] == 1j


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = draw(st.lists(st.builds(complex, _finite, _finite),
                            min_size=rows * cols, max_size=rows * cols))
    return np.array(entries, dtype=complex).reshape(rows, cols)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_matrices())
def test_wire_format_round_trip_is_exact(m):
    back = operator_from_dict(json.loads(json.dumps(operator_to_dict(m))))
    assert back.dtype == complex and back.shape == m.shape
    assert back.tobytes() == m.tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_matrices(), st.data())
def test_wire_format_rejects_bad_payloads(m, data):
    d = operator_to_dict(m)
    mode = data.draw(st.sampled_from(["entry", "one-dim", "both-dims"]))
    if mode == "entry":
        k = data.draw(st.integers(0, len(d["data"]) - 1))
        d["data"][k][data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError, match="finite"):
            operator_from_dict(d)
        return
    if mode == "one-dim":
        d[data.draw(st.sampled_from(["rows", "cols"]))] = data.draw(
            st.integers(-3, 0))
    else:
        # negated dimensions keep rows * cols equal to the entry count
        d["rows"], d["cols"] = -d["rows"], -d["cols"]
    with pytest.raises(ValueError, match="positive"):
        operator_from_dict(d)


class TestSubcommands:
    def test_mu(self, files, capsys):
        code, out = run_cli(["mu", "--structure", "3,3,1,1,1",
                             "--matrix", files["mat"]], capsys)
        assert code == 0
        assert json.loads(out)["mu"] == pytest.approx(0.9, abs=1e-3)

    def test_membership_inside(self, capsys):
        point = json.dumps({"kind": "penta", "coords": [[0.2, 0], [0.3, 0], [0.1, 0]]})
        code, out = run_cli(["membership", "--point", point], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "inside"

    def test_membership_outside_exit(self, capsys):
        point = json.dumps({"kind": "tetra", "coords": [[1.4, 0], [0.1, 0], [0.14, 0]]})
        code, out = run_cli(["membership", "--point", point], capsys)
        assert code == 1
        assert json.loads(out)["verdict"] == "outside"

    @pytest.mark.parametrize("kind", ["penta", "tetra"])
    def test_membership_huge_coordinate_is_outside(self, kind):
        point = json.dumps({"kind": kind, "coords": [[0, 0], [1e200, 0], [0, 0]]})
        proc = subprocess.run([sys.executable, "-m", "mudilate.cli", "membership",
                               "--point", point], capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "outside"

    @pytest.mark.parametrize("point", [
        {"kind": "tetra", "coords": [[1e308, 0], [1e308, 0], [0, 0]]},
        {"kind": "penta", "coords": [[0, 1e200], [-1e200, 0], [1e300, 0]]},
        {"kind": "gamma7", "coords": [[1e100, 0], [1e100, 0], [1e200, 0], [1e100, 0],
                                      [1e200, 0], [1e200, 0], [1e300, 0]]},
        {"kind": "gamma5", "coords": [[0.5, 0], [5e153, 0], [1.5e153, 0], [1e154, 0], [3e153, 0]]}])
    def test_membership_overflow_prints_strict_json(self, capsys, point):
        # the bound or the boundary residual overflow; they print as the
        # largest float, without a numpy warning, and dumps refuses inf; the
        # diagonal points (diag(1e100, 1e100, 1e100) and x1 = 0.5 with roots
        # 1e154 and 0.3) decode in closed form on the scaled point
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["membership", "--point", json.dumps(point)], capsys)
        rep = json.loads(out, parse_constant=_refuse_constant)
        assert code == 1 and rep["verdict"] == "outside"
        with pytest.raises(ValueError):
            dumps({"residual": float("inf")})

    @pytest.mark.parametrize("tol", ["nan", "inf", "1", "-1e-9"])
    def test_membership_tol_checked(self, capsys, tol):
        point = json.dumps({"kind": "tetra", "coords": [[1.05, 0], [0.1, 0], [0.105, 0]]})
        code = main(["membership", "--point", point, f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error: tol must lie in [0, 1e-2]" in captured.err

    def test_fundamental(self, files, capsys):
        code, out = run_cli(["fundamental", "--kind", "gamma7",
                             "--tuple", files["tuple7"]], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload["ops"]) == {f"F{i}" for i in range(1, 7)}
        assert payload["defect_is_projection"] is True
        f1 = operator_from_dict(payload["ops"]["F1"])
        assert f1.shape[0] == 24

    def test_dilate_gamma7(self, files, capsys):
        code, out = run_cli(["dilate", "--kind", "gamma7",
                             "--tuple", files["tuple7"], "--depth", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["depth"] == 3 and len(payload["ops"]) == 7

    def test_dilate_penta(self, files, capsys):
        code, out = run_cli(["dilate", "--kind", "penta",
                             "--tuple", files["penta"], "--depth", "3"], capsys)
        assert code == 0
        assert len(json.loads(out)["ops"]) == 3

    def test_dilate_penta_rejects_non_commuting_first_member(self, capsys,
                                                             tmp_path):
        # (P2, P3) commute, P1 does not commute with P3: no pentablock
        # contraction, so the solve on the triple refuses it
        ops = [np.array([[0.0, 0.5], [0.0, 0.0]]), np.zeros((2, 2)),
               np.diag([0.3, 0.6])]
        path = tmp_path / "bad_penta.json"
        path.write_text(json.dumps(
            {"kind": "penta", "ops": [operator_to_dict(o) for o in ops]}))
        code, out = run_cli(["dilate", "--kind", "penta", "--tuple", str(path)],
                            capsys)
        assert code == 1 and out == ""

    def test_dilate_egervary(self, files, capsys):
        code, out = run_cli(["dilate", "--kind", "egervary",
                             "--tuple", files["contraction"], "--N", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["unitary_residual"] <= 1e-9
        assert payload["dim"] == 3

    def test_verify_necessary(self, files, capsys):
        code, out = run_cli(["verify", "--kind", "gamma7", "--check", "necessary",
                             "--tuple", files["tuple7"]], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_verify_profile_hypothesis_violated(self, files, capsys):
        code, out = run_cli(["verify", "--kind", "gamma7", "--check", "profile",
                             "--tuple", files["tuple7"]], capsys)
        assert code == 2
        assert json.loads(out)["verdict"] == "hypothesis-violated"

    def test_verify_penta_necessary(self, files, capsys):
        code, out = run_cli(["verify", "--kind", "penta", "--check", "necessary",
                             "--tuple", files["penta"]], capsys)
        assert code == 0

    def test_membership_kind_flag_with_bare_coords(self, capsys):
        point = json.dumps([[0.2, 0], [0.3, 0], [0.1, 0]])
        code, out = run_cli(["membership", "--kind", "penta", "--point", point],
                            capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "inside"

    def test_fundamentals_file_round_trip(self, files, capsys, tmp_path):
        code, out = run_cli(["fundamental", "--kind", "gamma7",
                             "--tuple", files["tuple7"]], capsys)
        assert code == 0
        fpath = tmp_path / "fset.json"
        fpath.write_text(out)
        code, out = run_cli(["verify", "--kind", "gamma7", "--check", "necessary",
                             "--tuple", files["tuple7"],
                             "--fundamentals", str(fpath)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"
        code, out = run_cli(["fundamental", "--kind", "penta",
                             "--tuple", files["penta"]], capsys)
        assert code == 0
        ppath = tmp_path / "fset_penta.json"
        ppath.write_text(out)
        code, out = run_cli(["verify", "--kind", "penta", "--check", "necessary",
                             "--tuple", files["penta"],
                             "--fundamentals", str(ppath)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    @staticmethod
    def _verify_with_file(files, capsys, tmp_path, ops, check):
        """Run verify on the exam1 tuple with a fundamentals file holding
        ``ops`` and claiming zero residuals; return (code, stderr)."""
        path = tmp_path / "fset.json"
        path.write_text(json.dumps({
            "kind": "gamma7",
            "ops": {k: operator_to_dict(v) for k, v in ops.items()},
            "residuals": {k: 0.0 for k in ops}}))
        code = main(["verify", "--kind", "gamma7", "--check", check,
                     "--tuple", files["tuple7"], "--fundamentals", str(path)])
        return code, capsys.readouterr()

    @pytest.mark.parametrize("check", ["necessary", "profile"])
    def test_fundamentals_file_missing_names_refused(self, files, capsys,
                                                     tmp_path, check):
        ops = {f"X{i}": np.zeros((24, 24)) for i in range(1, 7)}
        code, cap = self._verify_with_file(files, capsys, tmp_path, ops, check)
        assert code == 1 and cap.out == ""
        assert "needs F1 as a 24x24 operator" in cap.err

    @pytest.mark.parametrize("payload", ["[1, 2]", '{"kind": "gamma7"}'])
    def test_fundamentals_file_without_ops_refused(self, files, capsys, tmp_path,
                                                   payload):
        path = tmp_path / "fset.json"
        path.write_text(payload)
        code = main(["verify", "--kind", "gamma7", "--check", "necessary",
                     "--tuple", files["tuple7"], "--fundamentals", str(path)])
        cap = capsys.readouterr()
        assert code == 1 and cap.out == ""
        assert "needs F1 as a 24x24 operator" in cap.err

    @pytest.mark.parametrize("check", ["necessary", "profile"])
    def test_fundamentals_file_wrong_dimension_refused(self, files, capsys,
                                                       tmp_path, check):
        ops = {f"F{i}": np.zeros((3, 3)) for i in range(1, 7)}
        code, cap = self._verify_with_file(files, capsys, tmp_path, ops, check)
        assert code == 1 and cap.out == ""
        assert "needs F1 as a 24x24 operator" in cap.err

    @pytest.mark.parametrize("check", ["necessary", "profile"])
    def test_fundamentals_file_unsolved_equation_refused(self, files, capsys,
                                                         tmp_path, check):
        # zero operators of the right size claim zero residuals, but exam1's
        # F1 is nonzero, so its equation is recomputed and fails
        ops = {f"F{i}": np.zeros((24, 24)) for i in range(1, 7)}
        code, cap = self._verify_with_file(files, capsys, tmp_path, ops, check)
        assert code == 1 and cap.out == ""
        assert "F1 fails its equation: residual" in cap.err

    @pytest.mark.parametrize("with_file", [False, True])
    def test_verify_tol_reaches_the_solve(self, capsys, tmp_path, with_file):
        # a unimodular scalar pivot has D = 0, so F1's equation leaves the
        # residual 1e-8: refused at the default --tol, accepted at 1e-6 with
        # or without a fundamentals file
        vals = [0.3 + 1e-8, 0.1, 0.2, 0.2, 0.1, 0.3, 1.0]
        tpath = tmp_path / "tuple.json"
        tpath.write_text(json.dumps({"kind": "gamma7", "ops": [
            operator_to_dict(np.array([[v]])) for v in vals]}))
        args = ["verify", "--kind", "gamma7", "--check", "necessary",
                "--tuple", str(tpath)]
        if with_file:
            fpath = tmp_path / "fset.json"
            fpath.write_text(json.dumps({"ops": {
                f"F{i}": operator_to_dict(np.zeros((1, 1))) for i in range(1, 7)}}))
            args += ["--fundamentals", str(fpath)]
        assert main(args) == 1
        assert "F1 fails its equation: residual 1.000e-08" in capsys.readouterr().err
        code, out = run_cli(args + ["--tol", "1e-6"], capsys)
        assert code == 0 and json.loads(out)["verdict"] == "pass"

    def test_verify_rejects_single_operator_kinds(self, files, capsys):
        # the partial-isometry check takes one operator, not a tuple file,
        # and "isometry" names no tuple kind, so verify offers neither
        for kind in ("isometry", "partial"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--kind", kind, "--tuple", files["tuple7"]])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_gallery_rejects_nan_alpha_by_name(self, capsys):
        code = main(["gallery", "--case", "pi_family", "--alpha", "nan"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.strip() == "error: alpha must lie in the closed unit disc"

    def test_gallery_rejects_zero_torus_samples(self, capsys):
        # past the cap too, refused before any case is built
        for bad in ("0", str(MAX_Z_SAMPLES + 1)):
            code = main(["gallery", "--case", "exam1", "--zsamples", bad, "--text"])
            captured = capsys.readouterr()
            assert code == 1 and captured.out == ""
            assert "z_samples" in captured.err

    def test_verify_penta_profile_rejected_before_loading(self, capsys):
        # a penta triple has one fundamental operator and no commutator
        # profile; the tuple path is never opened
        code = main(["verify", "--kind", "penta", "--check", "profile",
                     "--tuple", "/nonexistent.json"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "gamma7 or gamma5" in captured.err

    def test_size_inputs_bounded(self, files, capsys, monkeypatch):
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", 64)
        for argv in (["dilate", "--kind", "egervary", "--tuple",
                      files["contraction"], "--N", "64"],
                     ["dilate", "--kind", "gamma7", "--tuple", files["tuple7"],
                      "--depth", "64"],
                     ["dilate", "--kind", "penta", "--tuple", files["penta"],
                      "--depth", "64"],
                     ["gallery", "--case", "pi_family", "--trunc", "8"]):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 1 and captured.out == "", argv
            assert "dense limit 64" in captured.err, argv

    def test_verify_commuting_check(self, files, capsys):
        code, out = run_cli(["verify", "--kind", "gamma7", "--check", "commuting",
                             "--tuple", files["tuple7"]], capsys)
        assert code == 0

    def test_gallery_single_case(self, capsys):
        code, out = run_cli(["gallery", "--case", "exam5", "--alpha", "0.25"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_error_paths(self, files, capsys):
        code, _ = run_cli(["mu", "--structure", "3,2,1,1",
                           "--matrix", files["mat"]], capsys)
        assert code == 1
        code, _ = run_cli(["fundamental", "--kind", "gamma7",
                           "--tuple", "/nonexistent.json"], capsys)
        assert code == 1


class TestEntryPoint:
    def test_subprocess_gallery_text(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mudilate.cli", "gallery", "--case",
             "pi_family", "--text"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0
        assert "pi_family" in proc.stdout and "pass" in proc.stdout

    @pytest.mark.parametrize("tol", ["1e300", "inf", "nan", "-1"])
    def test_verify_tol_outside_range_refused(self, tmp_path, tol):
        # (5I, ..., 5I) fails the isometry check by 24.0, which a huge tol
        # would pass; inf and nan would fail only when the report is written
        path = tmp_path / "five.json"
        path.write_text(json.dumps({"kind": "gamma7", "ops": [
            operator_to_dict(np.array([[5.0]]))] * 7}))
        proc = subprocess.run([sys.executable, "-m", "mudilate.cli", "verify",
                               "--kind", "gamma7", "--check", "isometry",
                               "--tuple", str(path), "--tol", tol],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error:") and "--tol" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_verify_fundamentals_file_keeps_commutation_refusal(self, tmp_path):
        # a non-commuting tuple is refused with or without a fundamentals
        # file; the file holds its D+ B D+, which do solve the equations
        rng = np.random.default_rng(5)
        ops = []
        for _ in range(7):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            ops.append(0.2 * a / np.linalg.norm(a, 2))
        fset = unchecked_fundamentals(OperatorTuple("gamma7", tuple(ops)))
        tpath, fpath = tmp_path / "tuple.json", tmp_path / "fset.json"
        tpath.write_text(json.dumps(
            {"kind": "gamma7", "ops": [operator_to_dict(o) for o in ops]}))
        fpath.write_text(json.dumps(
            {"ops": {n: operator_to_dict(fset[n]) for n in fset.names()}}))
        proc = subprocess.run([sys.executable, "-m", "mudilate.cli", "verify",
                               "--kind", "gamma7", "--check", "necessary",
                               "--tuple", str(tpath), "--fundamentals", str(fpath)],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: tuple does not commute")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ["verify", "--kind", "gamma7", "--tuple", {"data": [0.5]}],
        ["verify", "--kind", "gamma7", "--tuple", {"data": [["a", 0]]}],
        ["membership", "--point", '{"kind":"tetra","coords":[1,2,3]}'],
    ])
    def test_malformed_entries_give_a_named_error(self, tmp_path, args):
        # a complex entry that is not a [re, im] pair of reals is named in
        # one error line, not reported by a traceback
        if isinstance(args[-1], dict):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"kind": "gamma7", "ops": [
                {"rows": 1, "cols": 1, **args[-1]}] * 7}))
            args = args[:-1] + [str(path)]
        proc = subprocess.run([sys.executable, "-m", "mudilate.cli", *args],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and "[re, im] pair" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("args, payload, named", [
        (["verify", "--kind", "gamma7", "--tuple"],
         {"kind": "gamma7", "ops": [{"rows": 1, "cols": 1, "data": 5}]},
         "'data' must be a JSON list"),
        (["verify", "--kind", "gamma7", "--tuple"], {"kind": "gamma7", "ops": 5},
         "'ops' must be a JSON list"),
        (["verify", "--kind", "gamma7", "--tuple"], {"kind": "gamma7", "ops": [5]},
         "a matrix must be a JSON object"),
        (["verify", "--kind", "gamma7", "--tuple"],
         {"kind": "gamma7", "ops": [{"rows": [1], "cols": 1, "data": [[0, 0]]}]},
         "rows and cols must be integers"),
        (["membership", "--point", '{"kind":"tetra","coords":5}'], None,
         "coordinates must be a JSON list"),
        (["membership", "--point", "5"], None, "coordinates must be a JSON list"),
        (["mu", "--structure", "2,2,1,1", "--matrix"], [1, 2],
         "a matrix must be a JSON object"),
        (["dilate", "--kind", "egervary", "--tuple"], [1, 2],
         "a matrix must be a JSON object"),
        (["verify", "--kind", "gamma7", "--tuple"], {"kind": "gamma7"},
         "needs an 'ops' list"),
        (["membership", "--point", "[[0.1,0],[0.1,0],[0,0]]"], None,
         "point kind missing"),
        (["membership", "--point", '{"kind":"tetra"}'], None,
         "needs a 'coords' list"),
        (["verify", "--kind", "gamma7", "--tuple"],
         {"kind": "gamma7", "ops": [{"cols": 1, "data": [[0, 0]]}]},
         "needs the keys 'rows', 'cols' and 'data', missing 'rows'"),
        (["mu", "--structure", "2,2,1,1", "--matrix"], {"rows": 1, "cols": 1},
         "needs the keys 'rows', 'cols' and 'data', missing 'data'"),
        (["mu", "--structure", "2,2,1,1", "--matrix"], {"data": [[0, 0]]},
         "missing 'rows', 'cols'"),
    ])
    def test_malformed_payload_types_give_a_named_error(self, tmp_path, args,
                                                        payload, named):
        # a payload of the wrong JSON type is named in one error line
        if payload is not None:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(payload))
            args = args + [str(path)]
        proc = subprocess.run([sys.executable, "-m", "mudilate.cli", *args],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and named in proc.stderr
        assert "Traceback" not in proc.stderr
