import numpy as np
import pytest

from mudilate.opcore import OperatorTuple, OpcoreError
from mudilate.spaces import ModelSpace, hardy_shift, window
from mudilate.fundamentals import defect, solve_fundamentals
from mudilate.gallery import build_exam3_dilation
from mudilate.verify import (commutator_profile, is_commuting, isometry_check,
                             necessary_conditions)


class TestIsCommuting:
    def test_diagonal_tuple(self):
        ops = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]
        rep = is_commuting(ops)
        assert rep.verdict == "pass" and rep.worst() == 0.0

    def test_exam1_on_window(self, exam1):
        _, tup, _, w = exam1
        assert is_commuting(tup, window=w).verdict == "pass"

    def test_shift_pair_fails_with_unit_residual(self):
        sp = ModelSpace(((1, 8),))
        w = window(sp, 1)
        m = hardy_shift(1, 8)
        rep = is_commuting([m, m.conj().T], window=w)
        assert rep.verdict == "fail"
        assert rep.items[0].residual == pytest.approx(1.0, abs=1e-12)


class TestIsometryCheck:
    def test_identity_tuple(self):
        ops = [np.eye(3)] * 7
        rep = isometry_check("gamma7", OperatorTuple("gamma7", ops))
        assert rep.verdict == "pass"

    def test_partial_isometry_exam1(self, exam1):
        _, tup, _, w = exam1
        rep = isometry_check("partial", tup.ops[6], window=w)
        assert rep.verdict == "pass"

    def test_partial_isometry_iff_projection_defect(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            uq, _ = np.linalg.qr(rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)))
            vq, _ = np.linalg.qr(rng.standard_normal((n, n))
                                 + 1j * rng.standard_normal((n, n)))
            proj = vq[:, :k] @ vq[:, :k].conj().T
            t = uq @ proj
            rep = isometry_check("partial", t)
            dd = defect(t)
            assert rep.verdict == "pass"
            assert dd.is_projection
            # break it: damp the isometric part
            t2 = 0.8 * uq @ proj + 0.1 * (np.eye(n) - proj)
            rep2 = isometry_check("partial", t2)
            dd2 = defect(t2)
            assert rep2.verdict == "fail"
            assert not dd2.is_projection

    def test_exam3_dilation_gamma7(self, exam3):
        _, tup, _, w = exam3
        dil = build_exam3_dilation(0.5, 8, 6)
        kw = dil.window(w, tail_margin=4)
        rep = isometry_check("gamma7", dil.tuple(), window=kw)
        assert rep.verdict == "pass"

    def test_arity_mismatch(self):
        ops = [np.eye(2)] * 5
        with pytest.raises(OpcoreError):
            isometry_check("gamma7", OperatorTuple("gamma5", ops))

    def test_plain_isometry_kind(self):
        sp = ModelSpace(((1, 6),))
        w = window(sp, 1)
        rep = isometry_check("isometry", hardy_shift(1, 6), window=w)
        assert rep.verdict == "pass"
        rep2 = isometry_check("isometry", 0.5 * np.eye(3))
        assert rep2.verdict == "fail"


class TestNecessaryConditions:
    def test_trivial_when_last_member_unitary(self):
        rng = np.random.default_rng(57)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        ops = [np.zeros((3, 3))] * 6 + [q]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals("gamma7", tup)
        rep = necessary_conditions("gamma7", tup, fset)
        # D = 0, so the kernel is everything and every expression carries a
        # D factor: residuals vanish identically
        assert rep.verdict == "pass"
        assert rep.worst() <= 1e-12

    def test_exam1_residuals(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals("gamma7", tup, window=w)
        rep = necessary_conditions("gamma7", tup, fset, window=w)
        assert rep.verdict == "pass"
        assert rep.worst() <= 1e-10
        assert rep.undecided  # existence half has no finite test

    def test_exam2_pairs_agree(self, exam2):
        _, _, tup5, _, _, w = exam2
        fset = solve_fundamentals("gamma5", tup5, window=w)
        rep = necessary_conditions("gamma5", tup5, fset, window=w)
        assert rep.verdict == "pass"
        by = {i.label: i.residual for i in rep.items}
        assert len(by) == 12
        for k in range(2, 8):
            assert abs(by[f"({k})"] - by[f"({k}')"]) <= 1e-10

    def test_exam5_penta(self, exam5):
        _, tup, _, w = exam5
        fset = solve_fundamentals("penta", tup, window=w)
        rep = necessary_conditions("penta", tup, fset, window=w)
        assert rep.verdict == "pass" and rep.worst() <= 1e-10


class TestPartialIsometryRestriction:
    def test_exam1_restricted_tuple_mirrors_fundamentals(self, exam1):
        # with a partial-isometry last member, the kernel of the last member
        # carries the restricted tuple, whose commutator table matches the
        # fundamental operators'
        _, tup, _, w = exam1
        fset = solve_fundamentals("gamma7", tup, window=w)
        from mudilate.verify import _self_comm, _windowed_range
        kb = _windowed_range(defect(tup.ops[6]), w)
        assert kb.shape[1] > 0
        for i, j in ((0, 5), (1, 4), (2, 3)):
            fi = kb.conj().T @ fset[f"F{i+1}"] @ kb
            fj = kb.conj().T @ fset[f"F{j+1}"] @ kb
            di = kb.conj().T @ tup.ops[i] @ kb
            dj = kb.conj().T @ tup.ops[j] @ kb
            gap = np.linalg.norm((_self_comm(fi) - _self_comm(fj))
                                 - (_self_comm(di) - _self_comm(dj)), 2)
            assert gap <= 1e-10


class TestCommutatorProfile:
    def test_zero_fundamentals(self):
        ops = [np.zeros((3, 3))] * 6 + [np.diag([0.5, 0.2, 0.1])]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals("gamma7", tup)
        rep = commutator_profile(fset)
        assert rep.verdict == "pass" and rep.worst() == 0.0

    def test_exam1_table(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals("gamma7", tup, window=w)
        rep = commutator_profile(fset, tol=1e-10, window=w)
        by = {i.label: i.residual for i in rep.items}
        assert len(by) == 30
        assert max(v for k, v in by.items() if "*" not in k) <= 1e-10
        assert by["[F6*,F6]-[F1*,F1]"] == pytest.approx(1.0, abs=1e-10)
        assert by["[F5*,F5]-[F2*,F2]"] == pytest.approx(1.0, abs=1e-10)
        assert by["[F4*,F4]-[F3*,F3]"] <= 1e-10
        assert rep.verdict == "hypothesis-violated"

    def test_exam2_gaps(self, exam2):
        _, _, tup5, _, _, w = exam2
        fset = solve_fundamentals("gamma5", tup5, window=w)
        rep = commutator_profile(fset, tol=1e-10, window=w)
        by = {i.label: i.residual for i in rep.items}
        assert by["[G1*,G1]-[G2t*,G2t]"] > 0.9
        assert by["[2G2*,2G2]-[2G1t*,2G1t]"] > 0.9
        assert rep.verdict == "hypothesis-violated"

    def test_rejects_single_operator_kind(self, exam5):
        _, tup, _, w = exam5
        pair = OperatorTuple("sym", (tup.ops[1], tup.ops[2]))
        for fset in (solve_fundamentals("sym", pair, window=w),
                     solve_fundamentals("penta", tup, window=w)):
            with pytest.raises(OpcoreError):
                commutator_profile(fset)


class TestDilationImpliesChecks:
    def test_scalar_conditional_family_gamma7(self):
        # scalar fundamentals satisfy every hypothesis; the dilation passes
        # the isometry suite and the base tuple passes the necessary suite
        c = [0.2, -0.15, 0.1, 0.05, 0.3, -0.25, 0.6]
        ops = [np.array([[v]], dtype=complex) for v in c]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals("gamma7", tup)
        from mudilate.dilate import schaffer
        dil = schaffer("gamma7", tup, fset, 5)
        kw = dil.window(_full(dil.base_dim), tail_margin=2)
        rep = isometry_check("gamma7", dil.tuple(), window=kw)
        assert rep.verdict == "pass"
        nec = necessary_conditions("gamma7", tup, fset)
        assert nec.verdict == "pass"

    def test_scalar_conditional_family_gamma5(self):
        c = [0.3, 0.4, 0.5, -0.2, 0.1j]
        ops = [np.array([[v]], dtype=complex) for v in c]
        tup = OperatorTuple("gamma5", ops)
        fset = solve_fundamentals("gamma5", tup)
        from mudilate.dilate import schaffer
        dil = schaffer("gamma5", tup, fset, 5)
        kw = dil.window(_full(dil.base_dim), tail_margin=2)
        rep = isometry_check("gamma5", dil.tuple(), window=kw)
        assert rep.verdict == "pass"
        comm = is_commuting(dil.tuple(), window=kw)
        assert comm.verdict == "pass"
        nec = necessary_conditions("gamma5", tup, fset)
        assert nec.verdict == "pass"


def _full(dim):
    from mudilate.spaces import Window
    return Window(0, np.eye(dim))
