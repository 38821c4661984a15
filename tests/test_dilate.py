from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from mudilate import dilate, gallery, opcore
from mudilate.opcore import ARITY, OperatorTuple, op_norm
from mudilate.spaces import Window, hardy_shift
from mudilate.fundamentals import (ExpansiveError, FundamentalSet, SolveError, defect,
                                   solve_fundamentals)
from mudilate.dilate import (DilateError, coextension, egervary,
                             pentablock_dilation, pushforward, schaffer)
from mudilate.gallery import build_exam1, build_exam2, build_exam3, build_exam3_dilation
from mudilate.verify import is_commuting

from conftest import dense_members, random_contraction


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
        np.testing.assert_allclose(u[3:, :3], herm_sqrt(d).dense(), atol=1e-12)
        np.testing.assert_allclose(u[:3, 3:], herm_sqrt(ds).dense(), atol=1e-12)

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

    def test_unitary_input_is_unitary_to_roundoff(self):
        # I - U*U is roundoff; its square root must not lift it to ~1e-9
        rng = np.random.default_rng(0)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.standard_normal((d, d))
                                + 1j * rng.standard_normal((d, d)))
            u = egervary(q, 2)
            assert np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2) <= 1e-12

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
        fset = solve_fundamentals(replace(tup, window=w))
        dim = tup.dim + 3 * fset.defect.rank
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", dim)
        assert schaffer(fset, 3).dim == dim
        with pytest.raises(DilateError, match="exceeds the dense limit"):
            schaffer(fset, 4)

    def test_pentablock_dilation(self, monkeypatch, exam5):
        _, tup, _, w = exam5
        fset = solve_fundamentals(replace(tup, window=w))
        dim = tup.dim + 2 * fset.defect.rank
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", dim)
        assert pentablock_dilation(fset, 2).dim == dim
        with pytest.raises(DilateError, match="exceeds the dense limit"):
            pentablock_dilation(fset, 3)

    def test_exam3_dilation(self, monkeypatch):
        # 8 trunc base coordinates plus depth copies of the 4 trunc-dim defect
        monkeypatch.setattr(opcore, "MAX_DENSE_DIM", 8 * 6 + 2 * 4 * 6)
        tup = build_exam3(0.5, 6)[1]
        assert build_exam3_dilation(tup, 2).dim == 8 * 6 + 2 * 4 * 6
        with pytest.raises(DilateError, match="exceeds the dense limit"):
            build_exam3_dilation(tup, 3)


class TestSchaffer:
    def test_isometric_last_member_returned_unchanged(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        ops = [np.zeros((3, 3))] * 6 + [q]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals(tup)
        # D = 0 and every right-hand side is 0, so the equations still solve
        assert fset.defect.rank == 0
        assert all(r == 0.0 for r in fset.residuals.values())
        dil = schaffer(fset, 3)
        assert dil.dim == dil.base_dim == 3
        np.testing.assert_allclose(dil.forms[6].dense(), q)

    def test_depth_validation(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals(replace(tup, window=w))
        with pytest.raises(DilateError):
            schaffer(fset, 1)

    def test_exam1_relations_and_coextension(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals(replace(tup, window=w))
        dil = schaffer(fset, 4)
        kw = dil.window()
        v = [o.dense() for o in dil.forms]
        for i in range(6):
            assert kw.wnorm(v[i] - v[5 - i].conj().T @ v[6]) <= 1e-9
        assert kw.wnorm(v[6].conj().T @ v[6] - np.eye(len(v[6]))) <= 1e-9
        assert max(dil.coextension_residuals()) <= 1e-9

    def test_exam2_relations(self, exam2):
        _, tup5, _, _, w = exam2
        fset = solve_fundamentals(replace(tup5, window=w))
        dil = schaffer(fset, 4)
        kw = dil.window()
        w1, w2, w3, w1t, w2t = (o.dense() for o in dil.forms)
        for lhs, rhs in ((w1, w2t.conj().T @ w3), (w2t, w1.conj().T @ w3),
                         (w2, w1t.conj().T @ w3), (w1t, w2.conj().T @ w3)):
            assert kw.wnorm(lhs - rhs) <= 1e-9
        assert max(dil.coextension_residuals()) <= 1e-9

    def test_commuting_fundamentals_give_commuting_dilation(self):
        # scalar family: fundamentals are scalars, hypotheses hold, so the
        # dilation commutes and passes the full isometry suite
        c = [0.21, -0.1, 0.33, 0.05, -0.27, 0.4, 0.5]
        ops = [np.array([[v]]) for v in c]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals(tup)
        dil = schaffer(fset, 5)
        from mudilate.verify import isometry_check
        # on the whole dilation space, then on its window (the whole base
        # space plus the kept copies)
        assert is_commuting(OperatorTuple(dil.kind, dil.forms), tol=1e-9).verdict == "pass"
        assert isometry_check(dil.tup, tol=1e-9).verdict == "pass"


def _array(x):
    return x.dense() if isinstance(x, opcore._Block) else np.asarray(x)


def _block_layout(tup, dd, depth, members):
    """The members of ``coextension(tup, dd, depth, members)`` laid out as
    dense arrays, each cell (a form or an array) written into its numpy slice."""
    if dd.rank == 0:
        return list(dense_members(tup))
    n, r = tup.dim, dd.rank
    drow = dd.range_basis.dense().conj().T @ dd.form.dense()
    at = [slice(0, n)] + [slice(n + c * r, n + (c + 1) * r) for c in range(depth)]
    out = []
    for k, base in enumerate(dense_members(tup)):
        col, band = members[k]
        m = np.zeros((n + depth * r,) * 2, dtype=complex)
        m[at[0], at[0]] = base
        for c, x in enumerate(col[:depth], 1):
            if x is not None:
                m[at[c], at[0]] = _array(x) @ drow
        for o, b in band.items():
            for c in range(1, depth + 1 - o):
                m[at[c + o], at[c]] = _array(b)
        out.append(m)
    return out


def _random_diagonal_tuple(rng, kind, n):
    """A commuting tuple of random diagonal n x n operators whose pivot is a
    strict contraction, so its defect is invertible and it solves."""
    vals = 0.9 * (rng.uniform(size=(ARITY[kind], n))
                  * np.exp(2j * np.pi * rng.uniform(size=(ARITY[kind], n))))
    return OperatorTuple(kind, [np.diag(v) for v in vals])


class TestCoordinateLayout:
    """Every dilation is born as a coordinate form; densified, each member
    is exactly the dense block layout of the same cells."""

    @staticmethod
    def _spy(monkeypatch, module):
        calls = []

        def spy(*args):
            calls.append(args)
            return coextension(*args)
        monkeypatch.setattr(module, "coextension", spy)
        return calls

    def _assert_layout(self, dil, calls):
        (args,) = calls
        assert all(isinstance(o, opcore._Block) for o in dil.forms)
        for got, want in zip(dil.forms, _block_layout(*args)):
            assert np.array_equal(got.dense(), want)

    @pytest.mark.parametrize("depth", [2, 4, 7])
    @pytest.mark.parametrize("case", ["exam1", "exam2", "exam3", "exam5"])
    def test_gallery_dilations(self, case, depth, monkeypatch, exam1, exam2, exam3, exam5):
        if case == "exam3":
            calls = self._spy(monkeypatch, gallery)
            dil = build_exam3_dilation(exam3[1], depth)
        else:
            calls = self._spy(monkeypatch, dilate)
            tup, w = {"exam1": (exam1[1], exam1[3]), "exam2": (exam2[1], exam2[4]),
                      "exam5": (exam5[1], exam5[3])}[case]
            build = pentablock_dilation if case == "exam5" else schaffer
            dil = build(solve_fundamentals(replace(tup, window=w)), depth)
        self._assert_layout(dil, calls)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("kind", ["gamma7", "gamma5"])
    def test_random_schaffer_dilations(self, kind, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        tup = _random_diagonal_tuple(rng, kind, int(rng.integers(1, 5)))
        calls = self._spy(monkeypatch, dilate)
        dil = schaffer(solve_fundamentals(tup), int(rng.integers(2, 6)))
        self._assert_layout(dil, calls)


class TestDilationWindow:
    @pytest.mark.parametrize("depth", [2, 3, 4, 7])
    @pytest.mark.parametrize("case", ["exam1", "exam3", "scalar"])
    def test_basis_is_padded_block_diag(self, case, depth, exam1, exam3):
        # the basis is laid out without scipy; it must keep the bytes of
        # scipy.linalg.block_diag's layout, zero-padded to the dilation.  The
        # scalar case's window range has a negative entry, which a Kronecker
        # layout would multiply by 0 into -0.0 off the diagonal blocks
        if case == "exam1":
            _, tup, _, w = exam1
            dil = schaffer(solve_fundamentals(replace(tup, window=w)), depth)
        elif case == "exam3":
            w = exam3[3]
            dil = build_exam3_dilation(replace(exam3[1], window=w), depth)
        else:
            vals = (0.2, -0.15, 0.1, 0.05, 0.3, -0.25, 0.6)
            tup = OperatorTuple("gamma7", tuple(v * np.eye(2) for v in vals))
            w = Window(0, np.array([[1.0], [-1.0]]) / np.sqrt(2.0))
            dil = schaffer(solve_fundamentals(replace(tup, window=w)), depth)
        margin = min(2 * dil.reach, max(dil.reach, depth - 1))
        keepv = w.inside(dil.defect.range_basis).dense()
        ref = scipy.linalg.block_diag(w.basis.dense(), *[keepv] * (depth - margin))
        ref = np.pad(ref, ((0, dil.dim - ref.shape[0]), (0, 0)))
        got = dil.window().basis.dense()
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


class TestPentablockDilation:
    def test_zero_symbol_structure(self):
        ops = [np.diag([0.5, 0.5]), np.zeros((2, 2)),
               np.diag([0.3, 0.3])]
        tup = OperatorTuple("penta", ops)
        dil = pentablock_dilation(solve_fundamentals(tup), 3)
        r1, r2, r3 = (o.dense() for o in dil.forms)
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
        fset = solve_fundamentals(tup)
        assert fset.defect.rank == 0
        dil = pentablock_dilation(fset, 3)
        assert dil.dim == dil.base_dim == 2
        for got, want in zip(dil.forms, ops):
            np.testing.assert_array_equal(got.dense(), want)

    def test_exam5_norm_identities(self, exam5):
        _, tup, _, w = exam5
        fset = solve_fundamentals(replace(tup, window=w))
        dil = pentablock_dilation(fset, 4)
        assert op_norm(dil.forms[1]) == pytest.approx(0.5, abs=1e-10)
        kw = dil.window()
        r = [o.dense() for o in dil.forms]
        assert kw.wnorm(r[1] - r[1].conj().T @ r[2]) <= 1e-10
        gram = r[0].conj().T @ r[0] + 0.25 * r[1].conj().T @ r[1] - np.eye(len(r[0]))
        assert kw.wnorm(gram) <= 1e-9

    def test_rejects_oversize_symbol(self):
        ops = [np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))]
        tup = OperatorTuple("penta", ops)
        big = FundamentalSet(tup, {"X": 3.0 * np.eye(2)}, {}, defect(ops[2]))
        with pytest.raises(DilateError, match="exceeds 4"):
            pentablock_dilation(big, 3)

    def test_rejects_raw_symbol(self):
        # a bare matrix is ambiguous when the defect rank equals the base
        # dimension (embedded or defect coordinates?), so only a solved
        # penta FundamentalSet is taken
        rng = np.random.default_rng(21)
        ops = [np.eye(2), np.zeros((2, 2)), random_contraction(rng, 2, top=0.9)]
        assert defect(ops[2]).rank == 2
        with pytest.raises(AttributeError):
            pentablock_dilation(0.2 * np.eye(2), 3)
        with pytest.raises(DilateError, match="penta FundamentalSet"):
            pentablock_dilation(solve_fundamentals(OperatorTuple(
                "sym", ops[1:])), 3)


class TestPushforward:
    def test_pi_reproduces_displayed_products(self, exam1):
        space, tup, _, _ = exam1
        n = space.summands[0][1]
        m = hardy_shift(1, n).dense()
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
        for got, want in zip(dense_members(tup), displayed):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_pi_eta_at_one_matches_exam2(self, exam2):
        _, tup5, _, displayed, _ = exam2
        for got, want in zip(dense_members(tup5), dense_members(displayed)):
            assert np.linalg.norm(got - want, 2) <= 1e-12

    def test_pi_eta_requires_disc_parameter(self, exam1):
        _, tup, _, _ = exam1
        with pytest.raises(DilateError):
            pushforward("pi_eta", tup, 1.5)
        with pytest.raises(DilateError, match="closed unit disc"):
            pushforward("pi_eta", tup, float("nan"))

    def test_axis7_shape(self):
        t = np.diag([0.5, 0.5])
        tup = pushforward("axis7", t, t, t)
        assert tup.kind == "gamma7"
        t = dense_members(tup)
        assert all(np.all(t[i] == 0) for i in (1, 2, 3, 4))

    def test_gamma3_of_commuting_isometries(self):
        # the cyclic shift is a unitary, so an isometry on the whole space
        c = np.roll(np.eye(8), 1, axis=0)
        trip = pushforward("gamma3", c, c, c)
        t1, t2, t3 = dense_members(trip)
        np.testing.assert_allclose(t1, c, atol=1e-12)
        np.testing.assert_allclose(t2, c @ c, atol=1e-12)
        np.testing.assert_allclose(t3, np.linalg.matrix_power(c, 3), atol=1e-12)
        assert is_commuting(trip).worst() == 0.0

    def test_gamma3_rejects_non_isometry_third(self):
        t = np.diag([0.5, 0.5])
        with pytest.raises(DilateError):
            pushforward("gamma3", t, t, t)
        # a truncated shift is an isometry only off its top level
        m = hardy_shift(1, 8).dense()
        with pytest.raises(DilateError, match="not an isometry"):
            pushforward("gamma3", m, m, m)

    def test_pi_rejects_expansive(self):
        with pytest.raises(ExpansiveError):
            pushforward("pi", [[1.3]], [[0.5]])

    def test_non_commuting_rejected(self):
        # pushforward is a map; its users refuse a non-commuting result
        m = hardy_shift(1, 6).dense()
        tup = pushforward("axis7", m, m.conj().T, np.zeros((6, 6)))
        assert is_commuting(tup).verdict == "fail"
        with pytest.raises(SolveError, match="does not commute"):
            solve_fundamentals(tup)
