from dataclasses import replace

import numpy as np
import pytest

import mudilate.fundamentals as fundamentals
from mudilate.opcore import (WHOLE_SPACE, OpcoreError, OperatorTuple, herm_sqrt,
                             op_norm)
from mudilate.spaces import ModelSpace, hardy_shift, window
from mudilate.fundamentals import (CHAIN_TOL, MAX_Z_SAMPLES, ExpansiveError,
                                   SolveError, chain_report, defect, require_commuting,
                                   rho, solve_fundamentals)
from mudilate.gallery import _raising_symbol

from conftest import dense_members, random_contraction, unchecked_fundamentals


class TestDefect:
    def test_zero_contraction(self):
        dd = defect(np.zeros((4, 4)))
        np.testing.assert_allclose(dd.form.dense(), np.eye(4))
        assert dd.rank == 4 and dd.is_projection

    def test_truncated_shift_vanishes_on_window(self):
        sp = ModelSpace(((1, 8),))
        w = window(sp, 1)
        dd = defect(hardy_shift(1, 8))
        assert w.wnorm(dd.form.dense()) <= 1e-12
        assert dd.rank == 1

    def test_exam1_partial_isometry_defect(self, exam1):
        space, tup, _, w = exam1
        dd = defect(dense_members(tup)[6])
        assert dd.is_projection
        expected = np.zeros((space.total_dim, space.total_dim))
        n = space.summands[0][1]
        expected[:2 * n, :2 * n] = np.eye(2 * n)
        assert w.equal(dd.form.dense(), expected) <= 1e-12

    def test_rejects_expansive(self):
        with pytest.raises(ExpansiveError):
            defect(np.diag([1.5, 0.2]))

    def test_exam3_projection_defect(self, exam3):
        # the displayed defect is the projection onto the outer summands,
        # and a projection is its own Hermitian square root
        space, tup, _, w = exam3
        dd = defect(dense_members(tup)[6])
        assert dd.is_projection
        ideal = np.zeros((space.total_dim, space.total_dim))
        n = space.total_dim // 4  # four equal summands
        for i in (0, 3):
            sl = slice(i * n, (i + 1) * n)
            ideal[sl, sl] = np.eye(n)
        assert w.equal(dd.form.dense(), ideal) <= 1e-12
        np.testing.assert_allclose(herm_sqrt(ideal).dense(), ideal,
                                   atol=1e-12)

    def test_dsquared_matches_gram(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            t = random_contraction(rng, 5)
            dd = defect(t)
            gram = np.eye(5) - t.conj().T @ t
            np.testing.assert_allclose(dd.form.dense() @ dd.form.dense(), gram, atol=1e-9)
            proj_gap = np.linalg.norm(dd.form.dense() @ dd.form.dense() - dd.form.dense(), 2)
            assert dd.is_projection == (proj_gap <= 1e-9)


class TestSolveFundamentals:
    def test_exam1_displayed_solutions(self, exam1):
        space, tup, expected_f, w = exam1
        fset = solve_fundamentals(replace(tup, window=w))
        for name, want in expected_f.items():
            assert w.equal(fset[name], want) <= 1e-10
        assert max(fset.residuals.values()) <= 1e-10

    def test_unitary_last_member_trivial(self):
        rng = np.random.default_rng(43)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        ops = [np.zeros((4, 4))] * 6 + [q]
        fset = solve_fundamentals(OperatorTuple("gamma7", ops))
        assert fset.defect.rank == 0
        assert all(np.all(fset[n] == 0) for n in fset.names())

    def test_exam5_pair_solution_is_symbol(self, exam5):
        space, tup, x_emb, w = exam5
        pair = OperatorTuple("sym", dense_members(tup)[1:3])
        fset = solve_fundamentals(replace(pair, window=w))
        assert w.equal(fset["X"], x_emb) <= 1e-10

    def test_exam5_penta_solve_matches_pair_solve(self, exam5):
        # the penta relation row (P2, P2, X) is the sym equation of the
        # pair (P2, P3), solved on the triple itself
        space, tup, x_emb, w = exam5
        pair = OperatorTuple("sym", dense_members(tup)[1:3])
        via_pair = solve_fundamentals(replace(pair, window=w))
        fset = solve_fundamentals(replace(tup, window=w))
        assert fset.kind == "penta" and fset.names() == ("X",)
        assert w.equal(fset["X"], via_pair["X"]) <= 1e-10
        assert w.equal(fset["X"], x_emb) <= 1e-10

    def test_rhs_annihilates_kernel_and_lands_in_range(self, exam1, exam2, exam5):
        # solvability on the defect space forces both properties, for every
        # gallery tuple
        from mudilate.fundamentals import _rhs_map
        cases = [("gamma7", exam1[1], exam1[3], 6),
                 ("gamma5", exam2[1], exam2[4], 2),
                 ("sym", OperatorTuple("sym", dense_members(exam5[1])[1:3]),
                  exam5[3], 1),
                 ("penta", exam5[1], exam5[3], 2)]
        for kind, tup, w, pivot in cases:
            dd = defect(dense_members(tup)[pivot])
            kb = (dd.kernel_basis @ w.inside(dd.kernel_basis)).dense()
            q = dd.range_basis.dense()
            comp = np.eye(tup.dim) - q @ q.conj().T
            for name, b in _rhs_map(tup).items():
                b = b.dense()
                assert np.linalg.norm(b @ kb, 2) <= 1e-9, (kind, name)
                assert w.wnorm(comp @ b) <= 1e-9, (kind, name)

    def test_round_trip_recovers_random_f(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            t = random_contraction(rng, n, top=0.98)
            dd = defect(t)
            if dd.rank == 0:
                continue
            q, dplus = dd.range_basis.dense(), dd.pinv().dense()
            f = rng.standard_normal((dd.rank, dd.rank)) \
                + 1j * rng.standard_normal((dd.rank, dd.rank))
            f_emb = q @ f @ q.conj().T
            rhs = dd.form.dense() @ f_emb @ dd.form.dense()
            rec = dplus @ rhs @ dplus
            assert np.linalg.norm(rec - f_emb, 2) <= 1e-8 * max(1.0, np.linalg.norm(f, 2))

    def test_expansive_member_raises(self):
        ops = [np.zeros((3, 3))] * 6 + [np.diag([1.5, 0.1, 0.1])]
        with pytest.raises(ExpansiveError):
            solve_fundamentals(OperatorTuple("gamma7", ops))

    def test_isometric_pivot_with_unsolvable_equation_raises(self):
        # D = 0, so D F1 D = 0 cannot equal T1 - T6* T7 = 0.5 I
        ops = [0.5 * np.eye(2)] + [np.zeros((2, 2))] * 5 + [np.eye(2)]
        with pytest.raises(SolveError, match="F1 fails its equation"):
            solve_fundamentals(OperatorTuple("gamma7", ops))

    def test_non_commuting_raises(self):
        m = hardy_shift(1, 5).dense()
        ops = [m, m.conj().T] + [np.zeros((5, 5))] * 4 + [np.zeros((5, 5))]
        with pytest.raises(SolveError):
            solve_fundamentals(OperatorTuple("gamma7", ops))


class TestRequireCommuting:
    @pytest.fixture
    def normed(self, monkeypatch):
        """The members whose norms ``require_commuting`` takes."""
        seen = []

        def counting(a):
            seen.append(a)
            return op_norm(a)

        monkeypatch.setattr(fundamentals, "op_norm", counting)
        return seen

    def test_exactly_commuting_tuple_takes_no_norm(self, normed, exam1):
        _, tup, _, w = exam1
        require_commuting(replace(tup, window=w))
        require_commuting(OperatorTuple("sym", (np.diag([3.0, 4.0]), np.diag([5.0, 6.0]))))
        assert normed == []

    def test_small_failure_is_judged_against_the_norms(self, normed):
        # [A, B] = eps (100 - 200) E12 for A = diag(100, 200), B = eps E12:
        # 2e-9 passes against 1e-9 ||A||^2 = 4e-5, as before the norms were
        # deferred; with ||A|| <= 1 the same 2e-9 fails
        e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
        big = OperatorTuple("sym", (np.diag([100.0, 200.0]), 2e-11 * e12))
        assert max(v for _, v in big.commutators) == pytest.approx(2e-9, rel=1e-12)
        require_commuting(big)
        assert len(normed) == 2
        small = OperatorTuple("sym", (np.diag([0.5, 1.0]), 4e-9 * e12))
        with pytest.raises(SolveError, match="does not commute"):
            require_commuting(small)


class TestRho:
    def test_sym_zero(self):
        r = rho(OperatorTuple("sym", (np.zeros((3, 3)), np.zeros((3, 3)))))
        np.testing.assert_allclose(r.op, 2 * np.eye(3))
        assert r.asym_residual <= 1e-12

    def test_tetra_zero(self):
        r = rho(OperatorTuple("tetra", (np.zeros((2, 2)),) * 3))
        np.testing.assert_allclose(r.op, np.eye(2))

    def test_exam1_first_pair_psd_on_window(self, exam1):
        space, tup, _, w = exam1
        t = dense_members(tup)
        r = rho(OperatorTuple("tetra", (t[0], t[5], t[6])))
        assert w.psd_min_eig(r.op) >= -1e-12
        assert r.asym_residual <= 1e-10

    def test_symmetrization_residual_small_for_commuting(self):
        rng = np.random.default_rng(51)
        t = random_contraction(rng, 4)
        r = rho(OperatorTuple("sym", (t @ t, t)))
        # S and P commute here, so the form is exactly Hermitian
        assert r.asym_residual <= 1e-12


def _chain_solved(tup, z_samples, w=WHOLE_SPACE):
    """chain_report on the tuple's fundamentals, solved at CHAIN_TOL."""
    return chain_report(solve_fundamentals(replace(tup, window=w), tol=CHAIN_TOL),
                        z_samples=z_samples)


class TestChainReport:
    def test_zero_tuple_margins(self):
        tup = OperatorTuple("gamma7", [np.zeros((3, 3))] * 7)
        rep = _chain_solved(tup, 4)
        assert rep.verdict == "pass"
        assert rep.margins["rho"] == pytest.approx(2.0)
        assert rep.margins["radius"] == pytest.approx(2.0)
        assert rep.margins["omega"] == pytest.approx(1.0)

    def test_rejects_zero_torus_samples(self):
        # with no torus sample every rho and omega item would pass
        # unevaluated; past the cap the samples alone would allocate without
        # bound, so the cap is refused before any sample is drawn
        fset = solve_fundamentals(OperatorTuple("gamma7", [np.zeros((3, 3))] * 7))
        for bad in (0, -2, MAX_Z_SAMPLES + 1):
            with pytest.raises(OpcoreError, match="z_samples"):
                chain_report(fset, z_samples=bad)

    def test_exam1_all_pass(self, exam1):
        space, tup, _, w = exam1
        fset = solve_fundamentals(replace(tup, window=w))
        rep = chain_report(fset, z_samples=16)
        assert rep.verdict == "pass"
        # summed pairs are strictly block-nilpotent on the window
        assert rep.margins["radius"] == pytest.approx(2.0, abs=1e-12)
        assert rep.margins["rho"] >= -1e-12
        assert rep.margins["omega"] >= -1e-12

    @pytest.mark.parametrize("kind", ["gamma7", "gamma5"])
    def test_nilpotent_sums_make_radius_items_vacuous(self, kind, exam1, exam2):
        tup, w = (exam1[1], exam1[3]) if kind == "gamma7" else (exam2[1], exam2[4])
        rep = _chain_solved(tup, 8, w)
        assert rep.verdict == "pass"
        assert not [i for i in rep.items if i.label.startswith("radius<=2")]
        vacuous = [u for u in rep.undecided if u.startswith("radius<=2")]
        assert len(vacuous) == (3 if kind == "gamma7" else 2)
        assert all("vacuous" in u for u in vacuous)

    @pytest.mark.parametrize("kind, coeffs", [
        ("gamma7", [0.2, -0.15, 0.1, 0.05, 0.3, -0.25, 0.6]),
        ("gamma5", [0.3, 0.4, 0.5, -0.2, 0.1j]),
    ])
    def test_nonzero_radius_keeps_radius_items(self, kind, coeffs):
        ops = [np.array([[c]], dtype=complex) for c in coeffs]
        rep = _chain_solved(OperatorTuple(kind, ops), 8)
        radius = [i for i in rep.items if i.label.startswith("radius<=2")]
        assert len(radius) == (3 if kind == "gamma7" else 2)
        assert all(i.passed for i in radius)
        assert not [u for u in rep.undecided if u.startswith("radius<=2")]

    def test_fundamentals_are_read_with_their_own_tuple(self, exam1, exam3):
        # the solve is the whole input: exam3's tuple cannot be paired with
        # the fundamentals of another tuple, and the solvability item is
        # the solve's own largest residual
        other = solve_fundamentals(OperatorTuple(
            "gamma7", [np.zeros((2, 2))] * 6 + [0.5 * np.eye(2)]))
        with pytest.raises(TypeError):
            chain_report(exam3[1], z_samples=4, fset=other)
        _, tup, _, w = exam1
        fset = solve_fundamentals(replace(tup, window=w), tol=CHAIN_TOL)
        rep = chain_report(fset, z_samples=4)
        assert rep.name == "chain-gamma7"
        assert rep.items[0].label == "fundamental-solvability"
        assert rep.items[0].residual == max(fset.residuals.values())

    def test_isometric_pivot_keeps_rho_family_sampled(self):
        # L = 1 makes h = 2(I - L*L) = 0, so nothing pins a degree 0 but the
        # diagonal; K = s - s* L = 0.6i then has degree 0 and the family
        # -2 Re(z K) moves with z: its minimum -1.2 is at z = -i, not z = 1.
        # Such a tuple has no solution (D = 0), and the rho items read the
        # tuple alone, so the unchecked fundamentals stand in for a solve
        ops = [np.array([[0.3j]])] + [np.zeros((1, 1))] * 4 + [np.array([[0.1]]), np.eye(1)]
        rep = chain_report(unchecked_fundamentals(OperatorTuple("gamma7", ops)), z_samples=4)
        item = next(i for i in rep.items if i.label == "rho-pair-psd[1,6]")
        assert item.residual == pytest.approx(1.2)
        assert "rho-pair-psd 2/1, radius<=2 2/1," in rep.notes[-1]

    def test_exam2_all_pass(self, exam2):
        space, tup5, _, _, w = exam2
        rep = _chain_solved(tup5, 8, w)
        assert rep.verdict == "pass"


class TestDampingCommutation:
    def test_symbol_commutes_with_damping_block(self):
        # the raising symbol commutes with I - (G*G + GG*)/4 and its root
        for alpha in (0.3, 0.8, 1.0):
            g = _raising_symbol(alpha, 8).dense()
            block = np.eye(16) - 0.25 * (g.conj().T @ g + g @ g.conj().T)
            assert np.linalg.norm(g @ block - block @ g, 2) <= 1e-12
            assert np.linalg.norm(g.conj().T @ block - block @ g.conj().T, 2) <= 1e-12
            root = herm_sqrt(block).dense()
            assert np.linalg.norm(g @ root - root @ g, 2) <= 1e-12
