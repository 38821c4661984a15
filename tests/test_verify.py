from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mudilate.opcore import WHOLE_SPACE, OpcoreError, _compact
from mudilate.spaces import ModelSpace, Window, hardy_shift, window
from mudilate.fundamentals import (PIVOT, FundamentalSet, OperatorTuple, chain_report,
                                   defect, solve_fundamentals)
from mudilate.gallery import build_exam3_dilation
from mudilate.verify import (commutator_profile, is_commuting, isometry_check,
                             necessary_conditions)

from conftest import dense_members, range_side_kernel


def _self_comm(m):
    """[M*, M] of an array: the dense reference of the profile's identities."""
    return m.conj().T @ m - m @ m.conj().T


class TestIsCommuting:
    def test_diagonal_tuple(self):
        ops = [np.diag([1.0, 2.0]), np.diag([3.0, 4.0])]
        rep = is_commuting(OperatorTuple("sym", ops))
        assert rep.verdict == "pass" and rep.worst() == 0.0

    def test_exam1_on_window(self, exam1):
        _, tup, _, w = exam1
        assert is_commuting(replace(tup, window=w)).verdict == "pass"

    def test_shift_pair_fails_with_unit_residual(self):
        sp = ModelSpace(((1, 8),))
        w = window(sp, 1)
        m = hardy_shift(1, 8).dense()
        rep = is_commuting(OperatorTuple("sym", (m, m.conj().T), w))
        assert rep.verdict == "fail"
        assert rep.items[0].residual == pytest.approx(1.0, abs=1e-12)


class TestIsometryCheck:
    def test_identity_tuple(self):
        ops = [np.eye(3)] * 7
        rep = isometry_check(OperatorTuple("gamma7", ops))
        assert rep.verdict == "pass"

    def test_partial_isometry_exam1(self, exam1):
        # T7 is a partial isometry iff its defect operator is a projection
        _, tup, _, _ = exam1
        assert defect(tup.forms[6]).is_projection

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
            assert defect(t).is_projection
            # break it: damp the isometric part
            t2 = 0.8 * uq @ proj + 0.1 * (np.eye(n) - proj)
            assert not defect(t2).is_projection

    def test_exam3_dilation_gamma7(self, exam3):
        _, tup, _, w = exam3
        dil = build_exam3_dilation(replace(tup, window=w), 6)
        rep = isometry_check(dil.tup)
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_shallow_exam3_dilation_gamma7(self, exam3, depth):
        # the exam3 members reach two copies down, so the derived window
        # margin never falls below 2: at depth 2 no copy is kept, since a
        # kept copy would map past the cut
        _, tup, _, w = exam3
        dil = build_exam3_dilation(replace(tup, window=w), depth)
        assert dil.reach == 2
        rep = isometry_check(dil.tup)
        assert rep.verdict == "pass"


class TestFormsMatchDenseTuple:
    @pytest.mark.parametrize("case", ["exam1", "exam2", "exam3", "exam5"])
    def test_isometry_check_of_dilation_and_dense_tuple(self, case, exam1, exam2,
                                                         exam3, exam5):
        """isometry_check reads a DilationResult's tuple of forms as it reads
        the OperatorTuple of their dense arrays: the same items, exactly."""
        from mudilate.dilate import pentablock_dilation, schaffer
        if case == "exam3":
            w = exam3[3]
            dil = build_exam3_dilation(replace(exam3[1], window=w), 4)
        else:
            tup, w = {"exam1": (exam1[1], exam1[3]), "exam2": (exam2[1], exam2[4]),
                      "exam5": (exam5[1], exam5[3])}[case]
            build = pentablock_dilation if case == "exam5" else schaffer
            dil = build(solve_fundamentals(replace(tup, window=w)), 4)
        dense = OperatorTuple(dil.kind, [o.dense() for o in dil.forms], dil.tup.window)
        got, want = isometry_check(dil.tup), isometry_check(dense)
        assert [(i.label, i.residual, i.passed) for i in got.items] == \
            [(i.label, i.residual, i.passed) for i in want.items]


class TestNecessaryConditions:
    def test_trivial_when_last_member_unitary(self):
        rng = np.random.default_rng(57)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        ops = [np.zeros((3, 3))] * 6 + [q]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals(tup)
        rep = necessary_conditions(fset)
        # D = 0, so the kernel is everything and every expression carries a
        # D factor: residuals vanish identically
        assert rep.verdict == "pass"
        assert rep.worst() <= 1e-12

    @pytest.mark.parametrize("windowed", [False, True])
    def test_trivial_kernel_holds_vacuously(self, windowed):
        # pivot 0.5 I has the full-rank defect (3/4)^(1/2) I: the kernel
        # window has no columns and every restricted residual is 0.0
        ops = [np.zeros((2, 2))] * 6 + [0.5 * np.eye(2)]
        tup = OperatorTuple("gamma7", ops, Window(0, np.eye(2)) if windowed else WHOLE_SPACE)
        fset = solve_fundamentals(tup)
        assert fset.defect.rank == 2
        rep = necessary_conditions(fset)
        assert rep.verdict == "pass"
        assert [i.residual for i in rep.items] == [0.0] * 6
        assert "kernel test space dimension 0" in rep.notes
        assert ("defect kernel is trivial on the window; conditions hold "
                "vacuously") in rep.notes

    def test_exam1_residuals(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals(replace(tup, window=w))
        rep = necessary_conditions(fset)
        assert rep.verdict == "pass"
        assert rep.worst() <= 1e-10
        assert rep.undecided  # existence half has no finite test

    def test_exam2_pairs_agree(self, exam2):
        _, tup5, _, _, w = exam2
        fset = solve_fundamentals(replace(tup5, window=w))
        rep = necessary_conditions(fset)
        assert rep.verdict == "pass"
        by = {i.label: i.residual for i in rep.items}
        assert len(by) == 12
        for k in range(2, 8):
            assert abs(by[f"({k})"] - by[f"({k}')"]) <= 1e-10

    def test_exam5_penta(self, exam5):
        _, tup, _, w = exam5
        fset = solve_fundamentals(replace(tup, window=w))
        rep = necessary_conditions(fset)
        assert rep.verdict == "pass" and rep.worst() <= 1e-10


class TestPartialIsometryRestriction:
    def test_exam1_restricted_tuple_mirrors_fundamentals(self, exam1):
        # with a partial-isometry last member, the kernel of the last member
        # carries the restricted tuple, whose commutator table matches the
        # fundamental operators'
        _, tup, _, w = exam1
        fset = solve_fundamentals(replace(tup, window=w))
        t = dense_members(tup)
        dd = defect(t[6])
        kb = (dd.range_basis @ w.inside(dd.range_basis)).dense()
        assert kb.shape[1] > 0
        for i, j in ((0, 5), (1, 4), (2, 3)):
            fi = kb.conj().T @ fset[f"F{i+1}"] @ kb
            fj = kb.conj().T @ fset[f"F{j+1}"] @ kb
            di = kb.conj().T @ t[i] @ kb
            dj = kb.conj().T @ t[j] @ kb
            gap = np.linalg.norm((_self_comm(fi) - _self_comm(fj))
                                 - (_self_comm(di) - _self_comm(dj)), 2)
            assert gap <= 1e-10


class TestCommutatorProfile:
    def test_zero_fundamentals(self):
        ops = [np.zeros((3, 3))] * 6 + [np.diag([0.5, 0.2, 0.1])]
        tup = OperatorTuple("gamma7", ops)
        fset = solve_fundamentals(tup)
        rep = commutator_profile(fset)
        assert rep.verdict == "pass" and rep.worst() == 0.0

    def test_exam1_table(self, exam1):
        _, tup, _, w = exam1
        fset = solve_fundamentals(replace(tup, window=w))
        rep = commutator_profile(fset, tol=1e-10)
        by = {i.label: i.residual for i in rep.items}
        assert len(by) == 24
        assert max(v for k, v in by.items() if "*" not in k) <= 1e-10
        assert by["[F6*,F6]-[F1*,F1]"] == pytest.approx(1.0, abs=1e-10)
        assert by["[F5*,F5]-[F2*,F2]"] == pytest.approx(1.0, abs=1e-10)
        assert by["[F4*,F4]-[F3*,F3]"] <= 1e-10
        assert rep.verdict == "hypothesis-violated"

    def test_exam2_gaps(self, exam2):
        _, tup5, _, _, w = exam2
        fset = solve_fundamentals(replace(tup5, window=w))
        rep = commutator_profile(fset, tol=1e-10)
        by = {i.label: i.residual for i in rep.items}
        assert by["[G1*,G1]-[G2t*,G2t]"] > 0.9
        assert by["[2G2*,2G2]-[2G1t*,2G1t]"] > 0.9
        assert rep.verdict == "hypothesis-violated"

    def test_rejects_single_operator_kind(self, exam5):
        _, tup, _, w = exam5
        pair = OperatorTuple("sym", dense_members(tup)[1:3])
        for fset in (solve_fundamentals(replace(pair, window=w)),
                     solve_fundamentals(replace(tup, window=w))):
            with pytest.raises(OpcoreError):
                commutator_profile(fset)


# weights whose products and short sums are exact, so a dense and a form
# product of weighted partial permutations agree to the last bit
_EXACT_WEIGHTS = np.array([1.0, -1.0, 1j, -1j, 0.5, -0.5j, 0.5 + 0.5j])


@st.composite
def profile_sets(draw):
    """A gamma7 or gamma5 set of F, each a weighted partial permutation
    (entries of modulus <= 1), a dense complex matrix, zero or an exact
    repeat of an earlier member; a selection window, a dense orthonormal
    window or the whole space; and whether every product is exact (no
    dense member or window)."""
    kind = draw(st.sampled_from(["gamma7", "gamma5"]))
    names = ([f"F{i+1}" for i in range(6)] if kind == "gamma7"
             else ["G1", "G2", "G1t", "G2t"])
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs, hows = {}, set()
    for name in names:
        how = draw(st.sampled_from(["perm", "dense", "zero", "repeat"]))
        hows.add(how)
        if how == "repeat" and fs:
            fs[name] = fs[draw(st.sampled_from(sorted(fs)))]
        elif how == "dense":
            fs[name] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        else:
            f = np.zeros((n, n), dtype=complex)
            if how == "perm":
                cols = np.flatnonzero(rng.uniform(size=n) < 0.7)
                f[rng.permutation(n)[:len(cols)], cols] = rng.choice(_EXACT_WEIGHTS, len(cols))
            fs[name] = f
    shape = draw(st.sampled_from(["selection", "dense", "whole"]))
    exact = "dense" not in hows | {shape}
    k = int(rng.integers(1, n + 1))
    if shape == "whole":
        return kind, fs, None, exact
    if shape == "selection":
        return kind, fs, np.eye(n)[:, np.sort(rng.choice(n, k, replace=False))], exact
    q = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))[0]
    return kind, fs, q, exact


def _profile_reference(kind, fs):
    """The profile's items, label -> 2-norm, from the dense compressions ``fs``."""
    def comm(a, b):
        return a @ b - b @ a

    def two(m):
        return float(np.linalg.norm(m, 2))

    names = list(fs)
    ref = {f"[{a},{b}]": two(comm(fs[a], fs[b])) for a, b in combinations(names, 2)}
    f = [fs[name] for name in names]
    if kind == "gamma7":
        for i in range(6):
            for j in range(i + 1, 6 - i):
                gap = comm(f[5 - i].conj().T, f[j]) - comm(f[5 - j].conj().T, f[i])
                ref[f"[F{6-i}*,F{j+1}]-[F{6-j}*,F{i+1}]"] = two(gap)
        return ref
    c1, c2, c1t, c2t = map(_self_comm, f)
    ref.update({"[G1*,G1]-4[G2*,G2]": two(c1 - 4.0 * c2),
                "[G1*,G1]-4[G1t*,G1t]": two(c1 - 4.0 * c1t),
                "[G1*,G1]-[G2t*,G2t]": two(c1 - c2t),
                "4[G2*,G2]-[G2t*,G2t]": two(4.0 * c2 - c2t),
                "4[G1t*,G1t]-[G2t*,G2t]": two(4.0 * c1t - c2t)})
    for a, b in combinations(names, 2):
        ref[f"[{a},{b}*]-[{b},{a}*]"] = two(comm(fs[a], fs[b].conj().T)
                                            - comm(fs[b], fs[a].conj().T))
    ref["[2G2*,2G2]-[2G1t*,2G1t]"] = two(4.0 * (c2 - c1t))
    return ref


class TestProfileMatchesDense:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(profile_sets())
    def test_every_item_matches_the_dense_reference(self, case):
        kind, fs, q, exact = case
        n = next(iter(fs.values())).shape[0]
        arity = 7 if kind == "gamma7" else 5
        w = WHOLE_SPACE if q is None else Window(0, q)
        fset = FundamentalSet(OperatorTuple(kind, [np.zeros((n, n))] * arity, w), fs, np.inf)
        got = {i.label: i.residual for i in commutator_profile(fset).items}
        comp = {name: f if q is None else q.conj().T @ f @ q for name, f in fs.items()}
        ref = _profile_reference(kind, comp)
        assert list(got) == list(ref)
        scale = max(1.0, *(np.linalg.norm(f, 2) for f in comp.values())) ** 2
        for label, value in ref.items():
            assert abs(got[label] - value) <= 1e-12 * scale, label
            # exact products leave exact zeros; a rounded complex product
            # need not commute to the last bit (numpy's fused multiply-add)
            if value == 0.0 and exact:
                assert got[label] == 0.0, label
        # a pair with a zero member, or of a member and its repeat, is exactly 0.0
        for a, b in combinations(fs, 2):
            if fs[a] is fs[b] or not (fs[a].any() and fs[b].any()):
                assert got[f"[{a},{b}]"] == 0.0, (a, b)


class TestPairsListedOnce:
    """Relation rows (i, j) and (j, i), and the mixed identities of the
    pairs (i, j) and (5 - j, 5 - i), carry equal norms, so each unordered
    pair is listed once; the dropped statements are computed here and match
    their kept partners."""

    @staticmethod
    def _solved(case, request):
        _, tup, _, w = request.getfixturevalue(case)
        return tup, solve_fundamentals(replace(tup, window=w)), w

    @pytest.mark.parametrize("case", ["exam1", "exam3"])
    def test_gamma7_necessary(self, case, request):
        tup, fset, w = self._solved(case, request)
        by = {i.label: i.residual for i in necessary_conditions(fset).items}
        assert len(by) == 6
        kb = fset.defect.kernel_basis
        kw = Window(w.margin, kb @ w.inside(kb))
        t, d = dense_members(tup), fset.defect.form.dense()
        f = [fset[f"F{k+1}"].conj().T for k in range(6)]
        for i in range(3):
            j = 5 - i
            assert by.keys() >= {f"(F{i+1}*D T{i+1} - F{j+1}*D T{j+1})|ker",
                                 f"[F{i+1}*,F{j+1}*]D T7|ker"}
            assert f"[F{j+1}*,F{i+1}*]D T7|ker" not in by
            dropped = kw.wnorm(f[j] @ d @ t[j] - f[i] @ d @ t[i])
            kept = by[f"(F{i+1}*D T{i+1} - F{j+1}*D T{j+1})|ker"]
            assert abs(dropped - kept) <= 1e-12
            dropped = kw.wnorm((f[j] @ f[i] - f[i] @ f[j]) @ d @ t[6])
            assert abs(dropped - by[f"[F{i+1}*,F{j+1}*]D T7|ker"]) <= 1e-12

    @pytest.mark.parametrize("case", ["exam1", "exam3"])
    def test_gamma7_profile(self, case, request):
        _, fset, w = self._solved(case, request)
        by = {i.label: i.residual for i in commutator_profile(fset).items}
        fs = [w.compress(fset[f"F{k+1}"]).dense() for k in range(6)]

        def comm(a, b):
            return a @ b - b @ a

        def mixed(i, j):
            ci, cj = 5 - i, 5 - j
            value = np.linalg.norm(comm(fs[ci].conj().T, fs[j])
                                   - comm(fs[cj].conj().T, fs[i]), 2)
            return f"[F{ci+1}*,F{j+1}]-[F{cj+1}*,F{i+1}]", value

        listed = [(i, j) for i in range(6) for j in range(i + 1, 6)
                  if mixed(i, j)[0] in by]
        assert listed == [(i, j) for i in range(6) for j in range(i + 1, 6)
                          if i + j <= 5]
        for i, j in {(5 - j, 5 - i) for i, j in listed} - set(listed):
            label, value = mixed(i, j)
            assert abs(value - by[mixed(5 - j, 5 - i)[0]]) <= 1e-12, label
        assert len(by) == 15 + len(listed)

    def test_gamma5_profile_drops_quarter_identity(self, exam2):
        _, tup5, _, _, w = exam2
        fset = solve_fundamentals(replace(tup5, window=w))
        by = {i.label: i.residual for i in commutator_profile(fset).items}
        assert "[G2*,G2]-[G1t*,G1t]" not in by and len(by) == 18
        g2, g1t = (w.compress(fset[n]).dense() for n in ("G2", "G1t"))
        quarter = np.linalg.norm(_self_comm(g2) - _self_comm(g1t), 2)
        assert abs(4.0 * quarter - by["[2G2*,2G2]-[2G1t*,2G1t]"]) <= 1e-12


def _scalar_gamma7_dilation(c):
    """The tuple on the whole space, its fundamentals and the isometry
    check of its dilation on the dilation window: the whole base space plus
    the kept copies."""
    from mudilate.dilate import schaffer
    tup = OperatorTuple("gamma7", [np.array([[v]], dtype=complex) for v in c])
    fset = solve_fundamentals(tup)
    return tup, fset, isometry_check(schaffer(fset, 5).tup)


class TestDilationImpliesChecks:
    def test_scalar_conditional_family_gamma7(self):
        # the coordinates of diag(p, q, r), a point of the domain: scalar
        # fundamentals satisfy every hypothesis, the dilation passes the
        # isometry suite and the base tuple passes the chain and the
        # necessary suite
        from mudilate.domains import gamma7_coords
        c = gamma7_coords(np.diag([0.5, -0.3 + 0.2j, 0.4j]))
        tup, fset, rep = _scalar_gamma7_dilation(c)
        assert rep.verdict == "pass"
        assert chain_report(fset).verdict == "pass"
        nec = necessary_conditions(fset)
        assert nec.verdict == "pass"

    def test_scalar_tuple_outside_the_chain_fails_isometry(self):
        # this tuple fails the chain's omega<=1[1,6] and omega<=1[2,5] by
        # 0.125, so it is no Gamma_E(3;3;1,1,1)-contraction; its dilation's
        # members V1, V2, V5, V6 have norm about 1.05 on the window, which
        # the tetrablock-isometry bound ||V_i|| <= 1 rejects
        c = [0.2, -0.15, 0.1, 0.05, 0.3, -0.25, 0.6]
        tup, fset, rep = _scalar_gamma7_dilation(c)
        assert chain_report(fset).verdict == "fail"
        assert rep.verdict == "fail"
        failed = {i.label: i.residual for i in rep.items if not i.passed}
        assert set(failed) == {"||V1||<=1", "||V2||<=1", "||V5||<=1", "||V6||<=1"}
        assert 0.04 < failed["||V1||<=1"] < 0.06

    def test_scalar_conditional_family_gamma5(self):
        c = [0.3, 0.4, 0.5, -0.2, 0.1j]
        ops = [np.array([[v]], dtype=complex) for v in c]
        tup = OperatorTuple("gamma5", ops)
        fset = solve_fundamentals(tup)
        from mudilate.dilate import schaffer
        dil = schaffer(fset, 5)
        rep = isometry_check(dil.tup)
        assert rep.verdict == "pass"
        comm = is_commuting(dil.tup)
        assert comm.verdict == "pass"
        nec = necessary_conditions(fset)
        assert nec.verdict == "pass"

    def test_whole_space_base_window(self):
        # a tuple on the whole space dilates onto the whole base space plus
        # the kept copies: bit for bit the window that the identity window
        # of the base gives, with no margin
        from mudilate.dilate import schaffer
        c = [0.2, -0.15, 0.1, 0.05, 0.3, -0.25, 0.6]
        tup = OperatorTuple("gamma7", [np.array([[v]], dtype=complex) for v in c])
        whole = schaffer(solve_fundamentals(tup), 5)
        eye = schaffer(solve_fundamentals(replace(tup, window=_full(1))), 5)
        assert whole.window().margin is None and eye.window().margin == 0
        got, want = whole.window().basis.dense(), eye.window().basis.dense()
        assert got.shape == (whole.dim, 1 + 3) and got.tobytes() == want.tobytes()
        assert [(i.label, i.residual) for i in isometry_check(whole.tup).items] == \
            [(i.label, i.residual) for i in isometry_check(eye.tup).items]
        assert whole.coextension_residuals() == eye.coextension_residuals()


def _full(dim):
    from mudilate.spaces import Window
    return Window(0, np.eye(dim))


class TestCompactChecksMatchDense:
    """Every item of isometry_check, necessary_conditions and the
    co-extension residuals on the gallery exam3 and exam5 models (trunc 8)
    equals the same formula evaluated here with plain dense numpy, to
    1e-14: a frame-index slip in the compact-form algebra would give a
    wrong but possibly still small, still passing residual."""

    TOL = 1e-14

    @staticmethod
    def _wn(a, q):
        return float(np.linalg.norm(a @ q, 2))

    def _assert_items(self, rep, ref):
        got = {i.label: i.residual for i in rep.items}
        assert set(got) == set(ref)
        for label, value in ref.items():
            assert abs(got[label] - value) <= self.TOL, label

    def _commuting(self, ops, q):
        return max(self._wn(a @ b - b @ a, q)
                   for i, a in enumerate(ops) for b in ops[i + 1:])

    @staticmethod
    def _exam(case_id, perturb=False):
        """The gallery case's tuple, fundamentals, window, dilation and
        dilation window.  Perturbed, every operator but the tuple's pivot
        gains n seeded random entries of size about 0.1 at random places:
        the items then read O(0.1), not 0, and the operands' frames overlap
        in new ways.  The perturbed tuple replaces ``fset.tup`` and
        ``dil.base``, which the checks read.  D stays the defect of the
        pivot, since a set reads it off its tuple."""
        from mudilate.dilate import pentablock_dilation
        from mudilate.gallery import build_exam3, build_exam5
        from mudilate.spaces import auto_margin
        if case_id == "exam3":
            space, tup, _ = build_exam3(0.5, 8)
        else:
            space, tup, _ = build_exam5(0.5, 8)
        w = window(space, auto_margin(space, dense_members(tup)))
        fset = solve_fundamentals(replace(tup, window=w))
        if case_id == "exam3":
            dil = build_exam3_dilation(fset.tup, 4)
        else:
            dil = pentablock_dilation(fset, 4)
        if perturb:
            rng = np.random.default_rng(5)

            def pert(ops):
                out = []
                for o in ops:
                    o, n = o.copy(), o.shape[0]
                    o[rng.integers(n, size=n), rng.integers(n, size=n)] += \
                        0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                    out.append(o)
                return tuple(out)
            p, t = PIVOT[tup.kind], dense_members(tup)
            tup = OperatorTuple(tup.kind, pert(t[:p]) + (tup.forms[p],) + pert(t[p + 1:]), w)
            fset = replace(fset, tup=tup, tol=np.inf,
                           forms=dict(zip(fset.names(), pert([fset[n] for n in fset.names()]))))
            dil = replace(dil, base=tup, forms=tuple(map(_compact, pert(
                [o.dense() for o in dil.forms]))))
        return tup, fset, w, dil, dil.tup.window

    @pytest.mark.parametrize("perturb", [False, True])
    @pytest.mark.parametrize("case_id", ["exam3", "exam5"])
    def test_coextension_residuals(self, case_id, perturb):
        tup, _, w, dil, _ = self._exam(case_id, perturb)
        e, q = np.eye(dil.dim, dil.base_dim), w.basis.dense()
        ref = [self._wn(v.conj().T @ e - e @ t.conj().T, q)
               for v, t in zip((o.dense() for o in dil.forms), dense_members(tup))]
        got = dil.coextension_residuals()
        assert len(got) == len(ref)
        assert max(abs(g - r) for g, r in zip(got, ref)) <= self.TOL

    @pytest.mark.parametrize("perturb", [False, True])
    def test_exam3_isometry_check(self, perturb):
        _, _, _, dil, kw = self._exam("exam3", perturb)
        v, q = [o.dense() for o in dil.forms], kw.basis.dense()
        ref = {"commuting": self._commuting(v, q)}
        for i in range(6):
            j = 5 - i
            ref[f"V{i+1}=V{j+1}*V7"] = self._wn(v[i] - v[j].conj().T @ v[6], q)
            ref[f"||V{i+1}||<=1"] = max(0.0, self._wn(v[i], q) - 1.0)
        ref["V7 isometry"] = self._wn(v[6].conj().T @ v[6] - np.eye(dil.dim), q)
        self._assert_items(isometry_check(dil.tup), ref)

    @pytest.mark.parametrize("perturb", [False, True])
    def test_exam5_isometry_check(self, perturb):
        _, _, _, dil, kw = self._exam("exam5", perturb)
        (r1, r2, r3), q = [o.dense() for o in dil.forms], kw.basis.dense()
        eye = np.eye(dil.dim)
        ref = {
            "commuting": self._commuting((r1, r2, r3), q),
            "R2=R2*R3": self._wn(r2 - r2.conj().T @ r3, q),
            "R3 isometry": self._wn(r3.conj().T @ r3 - eye, q),
            "||R2||<=2": max(0.0, self._wn(r2, q) - 2.0),
            "R1*R1+R2*R2/4=I": self._wn(
                r1.conj().T @ r1 + 0.25 * r2.conj().T @ r2 - eye, q),
        }
        self._assert_items(isometry_check(dil.tup), ref)

    @pytest.mark.parametrize("perturb", [False, True])
    def test_exam3_necessary_conditions(self, perturb):
        tup, fset, w, _, _ = self._exam("exam3", perturb)
        t, d = dense_members(tup), fset.defect.form.dense()
        f = [fset[f"F{i+1}"].conj().T for i in range(6)]
        kb = range_side_kernel(fset.defect, w)
        ref = {}
        for i in range(3):
            j = 5 - i
            ref[f"(F{i+1}*D T{i+1} - F{j+1}*D T{j+1})|ker"] = self._wn(
                f[i] @ d @ t[i] - f[j] @ d @ t[j], kb)
            ref[f"[F{i+1}*,F{j+1}*]D T7|ker"] = self._wn(
                (f[i] @ f[j] - f[j] @ f[i]) @ d @ t[6], kb)
        self._assert_items(necessary_conditions(fset), ref)

    @pytest.mark.parametrize("perturb", [False, True])
    def test_exam5_necessary_conditions(self, perturb):
        tup, fset, w, _, _ = self._exam("exam5", perturb)
        _, p2, p3 = dense_members(tup)
        d, x = fset.defect.form.dense(), fset["X"]
        kb = range_side_kernel(fset.defect, w)
        ref = {"(X D P3 - D P2)|ker": self._wn(x @ d @ p3 - d @ p2, kb)}
        self._assert_items(necessary_conditions(fset), ref)
