import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mudilate.opcore import (OperatorTuple, OpcoreError,
                             NegativeEigenvalueError, NotHermitianError,
                             _compact, _eye, commutator_norms, herm_sqrt,
                             kernel_basis, numerical_radius, op_norm,
                             spectral_radius)
from mudilate.report import operator_from_dict
from mudilate.spaces import Window

from conftest import dense_members, random_contraction, random_supported

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
_seeds = st.integers(0, 2**32 - 1)
_dims = st.integers(1, 8)


def power_iteration_norm(m, iters=2000):
    """Independent oracle for the largest singular value."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(m.shape[1]) + 1j * rng.standard_normal(m.shape[1])
    g = m.conj().T @ m
    for _ in range(iters):
        x = g @ x
        x = x / np.linalg.norm(x)
    return float(np.sqrt(np.real(x.conj() @ g @ x)))


class TestOperator:
    """Operators are plain complex arrays; the entry points that accept a
    matrix reject empty, non-finite and non-2-D input."""

    BAD = (np.zeros((0, 2)), [[np.nan, 0], [0, 1]], np.zeros(3))

    def test_rejects_bad_input(self):
        for bad in self.BAD:
            with pytest.raises(OpcoreError):
                op_norm(bad)
            with pytest.raises(OpcoreError):
                OperatorTuple("sym", (bad, bad))
        for payload in ({"rows": 0, "cols": 2, "data": []},
                        {"rows": 2, "cols": 2,
                         "data": [[np.nan, 0], [0, 0], [0, 0], [1, 0]]},
                        {"rows": 1, "cols": 1, "data": [[np.inf, 0]]}):
            with pytest.raises(ValueError):
                operator_from_dict(payload)


class TestOpNorm:
    def test_identity(self):
        assert op_norm(np.eye(3)) == pytest.approx(1.0)

    def test_rank_one(self):
        assert op_norm([[0, 0.5], [0, 0]]) == pytest.approx(0.5)

    def test_against_power_iteration(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        assert op_norm(a) == pytest.approx(power_iteration_norm(a), abs=1e-10)

    def test_submultiplicative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            assert op_norm(a @ b) <= op_norm(a) * op_norm(b) + 1e-9
            assert op_norm(a.conj().T) == pytest.approx(op_norm(a))


class TestHermSqrt:
    def test_diagonal(self):
        s = herm_sqrt(np.diag([4.0, 1.0])).dense()
        np.testing.assert_allclose(s, np.diag([2.0, 1.0]), atol=1e-12)

    def test_projection_is_fixed(self):
        q = np.zeros((3, 3))
        q[:2, :2] = 0.5
        s = herm_sqrt(q).dense()
        np.testing.assert_allclose(s, q, atol=1e-12)

    def test_square_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            h = b @ b.conj().T
            s = herm_sqrt(h).dense()
            np.testing.assert_allclose(s @ s, h, atol=1e-9)
            assert np.linalg.eigvalsh(s).min() >= -1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            herm_sqrt([[0, 1], [0, 0]])

    def test_rejects_indefinite_naming_eigenvalue(self):
        with pytest.raises(NegativeEigenvalueError) as exc:
            herm_sqrt(np.diag([1.0, -0.5]))
        assert "-0.5" in str(exc.value) or "-5" in str(exc.value)

    def test_clamps_tiny_negative(self):
        s = herm_sqrt(np.diag([1.0, -5e-11])).dense()
        assert s[1, 1] == 0.0


class TestSpectralRadius:
    def test_nilpotent(self):
        assert spectral_radius([[0, 1], [0, 0]]) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_radius(np.diag([0.3, 0.9])) == pytest.approx(0.9)

    def test_rejects_rectangular(self):
        with pytest.raises(OpcoreError):
            spectral_radius(np.zeros((2, 3)))

    def test_exam1_summed_pairs_bounded(self, exam1):
        # oracle: characteristic-polynomial roots of the windowed matrix
        space, tup, _, w = exam1
        t = dense_members(tup)
        for i in range(3):
            s = t[i] + t[5 - i]
            sw = w.compress(s).dense()
            r = spectral_radius(sw)
            assert r <= 2.0 + 1e-9
            roots = np.roots(np.poly(sw))
            assert r == pytest.approx(float(np.abs(roots).max()), abs=1e-7)


class TestNumericalRadius:
    def test_jordan_cell(self):
        assert numerical_radius([[0, 1], [0, 0]]) == pytest.approx(0.5, abs=1e-8)

    def test_identity(self):
        assert numerical_radius(np.eye(4)) == pytest.approx(1.0, abs=1e-10)

    def test_against_unit_vector_sampling(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = rng.integers(2, 6)
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            w = numerical_radius(a)
            best = 0.0
            for _ in range(4000):
                x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                x /= np.linalg.norm(x)
                best = max(best, abs(x.conj() @ a @ x))
            assert best - 1e-9 <= w <= op_norm(a) + 1e-12

    def test_diagonal_lower_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            assert numerical_radius(a) >= np.abs(np.diag(a)).max() - 1e-8

    def test_peak_memory_bounded(self):
        # eight angles per eigvalsh batch and a 2n x 2n pencil keep the peak
        # near 26 n^2 complex entries; a 720-angle stack needs over 1400 n^2
        n = 128
        rng = np.random.default_rng(12)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        tracemalloc.start()
        try:
            numerical_radius(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * n * n * np.dtype(complex).itemsize

    def test_exam1_fundamental_combination(self, exam1):
        space, tup, expected_f, w = exam1
        fa = w.compress(expected_f["F1"]).dense()
        fb = w.compress(expected_f["F6"]).dense()
        assert numerical_radius(fa + 1j * fb) <= 1.0 + 1e-8


class TestKernelBasis:
    def test_zero_matrix(self):
        k = kernel_basis(np.zeros((3, 3)))
        assert k.shape[1] == 3

    def test_full_rank(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5)) + np.eye(5) * 4
        assert kernel_basis(a).shape[1] == 0

    def test_exam1_defect_kernel_is_third_summand(self, exam1):
        space, tup, _, w = exam1
        from mudilate.fundamentals import defect
        dd = defect(dense_members(tup)[6])
        k = kernel_basis(dd.form.dense())
        # every kernel vector lives in the third summand
        n = space.total_dim // 3  # three equal summands
        sl = slice(2 * n, 3 * n)
        outside = k.copy()
        outside[sl] = 0.0
        assert np.linalg.norm(outside, 2) <= 1e-12
        assert k.shape[1] == space.summands[2][1] - 2

    def test_orthogonal_to_row_space(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 6))
        k = kernel_basis(a)
        for col in k.T:
            assert np.linalg.norm(a @ col) <= 1e-10


class TestTupleAndSubspace:
    def test_arity_enforced(self):
        ops = [np.eye(2)] * 6
        with pytest.raises(OpcoreError):
            OperatorTuple("gamma7", ops)


class TestInequalityChain:
    def test_r_omega_norm_sample(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r, w, nn = spectral_radius(a), numerical_radius(a), op_norm(a)
            assert r <= w + 1e-8
            assert w <= nn + 1e-8


def _assert_form(f, ref):
    """``f`` holds the nonzeros of ``ref`` sorted by (row, col) with unique
    keys and no stored zeros, and densifies to it."""
    key = f.i * f.shape[1] + f.j
    assert f.shape == ref.shape
    assert (np.diff(key) > 0).all() and f.v.all()
    assert np.array_equal(f.dense(), ref)


def _expands(a, b):
    """Whether ``a @ b`` takes the expansion: its terms are no more than
    the entries of the two operands, or than those of the product of the
    two support blocks."""
    terms = sum(np.count_nonzero(b.i == k) for k in a.j)
    return (terms <= len(a.v) + len(b.v)
            or terms <= len(np.unique(a.i)) * len(np.unique(b.j)))


class TestSupportKernels:
    """Norms and the coordinate-form algebra read only the nonzeros of their
    operands; against dense references computed here they agree to 1e-12
    relative to the operands' norms, and they are exactly zero where the
    dense result is."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (6, 6)])
    def test_zero_matrix_has_zero_norm(self, shape):
        got = op_norm(np.zeros(shape))
        assert got == 0.0 and isinstance(got, float)
        got = op_norm(_compact(np.zeros(shape)))
        assert got == 0.0 and isinstance(got, float)

    def test_one_by_one(self):
        assert op_norm([[3.0 - 4.0j]]) == 5.0
        prod = _compact([[2.0j]]) @ _compact([[0.5]])
        assert prod.dense()[0, 0] == 1.0j
        assert not (_compact(np.zeros((1, 1))) @ _compact([[7.0]])).dense().any()
        assert _compact([[2.0j]]).H.dense()[0, 0] == -2.0j

    def test_compact_form_holds_sorted_nonzeros(self):
        m = np.zeros((4, 5), dtype=complex)
        m[3, 0], m[1, 3], m[1, 1] = 1.0j, 2.0, -0.0
        f = _compact(m)
        assert f.i.tolist() == [1, 3] and f.j.tolist() == [3, 0]
        assert f.v.tolist() == [2.0, 1.0j]
        _assert_form(f, m)

    def test_form_passes_through_compact(self):
        f = _compact(np.eye(5))
        assert _compact(f) is f

    def test_numpy_operands_do_not_absorb_a_form(self):
        with pytest.raises(TypeError):
            np.eye(2) @ _compact(np.eye(2))

    @SETTINGS
    @given(_dims, _dims, _seeds)
    def test_op_norm_matches_dense(self, rows, cols, seed):
        m = random_supported(np.random.default_rng(seed), rows, cols)
        _assert_form(_compact(m), m)
        ref = np.linalg.norm(m, 2)
        for got in (op_norm(m), op_norm(_compact(m))):
            assert abs(got - ref) <= 1e-12 * ref
            if ref == 0.0:
                assert got == 0.0

    @SETTINGS
    @given(_dims, _dims, _dims, st.booleans(), st.booleans(), _seeds)
    def test_prod_matches_dense(self, rows, inner, cols, adj_a, adj_b, seed):
        """Products of coordinate forms, with either factor an adjoint,
        match the dense product and are exactly zero where it is."""
        rng = np.random.default_rng(seed)
        a = random_supported(rng, *((inner, rows) if adj_a else (rows, inner)))
        b = random_supported(rng, *((cols, inner) if adj_b else (inner, cols)))
        fa, fb = _compact(a), _compact(b)
        if adj_a:
            a, fa = a.conj().T, fa.H
        if adj_b:
            b, fb = b.conj().T, fb.H
        _assert_form(fa, a)
        _assert_form(fb, b)
        ref = a @ b
        prod = fa @ fb
        got = prod.dense()
        assert got.shape == ref.shape
        scale = np.linalg.norm(a, 2) * np.linalg.norm(b, 2)
        assert np.abs(got - ref).max() <= 1e-12 * scale
        assert not got[ref == 0].any()
        _assert_form(prod, got)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("expand", [True, False])
    def test_prod_strategies_match_dense(self, expand, seed):
        """Both sides of the cost rule of ``@``: weighted partial
        permutations with a few extra entries take the expansion, dense
        blocks on a coordinate subset the BLAS product."""
        rng = np.random.default_rng(seed)
        n = 30

        def draw():
            m = np.zeros((n, n), dtype=complex)
            if expand:
                m[rng.permutation(n)[:n - 3], rng.permutation(n)[:n - 3]] = \
                    rng.standard_normal(n - 3)
                m[rng.integers(n, size=4), rng.integers(n, size=4)] += 1.0j
            else:
                keep = np.ix_(rng.uniform(size=n) < 0.7, rng.uniform(size=n) < 0.7)
                m[keep] = rng.standard_normal(m[keep].shape)
            return m

        a, b = draw(), draw()
        fa, fb = _compact(a), _compact(b)
        for x, y, fx, fy in ((a, b, fa, fb), (a.conj().T, b, fa.H, fb),
                             (a, b.conj().T, fa, fb.H)):
            assert _expands(fx, fy) == expand
            ref = x @ y
            prod = fx @ fy
            assert np.abs(prod.dense() - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
            assert not prod.dense()[ref == 0].any()
            _assert_form(prod, prod.dense())

    def test_dense_product_peak_memory(self):
        """The product of two dense 300 x 300 forms takes the BLAS product
        and peaks below four 300 x 300 complex arrays."""
        rng = np.random.default_rng(3)
        fa, fb = (_compact(rng.standard_normal((300, 300))) for _ in range(2))
        tracemalloc.start()
        try:
            fa @ fb
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 300 * 300 * np.dtype(complex).itemsize

    @SETTINGS
    @given(_dims, _dims, _seeds)
    def test_sum_and_difference_on_union_frame(self, rows, cols, seed):
        """Sums, differences and scalar multiples are entrywise exact and
        hold nonzeros only on the union of the operands' nonzeros."""
        rng = np.random.default_rng(seed)
        a, b = random_supported(rng, rows, cols), random_supported(rng, rows, cols)
        fa, fb = _compact(a), _compact(b)
        union = set(zip(fa.i, fa.j)) | set(zip(fb.i, fb.j))
        for got, ref in ((fa - fb, a - b), (fa + fb, a + b),
                         (fa - 2.0 * fb, a - 2.0 * b)):
            _assert_form(got, ref)
            assert set(zip(got.i, got.j)) <= union

    @SETTINGS
    @given(st.integers(1, 8), _seeds)
    def test_norms_of_compact_forms(self, n, seed):
        """op_norm and Window.wnorm of a compact residual match the dense
        norms, on a random window and a coordinate one."""
        rng = np.random.default_rng(seed)
        a, b = random_supported(rng, n, n), random_supported(rng, n, n)
        f = _compact(a) @ _compact(b).H - _compact(b)
        ref = a @ b.conj().T - b
        scale = max(1.0, np.linalg.norm(a, 2)) * max(1.0, np.linalg.norm(b, 2))
        assert abs(op_norm(f) - np.linalg.norm(ref, 2)) <= 1e-12 * scale
        k = int(rng.integers(1, n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        for w in (Window(0, q), Window(0, np.eye(n)[:, :k])):
            wq = w.basis.dense()
            assert abs(w.wnorm(f) - np.linalg.norm(ref @ wq, 2)) <= 1e-12 * scale
            assert np.abs(w.compress(f).dense() - wq.conj().T @ ref @ wq).max() <= 1e-12 * scale

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fill", [1, 40])
    def test_window_strategies_match_dense(self, fill, seed):
        """Window.wnorm and compress on both sides of the form product's
        cost rule: ``fill`` nonzeros per row of a 60 x 60 operand, seen
        through a random window and a coordinate one."""
        rng = np.random.default_rng(seed)
        n, k = 60, 25
        m = np.zeros((n, n), dtype=complex)
        for r in rng.permutation(n)[:50]:
            m[r, rng.permutation(n)[:fill]] = rng.standard_normal(fill) + 1j
        q, _ = np.linalg.qr(rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k)))
        for w in (Window(0, q), Window(0, np.eye(n)[:, rng.permutation(n)[:k]])):
            wq = w.basis.dense()
            for a in (m, _compact(m).H):
                ref = a if isinstance(a, np.ndarray) else a.dense()
                scale = np.linalg.norm(ref, 2)
                assert abs(w.wnorm(a) - np.linalg.norm(ref @ wq, 2)) <= 1e-12 * scale
                got = w.compress(a).dense()
                assert np.abs(got - wq.conj().T @ ref @ wq).max() <= 1e-12 * scale

    @SETTINGS
    @given(st.integers(1, 8), _seeds)
    def test_cancelling_residuals_are_exactly_zero(self, n, seed):
        """Residuals that cancel entrywise, on a sparse or a full-support
        frame, have norm exactly 0.0 through both norms."""
        rng = np.random.default_rng(seed)
        a = _compact(random_supported(rng, n, n))
        eye = _eye(n)
        _assert_form(eye, np.eye(n))
        # b lives on the coordinates a leaves out, so ab = ba = 0
        b = random_supported(rng, n, n)
        used = np.union1d(a.i, a.j)
        b[used] = 0.0
        b[:, used] = 0.0
        b = _compact(b)
        w = Window(0, np.eye(n))
        for res in (a @ a - a @ a, a @ eye - eye @ a, a @ b - b @ a,
                    eye.H @ eye - eye, a - a):
            assert len(res.v) == 0
            assert op_norm(res) == 0.0 and w.wnorm(res) == 0.0

    @SETTINGS
    @given(_dims, st.integers(2, 4), _seeds)
    def test_commutator_norms_match_dense(self, n, count, seed):
        rng = np.random.default_rng(seed)
        ops = [random_supported(rng, n, n) for _ in range(count)]
        got = commutator_norms(ops)
        ref = [((i, j), np.linalg.norm(ops[i] @ ops[j] - ops[j] @ ops[i], 2))
               for i in range(count) for j in range(i + 1, count)]
        assert [p for p, _ in got] == [p for p, _ in ref]
        for ((i, j), g), (_, r) in zip(got, ref):
            scale = np.linalg.norm(ops[i], 2) * np.linalg.norm(ops[j], 2)
            assert abs(g - r) <= 1e-12 * scale
            if r == 0.0:
                assert g == 0.0
