import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mudilate.opcore import OpcoreError, _Block, _nonzeros, op_norm
from mudilate.spaces import (ModelSpace, Window, auto_margin, block_assemble,
                             embed_blocks, hardy_shift, window)

from conftest import dense_members, random_supported


class TestHardyShift:
    def test_scalar_fiber(self):
        m = hardy_shift(1, 3).dense()
        np.testing.assert_allclose(m, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])

    def test_norm_one(self):
        for t in (2, 3, 5, 9):
            assert op_norm(hardy_shift(1, t)) == pytest.approx(1.0)
            assert op_norm(hardy_shift(3, t)) == pytest.approx(1.0)

    def test_isometry_off_top_level(self):
        m = hardy_shift(2, 6).dense()
        g = m.conj().T @ m
        np.testing.assert_allclose(g[:10, :10], np.eye(10), atol=1e-14)
        # top level maps to zero
        np.testing.assert_allclose(g[10:, 10:], 0, atol=1e-14)

    def test_co_isometry_defect_is_level_zero(self):
        m = hardy_shift(1, 5).dense()
        mmstar = m @ m.conj().T
        e0 = np.zeros((5, 5))
        e0[0, 0] = 1.0
        np.testing.assert_allclose(mmstar, np.eye(5) - e0, atol=1e-14)

    def test_requires_two_levels(self):
        with pytest.raises(OpcoreError):
            hardy_shift(1, 1)


class TestWindow:
    def test_margin_zero_is_identity(self):
        sp = ModelSpace(((2, 4),))
        w = window(sp, 0)
        np.testing.assert_allclose(w.basis.dense(), np.eye(8))

    def test_rank(self):
        sp = ModelSpace(((1, 8),))
        assert window(sp, 2).dim == 6

    def test_windowed_shift_identity_exact(self):
        sp = ModelSpace(((1, 8),))
        m = hardy_shift(1, 8).dense()
        gap = m.conj().T @ m - np.eye(8)
        assert window(sp, 1).wnorm(gap) == 0.0
        assert op_norm(gap) == pytest.approx(1.0)

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(OpcoreError):
            Window(0, np.ones((3, 2)))

    def test_zero_rows_do_not_hide_a_non_orthonormal_basis(self):
        # the check reads only the nonzero rows; zero rows must not change it
        q = np.zeros((9, 2))
        q[[1, 4, 6]] = np.ones((3, 2)) / np.sqrt(3.0)
        with pytest.raises(OpcoreError):
            Window(0, q)
        q[[1, 4, 6], 1] = [1.0, -1.0, 0.0] / np.sqrt(2.0)
        assert Window(0, q).dim == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("as_form", [False, True])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rejects_non_finite_basis(self, bad, as_form):
        # a non-finite basis gives a NaN gap (inf * 0), which compares False
        # against any bound, so the check must refuse it rather than pass it
        q = np.array([[bad], [0.0]])
        with pytest.raises(OpcoreError, match="orthonormal"):
            Window(0, _nonzeros(q) if as_form else q)

    def test_margin_too_large(self):
        with pytest.raises(OpcoreError):
            window(ModelSpace(((1, 4),)), 4)

    def test_word_exactness_for_banded_words(self):
        # any word of shifts/adjoints of total level shift <= margin agrees
        # with the infinite model on the window
        rng = np.random.default_rng(6)
        big, small = 24, 8
        mb, ms = hardy_shift(1, big).dense(), hardy_shift(1, small).dense()
        sp = ModelSpace(((1, small),))
        for _ in range(25):
            word = rng.integers(0, 2, size=4)
            wb = np.eye(big)
            ws = np.eye(small)
            for c in word:
                wb = wb @ (mb if c else mb.conj().T)
                ws = ws @ (ms if c else ms.conj().T)
            w = window(sp, 4)
            q = w.basis.dense()
            np.testing.assert_allclose(ws @ q, (wb @ np.eye(big, small) @ q)[:small],
                                       atol=1e-12)


SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def block_maps(draw, full=False):
    """Random row block sizes ``dims``, column block sizes ``cols`` (None: the
    square layout of ``dims``; else some may be 0) and a {(i, j): block} map
    on them, with the dense array of each block.  A drawn cell holds a random
    array, its form or a zero block, or repeats an earlier block of its shape
    (one object in several cells); a block without entries is a form, since
    an array must have positive dimensions.  The other cells are absent, or,
    if ``full``, every cell is drawn, in a drawn order."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    cols = draw(st.none() | st.lists(st.integers(0, 4), min_size=1, max_size=5))
    widths = dims if cols is None else cols
    if full:
        keys = draw(st.permutations([(i, j) for i in range(len(dims))
                                     for j in range(len(widths))]))
    else:
        keys = sorted(draw(st.sets(st.tuples(st.integers(0, len(dims) - 1),
                                             st.integers(0, len(widths) - 1)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells, arrays, pool = {}, {}, {}
    for i, j in keys:
        shape = (dims[i], widths[j])
        if shape in pool and draw(st.booleans()):
            cells[i, j], arrays[i, j] = pool[shape]
            continue
        how = draw(st.sampled_from(("array", "form", "zero")))
        a = random_supported(rng, *shape) if how != "zero" else np.zeros(shape, dtype=complex)
        blk = _nonzeros(a) if how == "form" or not a.size else a
        cells[i, j], arrays[i, j] = pool[shape] = blk, a
    return dims, cols, cells, arrays


def _dense_layout(arrays, dims, cols):
    """The reference: each array written into its slice of a zero matrix."""
    ro = np.concatenate([[0], np.cumsum(dims)])
    co = np.concatenate([[0], np.cumsum(dims if cols is None else cols)])
    out = np.zeros((ro[-1], co[-1]), dtype=complex)
    for (i, j), a in arrays.items():
        out[ro[i]:ro[i + 1], co[j]:co[j + 1]] = a
    return out


def _assert_layout(dims, cols, cells, arrays):
    out = block_assemble(cells, dims, cols)
    ref = _dense_layout(arrays, dims, cols)
    assert isinstance(out, _Block) and out.shape == ref.shape
    np.testing.assert_array_equal(out.dense(), ref)
    # a valid form: keys sorted and unique, no stored zeros
    key = out.i * out.shape[1] + out.j
    assert (np.diff(key) > 0).all() and out.v.all()


class TestBlockAssemble:
    def test_direct_sum(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[3.0]])
        out = block_assemble({(0, 0): a, (1, 1): b}, [2, 1])
        np.testing.assert_allclose(out.dense(), np.diag([1.0, 2.0, 3.0]))

    @SETTINGS
    @given(block_maps())
    def test_blocks_land_at_offsets(self, case):
        _assert_layout(*case)

    @SETTINGS
    @given(block_maps(full=True))
    def test_cells_sharing_rows(self, case):
        # every cell drawn, in any order: the cells of a block row share its
        # rows, so the layout interleaves them by a sort of the rows
        _assert_layout(*case)

    @SETTINGS
    @given(block_maps())
    def test_adjoint_property(self, case):
        dims, cols, cells, arrays = case
        adj = {(j, i): blk.H if isinstance(blk, _Block) else blk.conj().T
               for (i, j), blk in cells.items()}
        widths = dims if cols is None else cols
        np.testing.assert_array_equal(block_assemble(adj, widths, dims).dense(),
                                      _dense_layout(arrays, dims, cols).conj().T)

    @SETTINGS
    @given(block_maps(), st.data())
    def test_mismatch_names_cell(self, case, data):
        dims, cols, cells, _ = case
        widths = dims if cols is None else cols
        i = data.draw(st.integers(0, len(dims) - 1))
        j = data.draw(st.integers(0, len(widths) - 1))
        bad = data.draw(st.sampled_from(("array", "form")))
        wrong = np.ones((dims[i] + 1, widths[j] + 1))
        cells[i, j] = _nonzeros(wrong) if bad == "form" else wrong
        with pytest.raises(OpcoreError, match=rf"block \({i},{j}\) has shape"):
            block_assemble(cells, dims, cols)
        cells[i, j] = _nonzeros(np.ones((dims[i], widths[j])))
        for cell in ((len(dims), j), (i, len(widths)), (-1, j)):
            cells[cell] = np.ones((1, 1))
            with pytest.raises(OpcoreError, match=rf"block \({cell[0]},{cell[1]}\) lies outside"):
                block_assemble(cells, dims, cols)
            del cells[cell]

    def test_exam1_first_member_matches_hand_built(self, exam1):
        space, tup, _, _ = exam1
        n = space.summands[0][1]
        hand = np.zeros((3 * n, 3 * n), dtype=complex)
        hand[0:n, n:2 * n] = np.eye(n)
        hand[n:2 * n, 2 * n:3 * n] = np.eye(n)
        np.testing.assert_allclose(dense_members(tup)[0], hand)

    def test_embed_blocks_zero_rows_need_dims(self):
        # the second block row is empty; its size comes from the space
        sp = ModelSpace(((1, 4), (1, 4)))
        out = embed_blocks(sp, {(0, 1): np.eye(4)}).dense()
        assert out.shape[0] == 8
        np.testing.assert_allclose(out[:4, 4:], np.eye(4))


class TestAutoMargin:
    def test_measured_on_model_space(self, exam1):
        space, tup, _, _ = exam1
        assert auto_margin(space, dense_members(tup)) == 4
        m = hardy_shift(1, 6)
        sp = ModelSpace(((1, 6),))
        assert auto_margin(sp, [m, m @ m]) == 4
        assert auto_margin(sp, [np.eye(6)]) == 0

    def test_operator_from_plain_matrix(self):
        sp = ModelSpace(((1, 6),))
        assert auto_margin(sp, [hardy_shift(1, 6)]) == 2


class TestModelSpace:
    def test_total_dim(self):
        sp = ModelSpace(((2, 8), (1, 4)))
        assert sp.total_dim == 20

    def test_levels(self):
        sp = ModelSpace(((1, 3), (2, 2)))
        np.testing.assert_array_equal(sp.levels(), [0, 1, 2, 0, 0, 1, 1])

    def test_level_mask(self):
        sp = ModelSpace(((1, 4), (2, 3)))
        mask = sp.level_mask(1)
        assert mask.tolist() == [True] * 3 + [False] + [True] * 4 + [False] * 2

    def test_rejects_bad_summands(self):
        with pytest.raises(OpcoreError):
            ModelSpace(((0, 4),))
