"""Coordinate forms owned by the objects that hold the operators: a tuple,
a defect and a fundamental set carry the forms of their arrays, read once;
each tuple's commutator table is formed once, on its window; no gallery case
reads the same dense array over and over; and no gallery operator is ever a
dense array of the base dimension."""

import sys
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mudilate.fundamentals as fundamentals
import mudilate.gallery as gallery
import mudilate.opcore as opcore
from mudilate.fundamentals import OperatorTuple, solve_fundamentals
from mudilate.opcore import WHOLE_SPACE, _compact, _nonzeros, commutator_norms, op_norm
from mudilate.spaces import Window, auto_margin, window
from mudilate.verify import is_commuting

from conftest import dense_members, random_supported

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


def _assert_same_form(form, m):
    """``form`` holds exactly the (i, j, v) that ``_compact`` reads off m."""
    ref = _compact(np.asarray(m, dtype=complex))
    assert form.shape == ref.shape
    for got, want in ((form.i, ref.i), (form.j, ref.j), (form.v, ref.v)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _solved(case_id):
    builders = {"exam1": lambda: gallery.build_exam1(8)[:2],
                "exam2": lambda: gallery.build_exam2(8)[:2],
                "exam3": lambda: gallery.build_exam3(0.5, 8)[:2],
                "exam5": lambda: gallery.build_exam5(0.5, 8)[:2]}
    space, tup = builders[case_id]()
    w = window(space, auto_margin(space, dense_members(tup)))
    return solve_fundamentals(replace(tup, window=w))


@pytest.mark.parametrize("case_id", ["exam1", "exam2", "exam3", "exam5"])
def test_stored_forms_equal_the_forms_of_the_arrays(case_id):
    fset = _solved(case_id)
    tup = fset.tup
    arrays = [o.copy() for o in dense_members(tup)]
    assert len(tup.forms) == len(arrays)
    # a tuple built from arrays stores their forms, and the gallery tuple,
    # built as forms, holds the same ones (sorted keys, no stored zeros)
    for form, m in zip(OperatorTuple(tup.kind, arrays).forms, arrays):
        _assert_same_form(form, m)
    for form, m in zip(tup.forms, arrays):
        _assert_same_form(form, m)
    _assert_same_form(fset.defect.form, fset.defect.form.dense())
    for name in fset.names():
        _assert_same_form(fset.forms[name], fset[name])


def test_repeated_members_share_one_form_read_once():
    _, tup, _ = gallery.build_exam3(0.5, 8)  # (A, A, 0, A, 0, 0, P)
    f = tup.forms
    assert f[0] is f[1] is f[3] and f[2] is f[4] is f[5]
    assert len({id(x) for x in f}) == 3
    assert tup.forms is f  # read once, when the tuple is built


def test_forms_follow_replaced_arrays():
    # a replaced tuple or fundamental set reads its new arrays
    fset = _solved("exam5")
    scaled = {n: 0.5 * fset[n] for n in fset.names()}
    fresh = replace(fset, forms=scaled, tol=np.inf)
    for name in fresh.names():
        _assert_same_form(fresh.forms[name], scaled[name])
    doubled = tuple(2.0 * o for o in dense_members(fset.tup))
    tup = replace(fset.tup, forms=doubled)
    for form, m in zip(tup.forms, doubled):
        _assert_same_form(form, m)


@st.composite
def sparse_tuple(draw):
    """A gamma7 tuple of random sparse members of dimension 1-6, some of
    them zero and some repeated (the same array in several slots)."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = [random_supported(rng, n, n) for _ in range(draw(st.integers(1, 4)))]
    pool.append(np.zeros((n, n), dtype=complex))
    slots = draw(st.lists(st.integers(0, len(pool) - 1), min_size=7, max_size=7))
    k = draw(st.integers(0, n))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return OperatorTuple("gamma7", [pool[s] for s in slots]), Window(0, q[:, :k])


@SETTINGS
@given(sparse_tuple())
def test_commutator_table_matches_dense_reference(case):
    tup, w = case
    n = tup.dim
    for win, q in ((WHOLE_SPACE, np.eye(n)), (w, w.basis.dense())):
        table = replace(tup, window=win).commutators
        assert table == commutator_norms(dense_members(tup), win)
        ops = dense_members(tup)
        for (i, j), got in table:
            ref = np.linalg.norm((ops[i] @ ops[j] - ops[j] @ ops[i]) @ q, 2)
            assert abs(got - ref) <= 1e-12 * max(1.0, np.linalg.norm(ops[i], 2)
                                                 * np.linalg.norm(ops[j], 2))
            if ops[i] is ops[j] or not ops[i].any() or not ops[j].any():
                assert got == 0.0


def test_table_formed_once_per_tuple(monkeypatch):
    calls = []

    def counting(ops, window=WHOLE_SPACE):
        calls.append(window)
        return commutator_norms(ops, window)

    monkeypatch.setattr(fundamentals, "commutator_norms", counting)
    _, tup, _ = gallery.build_exam3(0.5, 8)
    w = Window(0, np.eye(tup.dim))
    on_w = replace(tup, window=w)
    first = is_commuting(on_w)
    assert on_w.commutators is on_w.commutators
    assert is_commuting(on_w).to_dict() == first.to_dict()
    solve_fundamentals(on_w)  # its commutation refusal reads the same table
    assert len(calls) == 1 and calls[0] is w
    tup.commutators  # the tuple on the whole space: a table of its own
    assert len(calls) == 2 and calls[1] is WHOLE_SPACE
    # the window is fixed with the tuple, so its table cannot go stale
    with pytest.raises(FrozenInstanceError):
        on_w.window = WHOLE_SPACE


@pytest.mark.parametrize("case_id,expected",
                         [("exam1", 1), ("exam2", 1), ("exam3", 2), ("exam5", 2)])
def test_one_commutator_table_per_tuple_and_window(monkeypatch, case_id, expected):
    # exam1 and exam2: the tuple on its window (pushforward checks no
    # commutation); exam3 and exam5: the tuple and the dilation, each on its
    # own window
    seen = []  # holds each call's forms and window, so their ids stay unique

    def counting(ops, window=WHOLE_SPACE):
        seen.append((ops, window))
        return commutator_norms(ops, window)

    monkeypatch.setattr(fundamentals, "commutator_norms", counting)
    gallery.run_example(gallery.GalleryCase(case_id, dict(trunc=8)))
    assert len(seen) == expected
    assert len({(tuple(map(id, ops)), id(w)) for ops, w in seen}) == expected


# dense arrays each case reads: since the builders lay out forms, only
# block-sized ones (exam3's symbol; exam5's symbol, its level-0 damping block
# and the dilation's damping block, square roots taken by a dense kernel)
DISTINCT_READS = {"exam1": 0, "exam2": 0, "exam3": 1, "exam5": 3}


@pytest.mark.parametrize("case_id", sorted(DISTINCT_READS))
def test_dense_reads_per_case(monkeypatch, case_id):
    calls, reads = [], []
    original = opcore._compact

    def counting(x):
        calls.append(x)
        if not isinstance(x, opcore._Block):
            reads.append(x)
        return original(x)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mudilate") and mod is not None \
                and getattr(mod, "_compact", None) is original:
            monkeypatch.setattr(mod, "_compact", counting)
    gallery.run_example(gallery.GalleryCase(case_id, dict(trunc=16)))
    # the spy is called (with forms) though exam1 and exam2 read no array
    assert calls and len(reads) <= DISTINCT_READS[case_id]


@pytest.mark.parametrize("case_id", ["exam1", "exam2", "exam3", "exam5"])
def test_gallery_operators_are_forms_from_birth(monkeypatch, case_id):
    # the builders, pushforwards and dilations lay their blocks out as forms
    # (spaces.block_assemble), so no array of the base dimension is ever read
    # for its nonzeros; only block-sized arrays (symbols, defect compressions) are
    case = gallery.GalleryCase(case_id, dict(trunc=16))
    n = gallery._OPERATOR_CASES[case_id].build(case.params)[1].dim
    shapes = []
    original = opcore._nonzeros

    def spy(m):
        shapes.append(m.shape)
        return original(m)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mudilate") and mod is not None \
                and getattr(mod, "_nonzeros", None) is original:
            monkeypatch.setattr(mod, "_nonzeros", spy)
    gallery.run_example(case)
    read = list(shapes)
    opcore._compact(np.ones((n, n)))  # control: the spy sees a base-dimension read
    assert shapes[-1] == (n, n)
    assert all(n not in shape for shape in read), (n, sorted(set(read)))


@pytest.mark.parametrize("shape", [(1, 1), (3, 5), (6, 2), (7, 7), (3, 0), (0, 4), (0, 0)])
def test_svd_norm_is_numpy_two_norm(shape):
    # op_norm takes the largest singular value of a form's support block
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = op_norm(_nonzeros(x))
    assert isinstance(got, float)
    assert got == float(np.linalg.norm(x, 2))
    if 0 in shape:
        assert got == 0.0
