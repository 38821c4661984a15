"""Windows and defect bases as coordinate forms: the form algebra of
``Window`` against dense numpy references, the diagonal path of ``defect``
against a dense ``eigh`` reference, and the gallery's windows and defects,
which are coordinate selections made without an ``eigh``."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mudilate.fundamentals as fundamentals
import mudilate.spaces as spaces
from mudilate.fundamentals import PIVOT, ExpansiveError, defect
from mudilate.gallery import (CASE_IDS, GalleryCase, build_exam1, build_exam3,
                              build_exam3_dilation, build_exam5, run_example)
from mudilate.opcore import OpcoreError, _Block, _compact
from mudilate.spaces import Window

from conftest import random_contraction, random_supported

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
REFUSAL = "^window basis columns must be orthonormal to 1e-12$"


def _norm(x) -> float:
    return float(np.linalg.norm(x, 2)) if x.size else 0.0


def _basis(rng, n, how):
    """An n x k orthonormal basis: no columns, every coordinate, a shuffled
    coordinate selection or a random dense one."""
    k = int(rng.integers(1, n + 1))
    if how == "empty":
        return np.zeros((n, 0))
    if how == "full":
        return np.eye(n)
    if how == "shuffled":
        return np.eye(n)[:, rng.permutation(n)[:k]]
    z = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return np.linalg.qr(z)[0]


@st.composite
def windowed_pair(draw):
    """Random sparse A and B, a window basis Q and a subspace basis S."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(("empty", "full", "shuffled", "dense"))
    q = _basis(rng, n, draw(kinds))
    s = _basis(rng, n, draw(kinds.filter(lambda h: h != "empty")))
    return random_supported(rng, n, n), random_supported(rng, n, n), q, s


@SETTINGS
@given(windowed_pair())
def test_window_forms_match_dense_reference(case):
    a, b, q, s = case
    w = Window(0, q)
    assert isinstance(w.basis, _Block) and w.dim == q.shape[1]
    scale = max(1.0, _norm(a), _norm(b))
    assert abs(w.wnorm(a) - _norm(a @ q)) <= 1e-12 * scale
    assert abs(w.equal(a, b) - _norm((a - b) @ q)) <= 1e-12 * scale
    assert abs(w.wnorm(_compact(a)) - _norm(a @ q)) <= 1e-12 * scale
    c = w.compress(a)
    assert isinstance(c, _Block) and c.shape == (w.dim, w.dim)
    assert np.abs(c.dense() - q.conj().T @ a @ q).max(initial=0.0) <= 1e-12 * scale
    # the part of span(S) inside the window: the eigenvalue-1 eigenvectors
    # of c* c with c = Q* S, as coordinates in the columns of S
    cs = q.conj().T @ s
    vals, v = np.linalg.eigh(cs.conj().T @ cs)
    ref = s @ v[:, vals > 1.0 - 1e-9]
    keep = w.inside(_compact(s))
    got = (_compact(s) @ keep).dense()
    assert got.shape == ref.shape
    assert np.abs(got @ got.conj().T - ref @ ref.conj().T).max(initial=0.0) <= 1e-12
    # an array B is read as the basis is: the same form as from B's form
    same = w.inside(s)
    assert same.shape == keep.shape
    assert all(np.array_equal(x, y) for x, y in zip((same.i, same.j, same.v),
                                                     (keep.i, keep.j, keep.v)))


def _repeated(n):
    return np.eye(n)[:, [0, 2, 0]]


def _not_unit(n):
    q = np.eye(n)[:, :2]
    q[3, 1] = 0.5
    return q


@pytest.mark.parametrize("make", [_repeated, _not_unit])
@pytest.mark.parametrize("as_form", [False, True])
def test_non_orthonormal_selection_is_refused(make, as_form):
    q = make(5)
    with pytest.raises(OpcoreError, match=REFUSAL):
        Window(0, _compact(q) if as_form else q)


def test_non_matrix_basis_is_refused():
    with pytest.raises(OpcoreError, match=REFUSAL):
        Window(0, np.ones(3))


def _dense_defect(t):
    """The dense eigh reference of ``defect``: rank, dvals, D and the
    projection gap of D = (I - T*T)^(1/2)."""
    g = np.eye(len(t)) - t.conj().T @ t
    w, v = np.linalg.eigh((g + g.conj().T) / 2.0)
    nrm = np.sqrt(max(0.0, 1.0 - w.min()))
    w = np.clip(w, 0.0, None)
    w[w < 64.0 * np.finfo(float).eps * max(1.0, w.max())] = 0.0
    d = np.sqrt(w)
    keep = d > 1e-8 * max(d.max(), 1.0)
    dmat = (v * d) @ v.conj().T
    dvals = d[keep]
    return nrm, int(keep.sum()), dvals, (dmat + dmat.conj().T) / 2.0, \
        float(np.abs(dvals ** 2 - dvals).max(initial=0.0))


def _weighted_partial_permutation(rng, n, top=1.0):
    """At most one entry per row and column, of modulus at most ``top``:
    some of modulus exactly ``top``, and some zero columns."""
    t = np.zeros((n, n), dtype=complex)
    cols = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    rows = rng.permutation(n)[:len(cols)]
    mod = np.where(rng.uniform(size=len(cols)) < 0.4, top, top * rng.uniform(size=len(cols)))
    t[rows, cols] = mod * np.exp(2j * np.pi * rng.uniform(size=len(cols)))
    return t


@SETTINGS
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_diagonal_defect_matches_dense_eigh(n, seed):
    t = _weighted_partial_permutation(np.random.default_rng(seed), n)
    dd = defect(t)
    _, rank, dvals, dmat, gap = _dense_defect(t)
    assert dd.rank == rank and dd.dvals.shape == dvals.shape
    assert np.abs(dd.dvals - dvals).max(initial=0.0) <= 1e-14
    assert np.abs(dd.form.dense() - dmat).max() <= 1e-14
    assert abs(dd.projection_gap - gap) <= 1e-14
    # the bases are coordinate selections: one entry of 1 per column
    for basis in (dd.range_basis, dd.kernel_basis):
        assert len(basis.v) == basis.shape[1] and (basis.v == 1.0).all()
    assert dd.range_basis.shape[1] + dd.kernel_basis.shape[1] == n


@pytest.mark.parametrize("excess", [0.0, 2e-9, 5e-9, 2e-8, 1e-6])
def test_diagonal_defect_refuses_at_the_dense_threshold(excess):
    rng = np.random.default_rng(3)
    t = _weighted_partial_permutation(rng, 6, top=0.9)
    t[0, :], t[:, 5] = 0.0, 0.0
    t[0, 5] = (1.0 + excess) * np.exp(0.3j)
    nrm = _dense_defect(t)[0]
    if nrm > 1.0 + 1e-8:
        with pytest.raises(ExpansiveError):
            defect(t)
    else:
        assert defect(t).kernel_basis.shape[1] >= 1


@pytest.fixture
def eigh_in_defect(monkeypatch):
    """The ``np.linalg.eigh`` calls made inside ``fundamentals.defect``."""
    calls, original = [], np.linalg.eigh

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is fundamentals.defect.__code__:
                calls.append(args[0].shape)
                break
            frame = frame.f_back
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def test_exam_defects_take_no_eigh(eigh_in_defect):
    tuples = (build_exam1(8)[1], build_exam3(0.5, 8)[1], build_exam5(0.5, 8)[1])
    for tup in tuples:
        assert defect(tup.forms[PIVOT[tup.kind]]).rank > 0
    assert build_exam3_dilation(tuples[1], 4).defect.is_projection
    assert eigh_in_defect == []
    defect(random_contraction(np.random.default_rng(0), 5))
    assert eigh_in_defect == [(5, 5)]


@pytest.mark.parametrize("make", ["contraction", "unitary"])
def test_dense_defect_matches_dense_eigh(make, eigh_in_defect):
    # a T with more than one entry in a row takes one dense eigh, as an
    # array or as a form, and gives the dense reference's D to the bit
    rng = np.random.default_rng(7)
    t = (random_contraction(rng, 6) if make == "contraction"
         else np.linalg.qr(rng.standard_normal((6, 6)))[0].astype(complex))
    _, rank, dvals, dmat, gap = _dense_defect(t)
    for dd in (defect(t), defect(_compact(t))):
        assert dd.rank == rank and np.array_equal(dd.dvals, dvals)
        assert np.array_equal(dd.form.dense(), dmat) and dd.projection_gap == gap
        q, k = dd.range_basis.dense(), dd.kernel_basis.dense()
        assert q.shape[1] + k.shape[1] == 6
        assert np.abs(np.hstack([q, k]).conj().T @ np.hstack([q, k]) - np.eye(6)).max() <= 1e-12
    assert eigh_in_defect == [(6, 6)] * 2


def test_gallery_windows_are_selections(monkeypatch, eigh_in_defect):
    # every window of the five operator cases is a coordinate selection
    # with exactly one nonzero, 1, per column, and no defect takes an eigh
    bases, original = [], Window.__post_init__

    def recording(self):
        original(self)
        bases.append(self.basis)

    monkeypatch.setattr(spaces.Window, "__post_init__", recording)
    for cid in CASE_IDS:
        assert run_example(GalleryCase(cid, {"trunc": 16})).verdict == "pass"
    # each of the five operator cases builds its window, the kernel window
    # and the dilation window (pushforward takes none); axis_family adds the
    # window of its mirror check and that of its clean triple
    assert len(bases) == 17
    for q in bases:
        n, k = q.shape
        assert len(q.v) == k and (q.v == 1.0).all()
        assert len(np.unique(q.i)) == k and len(np.unique(q.j)) == k
    assert eigh_in_defect == []
