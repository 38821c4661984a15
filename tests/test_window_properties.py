"""Randomised invariants of the basis-form window: ||A Q|| and the
compression Q* A Q carry the same norms and radii as the projector forms
A P and P A P (P = Q Q*), taken on the nonzero rows and columns of A they
agree with the dense forms, the whole space reads like the identity
window, and the measured margin makes truncated shift words exact."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mudilate.dilate import DilationResult
from mudilate.fundamentals import chain_report, defect
from mudilate.opcore import WHOLE_SPACE, OperatorTuple, commutator_norms, \
    kernel_basis, numerical_radius, spectral_radius
from mudilate.spaces import ModelSpace, Window, auto_margin, embed_blocks, \
    hardy_shift, window
from mudilate.verify import is_commuting, isometry_check

from conftest import (dense_members, random_supported, range_side_kernel,
                      unchecked_fundamentals)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


@st.composite
def windowed(draw):
    """A random n x n matrix A and a window with a random orthonormal basis
    Q (the QR factor of a seeded random n x k matrix)."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(_complex(rng, n, k))
    return _complex(rng, n, n), Window(0, q)


@SETTINGS
@given(windowed())
def test_wnorm_is_norm_through_projector(case):
    a, w = case
    p = _projector(w.basis.dense())
    assert abs(w.wnorm(a) - np.linalg.norm(a @ p, 2)) <= 1e-12


@st.composite
def supported_windowed(draw):
    """A random n x n matrix with exact-zero rows, columns and entries, and
    a window whose basis is either a random orthonormal Q or a selection of
    coordinate columns (the form the model-space windows take)."""
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        q, _ = np.linalg.qr(_complex(rng, n, k))
    else:
        q = np.eye(n)[:, np.sort(rng.choice(n, k, replace=False))]
    return random_supported(rng, n, n), Window(0, q)


@SETTINGS
@given(supported_windowed())
def test_wnorm_and_compress_match_dense(case):
    a, w = case
    q = w.basis.dense()
    scale = np.linalg.norm(a, 2)
    got = w.wnorm(a)
    assert abs(got - np.linalg.norm(a @ q, 2)) <= 1e-12 * scale
    c = w.compress(a)
    assert c.shape == (w.dim, w.dim)
    assert np.abs(c.dense() - q.conj().T @ a @ q).max() <= 1e-12 * scale
    if scale == 0.0:
        assert got == 0.0 and not len(c.v)


@pytest.mark.parametrize("n,k", [(1, 1), (5, 2), (6, 6)])
def test_zero_matrix_windowed_is_exactly_zero(n, k):
    w = Window(0, np.eye(n)[:, :k])
    got = w.wnorm(np.zeros((n, n)))
    assert got == 0.0 and isinstance(got, float)
    c = w.compress(np.zeros((n, n)))
    assert c.shape == (k, k) and not len(c.v)


@SETTINGS
@given(supported_windowed(), st.integers(2, 4))
def test_windowed_commutator_norms_match_dense(case, count):
    a, w = case
    n = a.shape[0]
    rng = np.random.default_rng(count + 7 * n)
    ops = [a] + [random_supported(rng, n, n) for _ in range(count - 1)]
    got = commutator_norms(ops, w)
    ref = [((i, j), np.linalg.norm((ops[i] @ ops[j] - ops[j] @ ops[i]) @ w.basis.dense(), 2))
           for i in range(count) for j in range(i + 1, count)]
    assert [p for p, _ in got] == [p for p, _ in ref]
    for ((i, j), g), (_, r) in zip(got, ref):
        scale = np.linalg.norm(ops[i], 2) * np.linalg.norm(ops[j], 2)
        assert abs(g - r) <= 1e-12 * scale
        if r == 0.0:
            assert g == 0.0


@st.composite
def small_tuple(draw):
    """A seeded gamma7, gamma5 or penta tuple of dimension 2-4 whose members
    have norm at most 1: dense and generally non-commuting, or diagonal, so
    that the fundamentals solve."""
    kind = draw(st.sampled_from(("gamma7", "gamma5", "penta")))
    n = draw(st.integers(2, 4))
    diagonal = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range({"gamma7": 7, "gamma5": 5, "penta": 3}[kind]):
        m = np.diag(_complex(rng, 1, n)[0]) if diagonal else _complex(rng, n, n)
        ops.append(m * (rng.uniform(0.1, 1.0) / np.linalg.norm(m, 2)))
    return OperatorTuple(kind, ops)


def _same_items(whole, eye):
    assert whole.window_margin is None and eye.window_margin == 0
    assert [i.label for i in whole.items] == [i.label for i in eye.items]
    for a, b in zip(whole.items, eye.items):
        assert abs(a.residual - b.residual) <= 1e-12, a.label


@SETTINGS
@given(small_tuple())
def test_whole_space_equals_identity_window(tup):
    # the default window is the whole space: every check reads the same
    # residuals as through the window whose basis is the identity, and
    # reports no margin
    eye = Window(0, np.eye(tup.dim))
    t = dense_members(tup)
    whole_c, eye_c = commutator_norms(t), commutator_norms(t, eye)
    assert [p for p, _ in whole_c] == [p for p, _ in eye_c]
    for (_, a), (_, b) in zip(whole_c, eye_c):
        assert abs(a - b) <= 1e-12
    on_eye = replace(tup, window=eye)
    _same_items(is_commuting(tup), is_commuting(on_eye))
    _same_items(isometry_check(tup), isometry_check(on_eye))
    if tup.kind != "penta":
        fset = unchecked_fundamentals(tup)
        whole = chain_report(fset, z_samples=4)
        _same_items(whole, chain_report(replace(fset, tup=on_eye), z_samples=4))
        assert whole.to_dict()["window_margin"] is None


@SETTINGS
@given(windowed())
def test_compression_keeps_spectral_radius(case):
    a, w = case
    p = _projector(w.basis.dense())
    assert abs(spectral_radius(w.compress(a).dense()) - spectral_radius(p @ a @ p)) <= 1e-10


@SETTINGS
@given(windowed())
def test_compression_keeps_numerical_radius(case):
    a, w = case
    p = _projector(w.basis.dense())
    got = numerical_radius(w.compress(a).dense())
    assert abs(got - numerical_radius(p @ a @ p)) <= 1e-8


@SETTINGS
@given(windowed(), st.integers(0, 8), st.integers(2, 4), st.integers(0, 3))
def test_dilation_window_dimension(case, n_iso, depth, reach):
    # a contraction with n_iso singular values equal to 1 has a defect of
    # rank n - n_iso; the dilation window keeps the base window plus, on
    # each of the first depth - min(2 reach, max(reach, depth - 1)) copies,
    # the part of the defect range inside the base window
    _, w = case
    n = w.basis.shape[0]
    n_iso = min(n_iso, n)
    rng = np.random.default_rng(n_iso + 10 * depth)
    u, _ = np.linalg.qr(_complex(rng, n, n))
    v, _ = np.linalg.qr(_complex(rng, n, n))
    s = np.concatenate([np.ones(n_iso), rng.uniform(0.0, 0.9, n - n_iso)])
    dd = defect((u * s) @ v)
    assert dd.rank == n - n_iso
    dim = n + depth * dd.rank
    base = OperatorTuple("gamma7", (np.eye(n),) * 7, w)
    dil = DilationResult(base, (np.eye(dim),), depth, dd, reach)
    q = dd.range_basis.dense()
    kept = q.shape[1] + w.dim - np.linalg.matrix_rank(np.hstack([q, w.basis.dense()]))
    copies = max(0, depth - min(2 * reach, max(reach, depth - 1)))
    assert dil.window().dim == w.dim + copies * kept


@st.composite
def defect_windowed(draw):
    """A contraction T = U (C + S) U* on C^n1 + C^n2, with C a strict
    contraction (so the defect range is non-trivial), S a truncated shift or
    a unitary (so the kernel is), and U the identity or a random unitary; and
    a window whose basis selects coordinates or is a rotated orthonormal Q."""
    n1, n2 = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    n = n1 + n2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.zeros((n, n), dtype=complex)
    c = _complex(rng, n1, n1)
    t[:n1, :n1] = c * (rng.uniform(0.2, 0.9) / np.linalg.norm(c, 2))
    if draw(st.booleans()):
        t[n1:, n1:] = hardy_shift(1, n2).dense()
    else:
        t[n1:, n1:] = np.linalg.qr(_complex(rng, n2, n2))[0]
    if draw(st.booleans()):
        u = np.linalg.qr(_complex(rng, n, n))[0]
        t = u @ t @ u.conj().T
    k = draw(st.integers(1, n))
    if draw(st.booleans()):
        q = np.linalg.qr(_complex(rng, n, k))[0]
    else:
        q = np.eye(n)[:, np.sort(rng.choice(n, k, replace=False))]
    return t, Window(0, q)


def _projector(b):
    return b @ b.conj().T


@SETTINGS
@given(defect_windowed())
def test_defect_kernel_inside_window(case):
    # the kernel-side rule of necessary_conditions agrees with the
    # range-side complement inside the window, and with the SVD kernel of D
    # on the whole space; range and kernel bases form one unitary
    t, w = case
    dd = defect(t)
    k = dd.kernel_basis
    assert dd.rank >= 1 and k.shape[1] >= 1
    got = _projector((k @ w.inside(k)).dense())
    assert np.linalg.norm(got - _projector(range_side_kernel(dd, w)), 2) <= 1e-10
    whole = _projector((k @ WHOLE_SPACE.inside(k)).dense())
    assert np.linalg.norm(whole - _projector(kernel_basis(dd.form.dense())), 2) <= 1e-10
    e = np.hstack([dd.range_basis.dense(), k.dense()])
    assert e.shape == (len(t), len(t))
    assert np.linalg.norm(e.conj().T @ e - np.eye(len(t)), 2) <= 1e-12


@SETTINGS
@given(st.lists(st.tuples(st.integers(1, 2), st.integers(0, 4)), min_size=1,
                max_size=3),
       st.integers(1, 2), st.integers(1, 2))
def test_auto_margin_makes_shift_words_exact(summands, a, b):
    # S^{*b} S^a = S^{a-b} (a >= b) holds in the infinite model; on the
    # window of the measured margin the truncated shift satisfies it exactly
    a, b = max(a, b), min(a, b)
    space = ModelSpace(tuple((f, 2 * a + 1 + extra) for f, extra in summands))
    s = embed_blocks(space, {(i, i): hardy_shift(f, t)
                             for i, (f, t) in enumerate(space.summands)}).dense()
    sa = np.linalg.matrix_power(s, a)
    sbh = np.linalg.matrix_power(s.conj().T, b)
    margin = auto_margin(space, [sa, sbh])
    assert margin == 2 * a
    w = window(space, margin)
    assert w.wnorm(sbh @ sa - np.linalg.matrix_power(s, a - b)) == 0.0
