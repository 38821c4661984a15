"""Randomised invariants of the basis-form window: ||A Q|| and the
compression Q* A Q carry the same norms and radii as the projector forms
A P and P A P (P = Q Q*), and the measured margin makes truncated shift
words exact."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mudilate.dilate import DilationResult
from mudilate.fundamentals import defect
from mudilate.opcore import numerical_radius, spectral_radius
from mudilate.spaces import ModelSpace, Window, auto_margin, embed_blocks, \
    hardy_shift, window

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
    p = w.basis @ w.basis.conj().T
    assert abs(w.wnorm(a) - np.linalg.norm(a @ p, 2)) <= 1e-12


@SETTINGS
@given(windowed())
def test_compression_keeps_spectral_radius(case):
    a, w = case
    p = w.basis @ w.basis.conj().T
    assert abs(spectral_radius(w.compress(a)) - spectral_radius(p @ a @ p)) <= 1e-10


@SETTINGS
@given(windowed())
def test_compression_keeps_numerical_radius(case):
    a, w = case
    p = w.basis @ w.basis.conj().T
    got = numerical_radius(w.compress(a))
    assert abs(got - numerical_radius(p @ a @ p)) <= 1e-8


@SETTINGS
@given(windowed(), st.integers(0, 8), st.integers(2, 4), st.integers(1, 4))
def test_dilation_window_dimension(case, n_iso, depth, tail_margin):
    # a contraction with n_iso singular values equal to 1 has a defect of
    # rank n - n_iso; the dilation window keeps the base window plus, on
    # each of the first depth - tail_margin copies, the part of the defect
    # range inside the base window
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
    dil = DilationResult("gamma7", (np.eye(dim),),
                         np.eye(dim, n), depth, dd, n)
    q = dd.range_basis
    kept = q.shape[1] + w.dim - np.linalg.matrix_rank(np.hstack([q, w.basis]))
    copies = max(0, depth - tail_margin)
    assert dil.window(w, tail_margin=tail_margin).dim == w.dim + copies * kept


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
                             for i, (f, t) in enumerate(space.summands)})
    sa = np.linalg.matrix_power(s, a)
    sbh = np.linalg.matrix_power(s.conj().T, b)
    margin = auto_margin(space, [sa, sbh])
    assert margin == 2 * a
    w = window(space, margin)
    assert w.wnorm(sbh @ sa - np.linalg.matrix_power(s, a - b)) == 0.0
