"""Graded families against dense references.

``opcore.grading`` against the null space of the grading equations, on
near-graded pairs and on permuted direct sums of them; the spectra read per
support component (``_eigh``, both ``numerical_radius`` paths,
``spectral_radius``) against dense numpy on the same direct sums; the
unit-graded ``numerical_radius`` against the QZ level-set path and a dense
angle grid; z-free families (omega, spectral radius and the folded rho
form) against a 64-point torus grid; ``chain_report``'s graded decisions
against its own sampled path.  Dense input still takes the QZ path, and the
gallery's chain families never reach it."""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mudilate import fundamentals, opcore
from mudilate.fundamentals import RELATIONS, OperatorTuple, chain_report, solve_fundamentals
from mudilate.gallery import GalleryCase, build_exam1, build_exam2, run_example
from mudilate.opcore import (Grading, _compact, _eigh, _eye,
                             _level_set_radius, grading, herm_sqrt, lambda_min,
                             numerical_radius, spectral_radius)
from mudilate.spaces import auto_margin, window

from conftest import dense_members

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
GRID = np.exp(2j * np.pi * np.arange(64) / 64)


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _on_degree(rng, g, d, density):
    """Random complex entries on a random part of {(i, j): g(i) - g(j) = d}."""
    n = len(g)
    keep = (g[:, None] - g[None, :] == d) & (rng.uniform(size=(n, n)) < density)
    return np.where(keep, _complex(rng, n, n), 0.0)


@st.composite
def potentials(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, rng.integers(-3, 4, n), draw(st.floats(0.3, 1.0))


def _direct_sum(rng, blocks):
    """The pair (P (A_1 + ... + A_m) P*, P (B_1 + ... + B_m) P*) of direct
    sums of the square block pairs (A_k, B_k), under one random permutation P."""
    n = sum(len(x) for x, _ in blocks)
    out, at = np.zeros((2, n, n), dtype=complex), 0
    for pair in blocks:
        k = len(pair[0])
        out[:, at:at + k, at:at + k] = pair
        at += k
    p = rng.permutation(n)
    return out[:, p][:, :, p]


@st.composite
def direct_sums(draw, d_a=None):
    """A permuted direct sum of block pairs (A_k, B_k): pairs of degrees
    (d_a, d_b) on random potentials (``_on_degree``; d_a drawn unless given),
    repeats of an earlier pair, isolated nodes (1 x 1 zeros) and at most one
    dense pair of size 2 to 4."""
    rng, _, density = draw(potentials())
    d_a = draw(st.integers(-2, 2)) if d_a is None else d_a
    d_b = draw(st.integers(-2, 2))
    kinds = draw(st.lists(st.sampled_from(("graded", "repeat", "isolated")),
                          min_size=1, max_size=6))
    if draw(st.booleans()):
        kinds.insert(draw(st.integers(0, len(kinds))), "dense")
    blocks = []
    for kind in kinds:
        g = rng.integers(-3, 4, int(rng.integers(1, 5)))
        if kind == "dense":  # at least 2 x 2: a 1 x 1 block takes no QZ
            k = max(2, len(g))
            blocks.append((_complex(rng, k, k), _complex(rng, k, k)))
        elif kind == "isolated":
            blocks.append((np.zeros((1, 1)), np.zeros((1, 1))))
        elif kind == "repeat" and blocks:
            blocks.append(blocks[int(rng.integers(len(blocks)))])
        else:
            blocks.append((_on_degree(rng, g, d_a, density), _on_degree(rng, g, d_b, density)))
    return _direct_sum(rng, blocks), "dense" in kinds


def _reference_grading(a, b):
    """(unit, z_free) from the null space of g(r) - g(c) - d_X = 0 over
    every nonzero (r, c) of each operand X, unknowns (g, d_a, d_b)."""
    n = a.shape[0]
    rows = []
    for col, x in ((n, a), (n + 1, b)):
        for r, c in zip(*np.nonzero(x)):
            row = np.zeros(n + 2)
            row[r] += 1.0
            row[c] -= 1.0
            row[col] -= 1.0
            rows.append(row)
    if not rows:
        return True, True
    p = scipy.linalg.null_space(np.array(rows))[n:]
    p[np.abs(p) < 1e-10] = 0.0
    if not p.any():
        return False, False
    x = np.linalg.lstsq(p, np.ones(2), rcond=None)[0]
    return bool(np.allclose(p @ x, 1.0)), bool(np.abs(p[0] - p[1]).max() > 1e-10)


@contextlib.contextmanager
def counted_qz():
    """Count the generalized eigenproblems (two matrices) solved by
    ``scipy.linalg.eigvals`` inside the block."""
    calls = []
    eigvals = scipy.linalg.eigvals

    def counted(a, b=None, *args, **kwargs):
        if b is not None:
            calls.append(a.shape)
        return eigvals(a, b, *args, **kwargs)

    scipy.linalg.eigvals = counted
    try:
        yield calls
    finally:
        scipy.linalg.eigvals = eigvals


@st.composite
def near_graded_pairs(draw):
    """A pair of degrees (d_a, d_b) on one random potential, sometimes with
    one entry of A anywhere."""
    rng, g, density = draw(potentials())
    a = _on_degree(rng, g, draw(st.integers(-2, 2)), density)
    b = _on_degree(rng, g, draw(st.integers(-2, 2)), density)
    if draw(st.booleans()):
        a[tuple(rng.integers(0, len(g), 2))] = 1.0
    return a, b


@SETTINGS
@given(st.one_of(near_graded_pairs(), direct_sums().map(lambda d: tuple(d[0]))))
def test_grading_matches_null_space(pair):
    # all four answers occur, and a direct sum is graded iff its blocks share a grading
    a, b = pair
    got = grading(a, b)
    assert (got.unit, got.z_free) == _reference_grading(a, b)
    assert grading(_compact(a), _compact(b)) == got
    assert grading(a).unit == _reference_grading(a, np.zeros_like(a))[0]


@SETTINGS
@given(direct_sums(d_a=1))
def test_component_spectra_match_dense_reference(drawn):
    # A is unit-graded unless a dense block was drawn; every spectrum is read
    # per support component and checked against numpy on the dense array
    (a, _), dense = drawn
    f = _compact(a)
    h = f + f.H
    hd = h.dense()
    ref = np.linalg.eigvalsh(hd)
    scale = max(1.0, np.abs(ref).max())
    w, v = _eigh(h)
    q = v.dense()
    assert np.abs(w - ref).max() <= 1e-12 * scale
    assert np.abs(q.conj().T @ q - np.eye(len(q))).max() <= 1e-12
    assert np.abs((q * w) @ q.conj().T - hd).max() <= 1e-12 * scale
    # herm_sqrt per component of the PSD direct sum P = A*A: against the dense
    # V sqrt(w) V* of P + I, on the same components, where the root is
    # Lipschitz (a zero eigenvalue, computed as +-eps, has a root of
    # sqrt(eps)); and P's own root as the one PSD s with s s = P
    p = f.H @ f
    pw, pv = np.linalg.eigh(p.dense() + np.eye(p.shape[0]))
    pscale = pw.max()
    s = herm_sqrt(p + _eye(p.shape[0])).dense()
    assert np.abs(s - (pv * np.sqrt(pw)) @ pv.conj().T).max() <= 1e-12 * pscale
    s = herm_sqrt(p).dense()
    assert np.abs(s @ s - p.dense()).max() <= 1e-12 * pscale
    assert np.linalg.eigvalsh(s)[0] >= -1e-12 * pscale
    assert abs(spectral_radius(h) - np.abs(ref).max()) <= 1e-12 * scale
    # lambda_min reads the Hermitian part, (f + f*) / 2 = h / 2
    assert abs(lambda_min(h) - ref[0]) <= 1e-12 * scale
    assert abs(lambda_min(f) - ref[0] / 2) <= 1e-12 * scale
    assert grading(f).unit != dense
    with counted_qz() as calls:
        omega = numerical_radius(f)
    if dense:  # the QZ path, per component, against the level-set path on the whole array
        assert calls
        assert abs(omega - _level_set_radius(a)) <= 1e-12 * max(1.0, omega)
        rho = np.abs(np.linalg.eigvals(a)).max()
        assert abs(spectral_radius(f) - rho) <= 1e-12 * max(1.0, rho)
    else:  # unit-graded: lambda_max(Re A)
        assert not calls
        assert abs(omega - np.linalg.eigvalsh((a + a.conj().T) / 2.0)[-1]) <= 1e-12 * scale
        assert numerical_radius(f, unit_graded=True) == omega


@SETTINGS
@given(potentials())
def test_unit_graded_radius_matches_level_set_and_grid(pot):
    rng, g, density = pot
    a = _on_degree(rng, g, 1, density)
    assert grading(a).unit
    turns = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 721))
    grid = np.linalg.eigvalsh([(z * a + (z * a).conj().T) / 2.0 for z in turns])[:, -1].max()
    w = numerical_radius(a)
    assert abs(w - _level_set_radius(a)) <= 1e-10 * max(1.0, w)
    assert abs(w - grid) <= 1e-10 * max(1.0, w)


@SETTINGS
@given(potentials(), st.integers(-2, 2), st.integers(1, 3))
def test_z_free_families_equal_their_torus_extremes(pot, d_a, shift):
    rng, g, density = pot
    a, b = _on_degree(rng, g, d_a, density), _on_degree(rng, g, d_a + shift, density)
    assert grading(a, b).z_free
    for f in (numerical_radius, spectral_radius):
        vals = [f(a + z * b) for z in GRID]
        assert abs(f(a + b) - max(vals)) <= 1e-9 * max(1.0, max(vals))
    # rho: h Hermitian of degree 0, K of degree shift != 0
    h = _on_degree(rng, g, 0, density)
    h = h + h.conj().T
    k = _on_degree(rng, g, shift, density)
    assert grading(np.abs(h) + np.eye(len(g)), k).z_free
    lam = min(np.linalg.eigvalsh(h - z * k - (z * k).conj().T)[0] for z in GRID)
    assert abs(np.linalg.eigvalsh(h - k - k.conj().T)[0] - lam) <= 1e-9 * max(1.0, abs(lam))


@SETTINGS
@given(st.integers(2, 12), st.integers(0, 2**32 - 1))
def test_dense_matrices_take_the_level_set_path(n, seed):
    a = _complex(np.random.default_rng(seed), n, n)
    assert grading(a) == Grading(unit=False, z_free=True)
    with counted_qz() as calls:
        numerical_radius(a)
    assert calls


@SETTINGS
@given(st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_ungraded_chain_omega_takes_the_level_set_path(n, seed):
    # commuting dense members (polynomials in one random T): no omega family
    # is unit-graded, so every sample takes the level-set path
    rng = np.random.default_rng(seed)
    t = _complex(rng, n, n)
    polys = (c[0] * np.eye(n) + c[1] * t + c[2] * t @ t for c in _complex(rng, 7, 3))
    ops = [m * (0.5 / np.linalg.norm(m, 2)) for m in polys]
    fset = solve_fundamentals(OperatorTuple("gamma7", ops))
    rep = chain_report(fset, z_samples=4)
    name = {i: f for i, _, f, _ in RELATIONS["gamma7"]}
    omega = max(_level_set_radius(fset[name[i]] + z * fset[name[j]])
                for i, j, _, _ in RELATIONS["gamma7"] if i < j for z in (1, 1j, -1, -1j))
    assert abs(rep.margins["omega"] - (1.0 - omega)) <= 1e-12


@pytest.mark.parametrize("case", ["exam1", "exam2"])
def test_graded_chain_matches_its_sampled_path(case, monkeypatch):
    # with every family forced onto 64 samples, each item and margin agrees
    # with the graded chain (z = 1 is a sample, so the sampled path sees the sup)
    if case == "exam1":
        space, tup, _ = build_exam1(8)
    else:
        space, tup, _, _ = build_exam2(8)
    w = window(space, auto_margin(space, dense_members(tup)))
    fset = solve_fundamentals(replace(tup, window=w))
    graded = chain_report(fset, z_samples=8)
    assert graded.notes[-1].endswith(
        "rho-pair-psd 3/0, radius<=2 3/0, omega<=1 2/1" if case == "exam1"
        else "rho-pair-psd 2/0, radius<=2 2/0, omega<=1 1/1")
    monkeypatch.setattr(fundamentals, "grading", lambda a, b=None: Grading(False, False))
    sampled = chain_report(fset, z_samples=64)
    assert [i.label for i in graded.items] == [i.label for i in sampled.items]
    for x, y in zip(graded.items, sampled.items):
        assert abs(x.residual - y.residual) <= 1e-12 and x.passed == y.passed
    for key, value in graded.margins.items():
        assert abs(value - sampled.margins[key]) <= 1e-12, key
    assert len(graded.undecided) == len(sampled.undecided)


def test_chain_grades_each_family_once(monkeypatch):
    # three families per pair; the omega samples reuse their family's grading
    calls = []

    def counted(a, b=None):
        calls.append(b is not None)
        return grading(a, b)

    monkeypatch.setattr(fundamentals, "grading", counted)
    monkeypatch.setattr(opcore, "grading", counted)
    space, tup, _ = build_exam1(8)
    w = window(space, auto_margin(space, dense_members(tup)))
    chain_report(solve_fundamentals(replace(tup, window=w)), z_samples=8)
    assert calls == [True] * 9


@pytest.mark.parametrize("case", ["exam1", "exam2"])
@pytest.mark.parametrize("trunc", [8, 16])
def test_gallery_chains_solve_no_qz(case, trunc):
    with counted_qz() as calls:
        rep = run_example(GalleryCase(case, dict(trunc=trunc)))
    assert rep.verdict == "pass"
    assert calls == []
    note = "torus condition chain: families decided exactly by grading / sampled at 8 z"
    assert [n for n in rep.notes if n.startswith(note)]
