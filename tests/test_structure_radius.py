"""The closed-form kernel of mu_E: rho(A D(z)) from the roots of the
characteristic polynomial, whose coefficients are the principal minors of A
times monomials in z, against numpy's eigensolver; its backward- and
forward-error rule and the eigensolver fallback; and the minor table of the
two paper domains, whose defining polynomials are det(I - A D(z))."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mudilate import charpoly, domains
from mudilate.charpoly import CLOSED_DEGREE, minor_table
from mudilate.domains import (E311, E312, BlockStructure, _structure_radius,
                              gamma5_coords, gamma7_coords, mu_E)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first, *rest)


# every block partition with n <= 4, in every order
STRUCTURES = [BlockStructure(n, len(r), r)
              for n in range(1, CLOSED_DEGREE + 1) for r in _compositions(n)]


def _crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _torus(rng, rows, s):
    return np.exp(2j * np.pi * rng.uniform(size=(rows, s)))


def eig_radius(a, structure, zs):
    """Independent evaluation: numpy's eigensolver on each A D(z)."""
    d = np.repeat(zs, structure.r, axis=1)
    return np.abs(np.linalg.eigvals(a[None] * d[:, None, :])).max(axis=1)


@pytest.fixture
def fallback_rows(monkeypatch):
    """Rows handed to the eigensolver fallback, counted."""
    rows = []
    solve = domains._eig_radius

    def counted(a, structure, zs):
        rows.append(len(zs))
        return solve(a, structure, zs)

    monkeypatch.setattr(domains, "_eig_radius", counted)
    return rows


@st.composite
def structured(draw):
    """A structure with n <= 4 and a matrix for it: complex, real, or
    Q T Q* with T upper triangular and its first eigenvalue repeated; its
    entries (T's strictly upper part) zeroed at a drawn rate, and scaled
    by a drawn power of ten."""
    structure = draw(st.sampled_from(STRUCTURES))
    kind = draw(st.sampled_from(("complex", "real", "repeated")))
    rate = draw(st.sampled_from((0.0, 0.3, 0.6)))
    scale = draw(st.sampled_from((1.0, 1e-150, 1e150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = structure.n
    a = _crandn(rng, (n, n))
    if kind == "real":
        a = a.real.astype(complex)
    a[rng.uniform(size=(n, n)) < rate] = 0.0
    if kind == "repeated":
        t = np.triu(a, 1) + np.diag(_crandn(rng, n))
        t[-1, -1] = t[0, 0]
        q = np.linalg.qr(_crandn(rng, (n, n)))[0]
        a = q @ t @ q.conj().T
    return structure, a * scale, _torus(rng, 32, structure.s)


@SETTINGS
@given(structured())
def test_matches_eigensolver(case):
    structure, a, zs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _structure_radius(a, structure, zs)
    want = eig_radius(a, structure, zs)
    assert np.abs(got - want).max() <= 1e-12 * np.linalg.norm(a, 2)


@pytest.mark.parametrize("structure", [E311, E312, BlockStructure(4, 4, (1,) * 4),
                                       BlockStructure(4, 2, (2, 2))])
def test_nilpotent_reads_zero_without_fallback(structure, fallback_rows):
    # every principal minor of a strictly upper triangular matrix is 0, so
    # every coefficient is exactly 0 and every root is the deflated 0
    rng = np.random.default_rng(1)
    n = structure.n
    a = np.triu(_crandn(rng, (n, n)), 1)
    got = _structure_radius(a, structure, _torus(rng, 64, structure.s))
    assert (got == 0.0).all() and not fallback_rows


@pytest.mark.parametrize("structure", [E311, E312, BlockStructure(4, 4, (1,) * 4)])
def test_scalar_plus_nilpotent(structure, fallback_rows):
    # (lam I + N) D(z) is triangular: its roots lam d_i are well apart at a
    # generic z and exact for the eigensolver; at z = 1 they are one root of
    # multiplicity n, and under E312 the block of two repeats lam z_2 at
    # every z.  The closed forms place a root of multiplicity m only to
    # eps^(1/m), so the forward-error rule hands those rows (and rows whose
    # z brings two roots close) to the eigensolver
    rng = np.random.default_rng(2)
    n = structure.n
    a = 0.6 * np.eye(n) + np.triu(np.ones((n, n)), 1)
    zs = np.concatenate([np.ones((1, structure.s)), _torus(rng, 64, structure.s)])
    got = _structure_radius(a, structure, zs)
    np.testing.assert_allclose(got, eig_radius(a, structure, zs), rtol=0, atol=1e-12)
    assert got[0] == pytest.approx(0.6, abs=1e-15)
    if structure == E312:
        assert sum(fallback_rows) == len(zs)
    else:
        assert 1 <= sum(fallback_rows) <= 4


def test_exact_zero_roots_stay_closed(fallback_rows):
    # a zero column zeroes every minor that holds it: the last coefficient is
    # exactly 0 at every z, and its root 0 is deflated, not solved for
    rng = np.random.default_rng(3)
    for structure in (E311, E312, BlockStructure(4, 4, (1,) * 4)):
        n = structure.n
        for zeros in range(1, n):
            a = _crandn(rng, (n, n))
            a[:, rng.permutation(n)[:zeros]] = 0.0
            zs = _torus(rng, 64, structure.s)
            got = _structure_radius(a, structure, zs)
            np.testing.assert_allclose(got, eig_radius(a, structure, zs), rtol=1e-12)
    assert not fallback_rows


def test_five_by_five_takes_the_eigensolver(monkeypatch, fallback_rows):
    def refuse(*args):
        raise AssertionError("no minor table above degree 4")

    monkeypatch.setattr(charpoly, "minor_table", refuse)
    rng = np.random.default_rng(4)
    structure = BlockStructure(5, 3, (1, 2, 2))
    a = _crandn(rng, (5, 5))
    zs = _torus(rng, 40, 3)
    got = _structure_radius(a, structure, zs)
    assert fallback_rows == [40]
    np.testing.assert_allclose(got, eig_radius(a, structure, zs), rtol=1e-13)


@pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200, 1e307])
def test_extreme_scales_do_not_overflow(scale):
    # the minor table is taken of A over a power of two, so products of up
    # to four entries stay within the float range, and neither that power
    # nor its inverse need be a float (2^1024 is not, nor is 2^1074)
    rng = np.random.default_rng(5)
    structure = BlockStructure(4, 4, (1,) * 4)
    a = np.diag([scale, 0.5 * scale, 0.25 * scale, 0.125 * scale]) + \
        scale * np.triu(_crandn(rng, (4, 4)), 1) / 8
    if scale > 1:
        a = a + scale * np.tril(_crandn(rng, (4, 4)), -1) / 8
    zs = _torus(rng, 32, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _structure_radius(a, structure, zs)
    np.testing.assert_allclose(got, eig_radius(a, structure, zs), rtol=1e-12)


def _signed_orders(table, n):
    """The table's coefficients, monomial by monomial, of A itself: each
    row's one nonzero column k - 1 times 2^(e k)."""
    _, coef, e = table
    return (coef * (2.0 ** e) ** np.arange(1, n + 1)).sum(axis=1)


def test_e311_minor_table_is_gamma7():
    # monomials z1, z2, z3, z1z2, z1z3, z2z3, z1z2z3: det(I - A D(z)) =
    # 1 - x1 z1 - x2 z2 + x3 z1z2 - x4 z3 + x5 z1z3 + x6 z2z3 - x7 z1z2z3
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = _crandn(rng, (3, 3))
        x = np.array(gamma7_coords(a))
        want = [-x[0], -x[1], -x[3], x[2], x[4], x[5], -x[6]]
        got = _signed_orders(minor_table(a, E311.r), 3)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(x).max())


def test_e312_minor_table_is_gamma5():
    # monomials z1, z2, z1z2, z2^2, z1z2^2: the 2x2 block's two rows share z2,
    # so its trace and the two minors through row 1 come summed, as gamma5
    # sums them: det(I - A D(z)) = 1 - x1 z1 - y1 z2 + x2 z1z2 + y2 z2^2 - x3 z1z2^2
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = _crandn(rng, (3, 3))
        x1, x2, x3, y1, y2 = gamma5_coords(a)
        got = _signed_orders(minor_table(a, E312.r), 3)
        np.testing.assert_allclose(got, [-x1, -y1, x2, y2, -x3], rtol=1e-14,
                                   atol=1e-14 * max(map(abs, (x1, x2, x3, y1, y2))))


def test_mu_E_forms_the_table_once(monkeypatch):
    calls = []
    table = charpoly.minor_table

    def counted(a, r):
        calls.append(r)
        return table(a, r)

    monkeypatch.setattr(charpoly, "minor_table", counted)
    rng = np.random.default_rng(8)
    for structure in (E311, E312, BlockStructure(4, 4, (1,) * 4)):
        calls.clear()
        mu_E(_crandn(rng, (structure.n, structure.n)), structure)
        assert calls == [structure.r]
