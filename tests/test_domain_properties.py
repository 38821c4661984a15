"""Randomised invariants of the torus search for mu_E and of the closed-form
minimal-norm realisers: invariance of mu_E under the transforms that keep
the spectral radius of A diag(z) at every z, the rho(A) <= mu_E <= ||A||
chain, and tetra/penta certificates that never exceed the norm of the
matrix that generated the point."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mudilate.domains import (E211, E311, E312, BlockStructure, DomainPoint,
                              certificate_search, mu_E, penta_coords,
                              tetra_coords)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)
E1111 = BlockStructure(4, 4, (1, 1, 1, 1))
TOL = 1e-4


@st.composite
def structured(draw):
    """A structure and a complex matrix for it: dense, or with entries
    zeroed at a drawn rate, scaled into [0.2, 3]."""
    structure = draw(st.sampled_from((E211, E312, E311, E1111)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = structure.n
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[rng.uniform(size=(n, n)) < draw(st.sampled_from((0.0, 0.3, 0.6)))] = 0.0
    return structure, a * draw(st.floats(0.2, 3.0))


@st.composite
def two_by_two(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a[rng.uniform(size=(2, 2)) < draw(st.sampled_from((0.0, 0.3)))] = 0.0
    return a * draw(st.floats(0.1, 2.0))


@SETTINGS
@given(structured(), st.floats(0.0, 2.0 * np.pi), st.integers(0, 2**32 - 1))
def test_mu_invariant_under_phase_similarity_and_transpose(case, phi, seed):
    structure, a = case
    d = np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=structure.n))
    base = mu_E(a, structure, TOL)
    for b in (np.exp(1j * phi) * a, d[:, None] * a * d.conj()[None, :], a.T):
        assert abs(mu_E(b, structure, TOL) - base) <= TOL * max(1.0, base)


@SETTINGS
@given(structured())
def test_mu_between_radius_and_norm(case):
    structure, a = case
    mu = mu_E(a, structure, TOL)
    assert np.abs(np.linalg.eigvals(a)).max() * (1 - 1e-12) <= mu
    assert mu <= np.linalg.norm(a, 2) * (1 + 1e-12)
    # mu is also the max over the closed polydisc, so zeroing every block
    # but one shows mu >= rho(A_kk): for a scalar block, |a_ii|
    edges = np.cumsum((0,) + structure.r)
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = np.abs(np.linalg.eigvals(a[lo:hi, lo:hi])).max()
        assert mu >= block - TOL * max(1.0, mu)


@SETTINGS
@given(two_by_two())
def test_closed_form_certificates_never_exceed_generator(a):
    for kind, coords in (("penta", penta_coords), ("tetra", tetra_coords)):
        cert = certificate_search(DomainPoint(kind, coords(a)))
        assert cert.residual <= 1e-12
        assert cert.constraint_value <= np.linalg.norm(a, 2) + 1e-12
