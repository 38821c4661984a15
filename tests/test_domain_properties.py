"""Randomised invariants of the torus search for mu_E and of the closed-form
minimal-norm realisers: invariance of mu_E under the transforms that keep
the spectral radius of A diag(z) at every z, the rho(A) <= mu_E <= ||A||
chain, a model-step zoom that reaches a polished dense reference,
tetra/penta certificates that never exceed the norm of the matrix that
generated the point, and tetrablock verdicts that agree with a dense torus
reference, a diagonal decode that matches numpy's at every power-of-two
scale, and a closed-form sup over z of the two-variable symbol that bounds
a dense z sample."""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from mudilate.domains import (COORD_MAP, DEGREES, E211, E311, E312, PSI3_W_ANGLES,
                              BlockStructure, DomainPoint, _psi3_z_sup,
                              certificate_search, gamma7_coords, membership, mu_E,
                              penta_coords, psi3_supnorm, tetra_coords)

from conftest import mu_polished_reference

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


# the structures whose zoom takes the model step, each with the dense
# reference grid that keeps one reference near a second
MODEL_STEP_GRIDS = {E311: 64, E1111: 16, BlockStructure(4, 3, (1, 1, 2)): 64,
                    BlockStructure(4, 3, (2, 1, 1)): 64}


@settings(derandomize=True, max_examples=24, deadline=None)
@given(st.sampled_from(list(MODEL_STEP_GRIDS)), st.integers(0, 2**32 - 1),
       st.sampled_from((0.0, 0.3)), st.floats(0.2, 3.0))
def test_model_step_mu_between_bounds_and_reaches_reference(structure, seed, zeros, scale):
    # the largest evaluated value stays a lower bound on ||A|| and above
    # rho(A), and the zoom still climbs to the polished dense reference
    rng = np.random.default_rng(seed)
    n = structure.n
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[rng.uniform(size=(n, n)) < zeros] = 0.0
    a *= scale
    mu = mu_E(a, structure, TOL)
    assert np.abs(np.linalg.eigvals(a)).max() * (1 - 1e-12) <= mu
    assert mu <= np.linalg.norm(a, 2) * (1 + 1e-12)
    assert mu >= mu_polished_reference(a, structure, MODEL_STEP_GRIDS[structure]) * (1 - 1e-8)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(two_by_two())
def test_one_axis_zoom_reaches_the_closed_form(a):
    # A as the top-left block of a 3x3 zero matrix under E(3;2;1,2) has
    # rho(A' D(1, z, z)) = rho(A D(1, z)) at every z, so the one-axis zoom
    # reads E(2;2;1,1)'s closed form: at most tol below it, and above it
    # by no more than rounding
    big = np.zeros((3, 3), dtype=complex)
    big[:2, :2] = a
    exact = mu_E(a, E211, TOL)
    zoom = mu_E(big, E312, TOL)
    assert exact - TOL <= zoom <= exact * (1 + 1e-12)


@SETTINGS
@given(two_by_two())
def test_closed_form_certificates_never_exceed_generator(a):
    for kind, coords in (("penta", penta_coords), ("tetra", tetra_coords)):
        cert = certificate_search(DomainPoint(kind, coords(a)))
        assert cert.residual <= 1e-12
        assert cert.constraint_value <= np.linalg.norm(a, 2) + 1e-12


def _axis_point(x):
    return DomainPoint("gamma7", (x[0], 0, 0, 0, 0, x[1], x[2]))


@SETTINGS
@given(two_by_two(), st.floats(0.5, 1.5))
def test_tetra_verdict_matches_dense_torus_reference(a, scale):
    """The closed tetrablock is {x : max |x_i| <= 1 and
    sup over |z| = 1 of |x2 - z x3| / |1 - x1 z| <= 1}, sampled here on
    2^17 torus points; draws within 1e-3 of either threshold are skipped."""
    norm = np.linalg.norm(a, 2)
    assume(norm > 0)
    x = tetra_coords(a * scale / norm)
    top = max(abs(v) for v in x)
    assume(abs(top - 1.0) > 1e-3)
    inside = top < 1.0
    if inside:
        z = np.exp(2j * np.pi * np.arange(2 ** 17) / 2 ** 17)
        sup = (np.abs(x[1] - z * x[2]) / np.abs(1.0 - x[0] * z)).max()
        assume(abs(sup - 1.0) > 1e-3)
        inside = sup < 1.0
    want = "inside" if inside else "outside"
    assert membership(DomainPoint("tetra", x)).verdict == want
    assert membership(_axis_point(x)).verdict in (
        ("inside", "boundary") if inside else ("outside",))


@SETTINGS
@given(two_by_two(), st.floats(0.0, 0.999))
def test_points_realised_by_contractions_are_never_outside(a, scale):
    norm = np.linalg.norm(a, 2)
    assume(norm > 0)
    a = a * scale / norm
    for pt in (DomainPoint("tetra", tetra_coords(a)),
               DomainPoint("penta", penta_coords(a)),
               _axis_point(tetra_coords(a))):
        assert membership(pt).verdict in ("inside", "boundary")


@st.composite
def disc_entry(draw):
    """0, or a complex number inside, on or outside the unit circle."""
    where = draw(st.sampled_from(("zero", "inside", "on", "outside")))
    if where == "zero":
        return 0j
    radius = {"inside": st.floats(1e-3, 0.999), "on": st.just(1.0),
              "outside": st.floats(1.001, 2.0)}[where]
    return cmath.rect(draw(radius), draw(st.floats(0.0, 2.0 * np.pi)))


def _split_coords(kind, p, q, r):
    """Coordinates of diag(p, q, r), by products."""
    if kind == "gamma7":
        return (p, q, p * q, r, p * r, q * r, p * q * r)
    return (p, p * (q + r), p * q * r, q + r, q * r)


def _times_pow2(z, e):
    """z 2^e, or None when a part overflows or loses bits."""
    try:
        parts = [math.ldexp(v, e) for v in (z.real, z.imag)]
    except OverflowError:
        return None
    if [math.ldexp(v, -e) for v in parts] != [z.real, z.imag]:
        return None
    return complex(*parts)


def _numpy_diag_decode(kind, x):
    """The diagonal decode as numpy states it: np.roots for the gamma5
    roots, then np.diag, then the coordinate map with its LU determinant.
    Returns the absolute residual and the bound max |d_i|."""
    d = [x[0], x[1], x[3]] if kind == "gamma7" else [x[0], *np.roots([1.0, -x[3], x[4]])]
    res = max(abs(g - t) for g, t in zip(COORD_MAP[kind](np.diag(d)), x))
    return res, float(np.abs(d).max())


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(("gamma7", "gamma5")), disc_entry(), disc_entry(), disc_entry(),
       st.booleans(), st.integers(-400, 400))
def test_diagonal_decode_matches_numpy_at_every_scale(kind, p, q, r, repeated, k):
    """diag(p, q, r) 2^k against numpy's decode of diag(p, q, r), where
    numpy neither overflows nor underflows, scaled by 2^k.  Distinct gamma5
    roots are kept apart by a quarter of their size (closer ones are
    ill-conditioned in the coordinates whichever way they are found); a
    repeated root is exact (y1^2 = 4 y2 to the bit), where np.roots is only
    sqrt(eps)-accurate, so there the bound is held to max |d_i| itself."""
    if repeated:
        r = q
    if kind == "gamma5":
        assume(q == r or abs(q - r) >= 0.25 * max(abs(q), abs(r)))
    unit = _split_coords(kind, p, q, r)
    x = [_times_pow2(z, k * d) for z, d in zip(unit, DEGREES[kind])]
    assume(None not in x)
    res, bound = _numpy_diag_decode(kind, unit)
    want = math.ldexp(bound, k)
    assume(abs(want - (1.0 + 1e-6)) > 1e-6 * want)  # a verdict numpy's error could flip

    point = DomainPoint(kind, x)
    rep = membership(point)
    assert (rep.meta["decode"] == "diagonal") == (res <= 1e-8)
    assert (rep.verdict == "outside") == (want > 1.0 + 1e-6)
    if kind == "gamma5" and q == r:
        want = math.ldexp(max(abs(p), abs(q)), k)
    assert abs(rep.meta["certificate_bound"] - want) <= 4e-15 * want
    cert = certificate_search(point)
    size = max(1.0, abs(p), abs(q), abs(r))
    for g, u, d in zip(COORD_MAP[kind](cert.A * 2.0 ** -k), unit, DEGREES[kind]):
        assert abs(g - u) <= 1e-12 * size ** d


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.3)), st.floats(0.05, 0.95))
def test_psi3_closed_form_in_z_bounds_a_dense_z_sample(seed, zeros, norm):
    """At each sampled w angle of psi3_supnorm, the closed-form sup over z
    is never below a 4096-point z sample and lies within 1e-5 relative of
    it, on gamma7 points realised by 3x3 matrices of norm at most 0.95
    (pole-free: their (x1, x2, x3) lies in the open tetrablock)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a[rng.uniform(size=(3, 3)) < zeros] = 0.0
    assume(np.linalg.norm(a, 2) > 0)
    x = gamma7_coords(a * norm / np.linalg.norm(a, 2))
    w = np.exp(2j * np.pi * (np.arange(PSI3_W_ANGLES) + 0.5) / PSI3_W_ANGLES)
    closed = _psi3_z_sup((1.0, *x[:3]), x[3:], w)
    z = np.exp(2j * np.pi * np.arange(4096) / 4096)[:, None]
    num = x[3] - z * x[4] - w * x[5] + z * w * x[6]
    den = 1.0 - z * x[0] - w * x[1] + z * w * x[2]
    sampled = np.abs(num / den).max(axis=0)
    assert (closed >= sampled * (1 - 1e-12)).all()
    assert (closed <= sampled * (1 + 1e-5)).all()
    assert psi3_supnorm(DomainPoint("gamma7", x)) >= closed.max()
