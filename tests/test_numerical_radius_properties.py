"""Randomised invariants of the level-set numerical radius against analytic
oracles: truncated shifts (flat profile), normal matrices, unitary and
rotation invariance, the r <= omega <= ||A|| <= 2 omega chain, and a dense
angle-sampled reference with local refinement defined below."""

import numpy as np
import scipy.optimize
from hypothesis import given, settings, strategies as st

from mudilate.opcore import numerical_radius, op_norm, spectral_radius

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)


def _complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _unitary(rng, n):
    q, _ = np.linalg.qr(_complex(rng, n, n))
    return q


def _profile(a, thetas):
    """lambda_max of Re(e^{i theta} A), one eigvalsh per angle."""
    h = np.exp(1j * np.asarray(thetas))[:, None, None] * a
    return np.linalg.eigvalsh((h + h.conj().transpose(0, 2, 1)) / 2.0)[:, -1]


def _reference(a, samples=4096):
    """Dense sampled maximum of the profile, each sampled local maximum
    within 1e-3 of the best refined by bounded Brent search on its two
    neighbouring steps."""
    thetas = np.arange(samples) * (2.0 * np.pi / samples)
    vals = _profile(a, thetas)
    best = vals.max()
    step = 2.0 * np.pi / samples
    peaks = np.nonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
                       & (vals >= best - 1e-3 * abs(best)))[0]
    for k in peaks:
        r = scipy.optimize.minimize_scalar(
            lambda t: -_profile(a, [t])[0], method="bounded",
            bounds=(thetas[k] - step, thetas[k] + step), options={"xatol": 1e-13})
        best = max(best, -r.fun)
    return best


@st.composite
def matrices(draw):
    """A dense, Jordan-type, Hermitian, rank-one or near-tied normal matrix
    of size 1..8, entries from a seeded generator."""
    n = draw(st.integers(1, 8))
    family = draw(st.sampled_from(("dense", "jordan", "hermitian", "rank1", "near-tie")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "dense":
        return _complex(rng, n, n)
    if family == "jordan":
        return complex(*rng.standard_normal(2)) * np.eye(n) + np.eye(n, k=1)
    if family == "hermitian":
        h = _complex(rng, n, n)
        return h + h.conj().T
    if family == "rank1":
        return _complex(rng, n, 1) @ _complex(rng, 1, n)
    mods = 1.0 - np.concatenate([[0.0], 10.0 ** rng.uniform(-12, -2, n - 1)])
    u = _unitary(rng, n)
    return (u * (mods * np.exp(2j * np.pi * rng.random(n)))) @ u.conj().T


@SETTINGS
@given(st.integers(1, 16))
def test_truncated_shift(k):
    # the k x k shift has a constant profile: its numerical range is the
    # disc of radius cos(pi/(k+1))
    assert abs(numerical_radius(np.eye(k, k=1)) - np.cos(np.pi / (k + 1))) <= 1e-12


@SETTINGS
@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_normal_matrix_gives_largest_modulus(n, seed):
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = _unitary(rng, n)
    a = (u * lam) @ u.conj().T
    assert abs(numerical_radius(a) - np.abs(lam).max()) <= 1e-10


@SETTINGS
@given(matrices(), st.floats(0.0, 2.0 * np.pi), st.integers(0, 2**32 - 1))
def test_unitary_and_rotation_invariance(a, phi, seed):
    u = _unitary(np.random.default_rng(seed), a.shape[0])
    b = np.exp(1j * phi) * (u @ a @ u.conj().T)
    assert abs(numerical_radius(b) - numerical_radius(a)) \
        <= 1e-10 * max(1.0, op_norm(a))


@SETTINGS
@given(matrices())
def test_radius_norm_chain(a):
    w, nn = numerical_radius(a), op_norm(a)
    slack = 1e-12 * max(1.0, nn)
    assert spectral_radius(a) <= w + slack
    assert w <= nn + slack
    assert nn / 2.0 <= w + slack


@SETTINGS
@given(matrices())
def test_agrees_with_dense_reference(a):
    assert abs(numerical_radius(a) - _reference(a)) <= 1e-10
