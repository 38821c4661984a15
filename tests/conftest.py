import numpy as np
import pytest

from mudilate.fundamentals import FundamentalSet
from mudilate.gallery import build_exam1, build_exam2, build_exam3, build_exam5
from mudilate.spaces import window


TRUNC = 8
MARGIN = 4


@pytest.fixture(scope="session")
def exam1():
    space, tup, expected_f = build_exam1(TRUNC)
    return space, tup, expected_f, window(space, MARGIN)


@pytest.fixture(scope="session")
def exam2():
    space, tup5, expected_g, displayed = build_exam2(TRUNC)
    return space, tup5, expected_g, displayed, window(space, MARGIN)


@pytest.fixture(scope="session")
def exam3():
    space, tup, expected_f = build_exam3(0.5, TRUNC)
    return space, tup, expected_f, window(space, MARGIN)


@pytest.fixture(scope="session")
def exam5():
    space, tup, expected_x = build_exam5(0.5, TRUNC)
    return space, tup, expected_x["X"], window(space, MARGIN)


def dense_members(tup):
    """The members of an operator tuple as arrays, one per distinct form (a
    member held twice gives one array twice)."""
    dense = {id(f): f.dense() for f in tup.forms}
    return [dense[id(f)] for f in tup.forms]


def random_contraction(rng, dim, top=0.95):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return m * (top * rng.uniform(0.2, 1.0) / np.linalg.norm(m, 2))


def random_supported(rng, rows, cols):
    """Random complex rows x cols matrix with exact-zero rows, columns and
    entries, each zeroed with its own drawn probability."""
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    p_row, p_col, p_entry = rng.choice([0.0, 0.25, 0.6], size=3)
    m[rng.uniform(size=rows) < p_row] = 0.0
    m[:, rng.uniform(size=cols) < p_col] = 0.0
    m[rng.uniform(size=(rows, cols)) < p_entry] = 0.0
    return m


def unchecked_fundamentals(tup):
    """The fundamentals D+ B D+ of a gamma7 or gamma5 tuple, built from its
    pivot's defect like ``solve_fundamentals`` but without its commutation
    and residual checks, so that a tuple that need not commute or solve
    still reaches ``chain_report``; its rho and radius items read the tuple
    alone."""
    dplus = tup.defect.pinv()
    return FundamentalSet(tup, {name: dplus @ b @ dplus for name, b in tup.rhs.items()},
                          tol=np.inf)


def range_side_kernel(dd, w):
    """Orthonormal basis of Ker D inside the window w, found from the range
    side: the window vectors that the projection q q* onto the defect range
    kills, i.e. the eigenvalue-0 eigenvectors of c c* with c = Q* q."""
    q = w.basis.dense()
    c = q.conj().T @ dd.range_basis.dense()
    vals, v = np.linalg.eigh(c @ c.conj().T)
    return q @ v[:, vals < 1e-9]


def mu_polished_reference(a, structure, pts, keep=4):
    """Independent evaluation: the spectral radius on a dense reduced-torus
    grid, its `keep` best points polished by Nelder-Mead in the angles."""
    import scipy.optimize

    sfree = structure.s - 1
    ring = 2 * np.pi * np.arange(pts) / pts
    ang = np.stack([g.ravel() for g in np.meshgrid(*[ring] * sfree, indexing="ij")], axis=1)

    def radius(th):
        th = np.atleast_2d(th)
        z = np.exp(1j * np.concatenate([np.zeros((len(th), 1)), th], axis=1))
        d = np.repeat(z, structure.r, axis=1)
        return np.abs(np.linalg.eigvals(a[None] * d[:, None, :])).max(axis=1)

    vals = radius(ang)
    best = vals.max()
    for k in np.argsort(-vals)[:keep]:
        r = scipy.optimize.minimize(lambda t: -radius(t)[0], ang[k], method="Nelder-Mead",
                                    options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 4000})
        best = max(best, -r.fun)
    return best
