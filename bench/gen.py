"""Seeded inputs for the domains-mix workload.

Everything here is computed with numpy alone: the coordinate maps of the
defining matrices and the torus-grid estimate of mu that sets each
matrix's scale.  The package under test never shapes its own inputs.

A round is four slices.  Each slice holds 255 closed-form points (tetra,
penta, diagonal gamma7 and gamma5 matrices, gamma7 axis points) and ten
mu_E inputs (four E211, four E312, one E311, one E1111); one
certificate-search point follows each of the first three slices.  The
cheap kinds come in these numbers because the cost of a closed-form point
depends on the point (a tetra point takes 3 us or 30 to 100 us), so a
per-run mean over fewer of them moves with the seed.
  * Closed-form points are realised by matrices whose scale (mu for the
    structure, or the operator norm for penta) is stratified over [0.5, 2].
  * Search points are generic gamma5 matrices scaled to mu in [0.5, 0.95]
    and in [1.05, 2], and generic gamma7 matrices scaled to mu in
    [0.5, 0.95].
  * Each mu_E input is one fixed matrix per structure, shown under a seeded
    transform that keeps mu and the work of a torus search unchanged.
"""

from __future__ import annotations

import numpy as np

# repeated-scalar block sizes of the structure each kind is measured against
BLOCKS = {"gamma7": (1, 1, 1), "gamma5": (1, 2), "tetra": (1, 1)}

SLICES = 4
CLOSED_PER_ROUND = {"tetra": 240, "penta": 60, "gamma7-diag": 240,
                    "gamma5-diag": 240, "gamma7-axis": 240}
MU_PER_SLICE = {"E211": 4, "E312": 4, "E311": 1, "E1111": 1}
SEARCH_CLASSES = {"gamma5-low": ("gamma5", 0.5, 0.95),
                  "gamma5-high": ("gamma5", 1.05, 2.0),
                  "gamma7-low": ("gamma7", 0.5, 0.95)}
# a 30 s run measures one round and part of the next
ROUNDS = 2
SCALE_RANGE = (0.5, 2.0)

# mu_E inputs: block sizes, the draw of default_rng([2026, k, draw]) used as
# the fixed matrix, and its mu from torus_mu with six refinement levels on
# a 8192, 8192, 384^2 and 64^3 grid.  The E311 and E1111 draws are ones whose grid search runs
# to mudilate's 2^17-point cap: the unbounded case ROADMAP item 5 targets.
MU_STRUCTURES = {
    "E211": ((1, 1), 0, 2.096519681890553),
    "E312": ((1, 2), 0, 3.7758650564683864),
    "E311": ((1, 1, 1), 1, 2.8213663128945314),
    "E1111": ((1, 1, 1, 1), 0, 3.8052480924696432),
}


def _minor(a, i, j):
    return a[i, i] * a[j, j] - a[i, j] * a[j, i]


def coords(kind: str, a: np.ndarray) -> tuple:
    """Symmetrized-minor coordinates of the defining matrix ``a``."""
    if kind == "gamma7":
        return (a[0, 0], a[1, 1], _minor(a, 0, 1), a[2, 2], _minor(a, 0, 2),
                _minor(a, 1, 2), np.linalg.det(a))
    if kind == "gamma5":
        return (a[0, 0], _minor(a, 0, 1) + _minor(a, 0, 2), np.linalg.det(a),
                a[1, 1] + a[2, 2], _minor(a, 1, 2))
    if kind == "tetra":
        return (a[0, 0], a[1, 1], np.linalg.det(a))
    if kind == "penta":
        return (a[1, 0], a[0, 0] + a[1, 1], np.linalg.det(a))
    raise ValueError(f"unknown kind {kind!r}")


def _radii(a, blocks, ang):
    zs = np.concatenate([np.ones((len(ang), 1)), np.exp(1j * ang)], axis=1)
    diag = np.repeat(zs, blocks, axis=1)
    return np.abs(np.linalg.eigvals(a[None] * diag[:, None, :])).max(axis=1)


def torus_mu(a: np.ndarray, blocks: tuple, pts: int | None = None,
             levels: int = 0) -> float:
    """max of the spectral radius of A diag(z_1 I, z_2 I, ...) over a torus
    grid with z_1 pinned to 1, refined by ``levels`` local grids of 21
    points per axis around the best point: a lower estimate of mu."""
    free = len(blocks) - 1
    if pts is None:
        pts = 256 if free == 1 else 48
    ring = 2 * np.pi * np.arange(pts) / pts
    mesh = np.meshgrid(*([ring] * free), indexing="ij")
    ang = np.stack([m.ravel() for m in mesh], axis=1)
    best, arg = -1.0, None
    for lo in range(0, len(ang), 65536):
        v = _radii(a, blocks, ang[lo:lo + 65536])
        k = int(v.argmax())
        if v[k] > best:
            best, arg = float(v[k]), ang[lo + k]
    width = 2 * np.pi / pts
    for _ in range(levels):
        axes = [np.linspace(c - width, c + width, 21) for c in arg]
        mesh = np.meshgrid(*axes, indexing="ij")
        ang = np.stack([m.ravel() for m in mesh], axis=1)
        v = _radii(a, blocks, ang)
        k = int(v.argmax())
        if v[k] > best:
            best, arg = float(v[k]), ang[k]
        width /= 5
    return best


def mu_base(name: str) -> np.ndarray:
    blocks, draw, _ = MU_STRUCTURES[name]
    n = sum(blocks)
    rng = np.random.default_rng([2026, list(MU_STRUCTURES).index(name), draw])
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _scales(rng, count, lo, hi):
    """Stratified draw: one scale in each of ``count`` equal bins, shuffled."""
    t = lo + (hi - lo) * (np.arange(count) + rng.uniform(size=count)) / count
    return rng.permutation(t)


def _point(label, kind, realiser, first, scale, c):
    return {"label": label, "kind": kind,
            "coords": [complex(z) for z in c],
            "realiser_norm": float(realiser), "first_abs": float(abs(first)),
            "scale": float(scale)}


def _closed_points(rng, label, count):
    out = []
    for t in _scales(rng, count, *SCALE_RANGE):
        if label in ("tetra", "gamma7-axis"):
            z = _crandn(rng, (2, 2))
            z *= t / torus_mu(z, BLOCKS["tetra"])
            if label == "tetra":
                c = coords("tetra", z)
            else:
                c = (z[0, 0], 0, 0, 0, 0, z[1, 1], np.linalg.det(z))
            kind = "tetra" if label == "tetra" else "gamma7"
            out.append(_point(label, kind, np.linalg.norm(z, 2), z[0, 0], t, c))
        elif label == "penta":
            a = _crandn(rng, (2, 2))
            a *= t / np.linalg.norm(a, 2)
            out.append(_point(label, "penta", np.linalg.norm(a, 2), a[1, 0], t,
                              coords("penta", a)))
        else:
            kind = label.split("-")[0]
            d = _crandn(rng, 3)
            d *= t / np.abs(d).max()
            out.append(_point(label, kind, np.abs(d).max(), d[0], t,
                              coords(kind, np.diag(d))))
    return out


def _search_point(rng, label):
    kind, lo, hi = SEARCH_CLASSES[label]
    t = rng.uniform(lo, hi)
    a = _crandn(rng, (3, 3))
    a *= t / torus_mu(a, BLOCKS[kind])
    return _point(label, kind, np.linalg.norm(a, 2), a[0, 0], t, coords(kind, a))


def _mu_input(rng, name):
    """The fixed matrix under a global phase, a diagonal unitary similarity
    and maybe a transpose: the spectral radius of A diag(z) is unchanged at
    every z, so mu and the work of a torus search are too."""
    blocks, _, mu = MU_STRUCTURES[name]
    a = mu_base(name)
    d = np.exp(2j * np.pi * rng.uniform(size=len(a)))
    b = np.exp(2j * np.pi * rng.uniform()) * (d[:, None] * a * d.conj()[None, :])
    if rng.uniform() < 0.5:
        b = b.T
    return {"label": f"mu.{name}", "blocks": list(blocks), "matrix": b,
            "ref_mu": mu, "norm": float(np.linalg.norm(b, 2)),
            "radius": float(np.abs(np.linalg.eigvals(b)).max())}


def domains_mix(seed: int, rounds: int = ROUNDS) -> list:
    """``rounds`` rounds of seeded inputs, each a list in run order; the
    same seed gives the same inputs."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(rounds):
        closed = [p for label, count in CLOSED_PER_ROUND.items()
                  for p in _closed_points(rng, label, count)]
        closed = [closed[i] for i in rng.permutation(len(closed))]
        size = len(closed) // SLICES
        items = []
        for j in range(SLICES):
            items += closed[j * size:(j + 1) * size]
            items += [_mu_input(rng, name) for name, count in MU_PER_SLICE.items()
                      for _ in range(count)]
            if j < len(SEARCH_CLASSES):
                items.append(_search_point(rng, list(SEARCH_CLASSES)[j]))
        out.append(items)
    return out
