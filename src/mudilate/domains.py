"""Membership and boundary predicates for the mu-quotient domains.

Coordinates follow the symmetrized-minor maps of the defining 2x2 / 3x3
matrices: seven coordinates for the three-scalar-block domain (gamma7), five
for the (1,2)-block domain (gamma5), three for the tetrablock and for the
pentablock.  A point is decided by a certificate: a matrix realising its
coordinates and the bound it gives.  The closed tetrablock is
{(a11, a22, det A) : ||A|| <= 1} (Abouhajar, White & Young, "A Schwarz
lemma for a domain related to mu-synthesis", J. Geom. Anal. 17, 2007), and
the closed pentablock is {(a21, tr A, det A) : ||A|| <= 1}, the image of the
compact closed ball: the pentablock of Agler, Lykova & Young (J. Geom.
Anal., 2015) is the image of the open one.  So the closed-form minimal-norm
realisers decide both exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .opcore import _mat, op_norm, spectral_radius
from .report import MembershipReport


class DomainError(ValueError):
    pass


class PoleOnTorusError(DomainError):
    pass


COORD_LEN = {"gamma7": 7, "gamma5": 5, "tetra": 3, "penta": 3}


@dataclass(frozen=True)
class BlockStructure:
    """Repeated-scalar block-diagonal structure diag(z_1 I_{r_1}, ..., z_s I_{r_s})."""

    n: int
    s: int
    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(int(x) for x in self.r))
        if len(self.r) != self.s or any(x < 1 for x in self.r):
            raise DomainError("need s positive block sizes")
        if sum(self.r) != self.n:
            raise DomainError(f"block sizes {self.r} must sum to n={self.n}")
        if self.s > self.n:
            raise DomainError("s cannot exceed n")

    @classmethod
    def parse(cls, text: str) -> "BlockStructure":
        parts = [int(p) for p in text.split(",")]
        if len(parts) < 3:
            raise DomainError("structure format is n,s,r1,...,rs")
        return cls(parts[0], parts[1], tuple(parts[2:]))


E311 = BlockStructure(3, 3, (1, 1, 1))
E312 = BlockStructure(3, 2, (1, 2))
E211 = BlockStructure(2, 2, (1, 1))


@dataclass(frozen=True)
class DomainPoint:
    kind: str
    coords: tuple

    def __post_init__(self):
        if self.kind not in COORD_LEN:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        c = tuple(complex(z) for z in self.coords)
        if len(c) != COORD_LEN[self.kind]:
            raise DomainError(
                f"kind {self.kind!r} needs {COORD_LEN[self.kind]} coordinates, got {len(c)}"
            )
        if not all(math.isfinite(math.hypot(z.real, z.imag)) for z in c):
            raise DomainError("coordinates must have finite moduli")
        object.__setattr__(self, "coords", c)


@dataclass
class Certificate:
    """A matrix realizing (approximately) the coordinates and its bound.

    ``decode`` is "closed" (tetra, penta: the minimal-norm realiser, bound
    its 2-norm), "diagonal" (split coordinates: bound max |a_ii|), "axis"
    (gamma7 with x2..x5 = 0: the tetra certificate of (x1, x6, x7)) or
    "search" (least squares: bound its mu_E).  The first three are exact:
    no realiser has a smaller bound, so a bound above 1 proves "outside"."""

    A: np.ndarray
    residual: float
    constraint_value: float
    decode: str


# ---------------------------------------------------------------------------
# coordinate maps of the defining matrices


def _minor(a, i, j):
    return a[i, i] * a[j, j] - a[i, j] * a[j, i]


def gamma7_coords(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return (a[0, 0], a[1, 1], _minor(a, 0, 1), a[2, 2], _minor(a, 0, 2),
            _minor(a, 1, 2), np.linalg.det(a))


def gamma5_coords(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return (a[0, 0], _minor(a, 0, 1) + _minor(a, 0, 2), np.linalg.det(a),
            a[1, 1] + a[2, 2], _minor(a, 1, 2))


def tetra_coords(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return (a[0, 0], a[1, 1], _minor(a, 0, 1))


def penta_coords(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return (a[1, 0], a[0, 0] + a[1, 1], _minor(a, 0, 1))


COORD_MAP = {"gamma7": gamma7_coords, "gamma5": gamma5_coords,
             "tetra": tetra_coords, "penta": penta_coords}


def point_pi(x, y) -> DomainPoint:
    """Two-parameter gamma7 family realized by diag(x, y, xy)."""
    return DomainPoint("gamma7", (x, y, x * y, x * y, x * x * y, x * y * y,
                                  x * x * y * y))


def point_pi_eta(p: DomainPoint, eta) -> DomainPoint:
    """gamma7 -> gamma5 slice map at parameter eta in the closed disc."""
    if p.kind != "gamma7":
        raise DomainError("pi_eta maps gamma7 points")
    x = p.coords
    e = complex(eta)
    return DomainPoint("gamma5", (x[0], x[2] + e * x[4], e * x[6],
                                  x[1] + e * x[3], e * x[5]))


# ---------------------------------------------------------------------------
# structured singular value


def _lattice(axis: np.ndarray, dims: int) -> np.ndarray:
    """Every dims-tuple of values from `axis`, one row per point, in C order."""
    mesh = np.meshgrid(*[axis] * dims, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


def _reduced_torus(sfree: int, pts: int) -> np.ndarray:
    """Torus sample with the first coordinate pinned to 1 (global phase is
    immaterial: scaling every block by a unimodular factor scales the
    spectrum by that factor and leaves the spectral radius unchanged)."""
    zs = _lattice(np.exp(2j * np.pi * np.arange(pts) / pts), sfree)
    return np.concatenate([np.ones((len(zs), 1), dtype=complex), zs], axis=1)


def _structure_radius(a: np.ndarray, structure: BlockStructure, zs: np.ndarray) -> np.ndarray:
    """Spectral radius of A diag(z_1 I_{r_1}, ...) for a batch of z rows,
    put through the eigensolver in chunks of at most 2^16 matrix entries so
    that memory does not grow with the batch."""
    rows = max(1, 2 ** 16 // structure.n ** 2)
    out = np.empty(len(zs))
    for lo in range(0, len(zs), rows):
        diag = np.repeat(zs[lo:lo + rows], structure.r, axis=1)
        out[lo:lo + rows] = np.abs(np.linalg.eigvals(a[None] * diag[:, None, :])).max(axis=1)
    return out


def mu_E(a, structure: BlockStructure, tol: float = 1e-4) -> float:
    """Structured singular value for a repeated-scalar block structure.

    mu(A) = 1 / inf{||X||: det(I - AX) = 0, X in E}, with mu = 0 when no X
    makes I - AX singular.  By homogeneity of X -> AX this equals the maximum
    of the spectral radius of A diag(z) over the unit torus (Doyle, IEE
    Proc. D 129, 1982), a maximum that is attained.  The search samples it:

    * a coarse grid on the reduced torus (z_1 = 1) with at most 64 points
      per free axis and 1024 in all, so the per-axis count shrinks as s
      grows.  The grid holds the all-ones point, so rho(A) is a lower bound;
    * the eight largest local maxima of that periodic grid as seeds;
    * a pattern-search zoom around every seed, all live seeds in one batch
      per level, for at most 200 levels.  The stencil is every offset in {-p..p}^(s-1) times the
      seed's step when that is at most 125 points, else the 2p offsets
      along each axis, so a level holds at most max(124, 4 (s - 1)) points
      per seed.  A seed moves to its best stencil point and shrinks its
      step by p unless that point lies on the stencil's outer ring.  It
      stops when its last level gained at most tol / 4 and its step is at
      most tol / (4 ||A||), or when its stencil covers the centre of a
      better seed (both climb the same peak).

    The result is the largest sampled value: a lower bound on mu that the
    zoom drives to a local maximum, not a certified value.
    """
    m = _mat(a)
    if m.shape != (structure.n, structure.n):
        raise DomainError(f"matrix shape {m.shape} does not match structure n={structure.n}")
    if not (0.0 < tol <= 1e-2):
        raise DomainError("tol must lie in (0, 1e-2]")
    norm = op_norm(m)
    if norm == 0.0:
        return 0.0
    sfree = structure.s - 1
    if sfree == 0:
        return spectral_radius(m)

    seeds, levels = 8, 200
    p = 8 if sfree == 1 else 2
    pts = min(64, int(1024 ** (1.0 / sfree) + 1e-9))
    grid = _reduced_torus(sfree, pts)
    vals = _structure_radius(m, structure, grid).reshape((pts,) * sfree)
    peak = np.ones(vals.shape, dtype=bool)
    for ax in range(sfree):
        peak &= (vals >= np.roll(vals, 1, ax)) & (vals >= np.roll(vals, -1, ax))
    cand = np.flatnonzero(peak)
    cand = cand[np.argsort(-vals.ravel()[cand], kind="stable")[:seeds]]
    center, val = np.angle(grid[cand]), vals.ravel()[cand]

    span = np.arange(-p, p + 1)
    if len(span) ** sfree <= 125:
        offsets = _lattice(span, sfree)
        offsets = offsets[offsets.any(axis=1)]
    else:
        offsets = np.kron(np.eye(sfree, dtype=int), span[span != 0][:, None])
    offsets = np.concatenate([np.zeros_like(offsets[:, :1]), offsets], axis=1)  # z_1 = 1
    outer = np.abs(offsets).max(axis=1) == p
    step = np.full(len(val), 2.0 * np.pi / pts / p)
    stop = tol / (4.0 * norm)
    earlier = np.tri(len(val), k=-1, dtype=bool)
    live = np.ones(len(val), dtype=bool)
    for _ in range(levels):
        idx = np.flatnonzero(live)
        if len(idx) == 0:
            break
        trial = center[idx, None, :] + step[idx, None, None] * offsets
        zs = np.exp(1j * trial.reshape(-1, structure.s))
        v = _structure_radius(m, structure, zs).reshape(len(idx), -1)
        rows, k = np.arange(len(idx)), v.argmax(axis=1)
        gain = np.maximum(v[rows, k] - val[idx], 0.0)
        up = gain > 0.0
        center[idx[up]] = trial[rows[up], k[up]]
        val[idx[up]] = v[rows[up], k[up]]
        step[idx[~(up & outer[k])]] /= p
        live[idx] = (gain > 0.25 * tol) | (step[idx] > stop)
        gap = np.abs(np.angle(np.exp(1j * (center[:, None] - center[None])))).max(axis=2)
        better = (val[None] > val[:, None]) | ((val[None] == val[:, None]) & earlier)
        live &= ~((gap <= p * step[:, None]) & better).any(axis=1)
    return float(val.max())


def mu_for_kind(kind: str):
    return {"gamma7": E311, "gamma5": E312, "tetra": E211}.get(kind)


# ---------------------------------------------------------------------------
# rational sup-norm criteria


@dataclass
class SupResult:
    value: float
    grid: int
    z: complex
    w: complex


def psi3_supnorm(x, grid: int = 64) -> SupResult:
    """Sup over the two-torus of the degree-(1,1) rational symbol attached to
    a seven-coordinate point: |x4 - z x5 - w x6 + z w x7| / |1 - z x1 - w x2 + z w x3|.
    """
    if isinstance(x, DomainPoint):
        if x.kind != "gamma7":
            raise DomainError("the two-variable symbol takes gamma7 points")
        c = x.coords
    else:
        c = tuple(complex(v) for v in x)
        if len(c) != 7:
            raise DomainError("need 7 coordinates")
    x1, x2, x3, x4, x5, x6, x7 = c

    def evaluate(zv, wv):
        z, w = np.meshgrid(zv, wv, indexing="ij")
        num = x4 - z * x5 - w * x6 + z * w * x7
        den = 1.0 - z * x1 - w * x2 + z * w * x3
        if np.abs(den).min() < 1e-12:
            raise PoleOnTorusError("denominator vanishes on the torus sample")
        vals = np.abs(num / den)
        k = np.unravel_index(vals.argmax(), vals.shape)
        return float(vals[k[0], k[1]]), complex(z[k]), complex(w[k])

    # half-step offset keeps exact poles at roots of unity off the sample
    ang = 2.0 * np.pi * (np.arange(grid) + 0.5) / grid
    zv = np.exp(1j * ang)
    best, zb, wb = evaluate(zv, zv)
    step = 2.0 * np.pi / grid
    loc = np.linspace(-step, step, 17)
    zv = zb * np.exp(1j * loc)
    wv = wb * np.exp(1j * loc)
    v, zb, wb = evaluate(zv, wv)
    if v > best:
        best = v
    return SupResult(best, grid, zb, wb)


# ---------------------------------------------------------------------------
# boundary predicates


def on_K(p: DomainPoint, tol: float = 1e-6) -> tuple:
    x = p.coords
    res = max(abs(abs(x[6]) - 1.0),
              abs(x[0] - np.conj(x[5]) * x[6]),
              abs(x[2] - np.conj(x[3]) * x[6]),
              abs(x[4] - np.conj(x[1]) * x[6]))
    return res <= tol, res


def on_K1(p: DomainPoint, tol: float = 1e-6) -> tuple:
    x1, x2, x3, y1, y2 = p.coords
    res = max(abs(abs(x3) - 1.0),
              abs(x1 - np.conj(y2) * x3),
              abs(x2 - np.conj(y1) * x3))
    return res <= tol, res


def on_K0(p: DomainPoint, tol: float = 1e-6) -> tuple:
    x1, x2, x3 = p.coords
    half = min(abs(x2) / 2.0, 1.0)  # |x2| > 2 already fails; the square stays finite
    res = max(max(0.0, abs(x2) - 2.0),
              abs(abs(x3) - 1.0),
              abs(x2 - np.conj(x2) * x3),
              abs(abs(x1) - np.sqrt(1.0 - half * half)))
    return res <= tol, res


BOUNDARY_PREDICATE = {"gamma7": on_K, "gamma5": on_K1, "penta": on_K0}


# ---------------------------------------------------------------------------
# certificate search

SEARCH_STARTS, SEARCH_SEED = 8, 20260808  # least-squares starts and their seed


def _coord_residual(kind, a, target):
    got = COORD_MAP[kind](a)
    return max(abs(g - t) for g, t in zip(got, target))


def _min_norm_penta(x1, x2, x3):
    """Minimal operator norm 2x2 matrix with lower-left entry x1, trace x2
    and determinant x3, in closed form.

    Every such matrix is [[x2/2 + u, (c - u^2)/x1], [x1, x2/2 - u]] with
    c = x2^2/4 - x3 (for x1 = 0 the upper-right entry is free and the
    trace and determinant force u^2 = c).  For a 2x2 matrix,
    ||A||_2^2 = (||A||_F^2 + sqrt(||A||_F^4 - 4 |det A|^2)) / 2, which grows
    with ||A||_F^2 once the determinant is fixed, and
    ||A||_F^2 = |x2|^2/2 + |x1|^2 + 2|v| + |c - v|^2/|x1|^2 with v = u^2.
    That is convex in v; since |c - v| >= |c| - |v| with equality on the
    ray through c, the minimiser is v = t c/|c| with t minimising
    2t + (|c| - t)^2/|x1|^2 over t >= 0: t = max(0, |c| - |x1|^2).  Then
    the upper-right entry is c/x1 when t = 0 and conj(x1) c/|c| otherwise,
    which also covers x1 = 0 (b = 0, u^2 = c: the eigenvalues on the
    diagonal, whose larger modulus bounds every norm from below)."""
    c = x2 * x2 / 4.0 - x3
    if abs(c) <= abs(x1) ** 2:
        v, b = 0.0, (c / x1 if c else 0.0)
    else:
        v, b = c - abs(x1) ** 2 * c / abs(c), np.conj(x1) * c / abs(c)
    u = np.sqrt(complex(v))
    return np.array([[x2 / 2.0 + u, b], [x1, x2 / 2.0 - u]])


def _min_norm_tetra(x1, x2, x3):
    """Minimal operator norm 2x2 matrix with diagonal (x1, x2) and
    determinant x3, in closed form.

    Every such matrix is [[x1, t], [q/t, x2]] with q = x1 x2 - x3 (t = 0
    and a zero lower-left entry when q = 0).  As for the pentablock, the
    2-norm grows with ||A||_F^2 = |x1|^2 + |x2|^2 + |t|^2 + |q|^2/|t|^2 at
    fixed determinant, which is least at |t|^2 = |q|."""
    q = x1 * x2 - x3
    t = np.sqrt(abs(q))
    return np.array([[x1, t], [q / t if t else 0.0, x2]])


def _norm2(a) -> float:
    """2-norm of a 2x2 matrix: the larger eigenvalue of A A* = [[p, r],
    [r*, q]] is (F + sqrt(F^2 - 4 |det A|^2)) / 2 with F = p + q, whose
    discriminant (p - q)^2 + 4 |r|^2 is a sum of squares (no cancellation)."""
    (a11, a12), (a21, a22) = a.tolist()
    p = abs(a11) ** 2 + abs(a12) ** 2
    q = abs(a21) ** 2 + abs(a22) ** 2
    r = abs(a11 * a21.conjugate() + a12 * a22.conjugate())
    return math.sqrt((p + q) / 2.0 + math.hypot((p - q) / 2.0, r))


def _closed_certificate(kind, x) -> Certificate:
    """Minimal-norm tetra or penta certificate.  sA realises
    (s x1, s x2, s^2 x3), so the realiser and its residual are computed on
    the point scaled by an exact power of two 2^-k into parts below 4 (k = 0
    for every member), then scaled back: huge points do not overflow."""
    size = max(max(abs(z.real), abs(z.imag)) for z in (x[0], x[1]))
    size = max(size, math.sqrt(max(abs(x[2].real), abs(x[2].imag))))
    k = max(0, math.frexp(size)[1] - 2)
    s = 2.0 ** -k
    y = (x[0] * s, x[1] * s, x[2] * s * s)
    b = (_min_norm_penta if kind == "penta" else _min_norm_tetra)(*y)
    return Certificate(b / s, _coord_residual(kind, b, y), _norm2(b) / s, "closed")


def _diag_decode(point: DomainPoint, tol: float = 1e-8):
    """Closed-form diagonal certificate when the coordinates split."""
    x = point.coords
    if point.kind == "gamma7":
        p, q, r = x[0], x[1], x[3]
        cand = np.diag([p, q, r])
        if _coord_residual("gamma7", cand, x) <= tol:
            return cand
    elif point.kind == "gamma5":
        x1, x2, x3, y1, y2 = x
        if abs(x2 - x1 * y1) <= tol and abs(x3 - x1 * y2) <= tol:
            roots = np.roots([1.0, -y1, y2])
            cand = np.diag([x1, roots[0], roots[1]])
            if _coord_residual("gamma5", cand, x) <= tol:
                return cand
    return None


def _lsq_certificate(point: DomainPoint, budget):
    rng = np.random.default_rng(SEARCH_SEED)
    kind = point.kind
    target = np.array(point.coords)
    structure = mu_for_kind(kind)
    size = structure.n
    coarse = _reduced_torus(structure.s - 1, 16)

    def unpack(v):
        half = size * size
        return (v[:half] + 1j * v[half:]).reshape(size, size)

    def resid(v):
        a = unpack(v)
        diff = np.array(COORD_MAP[kind](a)) - target
        mu = _structure_radius(a, structure, coarse).max()
        pen = 4.0 * max(0.0, mu - 1.0)
        return np.concatenate([diff.view(float), [pen]])

    best, best_r = None, np.inf
    d = _diag_decode(point, tol=1e-3)
    init_list = ([] if d is None else [d]) + [np.diag(target[:size])]
    while len(init_list) < SEARCH_STARTS:
        init_list.append(0.5 * (rng.standard_normal((size, size)) +
                                1j * rng.standard_normal((size, size))))
    for a0 in init_list:
        v0 = np.concatenate([a0.real.reshape(-1), a0.imag.reshape(-1)])
        sol = scipy.optimize.least_squares(resid, v0, method="trf",
                                           max_nfev=budget, xtol=1e-14, ftol=1e-14)
        a = unpack(sol.x)
        r = _coord_residual(kind, a, point.coords)
        if r < best_r:
            best, best_r = a, r
    return best


def certificate_search(point: DomainPoint, budget: int = 400) -> Certificate:
    """The point's certificate, by the first decode that applies: closed,
    diagonal, axis, else the best of a least-squares search from
    SEARCH_STARTS starts of at most `budget` evaluations each.  A large
    residual means that no membership conclusion should be drawn."""
    if budget < 1:
        raise DomainError("budget must be positive")
    kind = point.kind
    x = point.coords
    if kind in ("penta", "tetra"):
        return _closed_certificate(kind, x)
    d = _diag_decode(point)
    if d is not None:
        return Certificate(d, _coord_residual(kind, d, x),
                           float(np.abs(np.diag(d)).max()), "diagonal")
    if kind == "gamma7":
        axis_mass = max(abs(x[i]) for i in (1, 2, 3, 4))
        if axis_mass <= 1e-8:
            c = _closed_certificate("tetra", (x[0], x[5], x[6]))
            return Certificate(c.A, max(c.residual, axis_mass), c.constraint_value, "axis")
    a = _lsq_certificate(point, budget)
    mu = mu_E(a, mu_for_kind(kind), tol=1e-4)
    return Certificate(a, _coord_residual(kind, a, x), mu, "search")


# ---------------------------------------------------------------------------
# membership


def membership(point: DomainPoint, tol: float = 1e-6) -> MembershipReport:
    """Verdict by one rule on the point's certificate: a residual above
    1e-6 gives "unknown"; a bound at most 1 + tol "inside" (the closed
    domain), or "boundary" on the kind's distinguished-boundary set; a
    larger bound "outside" for an exact decode and "unknown" for a search.
    A search bound is mu_E, a sampled lower bound, held to
    1 + max(tol, 1e-6), so a search "inside" still rests on a lower bound
    (ROADMAP item 3).  tol must lie in [0, 1e-2]."""
    if not 0.0 <= tol <= 1e-2:
        raise DomainError("tol must lie in [0, 1e-2]")
    rep = MembershipReport(kind=point.kind, verdict="unknown")
    rep.meta["coords"] = [[z.real, z.imag] for z in point.coords]
    on_boundary = False
    bp = BOUNDARY_PREDICATE.get(point.kind)
    if bp is not None:
        on_boundary, bres = bp(point, tol)
        rep.add("distinguished-boundary", bres, tol, ok=True)

    cert = certificate_search(point)
    bound = cert.constraint_value
    slack = max(tol, 1e-6) if cert.decode == "search" else tol
    rep.meta["decode"] = cert.decode
    rep.meta["certificate_bound"] = bound
    rep.add("certificate-residual", cert.residual, 1e-6)
    rep.add("certificate-bound", max(0.0, bound - 1.0), slack)
    if not cert.residual <= 1e-6:
        return rep
    if bound <= 1.0 + slack:
        rep.verdict = "boundary" if on_boundary else "inside"
    elif cert.decode != "search":
        rep.verdict = "outside"
    return rep
