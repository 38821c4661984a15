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
realisers decide both exactly, as a diagonal realiser in closed form
decides a gamma7 or gamma5 point whose coordinates split.  These decodes
work on the point scaled by an exact power of two (``_pow2_scaled``), so
huge points neither overflow nor raise; a least-squares search skips a
start whose residuals overflow, and a search left without a usable start
reports an infinite residual: "unknown".

Only the least-squares certificate search (``_lsq_certificate``) uses scipy
(``scipy.optimize.least_squares``), imported on its first call; the closed,
diagonal and axis decodes and ``mu_E`` run on numpy alone.  The closed-form
spectral radii of ``mudilate.charpoly`` are imported on first use too, so a
run that takes none (the gallery) neither compiles nor holds that module.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

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


def _det3(a):
    """3x3 determinant by cofactor expansion along the first row: products
    of entries, with no LU and no exp of a log-determinant, so a diagonal
    matrix gives the product of its diagonal to the last bit."""
    return (a[0, 0] * _minor(a, 1, 2)
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]))


def gamma7_coords(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return (a[0, 0], a[1, 1], _minor(a, 0, 1), a[2, 2], _minor(a, 0, 2),
            _minor(a, 1, 2), _det3(a))


def gamma5_coords(a) -> tuple:
    a = np.asarray(a, dtype=complex)
    return (a[0, 0], _minor(a, 0, 1) + _minor(a, 0, 2), _det3(a),
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


def _eig_radius(a: np.ndarray, structure: BlockStructure, zs: np.ndarray) -> np.ndarray:
    """Spectral radius of A D(z) for a batch of z rows by LAPACK's
    eigensolver, in chunks of at most 2^16 matrix entries so that memory does
    not grow with the batch."""
    rows = max(1, 2 ** 16 // structure.n ** 2)
    out = np.empty(len(zs))
    for lo in range(0, len(zs), rows):
        diag = np.repeat(zs[lo:lo + rows], structure.r, axis=1)
        out[lo:lo + rows] = np.abs(np.linalg.eigvals(a[None] * diag[:, None, :])).max(axis=1)
    return out


def _structure_radius(a: np.ndarray, structure: BlockStructure, zs: np.ndarray,
                      table=None) -> np.ndarray:
    """Spectral radius of A D(z), D(z) = diag(z_1 I_{r_1}, ...), for a batch
    of z rows.  For n <= 4 it is the largest root modulus of the
    characteristic polynomial (``charpoly.charpoly_radius``), its
    coefficients read off ``table`` (the ``charpoly.minor_table`` of A,
    formed here when not given).  Rows whose roots fail its backward- and
    forward-error rule, and every row when n > charpoly.CLOSED_DEGREE (no
    closed form exists: Abel-Ruffini), go to the eigensolver
    (``_eig_radius``), the one fallback."""
    from . import charpoly

    if structure.n > charpoly.CLOSED_DEGREE:
        return _eig_radius(a, structure, zs)
    out, ok = charpoly.charpoly_radius(
        charpoly.minor_table(a, structure.r) if table is None else table, zs)
    if not ok.all():
        out[~ok] = _eig_radius(a, structure, zs[~ok])
    return out


def _quadratic_fit(o: np.ndarray) -> np.ndarray:
    """The linear map from values at the offsets ``o`` (one row per point of
    the cube {-1, 0, 1}^d, centre included) to the gradient and the
    row-major Hessian of their quadratic model, in units of the step, by
    central differences: g_k = (f(e_k) - f(-e_k)) / 2,
    H_kk = f(e_k) - 2 f(0) + f(-e_k) and
    H_kl = (f(e_k + e_l) - f(e_k - e_l) - f(-e_k + e_l) + f(-e_k - e_l)) / 4.
    All three are exact on a quadratic."""
    nz = np.count_nonzero(o, axis=1)[:, None, None]
    eye = np.eye(o.shape[1])
    hess = o[:, :, None] * o[:, None, :] * np.where(nz == 2, 0.25 * (1.0 - eye), nz == 1)
    hess -= 2.0 * (nz == 0) * eye
    return np.concatenate([o * (nz[:, :, 0] == 1) / 2.0, hess.reshape(len(o), -1)], axis=1)


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
    * a pattern-search zoom around every seed (Torczon, "On the convergence
      of pattern search algorithms", SIAM J. Optim. 7, 1997), all live
      seeds in one batch per level, for at most 200 levels, from a step of
      one coarse cell over p.  On one free axis p = 8, the stencil is the
      16 offsets in {-8..8} times the seed's step, and a seed moves to its
      best stencil point and divides its step by 8 unless that point lies
      on the outer ring +-8.  On s - 1 >= 5 free axes p = 2, the stencil
      is +-1 along each axis, and a seed moves to its best stencil point
      and keeps its step, or halves its step when no stencil point beats
      it.  On s - 1 = 2, 3, 4 free axes p = 2 and the stencil is the cube
      {-1, 0, 1}^(s-1) times the step, centre included (9, 27 and 81
      points).  Its values give the quadratic model of the level by central
      differences (``_quadratic_fit``).  When the model is concave and its
      maximiser c + delta h has ||delta||_inf <= 1, the next level is
      centred on that point with step h / 8, and its centre is evaluated
      there.  Otherwise the seed moves to its best stencil point and doubles
      its step, capped at one coarse cell, or halves its step when the
      centre is best.  This is the "search step" of a pattern search, here
      on a model built from the poll's own values (Audet & Dennis, "Mesh
      adaptive direct search algorithms for constrained optimization", SIAM
      J. Optim. 17, 2006; Conn, Scheinberg & Vicente, "Introduction to
      Derivative-Free Optimization", SIAM 2009, ch. 7 and 10).  A seed
      stops when its last level gained at most tol / 4 and its step is at
      most tol / (4 ||A||), or when a better seed's centre lies within p
      steps of it (both climb the same peak).

    Each batch is one ``_structure_radius`` call on the minor table of A,
    formed once per call.  The result is the largest evaluated value: a
    lower bound on mu that the zoom drives to a local maximum, not a
    certified value.
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
    p = 8 if sfree == 1 else 2  # step divisor; a merge reaches p steps
    reach = p if sfree == 1 else 1  # stencil half-width in steps
    pts = min(64, int(1024 ** (1.0 / sfree) + 1e-9))
    grid = _reduced_torus(sfree, pts)
    from . import charpoly

    table = charpoly.minor_table(m, structure.r) if structure.n <= charpoly.CLOSED_DEGREE else None
    vals = _structure_radius(m, structure, grid, table).reshape((pts,) * sfree)
    peak = np.ones(vals.shape, dtype=bool)
    for ax in range(sfree):
        peak &= (vals >= np.roll(vals, 1, ax)) & (vals >= np.roll(vals, -1, ax))
    cand = np.flatnonzero(peak)
    cand = cand[np.argsort(-vals.ravel()[cand], kind="stable")[:seeds]]
    center, val = np.angle(grid[cand]), vals.ravel()[cand]

    span = np.arange(-reach, reach + 1)
    cube = sfree > 1 and len(span) ** sfree <= 125  # the model step's stencil
    if cube:
        offsets = _lattice(span, sfree)
        fit, mid = _quadratic_fit(offsets), len(offsets) // 2
    elif sfree == 1:
        offsets = span[span != 0][:, None]
    else:
        offsets = np.kron(np.eye(sfree, dtype=int), span[span != 0][:, None])
    offsets = np.concatenate([np.zeros_like(offsets[:, :1]), offsets], axis=1)  # z_1 = 1
    outer = np.abs(offsets).max(axis=1) == reach
    cell = 2.0 * np.pi / pts
    step = np.full(len(val), cell / p)
    stop = tol / (4.0 * norm)
    earlier = np.tri(len(val), k=-1, dtype=bool)
    live = np.ones(len(val), dtype=bool)
    for _ in range(levels):
        idx = np.flatnonzero(live)
        if len(idx) == 0:
            break
        trial = center[idx, None, :] + step[idx, None, None] * offsets
        zs = np.exp(1j * trial.reshape(-1, structure.s))
        v = _structure_radius(m, structure, zs, table).reshape(len(idx), -1)
        rows, k = np.arange(len(idx)), v.argmax(axis=1)
        best = v[rows, k]
        gain = np.maximum(best - val[idx], 0.0)
        val[idx] = np.maximum(val[idx], best)
        if cube:
            up = best > v[:, mid]
            model = v @ fit
            grad, hess = model[:, :sfree], model[:, sfree:].reshape(-1, sfree, sfree)
            newton = np.linalg.eigvalsh(hess)[:, -1] < 0.0
            delta = np.zeros_like(grad)
            delta[newton] = np.linalg.solve(hess[newton], -grad[newton, :, None])[:, :, 0]
            newton &= np.abs(delta).max(axis=1) <= 1.0
            up &= ~newton
            center[idx[newton], 1:] += step[idx[newton], None] * delta[newton]
            step[idx[newton]] /= 8.0
            step[idx[up]] = np.minimum(2.0 * step[idx[up]], cell)
            step[idx[~(up | newton)]] /= 2.0
        else:
            up = gain > 0.0
            step[idx[~(up & outer[k])]] /= p
        center[idx[up]] = trial[rows[up], k[up]]
        live[idx] = (gain > 0.25 * tol) | (step[idx] > stop)
        gap = np.abs(np.angle(np.exp(1j * (center[:, None] - center[None])))).max(axis=2)
        better = (val[None] > val[:, None]) | ((val[None] == val[:, None]) & earlier)
        live &= ~((gap <= p * step[:, None]) & better).any(axis=1)
    return float(val.max())


def mu_for_kind(kind: str):
    return {"gamma7": E311, "gamma5": E312, "tetra": E211}.get(kind)


# ---------------------------------------------------------------------------
# rational sup-norm criteria


# the w circle of psi3_supnorm: PSI3_W_ANGLES equispaced angles half a step
# off 1, then PSI3_W_REFINE angles across the two steps about the best one
PSI3_W_ANGLES = 64
PSI3_W_REFINE = 17


def _psi3_z_sup(den, num, w: np.ndarray) -> np.ndarray:
    """sup over |z| = 1 of |psi(z, w)| at each w, for the (possibly scaled)
    coefficients den = (1, x1, x2, x3) and num = (x4, x5, x6, x7)."""
    (one, x1, x2, x3), (x4, x5, x6, x7) = den, num
    a, b, c, d = x4 - w * x6, x5 - w * x7, one - w * x2, x1 - w * x3
    g = c.real ** 2 + c.imag ** 2 - d.real ** 2 - d.imag ** 2
    return (np.abs(a * c.conj() - b * d.conj()) + np.abs(a * d - b * c)) / np.abs(g)


def psi3_supnorm(x: DomainPoint) -> float:
    """Sup over the two-torus of |psi(z, w)|, the rational symbol of a gamma7
    point, psi = (x4 - z x5 - w x6 + z w x7) / (1 - z x1 - w x2 + z w x3).

    Exact in z: for fixed w, z -> (a - b z)/(c - d z) with a = x4 - w x6,
    b = x5 - w x7, c = 1 - w x2, d = x1 - w x3 maps the unit circle onto the
    circle of centre (a c* - b d*)/g and radius |a d - b c|/|g|, g = |c|^2 -
    |d|^2 (Ahlfors, Complex Analysis, ch. 3), so sup_z is their sum.

    On |w| = 1, g = alpha - 2 Re(w beta), alpha = 1 + |x2|^2 - |x1|^2 -
    |x3|^2, beta = x2 - x1* x3, so the denominator vanishes on the torus iff
    |alpha| <= 2 |beta|: PoleOnTorusError, before any sampling.  A point
    whose (x1, x2, x3) lies in the open tetrablock has no such zero on the
    closed bidisc (its defining property: Abouhajar, White & Young, J. Geom.
    Anal. 17, 2007), so no pi-family point and no point realised by a
    strict contraction raises.

    The sup over w is sampled (PSI3_W_ANGLES angles, then PSI3_W_REFINE
    about the best), so the value is a lower bound, not a certified one.
    Denominator and numerator are each scaled by an exact power of two
    (``_pow2_scaled``), so huge points neither overflow nor raise.
    """
    if x.kind != "gamma7":
        raise DomainError("the two-variable symbol takes gamma7 points")
    sd, den = _pow2_scaled((1,) * 4, (1.0, *x.coords[:3]))
    sn, num = _pow2_scaled((1,) * 4, x.coords[3:])
    one, x1, x2, x3 = den
    alpha = abs(one) ** 2 + abs(x2) ** 2 - abs(x1) ** 2 - abs(x3) ** 2
    if abs(alpha) <= 2.0 * abs(one * x2 - x1.conjugate() * x3):
        raise PoleOnTorusError("the denominator vanishes on the torus")
    step = 2.0 * np.pi / PSI3_W_ANGLES
    ang = step * (np.arange(PSI3_W_ANGLES) + 0.5)
    vals = _psi3_z_sup(den, num, np.exp(1j * ang))
    k = vals.argmax()
    loc = ang[k] + np.linspace(-step, step, PSI3_W_REFINE)
    best = max(vals[k], _psi3_z_sup(den, num, np.exp(1j * loc)).max())
    # sd / sn is a power of two in [2^-1022, 2^1022]: exact
    return float(best) * (sd / sn)


# ---------------------------------------------------------------------------
# boundary predicates


def _capped(*terms) -> float:
    """Largest residual term.  A product of huge coordinates can overflow
    to inf (the predicates silence numpy's warning); it reads
    sys.float_info.max, which still fails every tolerance."""
    res = max(terms)
    return res if res <= sys.float_info.max else sys.float_info.max


@np.errstate(over="ignore", invalid="ignore")
def on_K(p: DomainPoint, tol: float = 1e-6) -> tuple:
    x = p.coords
    res = _capped(abs(abs(x[6]) - 1.0),
                  abs(x[0] - np.conj(x[5]) * x[6]),
                  abs(x[2] - np.conj(x[3]) * x[6]),
                  abs(x[4] - np.conj(x[1]) * x[6]))
    return res <= tol, res


@np.errstate(over="ignore", invalid="ignore")
def on_K1(p: DomainPoint, tol: float = 1e-6) -> tuple:
    x1, x2, x3, y1, y2 = p.coords
    res = _capped(abs(abs(x3) - 1.0),
                  abs(x1 - np.conj(y2) * x3),
                  abs(x2 - np.conj(y1) * x3))
    return res <= tol, res


@np.errstate(over="ignore", invalid="ignore")
def on_K0(p: DomainPoint, tol: float = 1e-6) -> tuple:
    x1, x2, x3 = p.coords
    half = min(abs(x2) / 2.0, 1.0)  # |x2| > 2 already fails; the square stays finite
    res = _capped(max(0.0, abs(x2) - 2.0),
                  abs(abs(x3) - 1.0),
                  abs(x2 - np.conj(x2) * x3),
                  abs(abs(x1) - np.sqrt(1.0 - half * half)))
    return res <= tol, res


BOUNDARY_PREDICATE = {"gamma7": on_K, "gamma5": on_K1, "penta": on_K0}


# ---------------------------------------------------------------------------
# certificate search

# least-squares starts, their seed and the evaluations allowed per start
SEARCH_STARTS, SEARCH_SEED, SEARCH_BUDGET = 8, 20260808, 400


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


# degree of each coordinate in the matrix entries: s A realises s^d x_i
DEGREES = {"gamma7": (1, 1, 2, 1, 2, 2, 3), "gamma5": (1, 2, 3, 1, 2),
           "tetra": (1, 1, 2), "penta": (1, 1, 2)}
_ROOT = (None, abs, math.sqrt, math.cbrt)


def _pow2_scaled(degrees, x) -> tuple:
    """(s, s-scaled x): s = 2^-k with k >= 0 the least exponent that brings
    the d-th root of every part of x[i] below 4, d = degrees[i] its degree
    in the matrix entries, so that s A realises the scaled point exactly
    when A realises x, and the scaled point has x's bits (a part far below
    the point's size may lose bits to underflow, far below any residual
    tolerance).  k = 0 unless some coordinate has modulus 4 or more, so
    every point with coordinates in the range of the closed domains (moduli
    at most 2) is computed unscaled, and its residual is absolute."""
    if max(map(abs, x)) < 4.0:
        return 1.0, x
    size = max(_ROOT[d](max(abs(z.real), abs(z.imag))) for z, d in zip(x, degrees))
    s = 2.0 ** -max(0, math.frexp(size)[1] - 2)
    scaled = []
    for z, d in zip(x, degrees):
        for _ in range(d):  # one factor at a time: s^3 itself can underflow
            z *= s
        scaled.append(z)
    return s, tuple(scaled)


def _closed_certificate(kind, x) -> Certificate:
    """Minimal-norm tetra or penta certificate.  The realiser and its
    residual are computed on the point scaled by ``_pow2_scaled``, then
    scaled back: huge points do not overflow, except a bound above the float
    range, which reads sys.float_info.max."""
    s, y = _pow2_scaled(DEGREES[kind], x)
    b = (_min_norm_penta if kind == "penta" else _min_norm_tetra)(*y)
    return Certificate(b / s, _coord_residual(kind, b, y),
                       min(_norm2(b) / s, sys.float_info.max), "closed")


def _diag_decode(point: DomainPoint, tol: float = 1e-8):
    """Closed-form diagonal certificate when the coordinates split, or None
    when its residual exceeds tol.  The diagonal (p, q, r), the residual and
    the bound max |p|, |q|, |r| are Python complex arithmetic on the point
    scaled by ``_pow2_scaled`` (so the residual is relative to the point's
    size, and nothing overflows), then scaled back:

    * gamma7: diag(x1, x2, x4) has coordinates (p, q, pq, r, pr, qr, pqr);
    * gamma5: diag(x1, q, r) has coordinates (p, p(q+r), pqr, q+r, qr) with
      q, r the roots of l^2 - y1 l + y2.  The quadratic formula takes the
      larger root q with the sign that makes Re(conj(y1) sqrt(disc)) >= 0,
      so that y1 and the root of the discriminant do not cancel, and
      r = y2 / q (Vieta)."""
    s, y = _pow2_scaled(DEGREES[point.kind], point.coords)
    if point.kind == "gamma7":
        p, q, x3, r, x5, x6, x7 = y
        pq = p * q
        res = max(abs(pq - x3), abs(p * r - x5), abs(q * r - x6), abs(pq * r - x7))
    else:
        p, x2, x3, y1, y2 = y
        root = cmath.sqrt(y1 * y1 - 4.0 * y2)
        if (y1.conjugate() * root).real < 0.0:
            root = -root
        q = (y1 + root) / 2.0
        r = y2 / q if q else 0j
        qr = q * r
        res = max(abs(p * (q + r) - x2), abs(p * qr - x3), abs(q + r - y1), abs(qr - y2))
    if not res <= tol:
        return None
    a = np.zeros((3, 3), dtype=complex)
    a.flat[::4] = [p / s, q / s, r / s]
    return Certificate(a, res, min(max(abs(p), abs(q), abs(r)) / s, sys.float_info.max),
                       "diagonal")


@np.errstate(over="ignore", invalid="ignore")
def _lsq_certificate(point: DomainPoint):
    """The best least-squares realiser and its residual.  A start whose
    residual vector is not finite (its coordinates overflow) is skipped, and
    a step past the float range reads as an infinite residual, which trf
    answers by shrinking its trust region; with no start left, the first
    start comes back with residual inf."""
    import scipy.optimize

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
        if not np.isfinite(v).all():
            return np.full(2 * len(target) + 1, np.inf)
        a = unpack(v)
        diff = np.array(COORD_MAP[kind](a)) - target
        mu = _structure_radius(a, structure, coarse).max()
        pen = 4.0 * max(0.0, mu - 1.0)
        return np.concatenate([diff.view(float), [pen]])

    diag = _diag_decode(point, tol=1e-3)
    init_list = ([] if diag is None else [diag.A]) + [np.diag(target[:size])]
    while len(init_list) < SEARCH_STARTS:
        init_list.append(0.5 * (rng.standard_normal((size, size)) +
                                1j * rng.standard_normal((size, size))))
    best, best_r = init_list[0], np.inf
    for a0 in init_list:
        v0 = np.concatenate([a0.real.reshape(-1), a0.imag.reshape(-1)])
        if not np.isfinite(resid(v0)).all():
            continue
        sol = scipy.optimize.least_squares(resid, v0, method="trf",
                                           max_nfev=SEARCH_BUDGET, xtol=1e-14, ftol=1e-14)
        a = unpack(sol.x)
        r = _coord_residual(kind, a, point.coords)
        if r < best_r:
            best, best_r = a, r
    return best, best_r


def certificate_search(point: DomainPoint) -> Certificate:
    """The point's certificate, by the first decode that applies: closed,
    diagonal, axis, else the best of a least-squares search from
    SEARCH_STARTS starts of at most SEARCH_BUDGET evaluations each.  A large
    residual means that no membership conclusion should be drawn."""
    kind = point.kind
    x = point.coords
    if kind in ("penta", "tetra"):
        return _closed_certificate(kind, x)
    cert = _diag_decode(point)
    if cert is not None:
        return cert
    if kind == "gamma7":
        axis_mass = max(abs(x[i]) for i in (1, 2, 3, 4))
        if axis_mass <= 1e-8:
            c = _closed_certificate("tetra", (x[0], x[5], x[6]))
            return Certificate(c.A, max(c.residual, axis_mass), c.constraint_value, "axis")
    a, res = _lsq_certificate(point)
    mu = min(mu_E(a, mu_for_kind(kind), tol=1e-4), sys.float_info.max)
    return Certificate(a, res, mu, "search")


# ---------------------------------------------------------------------------
# membership


def membership(point: DomainPoint, tol: float = 1e-6) -> MembershipReport:
    """Verdict by one rule on the point's certificate: a residual above
    1e-6 gives "unknown"; a bound at most 1 + tol "inside" (the closed
    domain), or "boundary" on the kind's distinguished-boundary set; a
    larger bound "outside" for an exact decode and "unknown" for a search.
    A search bound is mu_E, a sampled lower bound, held to
    1 + max(tol, 1e-6), so a search "inside" still rests on a lower bound
    (ROADMAP, "Two-sided mu_E and sound search verdicts").  tol must lie in
    [0, 1e-2]."""
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
    rep.add("certificate-residual", _capped(cert.residual), 1e-6)
    rep.add("certificate-bound", max(0.0, bound - 1.0), slack)
    if not cert.residual <= 1e-6:
        return rep
    if bound <= 1.0 + slack:
        rep.verdict = "boundary" if on_boundary else "inside"
    elif cert.decode != "search":
        rep.verdict = "outside"
    return rep
