"""Dense complex-matrix kernel: operators, norms, square roots, radii,
kernels and commutator norms.

All quantities are computed for explicit finite matrices.  An operator is a
plain 2-D complex ndarray; ``_mat`` is the one converter and carries every
input check (2-D, positive dimensions, finite entries).  Truncation windows
read the level shift of an operator off its nonzero entries
(``spaces.auto_margin``).

Support rule: residual checks run on compact forms (``_Block``), blocks on
the nonzero rows x columns read once per operand by ``_support``.  This is
exact: ``_mat`` admits only finite entries, so each dropped term is 0 * x = 0,
and deleting zero rows and columns keeps the nonzero singular values.  Checks
of the mostly-zero dilations so cost about their nonzero content.

The kernel runs on numpy alone except for the QZ fallback of
``numerical_radius`` on input that is not unit-graded (``_level_set_radius``),
which imports ``scipy.linalg`` on first use: importing mudilate and running
the gallery never load scipy.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np


# largest dense dimension a constructor may build (one complex 4096 x 4096
# matrix is 256 MiB); egervary, the dilation constructors and GalleryCase
# check the dimension they are about to build against it
MAX_DENSE_DIM = 4096


class OpcoreError(ValueError):
    """Base error for kernel-level misuse."""


class NotHermitianError(OpcoreError):
    pass


class NegativeEigenvalueError(OpcoreError):
    pass


def _mat(x) -> np.ndarray:
    """The one converter: ``x`` as a 2-D complex array with positive
    dimensions and finite entries.  Complex input is returned uncopied."""
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise OpcoreError(f"operator entries must be a matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise OpcoreError(f"operator dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise OpcoreError("operator entries must be finite")
    return m


def _square(x, what: str) -> np.ndarray:
    m = _mat(x)
    if m.shape[0] != m.shape[1]:
        raise OpcoreError(f"{what} needs a square matrix")
    return m


ARITY = {"gamma7": 7, "gamma5": 5, "penta": 3, "tetra": 3, "sym": 2}


@dataclass
class OperatorTuple:
    """A kind-tagged family of square operators on a shared space."""

    kind: str
    ops: tuple

    def __post_init__(self):
        if self.kind not in ARITY:
            raise OpcoreError(f"unknown tuple kind {self.kind!r}")
        ops = tuple(_mat(o) for o in self.ops)
        if len(ops) != ARITY[self.kind]:
            raise OpcoreError(
                f"kind {self.kind!r} needs {ARITY[self.kind]} operators, got {len(ops)}"
            )
        dim = ops[0].shape[0]
        if any(o.shape != (dim, dim) for o in ops):
            raise OpcoreError("tuple members must be square on a common space")
        self.ops = ops

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]


def _support(m: np.ndarray):
    """Boolean masks (rows, cols) of the nonzero rows and columns of ``m``,
    the one reading of a matrix's support: the submatrix they cut out has
    the nonzero singular values of ``m``."""
    return m.any(axis=1), m.any(axis=0)


def _ix(r, c):
    """np.ix_(r, c) for boolean masks, or a view of the whole block if both are full."""
    return (slice(None),) * 2 if r.all() and c.all() else np.ix_(r, c)


class _Block:
    """Compact form of an operator: block ``blk`` on rows ``r`` x columns ``c``
    (boolean masks over the full dimensions), zero elsewhere.  ``@`` sums over
    the shared nonzero inner indices, ``+``/``-`` use the union frame."""

    __slots__ = ("blk", "r", "c")
    __array_ufunc__ = None  # a numpy operand must not absorb a form

    def __init__(self, blk, r, c):
        self.blk, self.r, self.c = blk, r, c

    @property
    def shape(self):
        return len(self.r), len(self.c)

    @property
    def H(self):
        return _Block(self.blk.conj().T, self.c, self.r)

    def __rmul__(self, w):
        return _Block(w * self.blk, self.r, self.c)

    def __matmul__(self, other):
        k = self.c & other.r
        ka, kb = k[self.c], k[other.r]
        return _Block((self.blk if ka.all() else self.blk[:, ka])
                      @ (other.blk if kb.all() else other.blk[kb]), self.r, other.c)

    def __add__(self, other, op=operator.iadd):
        r, c = self.r | other.r, self.c | other.c
        out = np.zeros((r.sum(), c.sum()), dtype=complex)
        out[_ix(self.r[r], self.c[c])] = self.blk
        ix = _ix(other.r[r], other.c[c])
        out[ix] = op(out[ix], other.blk)  # in place on a view: no n x n temporary
        return _Block(out, r, c)

    def __sub__(self, other):
        return self.__add__(other, operator.isub)


def _compact(x) -> _Block:
    """``x`` (a dense operand or a compact form) cut to its own nonzero rows
    and columns; a full-support operand is kept uncopied."""
    if not isinstance(x, _Block):
        m = _mat(x)
        r, c = _support(m)
        return _Block(m[_ix(r, c)], r, c)
    r, c = _support(x.blk)
    rows, cols = x.r.copy(), x.c.copy()
    rows[x.r], cols[x.c] = r, c
    return _Block(x.blk[_ix(r, c)], rows, cols)


def op_norm(a) -> float:
    """Largest singular value of a dense array or a compact form (0.0 if zero)."""
    f = _compact(a)
    return float(np.linalg.norm(f.blk, 2)) if f.blk.size else 0.0


def herm_sqrt(h) -> np.ndarray:
    """Principal square root of a PSD matrix, Hermitian to 1e-10.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower is an
    error (the input is then genuinely indefinite, not just noisy).
    """
    m = _square(h, "square root")
    asym = np.linalg.norm(m - m.conj().T, 2)
    if asym > 1e-10:
        raise NotHermitianError(f"input is not Hermitian: asymmetry {asym:.3e}")
    sym = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w.min() < -1e-10:
        raise NegativeEigenvalueError(f"eigenvalue {w.min():.6e} below the clamp window -1e-10")
    w = np.clip(w, 0.0, None)
    s = (v * np.sqrt(w)) @ v.conj().T
    return (s + s.conj().T) / 2.0


def spectral_radius(a) -> float:
    return float(np.abs(np.linalg.eigvals(_square(a, "spectral radius"))).max())


NR_BATCH = 8  # angles per eigvalsh call; also the number of start angles
# | |z| - 1 | up to this counts as a level crossing: QZ moves a crossing off
# the circle by roundoff (about sqrt(eps) near a double root), and a spurious
# angle costs only one more midpoint
NR_CIRCLE_TOL = 1e-6
NR_TOL = 1e-8  # relative stopping tolerance of the level-set iteration


def _theta_profile(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max of Re(e^{i theta} M) for a batch of angles.

    Re(e^{i theta} M) = cos(theta) B - sin(theta) C with B and C the
    Hermitian and skew-Hermitian parts of M; ``eigvalsh`` takes the angles
    NR_BATCH at a time, so memory stays O(n^2) however many angles come.
    """
    b = (m + m.conj().T) / 2.0
    c = (m - m.conj().T) / 2.0j
    out = np.empty(len(thetas))
    for lo in range(0, len(thetas), NR_BATCH):
        t = thetas[lo:lo + NR_BATCH, None, None]
        out[lo:lo + NR_BATCH] = np.linalg.eigvalsh(np.cos(t) * b - np.sin(t) * c)[:, -1]
    return out


@dataclass(frozen=True)
class Grading:
    """What integer potentials on a family's support admit.  A potential g
    on the coordinates gives an operand X degree d if g(row) - g(col) = d on
    supp X.  ``unit``: some potential gives every operand degree 1;
    ``z_free``: some potential gives the two operands different degrees."""

    unit: bool
    z_free: bool


def grading(a, b=None) -> Grading:
    """The gradings of the family (A, B) (of A alone if B is None), read off
    its exact nonzero pattern.

    One breadth-first search of the support graph (the nonzeros of both
    operands as undirected edges) fixes g on a spanning forest as an integer
    combination pot(v) . (d_a, d_b) of the unknown degrees.  Every nonzero
    (row, col) of the operand with unit vector e then demands
    (pot(row) - pot(col) - e) . (d_a, d_b) = 0.  A pair d meeting every
    condition is a grading, realised by g = pot . d; on a spanning forest
    every grading meets them, so they cut out exactly the admissible degree
    pairs: ``unit`` iff (1, 1) satisfies them, ``z_free`` iff some pair with
    d_a != d_b does.  The search loops over nodes, not nonzeros, and all
    nonzeros are checked at once, so a dense matrix costs array work.
    """
    ops = [_square(a, "grading")] + ([] if b is None else [_square(b, "grading")])
    n = ops[0].shape[0]
    if ops[-1].shape[0] != n:
        raise OpcoreError("a graded family needs operands on one space")
    nz = [o != 0 for o in ops]
    e = np.eye(2, dtype=np.int64)
    support = np.logical_or.reduce(nz)
    # step[v, u] = pot(u) - pot(v) across one nonzero joining v and u:
    # -e across a nonzero (v, u) of the operand with unit vector e, +e across (u, v)
    arc = np.where(nz[0][..., None], e[0], e[1])
    step = np.where(support[..., None], -arc, arc.transpose(1, 0, 2))
    adjacent = support | support.T
    pot = np.zeros((n, 2), dtype=np.int64)
    seen = np.zeros(n, dtype=bool)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for v in queue:
            new = np.flatnonzero(adjacent[v] & ~seen)
            seen[new] = True
            pot[new] = pot[v] + step[v, new]
            queue.extend(new.tolist())
    cond = np.concatenate([pot[r] - pot[c] - x for (r, c), x in zip(map(np.nonzero, nz), e)])
    unit = not cond.sum(axis=1).any()
    rows = cond[cond.any(axis=1)]
    if not len(rows):
        return Grading(unit, True)
    # rank one: the admissible pairs are the multiples of (u_b, -u_a)
    u = rows[0]
    rank_one = not (u[0] * rows[:, 1] - u[1] * rows[:, 0]).any()
    return Grading(unit, bool(rank_one and u.sum() != 0))


def numerical_radius(a, unit_graded: bool = False) -> float:
    """omega(A) = max over theta of lambda_max((e^{i theta}A + e^{-i theta}A*)/2).

    Unit-graded A (``grading(A).unit``: a potential g with g(row) - g(col) = 1
    on supp A, as for the zero matrix, truncated shifts and the gallery's
    shift-block fundamentals) is decided exactly by one ``eigvalsh``:
    D = diag(e^{i theta g}) is unitary and D A D* = e^{i theta} A, so the
    profile is constant and omega(A) = lambda_max(Re A).  A caller that
    has shown A unit-graded (a member A + zB of a family with
    ``grading(A, B).unit`` is) passes ``unit_graded=True``, and A is not
    graded again.

    Any other A takes the level-set iteration of Mengi & Overton,
    "Algorithms for the computation of the pseudospectral radius and the
    numerical radius of a matrix", IMA J. Numer. Anal. 25 (2005).  The
    level f starts as the largest profile value at eight equally spaced
    angles (at least cos(pi/8) omega).  Each step finds every angle where f
    is an eigenvalue of the profile matrix: the unit-modulus eigenvalues
    z = e^{i theta} of the 2n x 2n pencil

        [[0, I], [-A*, 2f I]] v = z [[I, 0], [0, A]] v,

    solved by QZ, so a singular A (nilpotent, say) needs no inverse.  The
    superlevel set {theta: profile >= f} is a union of arcs between these
    angles; the profile at the arc midpoints gives the next level, which
    converges quadratically to omega at a smooth maximum.  The iteration
    stops when no midpoint beats f by more than ``NR_TOL * f``.
    """
    m = _square(a, "numerical radius")
    if unit_graded or grading(m).unit:
        return float(_theta_profile(m, np.zeros(1))[0])
    return _level_set_radius(m)


def _level_set_radius(m: np.ndarray) -> float:
    """The Mengi-Overton level-set iteration of ``numerical_radius``.  A flat
    profile that reaches it makes the pencil singular at the exact level;
    its eigenvalues are then arbitrary, the midpoints only reproduce f to
    roundoff, and the sampled start value, already exact, is returned."""
    import scipy.linalg

    n = m.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    rhs = np.block([[eye, zero], [zero, m]])
    level = _theta_profile(m, np.arange(NR_BATCH) * (2.0 * np.pi / NR_BATCH)).max()
    while True:
        pencil = np.block([[zero, eye], [-m.conj().T, 2.0 * level * eye]])
        z = scipy.linalg.eigvals(pencil, rhs)
        theta = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) <= NR_CIRCLE_TOL]))
        if len(theta) == 0:
            return float(level)
        mids = (theta + np.append(theta[1:], theta[0] + 2.0 * np.pi)) / 2.0
        best = _theta_profile(m, mids).max()
        if best <= level * (1.0 + NR_TOL):
            return float(max(level, best))
        level = best


def kernel_basis(a) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel, via SVD: singular
    values below 1e-8 * op_norm(A) count as zero."""
    m = _mat(a)
    if not np.any(m):
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s >= 1e-8 * s[0]))
    return vh[rank:].conj().T


class WholeSpace:
    """The whole space as a window: no margin, plain norms, no compression."""

    margin = None

    def wnorm(self, a) -> float:
        return op_norm(a)

    def compress(self, a) -> np.ndarray:
        return _mat(a)

    def inside(self, b: np.ndarray) -> np.ndarray:
        return np.eye(b.shape[1])


WHOLE_SPACE = WholeSpace()


def commutator_norms(ops, window=WHOLE_SPACE) -> list:
    """Pairwise commutator norms ||[A_i, A_j]|| seen through the window."""
    fs = [_compact(o) for o in ops]
    return [((i, j), window.wnorm(fs[i] @ fs[j] - fs[j] @ fs[i]))
            for i in range(len(fs)) for j in range(i + 1, len(fs))]
