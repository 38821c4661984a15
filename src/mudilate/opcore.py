"""Dense complex-matrix kernel: operators, norms, square roots, radii,
kernels and commutator norms.

All quantities are computed for explicit finite matrices.  An operator is a
plain 2-D complex ndarray; ``_mat`` is the one converter and carries every
input check (2-D, positive dimensions, finite entries).  Truncation windows
read the level shift of an operator off its nonzero entries
(``spaces.auto_margin``).

Coordinate rule: residual checks and dilations run on coordinate forms
(``_Block``), the nonzeros of an operator read by ``_compact``.  The object
that holds an operator owns its form, read once: ``OperatorTuple.forms``,
``DefectData.form``, ``FundamentalSet.forms`` (its only copy of each F) and
the members of a ``DilationResult``; no check compacts those arrays again.
This is exact: ``_mat`` admits only finite entries, so each dropped term is
0 * x = 0, and zero rows and columns carry no nonzero singular value.  A product sums
the terms a_ik b_kj of each entry, unless there are more terms than entries
in the product of the two support blocks; one BLAS product of the blocks is
then cheaper and no larger.  Dilations so cost about their nonzeros, and a
dense operand one BLAS product plus the scatter and gather around it.

The kernel runs on numpy alone except for the QZ fallback of
``numerical_radius`` on input that is not unit-graded (``_level_set_radius``),
which imports ``scipy.linalg`` on first use: importing mudilate and running
the gallery never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from weakref import ref

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


def _frame(ids, size):
    """The ascending distinct values of an index array over range(size), and
    the position of each index among them."""
    seen = np.bincount(ids, minlength=size) > 0
    return np.flatnonzero(seen), ids if seen.all() else (np.cumsum(seen) - 1)[ids]


def _starts(ids) -> np.ndarray:
    """Where each run of equal values starts in a sorted index array."""
    return np.flatnonzero(np.concatenate((ids[:1] >= 0, ids[1:] != ids[:-1])))


def _coalesce(i, j, v, shape) -> "_Block":
    """The form of the entries ``v`` at (i, j): keys sorted unless they
    already are, the values of a repeated key summed in their given order
    (a pair in one addition, exact as a dense sum), zeros dropped."""
    key = i * shape[1] + j
    if (key[1:] <= key[:-1]).any():
        order = np.argsort(key, kind="stable")
        key, v = key[order], v[order]
        start = _starts(key)
        if len(start) < len(key):
            key, v = key[start], np.add.reduceat(v, start)
        i, j = np.divmod(key, shape[1])
    keep = v != 0
    if not keep.all():
        i, j, v = i[keep], j[keep], v[keep]
    return _Block(i, j, v, shape)


class _Block:
    """Coordinate form of an operator of ``shape``: its nonzero values ``v``
    at rows ``i`` and columns ``j``, sorted by (i, j) with unique keys and
    no stored zeros.  ``+``/``-`` concatenate and coalesce, ``.H`` swaps
    the index arrays, and ``@`` expands and coalesces (Gustavson, ACM TOMS
    4, 1978) unless a BLAS product of the support blocks is smaller."""

    __slots__ = ("i", "j", "v", "shape")
    __array_ufunc__ = None  # a numpy operand must not absorb a form

    def __init__(self, i, j, v, shape):
        self.i, self.j, self.v, self.shape = i, j, v, shape

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.i, self.j] = self.v
        return out

    def block(self):
        """The support block on the nonzero rows x columns, and those rows and columns."""
        (rows, ri), (cols, ci) = _frame(self.i, self.shape[0]), _frame(self.j, self.shape[1])
        out = np.zeros((len(rows), len(cols)), dtype=complex)
        out[ri, ci] = self.v
        return out, rows, cols

    @property
    def H(self):
        return _coalesce(self.j, self.i, self.v.conj(), self.shape[::-1])

    def __rmul__(self, w):
        return _coalesce(self.i, self.j, w * self.v, self.shape)

    def __add__(self, other, neg=False):
        if self.shape != other.shape:
            raise OpcoreError(f"forms of shapes {self.shape} and {other.shape} do not add")
        return _coalesce(np.concatenate((self.i, other.i)), np.concatenate((self.j, other.j)),
                         np.concatenate((self.v, -other.v if neg else other.v)), self.shape)

    def __sub__(self, other):
        return self.__add__(other, neg=True)

    def __matmul__(self, b):
        if self.shape[1] != b.shape[0]:
            raise OpcoreError(f"forms of shapes {self.shape} and {b.shape} do not multiply")
        per_row = np.bincount(b.i, minlength=b.shape[0])
        cnt = per_row[self.j]  # the terms of each A entry: B's row at its column
        terms, shape = int(cnt.sum()), (self.shape[0], b.shape[1])
        if terms <= len(_starts(self.i)) * np.count_nonzero(np.bincount(b.j)):
            # the terms of an A entry in column k are B's row k, entries lo .. lo + cnt - 1
            lo = (per_row.cumsum() - per_row)[self.j]
            at = (lo - cnt.cumsum() + cnt).repeat(cnt) + np.arange(terms)
            return _coalesce(self.i.repeat(cnt), b.j[at], self.v.repeat(cnt) * b.v[at], shape)
        # the expansion outgrows the product of the support blocks: one BLAS
        # product on the inner indices both use; the peak is the two blocks
        # and their product
        del cnt
        inner = (np.bincount(self.j, minlength=len(per_row)) > 0) & (per_row > 0)
        (x, rows, _), (y, _, cols) = (
            (f if inner.all() else _Block(f.i[m], f.j[m], f.v[m], f.shape)).block()
            for f, m in ((self, inner[self.j]), (b, inner[b.i])))
        p = x @ y
        del x, y
        r, c = np.nonzero(p)
        v, p = p[r, c], None
        return _Block(rows[r], cols[c], v, shape)


def _compact(x) -> _Block:
    """``x`` as a coordinate form: a form is returned as is, an array is read
    once for its nonzeros."""
    if isinstance(x, _Block):
        return x
    m = _mat(x)
    i, j = np.nonzero(m)
    return _Block(i, j, m[i, j], m.shape)


class WholeSpace:
    """The whole space as a window: no margin, plain norms, no compression."""

    margin = None

    def wnorm(self, a) -> float:
        return op_norm(a)

    def compress(self, a) -> np.ndarray:
        return a.dense() if isinstance(a, _Block) else _mat(a)

    def inside(self, b: np.ndarray) -> np.ndarray:
        return np.eye(b.shape[1])


WHOLE_SPACE = WholeSpace()


class _Forms:
    """Operators held as coordinate forms ``forms``, whose commutator table
    (``commutator_norms``) is formed once per window: the table is kept with
    a weak reference to its window, so the checks on one window share it."""

    _table = (lambda: None, None)  # (weak reference to the window, table)

    def commutators(self, window=WHOLE_SPACE) -> list:
        if self._table[0]() is not window:
            self._table = (ref(window), commutator_norms(self.forms, window))
        return self._table[1]


@dataclass
class OperatorTuple(_Forms):
    """A kind-tagged family of square operators on a shared space, held as
    arrays ``ops`` and as coordinate forms ``forms``."""

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

    @cached_property
    def forms(self) -> tuple:
        """The forms of ``ops``, read on first use, once per distinct member."""
        forms = {k: _compact(o) for k, o in {id(o): o for o in self.ops}.items()}
        return tuple(forms[id(o)] for o in self.ops)

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]


def _eye(n: int, cols: int | None = None) -> _Block:
    """The n x cols form with ones on its diagonal (the identity if square)."""
    d = np.arange(n)
    return _Block(d, d, np.ones(n, dtype=complex), (n, cols or n))


def _svd_norm(x: np.ndarray) -> float:
    """Largest singular value of a dense array (0.0 without entries): the
    LAPACK values of ``np.linalg.norm(x, 2)``, without its axis handling."""
    return float(np.linalg.svd(x, compute_uv=False).max(initial=0.0))


def op_norm(a) -> float:
    """Largest singular value of a dense array or a coordinate form, taken
    on its support block (0.0 if zero)."""
    return _svd_norm(_compact(a).block()[0])


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


def commutator_norms(ops, window=WHOLE_SPACE) -> list:
    """Pairwise commutator norms ||[A_i, A_j]|| seen through the window; a
    pair of one form or with a zero form is exactly 0.0 without a product."""
    fs = [_compact(o) for o in ops]
    return [((i, j), 0.0 if a is b or not (len(a.v) and len(b.v))
             else window.wnorm(a @ b - b @ a))
            for i, a in enumerate(fs) for j, b in enumerate(fs[i + 1:], i + 1)]
