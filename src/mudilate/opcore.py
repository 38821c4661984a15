"""Dense complex-matrix kernel: operators, norms, square roots, radii,
kernels and commutator norms.

All quantities are computed for explicit finite matrices.  An operator
comes in as a 2-D complex array or a coordinate form; ``_mat`` is the one
converter of arrays and carries every input check (2-D, positive
dimensions, finite entries).  Truncation windows read the level shift of an
operator off its nonzero entries (``spaces.auto_margin``).

Coordinate rule: operators are coordinate forms (``_Block``) from birth.
Builders lay out forms (``spaces.block_assemble`` places every block), and
so do compressions (``Window.compress``, ``DefectData.compress``) and
commutators (``commutator``).  Arrays exist only at I/O (the CLI's JSON) and
inside dense kernels, which take a form's support block (SVDs) or its
component blocks (eigen-solvers, square roots and radii); an array that
comes in is read once for its nonzeros (``_compact``).  The object that
holds an operator owns its form: ``OperatorTuple.forms`` (read when the
tuple is built), ``DefectData`` (D and its range and kernel bases),
``FundamentalSet.forms``, ``Window.basis`` and the members of a
``DilationResult``.  This is exact: ``_mat`` admits only finite entries, so
each dropped term is 0 * x = 0, and zero rows and columns carry no nonzero
singular value.  A product sums the terms a_ik b_kj of each entry, unless
the terms outnumber both the operands' entries and the entries of the
product of the two support blocks; one BLAS product of the blocks is then
cheaper and no larger.  A selection or diagonal B gives each a_ik at most
one term, so windows and dilations cost about their nonzeros.

Component rule: the spectrum, omega, lambda_min and lambda_max of a direct
sum are the union, max or min over its summands (Horn & Johnson, Topics in
Matrix Analysis, 1991, section 1.2), and the summands of a square form are
the connected components of its support graph (Pothen & Fan, ACM TOMS 16,
1990).  ``grading``, ``_eigh`` and both radii read one search (``_split``),
so their cost follows the components, not the dimension.  A function of a
Hermitian form is that of each summand, V f(w) V* on each (Higham,
Functions of Matrices, SIAM 2008, section 1.2): ``herm_sqrt`` and
``fundamentals.defect`` both take it from ``_eigh``.

The kernel runs on numpy alone except for the QZ fallback of
``numerical_radius`` on input that is not unit-graded (``_level_set_radius``),
which imports ``scipy.linalg`` on first use: importing mudilate and running
the gallery never load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
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


ARITY = {"gamma7": 7, "gamma5": 5, "penta": 3, "tetra": 3, "sym": 2}


def _frame(ids, size):
    """The ascending distinct values of an index array over range(size), and
    the position of each index among them."""
    seen = np.zeros(size, dtype=bool)
    seen[ids] = True
    pos = np.flatnonzero(seen)
    return pos, ids if len(pos) == size else (np.cumsum(seen) - 1)[ids]


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
    4, 1978) unless its terms outnumber both operands and a BLAS product."""

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
        o = np.argsort(self.j, kind="stable")  # keys sorted by (i, j): by j alone suffices
        return _Block(self.j[o], self.i[o], self.v[o].conj(), self.shape[::-1])

    def __rmul__(self, w):
        return _coalesce(self.i, self.j, w * self.v, self.shape)

    def __add__(self, other, neg=False):
        if self.shape != other.shape:
            raise OpcoreError(f"forms of shapes {self.shape} and {other.shape} do not add")
        return _coalesce(np.concatenate((self.i, other.i)), np.concatenate((self.j, other.j)),
                         np.concatenate((self.v, -other.v if neg else other.v)), self.shape)

    def __sub__(self, other):
        return self.__add__(other, neg=True)

    def cols(self, keep):
        """The columns where the boolean array ``keep`` holds, in order."""
        at = keep[self.j]
        return _Block(self.i[at], (np.cumsum(keep) - 1)[self.j[at]], self.v[at],
                      (self.shape[0], int(keep.sum())))

    def __matmul__(self, b):
        if self.shape[1] != b.shape[0]:
            raise OpcoreError(f"forms of shapes {self.shape} and {b.shape} do not multiply")
        per_row = np.bincount(b.i, minlength=b.shape[0])
        cnt = per_row[self.j]  # the terms of each A entry: B's row at its column
        terms, shape = int(cnt.sum()), (self.shape[0], b.shape[1])
        if (terms <= len(self.v) + len(b.v)
                or terms <= len(_starts(self.i)) * np.count_nonzero(np.bincount(b.j))):
            # the terms of an A entry in column k: B's row k, entries end_k - cnt .. end_k - 1
            at = (per_row.cumsum()[self.j] - cnt.cumsum()).repeat(cnt) + np.arange(terms)
            return _coalesce(self.i.repeat(cnt), b.j[at], self.v.repeat(cnt) * b.v[at], shape)
        # the expansion outgrows the operands and the block product: one BLAS
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
    return x if isinstance(x, _Block) else _nonzeros(_mat(x))


def _nonzeros(m: np.ndarray) -> _Block:
    """The form of a 2-D complex array of any shape, empty ones included."""
    i, j = np.nonzero(m)
    return _Block(i, j, m[i, j], m.shape)


def _split(i, j, n: int, step=None):
    """Connected components of the graph on range(n) with an undirected edge
    per (i[e], j[e]): each node's label (its component's least node), and,
    given integer rows ``step``, potentials with pot(i[e]) - pot(j[e]) =
    step[e] along a spanning forest, 0 at each label.  Each round hooks every
    root under the least root it shares an edge with, if smaller (a tree next
    to the least root joins it at once, so a star takes two rounds), then
    pointer jumping points every node at its root; edges inside a tree go."""
    root, pot = np.arange(n), None if step is None else np.zeros((n, step.shape[1]), np.int64)
    pick = np.empty(n, dtype=np.intp)
    while len(c := np.flatnonzero(root[i] != root[j])):
        i, j = i[c], j[c]
        ru, rv = root[i], root[j]
        hi, lo, low = np.maximum(ru, rv), np.minimum(ru, rv), root.copy()
        np.minimum.at(low, hi, lo)
        e = np.flatnonzero(lo == low[hi])
        pick[hi[e]] = e
        e = pick[hi[e]]  # the one edge that hooks each root: it joins the forest
        root[hi[e]] = lo[e]
        if step is not None:
            step = step[c]
            pot[hi[e]] = (np.where(ru > rv, 1, -1)[:, None] * (step - pot[i] + pot[j]))[e]
        while ((up := root[root]) != root).any():
            if step is not None:
                pot += pot[root]
            root = up
    return root, pot


def _blocks(f: _Block) -> list:
    """The support components (``_split``) of a square form as stacks of
    equal-size dense blocks, one (nodes, stack) per size: row c of ``nodes``
    holds a component's coordinates in ascending order, ``stack[c]`` the
    block of f on them."""
    n = f.shape[0]
    if f.shape[1] != n:
        raise OpcoreError(f"a spectrum needs a square matrix, got shape {f.shape}")
    label = _split(f.i, f.j, n)[0]
    size = np.bincount(label, minlength=n)[label]
    key = size * n + label
    order = np.argsort(key, kind="stable")  # by size, then component
    key, ssz = key[order], size[order]
    lead = np.searchsorted(key, key)  # where each component starts in the order
    base = np.cumsum(ssz) - ssz  # where each block starts in one flat buffer
    row, at = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    row[order] = np.arange(n) - lead
    at[order] = base[lead] + row[order] * ssz  # where each coordinate's block row starts
    flat = np.zeros(ssz.sum(), dtype=complex)
    flat[at[f.i] + row[f.j]] = f.v
    g = _starts(ssz)
    return [(order[b:e].reshape(-1, ssz[b]), flat[base[b]:base[b] + (e - b) * ssz[b]]
             .reshape(-1, ssz[b], ssz[b])) for b, e in zip(g, np.append(g[1:], n))]


def _hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian part of a square array, or of each in a stack."""
    return (x + x.conj().swapaxes(-1, -2)) / 2.0


class WholeSpace:
    """The whole space as a window: no margin, plain norms, no compression."""

    margin = None

    def wnorm(self, a) -> float:
        return op_norm(a)

    def compress(self, a) -> _Block:
        return _compact(a)

    def inside(self, b: _Block) -> _Block:
        return _eye(b.shape[1])


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
    coordinate forms ``forms``, each read once when the tuple is built (a
    member passed twice stays one form)."""

    kind: str
    forms: tuple

    def __post_init__(self):
        if self.kind not in ARITY:
            raise OpcoreError(f"unknown tuple kind {self.kind!r}")
        read = {k: _compact(o) for k, o in {id(o): o for o in self.forms}.items()}
        forms = tuple(read[id(o)] for o in self.forms)
        if len(forms) != ARITY[self.kind]:
            raise OpcoreError(
                f"kind {self.kind!r} needs {ARITY[self.kind]} operators, got {len(forms)}"
            )
        dim = forms[0].shape[0]
        if any(f.shape != (dim, dim) for f in forms):
            raise OpcoreError("tuple members must be square on a common space")
        self.forms = forms

    @property
    def dim(self) -> int:
        return self.forms[0].shape[0]


def _eye(n: int, cols: int | None = None) -> _Block:
    """The n x cols form with ones on its diagonal (the identity if square)."""
    return _diag(np.ones(n), (n, cols or n))


def _diag(x, shape=None) -> _Block:
    """The form with the nonzero values ``x`` on its diagonal."""
    d = np.arange(len(x))
    return _Block(d, d, x.astype(complex), shape or (len(x),) * 2)


def _eigh(h: _Block, fn=None):
    """Ascending eigenvalues w of a Hermitian form and its eigenvectors V as a
    form, per support component (``_blocks``): one stacked ``eigh`` per block
    size (a lone block goes in as a matrix), and a 1 x 1 block [x] read off
    as x.real with eigenvector 1.  Ties keep coordinate order (column t of a
    block counts as its t-th coordinate), so a diagonal form sorts stably.
    Given ``fn``, fn(w) replaces w, and the form of V fn(w) V* follows, its
    Hermitian part taken on each block."""
    empty = np.zeros(0, dtype=np.intp)
    w, parts, rows, cols, vecs = np.empty(h.shape[0]), _blocks(h), [empty], [empty], [empty + 0j]
    for k, (nodes, x) in enumerate(parts):
        m, s = nodes.shape
        wk, v = ((x.real, np.ones_like(x)) if s == 1
                 else np.linalg.eigh(_hermitian(x if m > 1 else x[0])))
        w[nodes], parts[k] = wk.reshape(m, s), (nodes, v.reshape(m, s, s))
        rows.append(np.repeat(nodes, s, axis=1).ravel())  # entry (c, r, t): nodes[c, r]
        cols.append(np.tile(nodes, s).ravel())  # and nodes[c, t]
        vecs.append(v.ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(w, kind="stable")
    rank = np.argsort(order)
    vecs = _coalesce(rows, rank[cols], np.concatenate(vecs), h.shape)
    if fn is None:
        return w[order], vecs
    d = fn(w[order])
    return d, vecs, _coalesce(rows, cols, np.concatenate([empty + 0j] + [
        _hermitian((v * d[rank[p]][:, None, :]) @ v.conj().swapaxes(1, 2)).ravel()
        for p, v in parts]), h.shape)


def op_norm(a) -> float:
    """Largest singular value of a dense array or a coordinate form, taken
    on its support block (0.0 without an SVD if zero): the LAPACK values of
    ``np.linalg.norm(x, 2)``, without its axis handling."""
    f = _compact(a)
    return float(np.linalg.svd(f.block()[0], compute_uv=False).max()) if len(f.v) else 0.0


def _psd_root(w: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues w of a PSD operator: those in
    [-1e-10, 0) are clamped to zero; anything lower is an error (the input
    is then genuinely indefinite, not just noisy)."""
    if w.min(initial=0.0) < -1e-10:
        raise NegativeEigenvalueError(f"eigenvalue {w.min():.6e} below the clamp window -1e-10")
    return np.sqrt(np.clip(w, 0.0, None))


def herm_sqrt(h) -> _Block:
    """Principal square root of a PSD array or form, Hermitian to 1e-10, as
    a form: V sqrt(w) V* per support component (``_eigh`` with ``_psd_root``)."""
    f = _compact(h)
    if f.shape[0] != f.shape[1]:
        raise OpcoreError("square root needs a square matrix")
    asym = op_norm(f - f.H)
    if asym > 1e-10:
        raise NotHermitianError(f"input is not Hermitian: asymmetry {asym:.3e}")
    return _eigh(f, _psd_root)[2]


def spectral_radius(a) -> float:
    """max |lambda| over the spectra of the support components (``_blocks``)."""
    return float(max(np.abs(np.linalg.eigvals(x) if x.shape[1] > 1 else x).max()
                     for _, x in _blocks(_compact(a))))


NR_BATCH = 8  # angles per eigvalsh call; also the number of start angles
# | |z| - 1 | up to this counts as a level crossing: QZ moves a crossing off
# the circle by roundoff (about sqrt(eps) near a double root), and a spurious
# angle costs only one more midpoint
NR_CIRCLE_TOL = 1e-6
NR_TOL = 1e-8  # relative stopping tolerance of the level-set iteration


def _theta_profile(m: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """lambda_max of Re(e^{i theta} M) for a batch of angles, NR_BATCH angles
    per ``eigvalsh`` call, so memory stays O(n^2) however many angles come."""
    return np.concatenate([np.linalg.eigvalsh(_hermitian(np.exp(1j * t)[:, None, None] * m))[:, -1]
                           for t in np.split(thetas, range(NR_BATCH, len(thetas), NR_BATCH))])


@dataclass(frozen=True)
class Grading:
    """What integer potentials on a family's support admit.  A potential g
    on the coordinates gives an operand X degree d if g(row) - g(col) = d on
    supp X.  ``unit``: some potential gives every operand degree 1;
    ``z_free``: some potential gives the two operands different degrees."""

    unit: bool
    z_free: bool


def grading(a, b=None) -> Grading:
    """The gradings of the family (A, B) (of A alone if B is None), arrays or
    forms, read off their exact nonzero pattern.

    The component search (``_split``) of the support graph, the nonzeros of
    both operands as edges, fixes g on a spanning forest as an integer
    combination pot(v) . (d_a, d_b) of the unknown degrees.  Every nonzero
    (row, col) of the operand with unit vector e then demands
    (pot(row) - pot(col) - e) . (d_a, d_b) = 0.  A pair d meeting every
    condition is a grading, realised by g = pot . d; on a spanning forest
    every grading meets them, so they cut out exactly the admissible degree
    pairs: ``unit`` iff (1, 1) satisfies them, ``z_free`` iff some pair with
    d_a != d_b does.
    """
    fs = [_compact(a)] + ([] if b is None else [_compact(b)])
    n = fs[0].shape[0]
    if any(f.shape != (n, n) for f in fs):
        raise OpcoreError("a graded family needs square operands on one space")
    i, j = (np.concatenate([getattr(f, x) for f in fs]) for x in "ij")
    # the unit vector of each nonzero's operand: pot(row) - pot(col) = e on the forest
    e = np.repeat(np.eye(2, dtype=np.int64)[:len(fs)], [len(f.v) for f in fs], axis=0)
    pot = _split(i, j, n, e)[1]
    cond = pot[i] - pot[j] - e
    unit = not cond.sum(axis=1).any()
    rows = cond[cond.any(axis=1)]
    if not len(rows):
        return Grading(unit, True)
    # rank one: the admissible pairs are the multiples of (u_b, -u_a)
    u = rows[0]
    rank_one = not (u[0] * rows[:, 1] - u[1] * rows[:, 0]).any()
    return Grading(unit, bool(rank_one and u.sum() != 0))


def numerical_radius(a, unit_graded: bool = False) -> float:
    """omega(A) = max over theta of lambda_max((e^{i theta}A + e^{-i theta}A*)/2)
    of an array or a form, the max over its support components (``_blocks``);
    a 1 x 1 block [x] has omega |x|.

    Unit-graded A (``grading(A).unit``: a potential g with g(row) - g(col) = 1
    on supp A, as for the zero matrix, truncated shifts and the gallery's
    shift-block fundamentals) is decided exactly by ``eigvalsh``, stacked by
    block size: D = diag(e^{i theta g}) is unitary and D A D* = e^{i theta} A,
    so the profile is constant and omega(A) = lambda_max(Re A).  A caller
    that has shown A unit-graded (a member A + zB of a family with
    ``grading(A, B).unit`` is) passes ``unit_graded=True``.

    Any other block takes the level-set iteration of Mengi & Overton,
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
    f = _compact(a)
    unit = unit_graded or grading(f).unit
    return float(max(np.abs(x).max() if x.shape[1] == 1
                     else np.linalg.eigvalsh(_hermitian(x))[:, -1].max() if unit
                     else max(map(_level_set_radius, x))
                     for _, x in _blocks(f)))


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


def commutator(a: _Block, b: _Block) -> _Block:
    """[A, B] = AB - BA of two forms."""
    return a @ b - b @ a


def commutator_norms(ops, window=WHOLE_SPACE) -> list:
    """Pairwise commutator norms ||[A_i, A_j]|| seen through the window; a
    pair of one form or with a zero form is exactly 0.0 without a product."""
    fs = [_compact(o) for o in ops]
    return [((i, j), 0.0 if a is b or not (len(a.v) and len(b.v))
             else window.wnorm(commutator(a, b)))
            for i, a in enumerate(fs) for j, b in enumerate(fs[i + 1:], i + 1)]
