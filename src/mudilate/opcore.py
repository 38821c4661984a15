"""Dense complex-matrix kernel: operators, norms, square roots, radii,
kernels and commutator norms.

All quantities are computed for explicit finite matrices.  An operator
comes in as a 2-D complex array or a coordinate form; ``_mat`` is the one
converter of arrays and carries every input check (2-D, positive
dimensions, finite entries).  Truncation windows read the level shift of an
operator off its nonzero entries (``spaces.auto_margin``).

Coordinate rule: operators are coordinate forms (``_Block``) from birth.
Builders (``spaces.block_assemble`` places every block), compressions
(``Window.compress``, ``DefectData.compress``) and ``commutator`` make forms;
arrays exist only at I/O (the CLI's JSON) and inside dense kernels, which
take a form's support block (SVDs) or its component blocks (eigen-solvers,
square roots and radii).  An array that comes in is read once for its
nonzeros (``_compact``), and the object that holds an operator owns its
form (``OperatorTuple.forms``, ``DefectData``, ``FundamentalSet.forms``,
``Window.basis``, a ``DilationResult``'s members).  This is exact: ``_mat``
admits only finite entries, so each dropped term is 0 * x = 0.  A product
sums the terms a_ik b_kj of each entry, unless they outnumber the operands'
entries and those of the product of the support blocks; one BLAS product
of the blocks is then cheaper.  It reads B's rows off ``B.row_starts``,
which a form computes on first use and keeps.  When each a_ik meets at most
one entry of B (B a selection, a diagonal or a weighted partial
permutation: every window and pivot), the product gathers those terms
directly, so windows and dilations cost about their nonzeros.  A scalar
multiple keeps the keys and drops only values that underflow to zero.

Zero rule: a product with a form of no entries is the empty form at once;
A + 0, A - 0 and 0 + B are the other operand, 0 - B its negation, with no
coalesce (A is already sorted, unique and free of zeros).  Identity rule:
work is done once per distinct object (``once``, a memo local to one
call).  No code writes into a form's arrays, so a shared result is safe
and a form's kept row starts cannot go stale.

Component rule: the spectrum, omega, lambda_min and lambda_max of a direct
sum are the union, max or min over its summands (Horn & Johnson, Topics in
Matrix Analysis, 1991, section 1.2), and the summands of a square form are
the connected components of its support graph (Pothen & Fan, ACM TOMS 16,
1990).  ``grading``, ``_eigh``, both radii and ``lambda_min`` read one
search (``_split``), so their cost follows the components, not the
dimension.  A function of a Hermitian form is that of each summand,
V f(w) V* on each (Higham, Functions of Matrices, SIAM 2008, section 1.2):
``herm_sqrt`` and ``fundamentals.defect`` both take it from ``_eigh``.

The kernel runs on numpy alone except for the QZ fallback of
``numerical_radius`` on input that is not unit-graded (``_level_set_radius``),
which imports ``scipy.linalg`` on first use: importing mudilate and running
the gallery never load scipy.
"""

from __future__ import annotations

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


def _frame(ids, size):
    """The ascending distinct values of an index array over range(size), and
    the position of each index among them."""
    seen = np.zeros(size, dtype=bool)
    seen[ids] = True
    pos = seen.nonzero()[0]
    return pos, ids if len(pos) == size else (seen.cumsum() - 1)[ids]


def _starts(ids) -> np.ndarray:
    """Where each run of equal values starts in a sorted index array."""
    new = np.empty(len(ids), dtype=bool)
    new[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    return new.nonzero()[0]


def _coalesce(i, j, v, shape) -> "_Block":
    """The form of the entries ``v`` at (i, j): keys sorted unless they
    already are, the values of a repeated key summed in their given order
    (a pair in one addition, exact as a dense sum), zeros dropped."""
    key = i * shape[1] + j
    if np.count_nonzero(key[1:] <= key[:-1]):
        order = key.argsort(kind="stable")
        key, v = key[order], v[order]
        start = _starts(key)
        if len(start) < len(key):
            key, v = key[start], np.add.reduceat(v, start)
        i, j = np.divmod(key, shape[1])
    return _nonzero_values(i, j, v, shape)


def _nonzero_values(i, j, v, shape) -> "_Block":
    """The form of sorted, unique entries ``v`` at (i, j), zeros dropped."""
    keep = v != 0
    if np.count_nonzero(keep) < len(keep):
        i, j, v = i[keep], j[keep], v[keep]
    return _Block(i, j, v, shape)


class _Block:
    """Coordinate form of an operator of ``shape``: its nonzero values ``v``
    at rows ``i`` and columns ``j``, sorted by (i, j) with unique keys and
    no stored zeros.  ``+``/``-`` concatenate and coalesce, ``.H`` swaps
    the index arrays, and ``@`` expands and coalesces (Gustavson, ACM TOMS
    4, 1978) unless its terms outnumber both operands and a BLAS product.
    ``row_starts`` is kept on the form once read."""

    __slots__ = ("i", "j", "v", "shape", "_row_starts")
    __array_ufunc__ = None  # a numpy operand must not absorb a form

    def __init__(self, i, j, v, shape):
        self.i, self.j, self.v, self.shape = i, j, v, shape
        self._row_starts = None

    @property
    def row_starts(self) -> np.ndarray:
        """Where each row's entries start in ``i``, then the entry count:
        computed on first use and kept, since no code writes a form's arrays."""
        if self._row_starts is None:
            self._row_starts = np.concatenate(
                ([0], np.bincount(self.i, minlength=self.shape[0]).cumsum()))
        return self._row_starts

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
        o = self.j.argsort(kind="stable")  # keys sorted by (i, j): by j alone suffices
        return _Block(self.j[o], self.i[o], self.v[o].conj(), self.shape[::-1])

    def __rmul__(self, w):
        # the keys stay sorted and unique: only values that underflow to 0 go
        return _nonzero_values(self.i, self.j, w * self.v, self.shape)

    def __add__(self, other, neg=False):
        if self.shape != other.shape:
            raise OpcoreError(f"forms of shapes {self.shape} and {other.shape} do not add")
        if not len(other.v):  # the zero rule: A + 0 = A - 0 = A, 0 - B = -B
            return self
        if not len(self.v):
            return _Block(other.i, other.j, -other.v, other.shape) if neg else other
        return _coalesce(np.concatenate((self.i, other.i)), np.concatenate((self.j, other.j)),
                         np.concatenate((self.v, -other.v if neg else other.v)), self.shape)

    def __sub__(self, other):
        return self.__add__(other, neg=True)

    def cols(self, keep):
        """The columns where the boolean array ``keep`` holds, in order."""
        at = keep[self.j]
        return _Block(self.i[at], (keep.cumsum() - 1)[self.j[at]], self.v[at],
                      (self.shape[0], int(keep.sum())))

    def __matmul__(self, b):
        if self.shape[1] != b.shape[0]:
            raise OpcoreError(f"forms of shapes {self.shape} and {b.shape} do not multiply")
        shape = (self.shape[0], b.shape[1])
        if not (len(self.v) and len(b.v)):  # the zero rule: 0 B = A 0 = 0
            return _diag(np.zeros(0), shape)
        ptr = b.row_starts
        lo = ptr[self.j]  # an A entry in column k meets B's row k: entries lo .. lo + cnt - 1
        cnt = ptr[self.j + 1] - lo
        if not np.count_nonzero(cnt > 1):
            # one term at most per A entry (B a selection, a diagonal or a
            # weighted partial permutation): gather the terms of those that meet one
            hit = cnt.nonzero()[0]
            return _coalesce(self.i[hit], b.j[lo[hit]], self.v[hit] * b.v[lo[hit]], shape)
        terms = int(cnt.sum())
        if (terms <= len(self.v) + len(b.v)
                or terms <= len(_starts(self.i)) * np.count_nonzero(np.bincount(b.j))):
            # term t of an A entry reads B's entry lo + t
            at = (lo - cnt.cumsum() + cnt).repeat(cnt) + np.arange(terms)
            return _coalesce(self.i.repeat(cnt), b.j[at], self.v.repeat(cnt) * b.v[at], shape)
        # the expansion outgrows the operands and the block product: one BLAS
        # product on the inner indices both use; the peak is the two blocks
        # and their product
        del lo, cnt
        inner = (np.bincount(self.j, minlength=b.shape[0]) > 0) & (ptr[1:] > ptr[:-1])
        (x, rows, _), (y, _, cols) = (
            (f if inner.all() else _Block(f.i[m], f.j[m], f.v[m], f.shape)).block()
            for f, m in ((self, inner[self.j]), (b, inner[b.i])))
        p = x @ y
        del x, y
        r, c = np.nonzero(p)
        v, p = p[r, c], None
        return _Block(rows[r], cols[c], v, shape)


def once(fn):
    """``fn``, computed once per distinct tuple of argument objects (by
    identity) while the returned function lives; its memo holds the
    arguments, so no id is reused meanwhile.  Callers make one per call."""
    memo = {}
    return lambda *args: (memo.get(key := tuple(map(id, args)))
                          or memo.setdefault(key, (args, fn(*args))))[1]


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
    while len(c := (root[i] != root[j]).nonzero()[0]):
        i, j = i[c], j[c]
        ru, rv = root[i], root[j]
        hi, lo, low = np.maximum(ru, rv), np.minimum(ru, rv), root.copy()
        np.minimum.at(low, hi, lo)
        e = (lo == low[hi]).nonzero()[0]
        pick[hi[e]] = e
        e = pick[hi[e]]  # the one edge that hooks each root: it joins the forest
        root[hi[e]] = lo[e]
        if step is not None:
            step = step[c]
            pot[hi[e]] = (np.where(ru > rv, 1, -1)[:, None] * (step - pot[i] + pot[j]))[e]
        while np.count_nonzero((up := root[root]) != root):
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
    order = key.argsort(kind="stable")  # by size, then component
    key, ssz = key[order], size[order]
    lead = np.searchsorted(key, key)  # where each component starts in the order
    base = ssz.cumsum() - ssz  # where each block starts in one flat buffer
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


def _eye(n: int, cols: int | None = None) -> _Block:
    """The n x cols form with ones on its diagonal, min(n, cols) of them
    (the identity if ``cols`` is None)."""
    cols = n if cols is None else cols
    return _diag(np.ones(min(n, cols)), (n, cols))


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
        rows.append(nodes.repeat(s, axis=1).ravel())  # entry (c, r, t): nodes[c, r]
        cols.append(np.tile(nodes, s).ravel())  # and nodes[c, t]
        vecs.append(v.ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = w.argsort(kind="stable")
    rank = order.argsort()
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
    return float(max((np.abs(np.linalg.eigvals(x) if x.shape[1] > 1 else x).max()
                      for _, x in _blocks(_compact(a))), default=0.0))


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
    unit = not np.count_nonzero(cond.sum(axis=1))
    if not np.count_nonzero(cond):
        return Grading(unit, True)
    # rank one: the admissible pairs are the multiples of (u_b, -u_a)
    rows = cond[cond.any(axis=1)]
    u = rows[0]
    rank_one = not np.count_nonzero(u[0] * rows[:, 1] - u[1] * rows[:, 0])
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
    return float(max((np.abs(x).max() if x.shape[1] == 1
                      else np.linalg.eigvalsh(_hermitian(x))[:, -1].max() if unit
                      else max(map(_level_set_radius, x))
                      for _, x in _blocks(f)), default=0.0))


def lambda_min(h) -> float:
    """lambda_min of the Hermitian part of a square array or form: the least
    over its support components (``_blocks``) of ``eigvalsh``, as
    ``numerical_radius`` reads lambda_max; a 1 x 1 block [x] gives Re x."""
    return float(min(x.real.min() if x.shape[1] == 1
                     else np.linalg.eigvalsh(_hermitian(x))[:, 0].min()
                     for _, x in _blocks(_compact(h))))


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
    """Pairwise commutator norms ||[A_i, A_j]||, i < j, seen through the
    window: 0.0 without a product for a pair of one form, and once per
    distinct ordered pair of forms ([B, A] does not reuse [A, B])."""
    fs = list(map(once(_compact), ops))
    norm = once(lambda a, b: window.wnorm(commutator(a, b)))
    return [((i, j), 0.0 if a is b else norm(a, b))
            for i, a in enumerate(fs) for j, b in enumerate(fs[i + 1:], i + 1)]
