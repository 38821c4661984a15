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
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg


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


def herm_sqrt(h, neg_clamp: float = 1e-10) -> np.ndarray:
    """Principal square root of a PSD matrix, Hermitian to 1e-10.

    Eigenvalues in [-neg_clamp, 0) are clamped to zero; anything lower is an
    error (the input is then genuinely indefinite, not just noisy).
    """
    m = _square(h, "square root")
    asym = np.linalg.norm(m - m.conj().T, 2)
    if asym > 1e-10:
        raise NotHermitianError(f"input is not Hermitian: asymmetry {asym:.3e}")
    sym = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    if w.min() < -neg_clamp:
        raise NegativeEigenvalueError(
            f"eigenvalue {w.min():.6e} below the clamp window -{neg_clamp:.1e}"
        )
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


def numerical_radius(a) -> float:
    """omega(A) = max over theta of lambda_max((e^{i theta}A + e^{-i theta}A*)/2).

    Level-set iteration of Mengi & Overton, "Algorithms for the computation
    of the pseudospectral radius and the numerical radius of a matrix",
    IMA J. Numer. Anal. 25 (2005).  The level f starts as the largest
    profile value at eight equally spaced angles (at least cos(pi/8) omega).
    Each step finds every angle where f is an eigenvalue of the profile
    matrix: the unit-modulus eigenvalues z = e^{i theta} of the 2n x 2n pencil

        [[0, I], [-A*, 2f I]] v = z [[I, 0], [0, A]] v,

    solved by QZ, so a singular A (nilpotent, say) needs no inverse.  The
    superlevel set {theta: profile >= f} is a union of arcs between these
    angles; the profile at the arc midpoints gives the next level, which
    converges quadratically to omega at a smooth maximum.  The iteration
    stops when no midpoint beats f by more than ``NR_TOL * f``.

    A flat profile (A unitarily equivalent to every rotation e^{i theta}A,
    e.g. truncated shifts) makes the pencil singular at the exact level;
    its eigenvalues are then arbitrary, the midpoints only reproduce f to
    roundoff, and the sampled start value, already exact, is returned.
    """
    m = _square(a, "numerical radius")
    if not m.any():
        return 0.0
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


def kernel_basis(a, tol: float | None = None) -> np.ndarray:
    """Orthonormal columns spanning the numerical kernel, via SVD.

    Singular values below ``tol`` count as zero; the default cutoff is
    1e-8 * op_norm(A).
    """
    m = _mat(a)
    if tol is not None and tol <= 0:
        raise OpcoreError("tol must be positive")
    if not np.any(m):
        return np.eye(m.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(m)
    if tol is None:
        tol = 1e-8 * (s[0] if len(s) else 1.0)
    rank = int(np.sum(s >= tol))
    return vh[rank:].conj().T


def commutator_norms(ops, window=None) -> list:
    """Pairwise commutator norms ||[A_i, A_j]|| (optionally right-windowed)."""
    fs = [_compact(o) for o in ops]
    norm = op_norm if window is None else window.wnorm
    return [((i, j), norm(fs[i] @ fs[j] - fs[j] @ fs[i]))
            for i in range(len(fs)) for j in range(i + 1, len(fs))]
