"""Truncated model Hilbert spaces: vector Hardy shifts, block assembly and
the window bookkeeping that makes truncated shift identities exact.

A ModelSpace is an ordered direct sum of summands C^fiber x C^trunc, graded
by the truncation level.  A Window is the orthonormal basis of every
coordinate vector whose level lies below trunc - margin in its summand; any
identity between words of shift operators of total level shift <= margin then
holds exactly on the window.  ``auto_margin`` measures that shift on the
operators' nonzero entries.

Windowed norms and compressions take a dense array or a coordinate form
(``opcore._compact``) and form A Q on the nonzero rows r of A alone:
||A Q|| = ||(A Q)[r]|| and Q* A Q = Q[r]* (A Q)[r], exactly, since the
dropped rows are zeros.  (A Q)[r] is a sum over the nonzeros of each row
when they fill under 1/SPARSE_FILL of the support block, and the support
block times Q[c] on the nonzero columns c when they do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opcore import OpcoreError, WholeSpace, _compact, _mat, _starts, _svd_norm

SPARSE_FILL = 8  # the fill rule of Window.wnorm and compress (module docstring)


@dataclass(frozen=True)
class ModelSpace:
    """Ordered list of (fiber_dim, trunc_level) summands."""

    summands: tuple

    def __post_init__(self):
        s = tuple((int(f), int(t)) for f, t in self.summands)
        for f, t in s:
            if f < 1 or t < 1:
                raise OpcoreError("fiber_dim and trunc_level must be positive")
        object.__setattr__(self, "summands", s)

    @property
    def total_dim(self) -> int:
        return sum(f * t for f, t in self.summands)

    def levels(self) -> np.ndarray:
        """Grading level of each coordinate: k for e_k (x) v."""
        return np.concatenate([np.repeat(np.arange(t), f) for f, t in self.summands])

    def level_mask(self, margin: int) -> np.ndarray:
        """Boolean mask of coordinates whose level < trunc_level - margin."""
        return np.concatenate([np.repeat(np.arange(t) < t - margin, f) for f, t in self.summands])

    def summand_slice(self, i: int) -> slice:
        off = sum(f * t for f, t in self.summands[:i])
        f, t = self.summands[i]
        return slice(off, off + f * t)


def _gram_error(q: np.ndarray) -> float:
    """max |Q* Q - I|, formed on the nonzero rows of Q: zero rows add nothing
    to Q* Q, and coordinate-selection and zero-padded dilation bases have
    many."""
    rows = q.any(axis=1)
    nz = q if rows.all() else q[rows]
    return np.abs(nz.conj().T @ nz - np.eye(q.shape[1])).max(initial=0.0)


@dataclass
class Window:
    """Orthonormal column basis Q (n x k) of the safe part of a truncated
    space.  Windowed residuals are ||A Q||; windowed spectra are read off the
    k x k compression Q* A Q, whose spectrum is that of P A P (P = Q Q*)
    without the masked-out zeros."""

    margin: int
    basis: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.basis, dtype=complex)
        if q.ndim != 2 or _gram_error(q) > 1e-12:
            raise OpcoreError("window basis columns must be orthonormal to 1e-12")
        self.basis = q

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def _rows(self, a):
        """The nonzero rows r of A and (A Q)[r] (module docstring)."""
        f, q = _compact(a), self.basis
        if f.shape[1] != len(q):
            raise OpcoreError(f"a {f.shape[1]}-column operator on a {len(q)}-dim window")
        start = _starts(f.i)
        if len(f.v) * SPARSE_FILL <= len(start) * np.count_nonzero(np.bincount(f.j)):
            return f.i[start], np.add.reduceat(f.v[:, None] * q[f.j], start)
        blk, rows, cols = f.block()
        return rows, blk @ q[cols]

    def wnorm(self, a) -> float:
        """||A Q||: operator norm seen through the safe inputs, taken on the
        nonzero rows of A (exactly 0.0 for a zero matrix)."""
        return _svd_norm(self._rows(a)[1])

    def equal(self, a, b) -> float:
        """Residual ||(A - B) Q||, formed on the coordinate forms of A and B."""
        return self.wnorm(_compact(a) - _compact(b))

    def compress(self, a) -> np.ndarray:
        """The k x k compression Q* A Q, on the nonzero rows of A."""
        rows, aq = self._rows(a)
        return self.basis[rows].conj().T @ aq

    def inside(self, b: np.ndarray) -> np.ndarray:
        """Orthonormal coordinates, in the orthonormal columns of B, of the
        part of span(B) inside the window: the eigenvalue-1 eigenvectors of
        c* c with c = Q* B."""
        c = self.basis.conj().T @ b
        w, v = np.linalg.eigh(c.conj().T @ c)
        return v[:, w > 1.0 - 1e-9]

    def psd_min_eig(self, h) -> float:
        """Smallest eigenvalue of the Hermitian part of the compression of H."""
        c = self.compress(h)
        return float(np.linalg.eigvalsh((c + c.conj().T) / 2.0).min())


AnyWindow = Window | WholeSpace  # a check's window; default opcore.WHOLE_SPACE


def window(space: ModelSpace, margin: int) -> Window:
    if margin < 0:
        raise OpcoreError("margin must be nonnegative")
    if margin >= min(t for _, t in space.summands):
        raise OpcoreError(
            f"margin {margin} leaves no window (min trunc_level "
            f"{min(t for _, t in space.summands)})"
        )
    return Window(margin, np.eye(space.total_dim)[:, space.level_mask(margin)])


def auto_margin(space: ModelSpace, ops) -> int:
    """Safe window margin for two-factor words drawn from ``ops``: twice the
    largest level shift |level(row) - level(col)| over their exactly nonzero
    entries.  Roundoff fill-in can only enlarge it."""
    lv = space.levels()
    return 2 * max((int(np.abs(lv[f.i] - lv[f.j]).max(initial=0))
                    for f in map(_compact, ops)), default=0)


def hardy_shift(fiber_dim: int, trunc_level: int) -> np.ndarray:
    """Truncation of the unilateral shift on level-graded C^fiber fibers.

    e_k (x) v -> e_{k+1} (x) v below the top level; the top level maps to 0.
    """
    if trunc_level < 2:
        raise OpcoreError("a truncated shift needs trunc_level >= 2")
    eye = np.eye(fiber_dim)
    return block_assemble({(k + 1, k): eye for k in range(trunc_level - 1)},
                          [fiber_dim] * trunc_level)


def block_assemble(cells: dict, dims) -> np.ndarray:
    """Dense complex matrix on the direct sum of square blocks of sizes
    ``dims`` from a {(i, j): block} map; absent cells are zero.  Each block
    must have shape (dims[i], dims[j]); a mismatch raises naming its cell."""
    n = len(dims)
    off = np.concatenate([[0], np.cumsum(dims, dtype=int)])
    out = np.zeros((off[-1], off[-1]), dtype=complex)
    for (i, j), blk in cells.items():
        if not (0 <= i < n and 0 <= j < n):
            raise OpcoreError(f"block ({i},{j}) lies outside the {n}x{n} layout")
        b = _mat(blk)
        if b.shape != (dims[i], dims[j]):
            raise OpcoreError(f"block ({i},{j}) has shape {b.shape}, "
                              f"expected ({dims[i]}, {dims[j]})")
        out[off[i]:off[i + 1], off[j]:off[j + 1]] = b
    return out


def embed_blocks(space: ModelSpace, cells: dict) -> np.ndarray:
    """Matrix on a ModelSpace from a {(i, j): block} map of summand cells."""
    return block_assemble(cells, [f * t for f, t in space.summands])
