"""Truncated model Hilbert spaces: vector Hardy shifts, block assembly and
the window bookkeeping that makes truncated shift identities exact.

A ModelSpace is an ordered direct sum of summands C^fiber x C^trunc, graded
by the truncation level.  A Window is the orthonormal basis of every
coordinate vector whose level lies below trunc - margin in its summand; any
identity between words of shift operators of total level shift <= margin then
holds exactly on the window.  ``auto_margin`` measures that shift on the
operators' nonzero entries.

A window's basis Q is a coordinate form (``opcore._Block``), and the
window work is form algebra: ||A Q|| is the norm of the support block of
the form A Q, the compression Q* A Q is a form product and stays a form,
and orthonormality is read off the form Q* Q - I; eigen-solvers and radii
read the compression's support components (``opcore._blocks``).  A
coordinate selection (every window of the gallery) so costs its k
nonzeros, and a dense basis takes the same products.

``block_assemble`` is the one block layout: the shift, the gallery
operators, the dilations and the dilation window place their blocks with
it, nonzeros offset into a form, so no n x n array is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opcore import (OpcoreError, WholeSpace, _Block, _compact, _eigh, _eye,
                     _nonzeros, once, op_norm)


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


@dataclass
class Window:
    """Orthonormal column basis Q (n x k) of the safe part of a truncated
    space, held as a coordinate form (an array passed in is read once).
    Windowed residuals are ||A Q||; windowed spectra are read off the
    k x k compression Q* A Q (a form), whose spectrum is that of P A P
    (P = Q Q*) without the masked-out zeros."""

    margin: int
    basis: _Block

    def __post_init__(self):
        q = self.basis
        if not isinstance(q, _Block):
            q = np.asarray(q, dtype=complex)
            q = _nonzeros(q) if q.ndim == 2 else None
        # `not <=`: a non-finite basis gives a NaN gap, which fails it
        if q is None or not np.abs((q.H @ q - _eye(q.shape[1])).v).max(initial=0.0) <= 1e-12:
            raise OpcoreError("window basis columns must be orthonormal to 1e-12")
        self.basis, self._qh = q, q.H

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def wnorm(self, a) -> float:
        """||A Q||: operator norm seen through the safe inputs, taken on the
        support block of A Q (exactly 0.0 for a zero matrix)."""
        return op_norm(_compact(a) @ self.basis)

    def equal(self, a, b) -> float:
        """Residual ||(A - B) Q||, formed on the coordinate forms of A and B."""
        return self.wnorm(_compact(a) - _compact(b))

    def compress(self, a) -> _Block:
        """The k x k compression Q* A Q, as a form."""
        return self._qh @ (_compact(a) @ self.basis)

    def inside(self, b) -> _Block:
        """Orthonormal coordinates, in the orthonormal columns of B (a form or
        an array), of the part of span(B) inside the window: the eigenvalue-1
        eigenvectors of c* c with c = Q* B (``opcore._eigh``)."""
        c = self._qh @ _compact(b)
        w, v = _eigh(c.H @ c)
        return v.cols(w > 1.0 - 1e-9)

    def psd_min_eig(self, h) -> float:
        """Smallest eigenvalue of the Hermitian part of the compression of H."""
        return float(_eigh(self.compress(h))[0][0])


AnyWindow = Window | WholeSpace  # an OperatorTuple's window; default opcore.WHOLE_SPACE


def window(space: ModelSpace, margin: int) -> Window:
    if margin < 0:
        raise OpcoreError("margin must be nonnegative")
    if margin >= (low := min(t for _, t in space.summands)):
        raise OpcoreError(f"margin {margin} leaves no window (min trunc_level {low})")
    return Window(margin, _eye(space.total_dim).cols(space.level_mask(margin)))


def auto_margin(space: ModelSpace, ops) -> int:
    """Safe window margin for two-factor words drawn from ``ops``: twice the
    largest level shift |level(row) - level(col)| over their exactly nonzero
    entries.  Roundoff fill-in can only enlarge it."""
    lv = space.levels()
    return 2 * max((int(np.abs(lv[f.i] - lv[f.j]).max(initial=0))
                    for f in map(_compact, ops)), default=0)


def hardy_shift(fiber_dim: int, trunc_level: int) -> _Block:
    """Truncation of the unilateral shift on level-graded C^fiber fibers.

    e_k (x) v -> e_{k+1} (x) v below the top level; the top level maps to 0.
    """
    if trunc_level < 2:
        raise OpcoreError("a truncated shift needs trunc_level >= 2")
    return block_assemble({(k + 1, k): _eye(fiber_dim) for k in range(trunc_level - 1)},
                          [fiber_dim] * trunc_level)


def block_assemble(cells: dict, dims, cols=None) -> _Block:
    """Form on the direct sum of blocks of row sizes ``dims`` and column sizes
    ``cols`` (``dims`` if None) from a {(i, j): block} map of forms or arrays,
    each distinct block read once; absent cells are zero.  Each block must
    have shape (dims[i], cols[j]); a mismatch raises naming its cell.  Cells
    never overlap and are taken by block row, then block column, so only a
    layout whose cells share rows needs a sort: one stable sort of the rows."""
    cols = dims if cols is None else cols
    ro, co = np.cumsum([0, *dims]), np.cumsum([0, *cols])
    form = once(_compact)
    parts = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0, complex))]  # no cell: zero
    for (i, j), blk in sorted(cells.items()):  # by block row, then block column
        if not (0 <= i < len(dims) and 0 <= j < len(cols)):
            raise OpcoreError(f"block ({i},{j}) lies outside the {len(dims)}x{len(cols)} layout")
        f = form(blk)
        if f.shape != (dims[i], cols[j]):
            raise OpcoreError(f"block ({i},{j}) has shape {f.shape}, "
                              f"expected ({dims[i]}, {cols[j]})")
        parts.append((f.i + ro[i], f.j + co[j], f.v))
    i, j, v = map(np.concatenate, zip(*parts))
    del parts  # the offset copies
    if (i[1:] < i[:-1]).any():
        order = i.argsort(kind="stable")
        v = v[order]  # one array at a time: the peak holds one copy
        j = j[order]
        i = i[order]
    return _Block(i, j, v, (int(ro[-1]), int(co[-1])))


def embed_blocks(space: ModelSpace, cells: dict) -> _Block:
    """Form on a ModelSpace from a {(i, j): block} map of summand cells."""
    return block_assemble(cells, [f * t for f, t in space.summands])
