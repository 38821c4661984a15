"""Explicit dilation constructors: the finite unitary power dilation, the
block lower-triangular isometric dilations on the space H + (defect copies),
the pentablock dilation triple, and the operator pushforward maps.

Every construction truncates the defect tail at ``depth`` copies; checks
against the infinite-model identities must window out the final copies
(DilationResult.window builds the orthonormal basis of the safe part).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import opcore
from .opcore import (WHOLE_SPACE, OperatorTuple, OpcoreError, _compact, _mat,
                     commutator_norms, herm_sqrt, op_norm)
from .fundamentals import (PIVOT, RELATIONS, DefectData, ExpansiveError,
                           FundamentalSet)
from .spaces import AnyWindow, Window, block_assemble


class DilateError(OpcoreError):
    pass


def _check_dim(dim: int):
    """Refuse, before allocating, a dilation wider than opcore.MAX_DENSE_DIM."""
    if dim > opcore.MAX_DENSE_DIM:
        raise DilateError(f"dilation dimension {dim} exceeds the dense limit "
                          f"{opcore.MAX_DENSE_DIM}")


def egervary(t, n: int) -> np.ndarray:
    """(N+1)x(N+1) block unitary whose compressions reproduce T^k for k <= N.

    First block row (T, 0, ..., 0, D_{T*}), second (D_T, 0, ..., 0, -T*),
    then an identity chain feeding each column into the next row.  N = 1 is
    the classical 2x2 unitary extension of a contraction.
    """
    m = _mat(t)
    if m.shape[0] != m.shape[1]:
        raise DilateError("power dilation needs a square contraction")
    if n < 1:
        raise DilateError("N must be >= 1")
    _check_dim((n + 1) * m.shape[0])
    nrm = op_norm(m)
    if nrm > 1.0 + 1e-8:
        raise ExpansiveError(f"not a contraction: norm {nrm:.6f}")
    d = m.shape[0]
    eye = np.eye(d)
    dt = herm_sqrt(eye - m.conj().T @ m, neg_clamp=1e-8)
    dts = herm_sqrt(eye - m @ m.conj().T, neg_clamp=1e-8)
    cells = {(0, 0): m, (0, n): dts, (1, 0): dt, (1, n): -m.conj().T}
    cells.update({(k, k - 1): eye for k in range(2, n + 1)})
    return block_assemble(cells, [d] * (n + 1))


@dataclass
class DilationResult:
    """An isometric-dilation tuple on H + depth copies of the defect space.

    H sits on the first ``base_dim`` coordinates, so the inclusion of H is
    the identity on them.  Member adjoints restricted to H reproduce the
    original adjoints (the co-extension property, ``coextension_residuals``),
    and ``window`` gives the part of the dilation space where the
    infinite-model identities hold exactly.
    """

    kind: str
    ops: tuple
    depth: int
    defect: DefectData
    base_dim: int

    @property
    def dim(self) -> int:
        return self.ops[0].shape[0]

    def tuple(self) -> OperatorTuple:
        return OperatorTuple(self.kind, self.ops)

    def coextension_residuals(self, base_ops, h_window: AnyWindow = WHOLE_SPACE) -> list:
        """||(V* E - E T*) Q|| per member; E puts H on the first base_dim coordinates
        (as ``window`` assumes), so (V* E - E T*)* = V[:base_dim] - [T, 0]."""
        pad = ((0, 0), (0, self.dim - self.base_dim))
        return [h_window.wnorm((_compact(v[:self.base_dim])
                                - _compact(np.pad(_mat(t), pad))).H)
                for v, t in zip(self.ops, base_ops)]

    def window(self, h_window: Window, tail_margin: int = 1) -> Window:
        """Window on the dilation space: the base-space window plus the tail
        copies that sit at least ``tail_margin`` below the truncation cut.

        On each kept copy the window is the part of the defect space inside
        the base window, in defect coordinates (``DefectData.window_range``).
        """
        keepv = self.defect.window_range(h_window)
        keep_copies = max(0, self.depth - tail_margin)
        basis = scipy.linalg.block_diag(h_window.basis, *[keepv] * keep_copies)
        return Window(h_window.margin,
                      np.pad(basis, ((0, self.dim - basis.shape[0]), (0, 0))))


def _tail_tuple(base, first_col, diag, sub, depth, rank, zero_row=0):
    """Block lower-triangular dilation member.

    Row layout (H, copy 1, ..., copy depth).  ``first_col`` lists the blocks
    under the base entry (None for a gap); the ``diag``/``sub`` tail pattern
    repeats down the copies, pushed ``zero_row`` rows lower.
    """
    cells = {(row, 0): blk for row, blk in enumerate(first_col, 1)
             if row <= depth and blk is not None}
    cells[0, 0] = base
    for k in range(1, depth + 1):
        if diag is not None and k + zero_row <= depth:
            cells[k + zero_row, k] = diag
        if sub is not None and k + zero_row + 1 <= depth:
            cells[k + zero_row + 1, k] = sub
    return block_assemble(cells, [base.shape[0]] + [rank] * depth)


def schaffer(kind: str, tup: OperatorTuple, fset: FundamentalSet,
             depth: int) -> DilationResult:
    """Block lower-triangular isometric dilation from solved fundamentals.

    The pivot member is the defect-fed shift.  Every other member i of a
    relation row (i, j, F, w) carries its symbol compress(F)/w on the
    diagonal and its partner j's symbol adjoint below it, so that
    V_i = V_j* V_pivot.  A tuple whose pivot is already an isometry has a
    trivial defect space and is returned unchanged.
    """
    if kind not in ("gamma7", "gamma5"):
        raise DilateError("schaffer kinds are gamma7 and gamma5")
    if tup.kind != kind or fset.kind != kind:
        raise DilateError("tuple/fundamental kinds must match the requested kind")
    if depth < 2:
        raise DilateError("depth must be >= 2")
    dd = fset.defect
    base_dim = tup.dim
    if dd.rank == 0:
        return DilationResult(kind, tup.ops, depth, dd, base_dim)
    _check_dim(base_dim + depth * dd.rank)
    q = dd.range_basis
    drow = q.conj().T @ dd.D
    r = dd.rank
    sym = {i: (j, dd.compress(fset[name]) / w)
           for i, j, name, w in RELATIONS[kind]}
    ops = []
    for k, base in enumerate(tup.ops):
        if k == PIVOT[kind]:
            ops.append(_tail_tuple(base, [drow], None, np.eye(r), depth, r))
            continue
        j, f = sym[k]
        gh = sym[j][1].conj().T
        ops.append(_tail_tuple(base, [gh @ drow], f, gh, depth, r))
    return DilationResult(kind, tuple(ops), depth, dd, base_dim)


def pentablock_dilation(tup: OperatorTuple, fset: FundamentalSet,
                        depth: int) -> DilationResult:
    """Dilation triple (R1, R2, R3) of a pentablock candidate from its
    solved penta fundamental set.

    R2 carries the fundamental operator X of the last two members down the
    tail, R3 is the defect-fed shift, and R1 repeats the damping block
    L = (I - (X*X + XX*)/4)^(1/2) on every defect copy.
    """
    if tup.kind != "penta":
        raise DilateError("pentablock dilation takes a penta triple")
    if not isinstance(fset, FundamentalSet) or fset.kind != "penta":
        raise DilateError("pentablock dilation takes the triple's penta FundamentalSet")
    if depth < 2:
        raise DilateError("depth must be >= 2")
    p1, p2, p3 = tup.ops
    base_dim = tup.dim
    dd = fset.defect
    r = dd.rank
    if r == 0:
        return DilationResult("penta", tup.ops, depth, dd, base_dim)
    _check_dim(base_dim + depth * r)
    xc = dd.compress(fset["X"])
    gram = xc.conj().T @ xc + xc @ xc.conj().T
    if np.linalg.norm(gram, 2) > 4.0 + 1e-9:
        raise DilateError("damping block undefined: ||X*X + XX*|| exceeds 4")
    ell = herm_sqrt(np.eye(r) - 0.25 * gram)
    q = dd.range_basis
    drow = q.conj().T @ dd.D
    r1 = _tail_tuple(p1, [], ell, None, depth, r)
    r2 = _tail_tuple(p2, [xc.conj().T @ drow], xc, xc.conj().T, depth, r)
    r3 = _tail_tuple(p3, [drow], None, np.eye(r), depth, r)
    return DilationResult("penta", (r1, r2, r3), depth, dd, base_dim)


def pushforward(kind: str, *args, window: AnyWindow = WHOLE_SPACE):
    """Families of operators: the two-parameter seven-tuple, its gamma5
    slice, the axis embedding, and the averaged triple with an isometry.

    Commutation of the result is checked, not assumed.
    """
    if kind == "pi":
        t1, t2 = (_mat(a) for a in args)
        for o in (t1, t2):
            if op_norm(o) > 1.0 + 1e-8:
                raise ExpansiveError("pi needs a pair of contractions")
        t12 = t1 @ t2
        out = OperatorTuple("gamma7", (t1, t2, t12, t12, t1 @ t12, t12 @ t2,
                                       t1 @ t12 @ t2))
    elif kind == "pi_eta":
        tup, eta = args
        if not isinstance(tup, OperatorTuple) or tup.kind != "gamma7":
            raise DilateError("pi_eta takes a gamma7 tuple and eta")
        e = complex(eta)
        if abs(e) > 1.0 + 1e-12:
            raise DilateError("eta must lie in the closed unit disc")
        t = tup.ops
        out = OperatorTuple("gamma5", (t[0], t[2] + e * t[4], e * t[6],
                                       t[1] + e * t[3], e * t[5]))
    elif kind == "axis7":
        t1, t6, t7 = (_mat(a) for a in args)
        z = np.zeros_like(t1)
        out = OperatorTuple("gamma7", (t1, z, z, z, z, t6, t7))
    elif kind == "gamma3":
        t1, t2, v3 = (_mat(a) for a in args)
        for o in (t1, t2):
            if op_norm(o) > 1.0 + 1e-8:
                raise ExpansiveError("gamma3 needs contractions in the first two slots")
        iso_res = window.wnorm(v3.conj().T @ v3 - np.eye(v3.shape[0]))
        if iso_res > 1e-8:
            raise DilateError(f"third member is not an isometry on the window: {iso_res:.3e}")
        out = OperatorTuple("tetra", ((1.0 / 3.0) * (t1 + t2 + v3),
                                      (1.0 / 3.0) * (t1 @ t2 + t2 @ v3 + v3 @ t1),
                                      t1 @ t2 @ v3))
    else:
        raise DilateError(f"unknown pushforward kind {kind!r}")
    worst = max((v for _, v in commutator_norms(out.ops, window)), default=0.0)
    if worst > 1e-9 * max(1.0, max(op_norm(o) for o in out.ops) ** 2):
        raise DilateError(f"pushforward result does not commute: {worst:.3e}")
    return out
