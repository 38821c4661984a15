"""Explicit dilation constructors: the finite unitary power dilation, the
block lower-triangular isometric co-extensions on H + (defect copies), all
laid out by the one constructor ``coextension``, and the pushforward maps.

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
    infinite-model identities hold exactly.  ``reach`` is the largest number
    of copies a member moves a copy down (``coextension`` records it).
    """

    kind: str
    ops: tuple
    depth: int
    defect: DefectData
    base_dim: int
    reach: int

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

    def window(self, h_window: Window) -> Window:
        """Base-space window plus the first depth - m tail copies, with
        m = min(2 reach, max(reach, depth - 1)): twice the reach covers
        two-factor words (``spaces.auto_margin``'s rule), the cap keeps one
        copy of a shallow dilation, and the floor drops every copy a member
        maps past the cut.  On each kept copy the window is the part of the
        defect space inside the base window (``DefectData.window_range``).
        """
        margin = min(2 * self.reach, max(self.reach, self.depth - 1))
        keepv = self.defect.window_range(h_window)
        basis = scipy.linalg.block_diag(h_window.basis,
                                        *[keepv] * (self.depth - margin))
        return Window(h_window.margin,
                      np.pad(basis, ((0, self.dim - basis.shape[0]), (0, 0))))


def coextension(kind: str, tup: OperatorTuple, dd: DefectData, depth: int,
                members) -> DilationResult:
    """Block lower-triangular co-extension of ``tup`` on H + ``depth`` copies
    of the defect space of rank r (Schaffer, Proc. AMS 6, 1955).

    ``members[k] = (col, band)`` lays out member k: T_k on H, the block
    X q*D under it in copy c for the c-th r x r factor X of ``col`` (None
    leaves a gap; q is the defect range basis), and the block ``band[o]`` at
    (copy c + o, copy c) for every copy c.  A tuple with a trivial defect
    space is returned unchanged.
    """
    if depth < 2:
        raise DilateError("depth must be >= 2")
    members = [members[k] for k in range(len(tup.ops))]
    reach = max(o for _, band in members for o in band)
    if dd.rank == 0:
        return DilationResult(kind, tup.ops, depth, dd, tup.dim, reach)
    _check_dim(tup.dim + depth * dd.rank)
    drow = dd.range_basis.conj().T @ dd.D
    ops = []
    for base, (col, band) in zip(tup.ops, members):
        cells = {(c, 0): x @ drow for c, x in enumerate(col[:depth], 1)
                 if x is not None}
        cells[0, 0] = base
        cells.update({(c + o, c): b for o, b in band.items()
                      for c in range(1, depth + 1 - o)})
        ops.append(block_assemble(cells, [tup.dim] + [dd.rank] * depth))
    return DilationResult(kind, tuple(ops), depth, dd, tup.dim, reach)


def _relation_members(kind: str, fset: FundamentalSet) -> dict:
    """Layout of the pivot (the defect-fed shift) and of each member i of a
    relation row (i, j, F, w): its symbol f_i = compress(F)/w on the diagonal
    and its partner's symbol adjoint g_j* below it, so V_i = V_j* V_pivot."""
    dd = fset.defect
    sym = {i: (j, dd.compress(fset[name]) / w)
           for i, j, name, w in RELATIONS[kind]}
    eye = np.eye(dd.rank)
    members = {PIVOT[kind]: ([eye], {1: eye})}
    for i, (j, f) in sym.items():
        gh = sym[j][1].conj().T
        members[i] = ([gh], {0: f, 1: gh})
    return members


def schaffer(kind: str, tup: OperatorTuple, fset: FundamentalSet,
             depth: int) -> DilationResult:
    """Isometric dilation of a gamma7/gamma5 tuple from solved fundamentals:
    the pivot and relation-row members of ``_relation_members``.  A tuple
    whose pivot is already an isometry is returned unchanged."""
    if kind not in ("gamma7", "gamma5"):
        raise DilateError("schaffer kinds are gamma7 and gamma5")
    if tup.kind != kind or fset.kind != kind:
        raise DilateError("tuple/fundamental kinds must match the requested kind")
    return coextension(kind, tup, fset.defect, depth, _relation_members(kind, fset))


def pentablock_dilation(tup: OperatorTuple, fset: FundamentalSet,
                        depth: int) -> DilationResult:
    """Dilation triple (R1, R2, R3) of a pentablock candidate from its
    solved penta fundamental set.

    R2 is the relation-row member of the fundamental operator X of the last
    two members (partner itself), R3 the defect-fed shift, and R1 repeats
    the damping block L = (I - (X*X + XX*)/4)^(1/2) on every defect copy.
    """
    if tup.kind != "penta":
        raise DilateError("pentablock dilation takes a penta triple")
    if not isinstance(fset, FundamentalSet) or fset.kind != "penta":
        raise DilateError("pentablock dilation takes the triple's penta FundamentalSet")
    members = _relation_members("penta", fset)
    xc = members[1][1][0]  # R2's diagonal band: X in defect coordinates
    gram = xc.conj().T @ xc + xc @ xc.conj().T
    if np.linalg.norm(gram, 2) > 4.0 + 1e-9:
        raise DilateError("damping block undefined: ||X*X + XX*|| exceeds 4")
    # a rank-0 gram is empty, and coextension returns the triple unchanged
    ell = herm_sqrt(np.eye(len(xc)) - 0.25 * gram) if len(xc) else gram
    members[0] = ([], {0: ell})
    return coextension("penta", tup, fset.defect, depth, members)


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
