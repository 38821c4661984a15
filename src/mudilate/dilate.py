"""Explicit dilation constructors: the finite unitary power dilation, the
block lower-triangular isometric co-extensions on H + (defect copies), all
laid out by the one constructor ``coextension``, and the pushforward maps.

Every construction truncates the defect tail at ``depth`` copies; checks
against the infinite-model identities must window out the final copies
(DilationResult.window builds the orthonormal basis of the safe part).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import opcore
from .opcore import OpcoreError, _compact, _diag, _eye, _mat, herm_sqrt, once, op_norm
from .fundamentals import (PIVOT, RELATIONS, DefectData, ExpansiveError,
                           FundamentalSet, OperatorTuple, defect)
from .spaces import Window, block_assemble


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
    the classical 2x2 unitary extension of a contraction.  The defects come
    from ``defect``, which refuses an expansive T.
    """
    m = _mat(t)
    if m.shape[0] != m.shape[1]:
        raise DilateError("power dilation needs a square contraction")
    if n < 1:
        raise DilateError("N must be >= 1")
    d = m.shape[0]
    _check_dim((n + 1) * d)
    cells = {(0, 0): m, (0, n): defect(m.conj().T).form, (1, 0): defect(m).form,
             (1, n): -m.conj().T}
    cells.update({(k, k - 1): _eye(d) for k in range(2, n + 1)})
    return block_assemble(cells, [d] * (n + 1)).dense()


@dataclass
class DilationResult:
    """An isometric-dilation tuple of ``base`` on H + depth copies of the
    defect space.

    H sits on the first ``base_dim`` coordinates, so the inclusion of H is
    the identity on them.  Its members ``forms`` are coordinate forms
    (``opcore._Block``; ``dense()`` gives the array), and ``tup`` holds them
    on ``window()``, the part of the dilation space where the infinite-model
    identities hold exactly, read off the window of ``base``.  Member
    adjoints restricted to H reproduce the original adjoints (the
    co-extension property, ``coextension_residuals``).  ``reach`` is the
    largest number of copies a member moves a copy down (``coextension``
    records it).
    """

    base: OperatorTuple
    forms: tuple
    depth: int
    defect: DefectData
    reach: int

    kind = property(lambda self: self.base.kind)
    base_dim = property(lambda self: self.base.dim)
    dim = property(lambda self: self.forms[0].shape[0])
    tup = cached_property(lambda self: OperatorTuple(self.kind, self.forms, self.window()))

    def coextension_residuals(self) -> list:
        """||(V* E - E T*) Q|| per member V and base member T, Q the base
        window; E puts H on the first base_dim coordinates, so (V* E - E T*)*
        = E* V - T E*, the first base_dim rows of V less [T, 0]."""
        e, wnorm = _eye(self.base_dim, self.dim), self.base.window.wnorm  # E*
        residual = once(lambda v, t: wnorm((e @ v - t @ e).H))  # members repeat
        return [residual(v, t) for v, t in zip(self.forms, self.base.forms)]

    def window(self) -> Window:
        """Base window (the identity on H for a whole-space base) plus the
        first depth - m tail copies, with m = min(2 reach, max(reach,
        depth - 1)): twice the reach covers two-factor words
        (``spaces.auto_margin``'s rule), the cap keeps one copy of a shallow
        dilation, and the floor drops every copy a member maps past the cut.
        On each kept copy the window is the part of the defect range inside
        the base window (``Window.inside``).
        """
        win = self.base.window
        margin = min(2 * self.reach, max(self.reach, self.depth - 1))
        keepv = win.inside(self.defect.range_basis)
        base = win.basis if isinstance(win, Window) else _eye(self.base_dim)
        blocks = [base] + [keepv] * (self.depth - margin)
        return Window(win.margin, block_assemble(
            {(k, k): b for k, b in enumerate(blocks)},
            [self.base_dim] + [self.defect.rank] * self.depth, [b.shape[1] for b in blocks]))


def coextension(tup: OperatorTuple, dd: DefectData, depth: int,
                members) -> DilationResult:
    """Block lower-triangular co-extension of ``tup`` on H + ``depth`` copies
    of the defect space of rank r (Schaffer, Proc. AMS 6, 1955).

    ``members[k] = (col, band)`` lays out member k: T_k on H, the block
    X q*D under it in copy c for the c-th r x r factor X of ``col`` (None
    leaves a gap; q is the defect range basis), and the block ``band[o]`` at
    (copy c + o, copy c) for every copy c.  Each member is laid out as a
    coordinate form by ``spaces.block_assemble``, so no dim x dim array is
    built.  A tuple with a trivial defect space is returned unchanged.
    """
    if depth < 2:
        raise DilateError("depth must be >= 2")
    members = [members[k] for k in range(len(tup.forms))]
    reach = max(o for _, band in members for o in band)
    if dd.rank == 0:
        return DilationResult(tup, tup.forms, depth, dd, reach)
    n, r = tup.dim, dd.rank
    _check_dim(n + depth * r)
    drow = dd.range_basis.H @ dd.form
    fed = once(lambda x: _compact(x) @ drow)  # one X q*D per distinct factor X

    def layout(base, member):  # once per distinct (base member, layout)
        col, band = member
        feeds = {(1 + c, 0): fed(x) for c, x in enumerate(col[:depth]) if x is not None}
        bands = {(1 + c + o, 1 + c): b for o, b in band.items() for c in range(depth - o)}
        return block_assemble({(0, 0): base, **feeds, **bands}, [n] + [r] * depth)
    return DilationResult(tup, tuple(map(once(layout), tup.forms, members)), depth, dd, reach)


def _relation_members(fset: FundamentalSet) -> dict:
    """Layout of the pivot (the defect-fed shift) and of each member i of a
    relation row (i, j, F, w): its symbol f_i = compress(F)/w on the diagonal
    and its partner's symbol adjoint g_j* below it, so V_i = V_j* V_pivot."""
    dd = fset.defect
    sym = {i: (j, (1.0 / w) * dd.compress(fset.forms[name]))
           for i, j, name, w in RELATIONS[fset.kind]}
    eye = _eye(dd.rank)
    members = {PIVOT[fset.kind]: ([eye], {1: eye})}
    for i, (j, f) in sym.items():
        gh = sym[j][1].H
        members[i] = ([gh], {0: f, 1: gh})
    return members


def schaffer(fset: FundamentalSet, depth: int) -> DilationResult:
    """Isometric dilation of the gamma7/gamma5 tuple ``fset.tup`` from its
    solved fundamentals: the pivot and relation-row members of
    ``_relation_members``.  A tuple whose pivot is already an isometry is
    returned unchanged."""
    if fset.kind not in ("gamma7", "gamma5"):
        raise DilateError("schaffer kinds are gamma7 and gamma5")
    return coextension(fset.tup, fset.defect, depth, _relation_members(fset))


def pentablock_dilation(fset: FundamentalSet, depth: int) -> DilationResult:
    """Dilation triple (R1, R2, R3) of the pentablock candidate of a solved
    penta fundamental set.

    R2 is the relation-row member of the fundamental operator X of the last
    two members (partner itself), R3 the defect-fed shift, and R1 repeats
    the damping block L = (I - (X*X + XX*)/4)^(1/2) on every defect copy.
    """
    if fset.kind != "penta":
        raise DilateError("pentablock dilation takes a penta FundamentalSet")
    members = _relation_members(fset)
    xc = members[1][1][0]  # R2's diagonal band: X in defect coordinates
    gram = xc.H @ xc + xc @ xc.H
    if op_norm(gram) > 4.0 + 1e-9:
        raise DilateError("damping block undefined: ||X*X + XX*|| exceeds 4")
    members[0] = ([], {0: herm_sqrt(_eye(xc.shape[0]) - 0.25 * gram)})
    return coextension(fset.tup, fset.defect, depth, members)


def pushforward(kind: str, *args):
    """Families of operators: the two-parameter seven-tuple, its gamma5
    slice, the axis embedding, and the averaged triple with an isometry.

    The members are formed as coordinate forms, from forms or arrays.  The
    map checks its inputs (contractions, the closed disc, an isometry on the
    whole space), not the commutation of its result: the code that uses the
    result windows it and refuses a non-commuting one there
    (``fundamentals.require_commuting``, ``verify.is_commuting``).  The
    gamma5 slice lives on its tuple's space and keeps its window.
    """
    if kind == "pi":
        t1, t2 = map(_compact, args)
        if max(map(op_norm, (t1, t2))) > 1.0 + 1e-8:
            raise ExpansiveError("pi needs a pair of contractions")
        t12 = t1 @ t2
        return OperatorTuple("gamma7", (t1, t2, t12, t12, t1 @ t12, t12 @ t2,
                                        t1 @ t12 @ t2))
    elif kind == "pi_eta":
        tup, eta = args
        if not isinstance(tup, OperatorTuple) or tup.kind != "gamma7":
            raise DilateError("pi_eta takes a gamma7 tuple and eta")
        e = complex(eta)
        if not abs(e) <= 1.0 + 1e-12:  # NaN fails it too
            raise DilateError("eta must lie in the closed unit disc")
        t = tup.forms
        return OperatorTuple("gamma5", (t[0], t[2] + e * t[4], e * t[6],
                                        t[1] + e * t[3], e * t[5]), tup.window)
    elif kind == "axis7":
        t1, t6, t7 = map(_compact, args)
        z = _diag(np.zeros(0), t1.shape)
        return OperatorTuple("gamma7", (t1, z, z, z, z, t6, t7))
    elif kind == "gamma3":
        t1, t2, v3 = map(_compact, args)
        if max(map(op_norm, (t1, t2))) > 1.0 + 1e-8:
            raise ExpansiveError("gamma3 needs contractions in the first two slots")
        iso_res = op_norm(v3.H @ v3 - _eye(v3.shape[0]))
        if iso_res > 1e-8:
            raise DilateError(f"third member is not an isometry: {iso_res:.3e}")
        return OperatorTuple("tetra", ((1.0 / 3.0) * (t1 + t2 + v3),
                                       (1.0 / 3.0) * (t1 @ t2 + t2 @ v3 + v3 @ t1),
                                       t1 @ t2 @ v3))
    else:
        raise DilateError(f"unknown pushforward kind {kind!r}")
