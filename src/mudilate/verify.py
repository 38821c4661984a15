"""Predicate and residual suite: commutativity, the isometry classes of each
domain kind, the kernel-restricted necessary conditions for a dilation to
exist, and the commutator tables that the sufficient-condition hypotheses
quantify over.

Checks apply a truncation window wherever the infinite-model identity would
otherwise be poisoned by the cut tail; windowed passes never claim more than
the safe part of the space.
"""

from __future__ import annotations

import numpy as np

from .opcore import (OperatorTuple, OpcoreError, _compact, _mat,
                     commutator_norms, kernel_basis, op_norm, spectral_radius)
from .fundamentals import MEMBERS, PIVOT, RELATIONS, FundamentalSet
from .report import CheckReport
from .spaces import Window


def is_commuting(t, tol: float = 1e-9, window: Window | None = None) -> CheckReport:
    ops = list(t.ops) if isinstance(t, OperatorTuple) else [_compact(o) for o in t]
    dim = ops[0].shape[0]
    if any(o.shape != (dim, dim) for o in ops):
        raise OpcoreError("commutation check needs square operators on one space")
    rep = CheckReport(name="is-commuting",
                      window_margin=None if window is None else window.margin)
    for (i, j), res in commutator_norms(ops, window):
        rep.add(f"[T{i+1},T{j+1}]", res, tol)
    return rep


def isometry_check(kind: str, t, tol: float = 1e-9,
                   window: Window | None = None) -> CheckReport:
    """Algebraic characterization of each isometry class, windowed.

    kinds: "isometry" and "partial" take a single operator; "gamma7",
    "gamma5" and "penta" take tuples and test the relations V_i = V_j* V_pivot
    of the ``RELATIONS`` rows, the pivot isometry and the spectral-radius
    bounds the class demands (plus the pentablock Gram identity).
    """
    rep = CheckReport(name=f"isometry-{kind}",
                      window_margin=None if window is None else window.margin)
    norm = op_norm if window is None else window.wnorm

    def isometry_residual(v):
        return norm(v.H @ v - _compact(np.eye(v.shape[0], dtype=complex)))

    if kind == "isometry":
        rep.add("V*V=I", isometry_residual(_compact(t)), tol)
        return rep
    if kind == "partial":
        m = _compact(t)
        rep.add("norm<=1", max(0.0, op_norm(m) - 1.0), 1e-8)
        rep.add("TT*T=T", norm(m @ m.H @ m - m), tol)
        return rep

    if not isinstance(t, OperatorTuple):
        raise OpcoreError("tuple kinds need an OperatorTuple")
    if t.kind != kind:
        raise OpcoreError(f"tuple kind {t.kind!r} does not match {kind!r}")
    if kind not in MEMBERS:
        raise OpcoreError(f"unknown isometry kind {kind!r}")
    ops = [_compact(o) for o in t.ops]
    comp = (lambda i: t.ops[i]) if window is None else (lambda i: window.compress(ops[i]))
    comm = is_commuting(ops, tol, window)
    rep.add("commuting", comm.worst(), tol)

    names, p = MEMBERS[kind], PIVOT[kind]
    for i, j, _, _ in RELATIONS[kind]:
        rep.add(f"{names[i]}={names[j]}*{names[p]}",
                norm(ops[i] - ops[j].H @ ops[p]), tol)
        if kind == "gamma7":
            rw = spectral_radius(comp(i))
            rep.add(f"r({names[i]})<=1", max(0.0, rw - 1.0), tol)
    rep.add(f"{names[p]} isometry", isometry_residual(ops[p]), tol)
    if kind == "penta":
        r1, r2, _ = ops
        rw = spectral_radius(comp(1))
        rep.add("r(R2)<=2", max(0.0, rw - 2.0), tol)
        gram = r1.H @ r1 + 0.25 * r2.H @ r2 - _compact(np.eye(t.dim, dtype=complex))
        rep.add("R1*R1+R2*R2/4=I", norm(gram), tol)
    return rep


def _windowed_kernel(dd, window):
    """Orthonormal basis of Ker D intersected with the window: the window
    vectors that the orthogonal projection R = q q* onto the defect range
    kills, read off the eigenvalue-0 eigenvectors of the compression
    Q* R Q = c c* (c = Q* q)."""
    if window is None:
        return kernel_basis(dd.D)
    c = window.basis.conj().T @ dd.range_basis
    w, v = np.linalg.eigh(c @ c.conj().T)
    return window.basis @ v[:, w < 1e-9]


def _windowed_range(dd, window):
    """Orthonormal basis of the defect range intersected with the window
    (``DefectData.window_range``, mapped back by the range basis q).

    For a partial isometry this is the kernel of the operator itself, the
    subspace the restricted-tuple comparisons live on.
    """
    if window is None:
        return dd.range_basis
    return dd.range_basis @ dd.window_range(window)


def necessary_conditions(kind: str, t: OperatorTuple, fset: FundamentalSet,
                         tol: float = 1e-9, window: Window | None = None) -> CheckReport:
    """Kernel-restricted residuals that any dilatable tuple must annihilate.

    The companion existence condition (a joint subnormal dilation of the
    fundamental operators) has no finite test and is reported as undecided,
    with the commutator profile as the natural circumstantial data.
    """
    rep = CheckReport(name=f"necessary-{kind}",
                      window_margin=None if window is None else window.margin)
    dd = fset.defect
    kb = _windowed_kernel(dd, window)
    rep.notes.append(f"kernel test space dimension {kb.shape[1]}")
    rep.undecided.append("joint subnormal dilation of the fundamental operators")
    if kb.shape[1] == 0:
        rep.notes.append("defect kernel is trivial on the window; conditions hold vacuously")

    def on_kernel(e):
        return float(np.linalg.norm(e.blk @ kb[e.c], 2)) if e.blk.size and kb.size else 0.0

    d = _compact(dd.D)
    if kind == "gamma7":
        if t.kind != "gamma7" or fset.kind != "gamma7":
            raise OpcoreError("gamma7 conditions need gamma7 tuple and fundamentals")
        ts = [_compact(o) for o in t.ops]
        fs = [_compact(fset[f"F{i+1}"]).H for i in range(6)]
        for i in range(6):
            e2 = fs[i] @ d @ ts[i] - fs[5 - i] @ d @ ts[5 - i]
            rep.add(f"(F{i+1}*D T{i+1} - F{6-i}*D T{6-i})|ker", on_kernel(e2), tol)
        for i in range(6):
            anti = fs[i] @ fs[5 - i] - fs[5 - i] @ fs[i]
            rep.add(f"[F{i+1}*,F{6-i}*]D T7|ker", on_kernel(anti @ d @ ts[6]), tol)
    elif kind == "gamma5":
        if t.kind != "gamma5" or fset.kind != "gamma5":
            raise OpcoreError("gamma5 conditions need gamma5 tuple and fundamentals")
        s1, s2, s3, s1t, s2t = (_compact(o) for o in t.ops)
        g1, g2, g1t, g2t = (_compact(fset[n]).H for n in ("G1", "G2", "G1t", "G2t"))
        conds = [  # (k, A*, B*, condition (k)); condition (k') is [A*, B*] D S3
            ("2", g2t, g1, g2t @ d @ s2t - g1 @ d @ s1),
            ("3", g2, g1t, g2 @ d @ s2 - g1t @ d @ s1t),
            ("4", g2t, g1t, g2t @ d @ s2 - 2.0 * g1t @ d @ s1),
            ("5", g2, g1, 2.0 * g2 @ d @ s2t - g1 @ d @ s1t),
            ("6", g2t, g2, g2t @ d @ s1t - 2.0 * g2 @ d @ s1),
            ("7", g1t, g1, 2.0 * g1t @ d @ s2t - g1 @ d @ s2),
        ]
        for k, a, b, expr in conds:
            rep.add(f"({k})", on_kernel(expr), tol)
            rep.add(f"({k}')", on_kernel((a @ b - b @ a) @ d @ s3), tol)
    elif kind == "penta":
        if t.kind != "penta" or fset.kind != "penta":
            raise OpcoreError("penta conditions need a penta triple and its fundamentals")
        _, p2, p3 = (_compact(o) for o in t.ops)
        x = _compact(fset["X"])
        rep.add("(X D P3 - D P2)|ker", on_kernel(x @ d @ p3 - d @ p2), tol)
    else:
        raise OpcoreError(f"unknown kind {kind!r}")
    return rep


def _self_comm(m):
    return m.conj().T @ m - m @ m.conj().T


def _comm(a, b):
    return a @ b - b @ a


def commutator_profile(fset: FundamentalSet, tol: float = 1e-9,
                       window: Window | None = None) -> CheckReport:
    """Full table of the commutator identities behind the sufficient
    conditions.  Violations mark the report hypothesis-violated, never
    failed: these are hypotheses, not necessary conditions.
    """
    if fset.kind not in ("gamma7", "gamma5"):
        raise OpcoreError("a single fundamental operator has no commutator profile")
    rep = CheckReport(name=f"commutators-{fset.kind}", hypothesis_only=True,
                      window_margin=None if window is None else window.margin)
    # P F P = Q (Q* F Q) Q*, so products and commutators of the compressions
    # carry the norms of the two-sided windowed operators
    comp = _mat if window is None else window.compress

    if fset.kind == "gamma7":
        fs = [comp(fset[f"F{i+1}"]) for i in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                rep.add(f"[F{i+1},F{j+1}]",
                        float(np.linalg.norm(_comm(fs[i], fs[j]), 2)), tol)
        for i in range(6):
            for j in range(i + 1, 6):
                lhs = _comm(fs[5 - i].conj().T, fs[j])
                rhs = _comm(fs[5 - j].conj().T, fs[i])
                rep.add(f"[F{6-i}*,F{j+1}]-[F{6-j}*,F{i+1}]",
                        float(np.linalg.norm(lhs - rhs, 2)), tol)
        return rep

    names = ("G1", "G2", "G1t", "G2t")
    g1, g2, g1t, g2t = (comp(fset[n]) for n in names)
    pairs = [("G1", g1, "G2", g2), ("G1", g1, "G1t", g1t), ("G1", g1, "G2t", g2t),
             ("G2", g2, "G1t", g1t), ("G2", g2, "G2t", g2t), ("G1t", g1t, "G2t", g2t)]
    for na, a, nb, b in pairs:
        rep.add(f"[{na},{nb}]", float(np.linalg.norm(_comm(a, b), 2)), tol)
    c1, c2, c1t, c2t = (_self_comm(m) for m in (g1, g2, g1t, g2t))
    idents = [
        ("[G1*,G1]-4[G2*,G2]", c1 - 4.0 * c2),
        ("[G1*,G1]-4[G1t*,G1t]", c1 - 4.0 * c1t),
        ("[G1*,G1]-[G2t*,G2t]", c1 - c2t),
        ("[G2*,G2]-[G1t*,G1t]", c2 - c1t),
        ("4[G2*,G2]-[G2t*,G2t]", 4.0 * c2 - c2t),
        ("4[G1t*,G1t]-[G2t*,G2t]", 4.0 * c1t - c2t),
        ("[G1,G2*]-[G2,G1*]", _comm(g1, g2.conj().T) - _comm(g2, g1.conj().T)),
        ("[G1,G1t*]-[G1t,G1*]", _comm(g1, g1t.conj().T) - _comm(g1t, g1.conj().T)),
        ("[G1,G2t*]-[G2t,G1*]", _comm(g1, g2t.conj().T) - _comm(g2t, g1.conj().T)),
        ("[G2,G1t*]-[G1t,G2*]", _comm(g2, g1t.conj().T) - _comm(g1t, g2.conj().T)),
        ("[G2,G2t*]-[G2t,G2*]", _comm(g2, g2t.conj().T) - _comm(g2t, g2.conj().T)),
        ("[G1t,G2t*]-[G2t,G1t*]", _comm(g1t, g2t.conj().T) - _comm(g2t, g1t.conj().T)),
        ("[2G2*,2G2]-[2G1t*,2G1t]", 4.0 * (c2 - c1t)),
    ]
    for label, m in idents:
        rep.add(label, float(np.linalg.norm(m, 2)), tol)
    return rep
