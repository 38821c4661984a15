"""Defect operators, fundamental-equation solvers, rho-form evaluation and
the torus-sampled contraction condition chains.

The fundamental equations all have the shape D F D = w (T_i - T_j* T_p) with
D the defect operator of the tuple's distinguished contraction T_p; the rows
(i, j, F, w) of ``RELATIONS`` list them for every kind, and the unique
solution on the defect space is recovered by the rank-cut pseudo-inverse of
D.  Residuals and comparisons are windowed so that truncation of the model
space never poisons an identity that holds in the infinite model.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .opcore import (WHOLE_SPACE, OperatorTuple, OpcoreError, _mat, _square,
                     commutator_norms, numerical_radius, op_norm, spectral_radius)
from .report import CheckReport
from .spaces import AnyWindow, Window


class SolveError(OpcoreError):
    pass


class ExpansiveError(OpcoreError):
    pass


@dataclass
class DefectData:
    """Defect operator of a contraction with its range data.

    D = (I - T*T)^(1/2); ``range_basis`` holds the eigenvectors of D whose
    eigenvalues ``dvals`` exceed the cutoff 1e-8 (rank counts them).  Every
    dropped eigenvalue is exactly 0: ``defect`` zeroes Gram eigenvalues below
    64 eps, and the square root of any other is above 1e-7.
    """

    D: np.ndarray
    range_basis: np.ndarray
    dvals: np.ndarray

    @property
    def rank(self) -> int:
        return self.range_basis.shape[1]

    @property
    def projection_gap(self) -> float:
        """||D^2 - D|| = max |d^2 - d| over ``dvals`` (the dropped
        eigenvalues are exactly 0)."""
        return float(np.abs(self.dvals ** 2 - self.dvals).max(initial=0.0))

    @property
    def is_projection(self) -> bool:
        """D^2 = D to 1e-9 (partial isometry)."""
        return self.projection_gap <= 1e-9

    def pinv(self) -> np.ndarray:
        q = self.range_basis
        return (q / self.dvals) @ q.conj().T

    @cached_property
    def compress(self):
        """Defect-coordinate matrix Q* A Q: ``Window.compress`` on the range
        basis Q, whose window is built once."""
        return Window(None, self.range_basis).compress

    def window_range(self, window: Window) -> np.ndarray:
        """Orthonormal basis, in defect coordinates, of the part of the
        defect range inside the window: the eigenvalue-1 eigenvectors of
        c* c with c = Q* q (Q the window basis, q the range basis)."""
        c = window.basis.conj().T @ self.range_basis
        w, v = np.linalg.eigh(c.conj().T @ c)
        return v[:, w > 1.0 - 1e-9]


def defect(t) -> DefectData:
    m = _square(t, "defect operator")
    nrm = op_norm(m)
    if nrm > 1.0 + 1e-8:
        raise ExpansiveError(f"not a contraction: norm {nrm:.6f}")
    g = np.eye(m.shape[0]) - m.conj().T @ m
    g = (g + g.conj().T) / 2.0
    w, v = np.linalg.eigh(g)
    w = np.clip(w, 0.0, None)
    # Gram eigenvalues below roundoff would be inflated by the square root;
    # zero them before it (I - T*T carries ~eps absolute error)
    w[w < 64.0 * np.finfo(float).eps * max(1.0, w.max())] = 0.0
    dvals_all = np.sqrt(w)
    dmat = (v * dvals_all) @ v.conj().T
    dmat = (dmat + dmat.conj().T) / 2.0
    # D <= I for a contraction, so 1e-8 * max(1, ||D||) is an absolute cut
    keep = dvals_all > 1e-8 * max(dvals_all.max(), 1.0)
    return DefectData(D=dmat, range_basis=v[:, keep], dvals=dvals_all[keep])


# index of the distinguished contraction whose defect carries the equations
PIVOT = {"gamma7": 6, "gamma5": 2, "sym": 1, "penta": 2}

# relation rows (i, j, F, w): D F D = w (T_i - T_j* T_pivot).  A member of an
# isometric dilation satisfies V_i = V_j* V_pivot and carries the symbol
# compress(F) / w; member j is member i's partner.
RELATIONS = {
    "gamma7": tuple((i, 5 - i, f"F{i+1}", 1.0) for i in range(6)),
    "gamma5": ((0, 4, "G1", 1.0), (4, 0, "G2t", 1.0),
               (1, 3, "G2", 0.5), (3, 1, "G1t", 0.5)),
    "sym": ((0, 0, "X", 1.0),),
    "penta": ((1, 1, "X", 1.0),),
}

# member labels of the isometric tuples, in tuple order
MEMBERS = {
    "gamma7": tuple(f"V{k}" for k in range(1, 8)),
    "gamma5": ("W1", "W2", "W3", "W1t", "W2t"),
    "penta": ("R1", "R2", "R3"),
}


@dataclass
class FundamentalSet:
    """Solved fundamental operators, stored embedded on the host space and
    supported on the defect range."""

    kind: str
    ops: dict
    residuals: dict
    defect: DefectData

    def __getitem__(self, name: str) -> np.ndarray:
        return self.ops[name]

    def names(self):
        return tuple(self.ops.keys())


def _rhs_map(kind: str, tup: OperatorTuple) -> dict:
    if kind not in RELATIONS:
        raise SolveError(f"no fundamental equations for kind {kind!r}")
    t = tup.ops
    last = t[PIVOT[kind]]
    return {name: w * (t[i] - t[j].conj().T @ last)
            for i, j, name, w in RELATIONS[kind]}


def equation_residuals(rhs: dict, dd: DefectData, ops: dict, tol: float,
                       window: AnyWindow = WHOLE_SPACE) -> dict:
    """||D F D - B|| per equation, B = w (T_i - T_j* T_p) from ``_rhs_map``,
    seen through the window.  Raises SolveError naming the first equation
    whose residual exceeds ``tol``."""
    out = {}
    for name, b in rhs.items():
        out[name] = res = window.wnorm(dd.D @ ops[name] @ dd.D - b)
        if res > tol:
            raise SolveError(f"{name} fails its equation: residual {res:.3e} > {tol:.1e}")
    return out


def solve_fundamentals(kind: str, tup: OperatorTuple, tol: float = 1e-9,
                       window: AnyWindow = WHOLE_SPACE) -> FundamentalSet:
    """Solve every fundamental equation of the tuple's kind by F = D+ B D+.

    Raises SolveError when the tuple does not commute to 1e-9 (relative to
    its largest squared norm) or an equation's residual exceeds ``tol`` (the
    right-hand side leaves the defect space, so no solution exists on it;
    with an isometric pivot D = 0, so any nonzero right-hand side fails).
    """
    if not isinstance(tup, OperatorTuple):
        tup = OperatorTuple(kind, tuple(tup))
    if tup.kind != kind:
        raise SolveError(f"kind {kind!r} does not match tuple kind {tup.kind!r}")
    worst_comm = max((v for _, v in commutator_norms(tup.ops, window)), default=0.0)
    if worst_comm > 1e-9 * max(1.0, max(op_norm(o) for o in tup.ops) ** 2):
        raise SolveError(f"tuple does not commute on the window: {worst_comm:.3e}")
    dd = defect(tup.ops[PIVOT[kind]])
    rhs = _rhs_map(kind, tup)
    dplus = dd.pinv()
    ops = {name: dplus @ b @ dplus for name, b in rhs.items()}
    return FundamentalSet(kind, ops, equation_residuals(rhs, dd, ops, tol, window), dd)


@dataclass
class RhoResult:
    op: np.ndarray
    asym_residual: float


def rho(kind: str, args) -> RhoResult:
    """Hermitian positivity forms.

    sym:   2(I - P*P) - (S - S*P) - (S* - P*S)
    tetra: (I - T3*T3) - (T2*T2 - T1*T1) - (T2 - T1*T3) - (T2 - T1*T3)*
    """
    ops = [_mat(a) for a in (args.ops if isinstance(args, OperatorTuple) else args)]
    if kind == "sym":
        if len(ops) != 2:
            raise OpcoreError("sym form takes (S, P)")
        s, p = ops
        n = s.shape[0]
        out = 2.0 * (np.eye(n) - p.conj().T @ p) - (s - s.conj().T @ p) \
            - (s.conj().T - p.conj().T @ s)
    elif kind == "tetra":
        if len(ops) != 3:
            raise OpcoreError("tetra form takes (T1, T2, T3)")
        t1, t2, t3 = ops
        n = t1.shape[0]
        re_part = t2 - t1.conj().T @ t3
        out = (np.eye(n) - t3.conj().T @ t3) - (t2.conj().T @ t2 - t1.conj().T @ t1) \
            - re_part - re_part.conj().T
    else:
        raise OpcoreError(f"unknown rho kind {kind!r}")
    asym = float(np.linalg.norm(out - out.conj().T, 2))
    sym_out = (out + out.conj().T) / 2.0
    return RhoResult(sym_out, asym)


# tolerance of every chain_report item and of its own fundamental solve
CHAIN_TOL = 1e-7


def chain_report(kind: str, tup: OperatorTuple, z_samples: int = 32,
                 window: AnyWindow = WHOLE_SPACE,
                 fset: FundamentalSet | None = None) -> CheckReport:
    """Necessary-condition chain sampled on the torus.

    Three condition groups per coordinate pair (a, b): positivity of the
    paired rho form, spectral radius of a + z b <= 2, and numerical radius
    of the solved fundamental combination <= 1.  Only the forward
    implication is tested; passing never certifies the contraction property.

    The rho form sums the two displayed orderings; for |z| = 1, pivot L,
    s = a + b and K = s - s* L it is the sym form of the summed pair,
    rho_tetra(a, z b, z L) + rho_tetra(b, z a, z L) = 2(I - L*L) - z K - conj(z) K*.
    So every condition is a k x k family affine in z on the window
    compression: h = 2(I - L*L) is compressed once, K once per pair.

    A pair whose sampled sums all have spectral radius at most ``CHAIN_TOL``
    (nilpotent sums, as in the graded shift examples) cannot fail its
    radius condition; it is listed in ``undecided`` as vacuous instead of
    counting as a pass.  ``margins["radius"]`` still covers every pair.
    """
    if kind not in ("gamma7", "gamma5"):
        raise OpcoreError("chain_report handles gamma7 and gamma5 tuples")
    if z_samples < 1:
        raise OpcoreError(f"z_samples must be at least 1, got {z_samples}")
    rep = CheckReport(name=f"chain-{kind}", window_margin=window.margin)
    rep.notes.append("necessary direction only: failures disprove, passes do not certify")
    zs = np.exp(2j * np.pi * np.arange(z_samples) / z_samples)
    comp = window.compress

    # one coordinate pair per relation row with i < j, both members scaled
    # by the row weight; the partner row supplies the second fundamental
    t = tup.ops
    last = t[PIVOT[kind]]
    fname = {i: name for i, _, name, _ in RELATIONS[kind]}
    idx = [m[1:] for m in MEMBERS[kind]]
    pairs = [(w * t[i], w * t[j], f"{idx[i]},{idx[j]}", (fname[i], fname[j]))
             for i, j, _, w in RELATIONS[kind] if i < j]

    if fset is None:
        try:
            fset = solve_fundamentals(kind, tup, tol=CHAIN_TOL, window=window)
        except (SolveError, ExpansiveError) as exc:
            rep.add("fundamental-solvability", sys.float_info.max, CHAIN_TOL, ok=False)
            rep.notes.append(f"solve failed: {exc}")
            fset = None
    if fset is not None:
        rep.add("fundamental-solvability",
                max(fset.residuals.values(), default=0.0), CHAIN_TOL)

    h = comp(2.0 * (np.eye(tup.dim) - last.conj().T @ last))
    h = (h + h.conj().T) / 2.0
    rho_min = np.inf
    rad_max, omega_max = 0.0, 0.0
    for a, b, tag, names in pairs:
        p_rho, p_rad, p_om = np.inf, 0.0, 0.0
        ca, cb = comp(a), comp(b)
        s = a + b
        k = comp(s - s.conj().T @ last)
        for z in zs:
            zk = z * k
            p_rho = min(p_rho, float(np.linalg.eigvalsh(h - zk - zk.conj().T)[0]))
            p_rad = max(p_rad, spectral_radius(ca + z * cb))
        rep.add(f"rho-pair-psd[{tag}]", max(0.0, -p_rho), CHAIN_TOL)
        if p_rad <= CHAIN_TOL:
            rep.undecided.append(f"radius<=2[{tag}] vacuous: every sampled "
                                 "sum has spectral radius 0 to tol")
        else:
            rep.add(f"radius<=2[{tag}]", max(0.0, p_rad - 2.0), CHAIN_TOL)
        rho_min = min(rho_min, p_rho)
        rad_max = max(rad_max, p_rad)
        if fset is not None:
            fa, fb = comp(fset[names[0]]), comp(fset[names[1]])
            for z in zs:
                p_om = max(p_om, numerical_radius(fa + z * fb))
            rep.add(f"omega<=1[{tag}]", max(0.0, p_om - 1.0), CHAIN_TOL)
            omega_max = max(omega_max, p_om)
    rep.margins = {
        "rho": None if rho_min == np.inf else float(rho_min),
        "radius": 2.0 - float(rad_max),
        "omega": None if fset is None else 1.0 - float(omega_max),
    }
    return rep
