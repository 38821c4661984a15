"""Defect operators, fundamental-equation solvers, rho-form evaluation and
the contraction condition chains over the torus, exact on graded families.

The fundamental equations all have the shape D F D = w (T_i - T_j* T_p) with
D the defect operator of the tuple's distinguished contraction T_p; the rows
(i, j, F, w) of ``RELATIONS`` list them for every kind, and the unique
solution on the defect space is recovered by the rank-cut pseudo-inverse of
D.  Residuals and comparisons read the tuple's window, so that truncation
of the model space never poisons an identity that holds in the infinite model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .opcore import (OperatorTuple, OpcoreError, _Block, _compact, _diag, _eigh, _eye,
                     grading, lambda_min, numerical_radius, once, op_norm, spectral_radius)
from .report import CheckReport


class SolveError(OpcoreError):
    pass


class ExpansiveError(OpcoreError):
    pass


@dataclass
class DefectData:
    """D = (I - T*T)^(1/2) of a contraction (``form``), its range and kernel
    as forms; only ``defect`` builds it.  ``range_basis`` holds the
    eigenvectors of D whose eigenvalues ``dvals`` exceed 1e-8 (rank counts
    them), ``kernel_basis`` the rest; each dropped eigenvalue is exactly 0
    (``defect`` zeroes Gram eigenvalues below 64 eps; any other root > 1e-7)."""

    form: _Block
    range_basis: _Block
    dvals: np.ndarray
    kernel_basis: _Block

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

    def pinv(self) -> _Block:
        return self.range_basis @ _diag(1.0 / self.dvals) @ self.range_basis.H

    def compress(self, a) -> _Block:
        """Defect-coordinate form Q* A Q on the range basis Q."""
        return self.range_basis.H @ (_compact(a) @ self.range_basis)


def _gram_root(w: np.ndarray) -> np.ndarray:
    """The eigenvalues of D_T from the ascending eigenvalues w of I - T*T;
    ExpansiveError unless ||T|| <= 1 + 1e-8."""
    nrm = np.sqrt(max(0.0, 1.0 - w.min()))  # ||T||^2 = 1 - min eig(I - T*T)
    if nrm > 1.0 + 1e-8:
        raise ExpansiveError(f"not a contraction: norm {nrm:.6f}")
    w = np.clip(w, 0.0, None)
    # Gram eigenvalues below roundoff would be inflated by the square root;
    # zero them before it (I - T*T carries ~eps absolute error)
    w[w < 64.0 * np.finfo(float).eps * max(1.0, w.max())] = 0.0
    return np.sqrt(w)


def defect(t) -> DefectData:
    """D_T, its range and kernel, from one ``_eigh`` of I - T*T, per support
    component: a T with at most one entry per row (every exam pivot) has a
    diagonal Gram, read off with no LAPACK call, and a dense T is one
    component and one ``eigh``.  D is formed on the same blocks."""
    f = _compact(t)
    if f.shape[0] != f.shape[1]:
        raise OpcoreError("defect operator needs a square matrix")
    h = f.H @ f
    del f  # a dense T's form is twice its array: free it before I - T*T
    h = _eye(h.shape[0]) - h
    dvals, v, d = _eigh(h, _gram_root)
    # D <= I for a contraction, so 1e-8 * max(1, ||D||) is an absolute cut
    keep = dvals > 1e-8 * max(dvals.max(), 1.0)
    return DefectData(d, v.cols(keep), dvals[keep], v.cols(~keep))


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
    """Solved fundamental operators of the tuple ``tup``, embedded on the
    host space and supported on the defect range of its pivot, held as one
    coordinate form per F; an array passed in is read once for its form."""

    tup: OperatorTuple
    forms: dict
    residuals: dict
    defect: DefectData

    def __post_init__(self):
        self.forms = {name: _compact(f) for name, f in self.forms.items()}

    @property
    def kind(self) -> str:
        return self.tup.kind

    def __getitem__(self, name: str) -> np.ndarray:
        return self.forms[name].dense()

    def names(self):
        return tuple(self.forms)


def _rhs_map(tup: OperatorTuple) -> dict:
    """The right-hand sides B = w (T_i - T_j* T_p) as forms, one per distinct (T_i, T_j, w)."""
    if tup.kind not in RELATIONS:
        raise SolveError(f"no fundamental equations for kind {tup.kind!r}")
    t = tup.forms
    last = t[PIVOT[tup.kind]]
    rhs = once(lambda a, b, w: w * (a - b.H @ last))
    return {name: rhs(t[i], t[j], w) for i, j, name, w in RELATIONS[tup.kind]}


def equation_residuals(fset: FundamentalSet, rhs: dict, tol: float) -> dict:
    """||D F D - B|| per equation on the window of ``fset.tup``, F in ``fset.forms``
    and B = w (T_i - T_j* T_p) from ``_rhs_map``, one per distinct (F, B).
    Raises SolveError naming the first equation whose residual exceeds ``tol``."""
    d, wnorm = fset.defect.form, fset.tup.window.wnorm
    out, residual = {}, once(lambda f, b: wnorm(d @ f @ d - b))
    for name, b in rhs.items():
        out[name] = res = residual(fset.forms[name], b)
        if res > tol:
            raise SolveError(f"{name} fails its equation: residual {res:.3e} > {tol:.1e}")
    return out


def require_commuting(tup: OperatorTuple):
    """Raise SolveError unless the tuple commutes on its window to 1e-9,
    relative to its largest squared norm: the one commutation refusal.  The
    bound is at least 1e-9, so the norms are taken only past it."""
    worst_comm = max((v for _, v in tup.commutators), default=0.0)
    if worst_comm > 1e-9 and \
            worst_comm > 1e-9 * max(1.0, max(map(op_norm, set(tup.forms))) ** 2):
        raise SolveError(f"tuple does not commute on the window: {worst_comm:.3e}")


def solve_fundamentals(tup: OperatorTuple, tol: float = 1e-9) -> FundamentalSet:
    """Solve every fundamental equation of the tuple's kind by F = D+ B D+.

    Raises SolveError when the tuple does not commute (``require_commuting``),
    its kind has no equations, or an equation's residual exceeds ``tol``
    (the right-hand side leaves the defect space, so no solution exists on
    it; with an isometric pivot D = 0, so any nonzero right-hand side
    fails).  The products run on coordinate forms, and the set holds them.
    """
    require_commuting(tup)
    rhs = _rhs_map(tup)
    dd = defect(tup.forms[PIVOT[tup.kind]])
    dplus = dd.pinv()
    solve = once(lambda b: dplus @ b @ dplus)  # equal right-hand sides share one F
    fset = FundamentalSet(tup, {name: solve(b) for name, b in rhs.items()}, {}, dd)
    fset.residuals = equation_residuals(fset, rhs, tol)
    return fset


@dataclass
class RhoResult:
    op: np.ndarray
    asym_residual: float


def rho(tup: OperatorTuple) -> RhoResult:
    """Hermitian positivity form of a sym pair (S, P) or a tetra triple
    (T1, T2, T3).

    sym:   2(I - P*P) - (S - S*P) - (S* - P*S)
    tetra: (I - T3*T3) - (T2*T2 - T1*T1) - (T2 - T1*T3) - (T2 - T1*T3)*
    """
    eye, t = np.eye(tup.dim), [f.dense() for f in tup.forms]
    if tup.kind == "sym":
        s, p = t
        out = 2.0 * (eye - p.conj().T @ p) - (s - s.conj().T @ p) \
            - (s.conj().T - p.conj().T @ s)
    elif tup.kind == "tetra":
        t1, t2, t3 = t
        re_part = t2 - t1.conj().T @ t3
        out = (eye - t3.conj().T @ t3) - (t2.conj().T @ t2 - t1.conj().T @ t1) \
            - re_part - re_part.conj().T
    else:
        raise OpcoreError(f"no rho form for kind {tup.kind!r}")
    asym = float(np.linalg.norm(out - out.conj().T, 2))
    sym_out = (out + out.conj().T) / 2.0
    return RhoResult(sym_out, asym)


# tolerance of every chain_report item; the most torus samples it takes
CHAIN_TOL = 1e-7
MAX_Z_SAMPLES = 4096


def chain_report(fset: FundamentalSet, z_samples: int = 32) -> CheckReport:
    """Necessary-condition chain of the gamma7 or gamma5 tuple ``fset.tup``
    over the torus, read with its solved fundamentals on the tuple's window.
    The ``fundamental-solvability`` item reads the solve's largest equation
    residual against ``CHAIN_TOL``.

    Three condition groups per coordinate pair (a, b): positivity of the
    paired rho form, spectral radius of a + z b <= 2, and numerical radius
    of the solved fundamental combination <= 1.  Only the forward
    implication is tested; passing never certifies the contraction property.

    The rho form sums the two displayed orderings; for |z| = 1, pivot L,
    s = a + b and K = s - s* L it is the sym form of the summed pair,
    rho_tetra(a, z b, z L) + rho_tetra(b, z a, z L) = 2(I - L*L) - z K - conj(z) K*.
    So every condition is a family affine in z of window compressions, held
    as forms (h = 2(I - L*L) compressed once, K once per pair), whose spectra
    are read per support component (``opcore._blocks``).

    Graded families are decided exactly (``opcore.grading``).  If a
    potential g gives A degree d_a and B degree d_b != d_a, the unitary
    D = diag(e^{i phi g}) with e^{i phi (d_b - d_a)} = conj(z) turns A + z B
    into e^{i phi d_a} (A + B).  So omega(F_a + z F_b) and the spectrum of
    a + z b are those at z = 1 for every |z| = 1, and so is
    lambda_min(h - z K - conj(z) K*) when h has degree 0 (the diagonal is
    added to its pattern to demand it): one evaluation at z = 1 is the exact
    sup (inf) over the torus.  The omega group still evaluates every sample,
    all equal, since z = 1 is one of them.  If a and b both have degree 1,
    every a + z b raises the potential, so it is nilpotent: its radius item
    is vacuous.  Other families are sampled at ``z_samples`` equally spaced
    points, a lower bound on the sup; one note counts, per group, the
    families decided each way.

    A pair whose sums have spectral radius at most ``CHAIN_TOL`` cannot fail
    its radius condition; it is listed in ``undecided`` as vacuous instead of
    counting as a pass.  ``margins["radius"]`` still covers every pair.
    """
    tup, kind, window = fset.tup, fset.kind, fset.tup.window
    if kind not in ("gamma7", "gamma5"):
        raise OpcoreError("chain_report handles gamma7 and gamma5 tuples")
    if not 1 <= z_samples <= MAX_Z_SAMPLES:
        raise OpcoreError(f"z_samples must lie in [1, {MAX_Z_SAMPLES}], got {z_samples}")
    rep = CheckReport(name=f"chain-{kind}", window_margin=window.margin)
    rep.notes.append("necessary direction only: failures disprove, passes do not certify")
    zs = np.exp(2j * np.pi * np.arange(z_samples) / z_samples)
    # per condition group: families decided exactly by grading, and sampled
    tally = {"rho-pair-psd": [0, 0], "radius<=2": [0, 0], "omega<=1": [0, 0]}

    def over_torus(group, family, z_free):
        """family(z) at z = 1 alone if the family is z-free, else at every sample."""
        tally[group][0 if z_free else 1] += 1
        return [family(1.0)] if z_free else [family(z) for z in zs]

    # one coordinate pair per relation row with i < j, both members scaled
    # by the row weight; the partner row supplies the second fundamental
    t = tup.forms
    last = t[PIVOT[kind]]
    fname = {i: name for i, _, name, _ in RELATIONS[kind]}
    idx = [m[1:] for m in MEMBERS[kind]]
    # each distinct scaled member, compression and graded family is worked
    # once (exam1's F3 = F4; exam3's pairs repeat members)
    scaled, compress, grade = once(lambda w, x: w * x), once(window.compress), once(grading)
    pairs = [(scaled(w, t[i]), scaled(w, t[j]), f"{idx[i]},{idx[j]}", (fname[i], fname[j]))
             for i, j, _, w in RELATIONS[kind] if i < j]

    @once
    def k_of(a, b):  # K = s - s* L of s = a + b, compressed
        s = a + b
        return compress(s - s.H @ last)

    rep.add("fundamental-solvability", max(fset.residuals.values(), default=0.0),
            CHAIN_TOL)

    h = window.compress(2.0 * (_eye(tup.dim) - last.H @ last))
    h = 0.5 * (h + h.H)
    # supp h and the diagonal, which demands degree 0
    h_pattern = _Block(h.i, h.j, np.abs(h.v), h.shape) + _eye(h.shape[0])
    rho_min = np.inf
    rad_max, omega_max = 0.0, 0.0
    for a, b, tag, names in pairs:
        ca, cb, k = compress(a), compress(b), k_of(a, b)
        p_rho = min(over_torus("rho-pair-psd", lambda z: lambda_min(h - z * k - (z * k).H),
                               grade(h_pattern, k).z_free))
        rep.add(f"rho-pair-psd[{tag}]", max(0.0, -p_rho), CHAIN_TOL)
        rho_min = min(rho_min, p_rho)
        g = grade(ca, cb)
        if g.unit:
            tally["radius<=2"][0] += 1
            p_rad, why = 0.0, "a + z b is unit-graded, so nilpotent for every z"
        else:
            p_rad = max(over_torus("radius<=2", lambda z: spectral_radius(ca + z * cb),
                                   g.z_free))
            why = "every sampled sum has spectral radius 0 to tol"
        if p_rad <= CHAIN_TOL:
            rep.undecided.append(f"radius<=2[{tag}] vacuous: {why}")
        else:
            rep.add(f"radius<=2[{tag}]", max(0.0, p_rad - 2.0), CHAIN_TOL)
        rad_max = max(rad_max, p_rad)
        fa, fb = (compress(fset.forms[name]) for name in names)
        # every sample even when z-free: the benchmark's own tests count z_samples
        # numerical_radius calls per family (ROADMAP, "Re-size the benchmark")
        g = grade(fa, fb)
        tally["omega<=1"][0 if g.z_free else 1] += 1
        p_om = max(numerical_radius(fa + z * fb, unit_graded=g.unit) for z in zs)
        rep.add(f"omega<=1[{tag}]", max(0.0, p_om - 1.0), CHAIN_TOL)
        omega_max = max(omega_max, p_om)
    rep.margins = {
        "rho": float(rho_min),
        "radius": 2.0 - float(rad_max),
        "omega": 1.0 - float(omega_max),
    }
    counts = ", ".join(f"{grp} {e}/{smp}" for grp, (e, smp) in tally.items())
    rep.notes.append(f"families decided exactly by grading / sampled at "
                     f"{z_samples} z: {counts}")
    return rep
