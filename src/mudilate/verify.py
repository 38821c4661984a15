"""Predicate and residual suite: commutativity, the isometry classes of each
domain kind, the kernel-restricted necessary conditions for a dilation to
exist, and the commutator tables that the sufficient-condition hypotheses
quantify over.

Checks read a truncation window off the tuple they check (an
``OperatorTuple``'s ``window``, that of ``fset.tup`` for a fundamental set)
wherever the infinite-model identity would otherwise be poisoned by the cut
tail; windowed passes never claim more than the safe part of the space.
"""

from __future__ import annotations

from itertools import combinations

from .opcore import OpcoreError, _eye, commutator, commutator_norms, once, op_norm
from .fundamentals import MEMBERS, PIVOT, RELATIONS, FundamentalSet, OperatorTuple
from .report import CheckReport
from .spaces import Window


def is_commuting(tup: OperatorTuple, tol: float = 1e-9) -> CheckReport:
    """Pairwise commutator norms of an OperatorTuple on its window."""
    rep = CheckReport(name="is-commuting", window_margin=tup.window.margin)
    for (i, j), res in tup.commutators:
        rep.add(f"[T{i+1},T{j+1}]", res, tol)
    return rep


def isometry_check(tup: OperatorTuple, tol: float = 1e-9) -> CheckReport:
    """Algebraic characterization of the isometry class of a gamma7, gamma5
    or penta OperatorTuple (a dilation's ``tup``) on its window: commutation,
    the relations V_i = V_j* V_pivot of the ``RELATIONS`` rows and the pivot
    isometry.  Two classes add norm bounds, from these theorems:

    * a commuting triple (A, B, P) is a tetrablock isometry iff P is an
      isometry, A = B* P and ||B|| <= 1 (Bhattacharyya, "The tetrablock as
      a spectral set", Indiana Univ. Math. J. 63, 2014).  Each gamma7 pair
      (V_i, V_{7-i}, V_7) is one, so gamma7 adds ||V_i|| <= 1 for i <= 6;
    * a commuting pair (S, P) is a Gamma-isometry iff P is an isometry,
      S = S* P and r(S) <= 2, and then ||S|| <= 2 (Agler & Young, "A model
      theory for Gamma-contractions", J. Operator Theory 49, 2003).  The
      penta pair (R2, R3) is one, so penta adds ||R2|| <= 2, next to the
      Gram identity R1* R1 + R2* R2 / 4 = I.

    A bound is read through the window as ||A Q||, and ||A Q|| <= ||A||,
    so a windowed failure proves the bound fails.
    """
    kind, window, ops = tup.kind, tup.window, tup.forms
    if kind not in MEMBERS:
        raise OpcoreError(f"unknown isometry kind {kind!r}")
    rep = CheckReport(name=f"isometry-{kind}", window_margin=window.margin)
    rep.add("commuting", max(v for _, v in tup.commutators), tol)

    names, p = MEMBERS[kind], PIVOT[kind]
    # once per distinct (V_i, V_j) and V_i: a dilation's members repeat (exam3's)
    relation = once(lambda a, b: window.wnorm(a - b.H @ ops[p]))
    norm = once(window.wnorm)
    for i, j, _, _ in RELATIONS[kind]:
        rep.add(f"{names[i]}={names[j]}*{names[p]}", relation(ops[i], ops[j]), tol)
        if kind == "gamma7":
            rep.add(f"||{names[i]}||<=1", max(0.0, norm(ops[i]) - 1.0), tol)
    eye = _eye(tup.dim)
    rep.add(f"{names[p]} isometry", window.wnorm(ops[p].H @ ops[p] - eye), tol)
    if kind == "penta":
        r1, r2, _ = ops
        rep.add("||R2||<=2", max(0.0, window.wnorm(r2) - 2.0), tol)
        gram = r1.H @ r1 + 0.25 * r2.H @ r2 - eye
        rep.add("R1*R1+R2*R2/4=I", window.wnorm(gram), tol)
    return rep


def necessary_conditions(fset: FundamentalSet, tol: float = 1e-9) -> CheckReport:
    """Kernel-restricted residuals that a dilatable ``fset.tup`` must annihilate.

    The companion existence condition (a joint subnormal dilation of the
    fundamental operators) has no finite test and is reported as undecided,
    with the commutator profile as the natural circumstantial data.
    """
    t, kind, dd, window = fset.tup, fset.kind, fset.defect, fset.tup.window
    rep = CheckReport(name=f"necessary-{kind}", window_margin=window.margin)
    kw = Window(window.margin, dd.kernel_basis @ window.inside(dd.kernel_basis))
    rep.notes.append(f"kernel test space dimension {kw.dim}")
    rep.undecided.append("joint subnormal dilation of the fundamental operators")
    if kw.dim == 0:
        rep.notes.append("defect kernel is trivial on the window; conditions hold vacuously")

    d, fms = dd.form, fset.forms
    # F*, F* D and F* D T once per distinct F (and T): fundamentals and
    # members repeat (exam1's F3 = F4, exam3's F1 = F2 = F4)
    adj = once(lambda f: f.H)
    fd = once(lambda f: adj(f) @ d)
    fdt = once(lambda f, x: fd(f) @ x)
    if kind == "gamma7":
        ts = t.forms
        fs = [fms[f"F{i+1}"] for i in range(6)]
        # rows (i, j) and (j, i) state one condition up to sign: keep i < j
        rows = [(i, j) for i, j, _, _ in RELATIONS["gamma7"] if i < j]
        for i, j in rows:
            e2 = fdt(fs[i], ts[i]) - fdt(fs[j], ts[j])
            rep.add(f"(F{i+1}*D T{i+1} - F{j+1}*D T{j+1})|ker", kw.wnorm(e2), tol)
        for i, j in rows:
            a, b = adj(fs[i]), adj(fs[j])
            rep.add(f"[F{i+1}*,F{j+1}*]D T7|ker", kw.wnorm(commutator(a, b) @ d @ ts[6]), tol)
    elif kind == "gamma5":
        s1, s2, s3, s1t, s2t = t.forms
        g1, g2, g1t, g2t = (fms[n] for n in ("G1", "G2", "G1t", "G2t"))
        # 2 (A* D S) is (2 A*) D S bit for bit: scaling by 2 is exact
        conds = [  # (k, A, B, condition (k)); condition (k') is [A*, B*] D S3
            ("2", g2t, g1, fdt(g2t, s2t) - fdt(g1, s1)),
            ("3", g2, g1t, fdt(g2, s2) - fdt(g1t, s1t)),
            ("4", g2t, g1t, fdt(g2t, s2) - 2.0 * fdt(g1t, s1)),
            ("5", g2, g1, 2.0 * fdt(g2, s2t) - fdt(g1, s1t)),
            ("6", g2t, g2, fdt(g2t, s1t) - 2.0 * fdt(g2, s1)),
            ("7", g1t, g1, 2.0 * fdt(g1t, s2t) - fdt(g1, s2)),
        ]
        for k, a, b, expr in conds:
            rep.add(f"({k})", kw.wnorm(expr), tol)
            a, b = adj(a), adj(b)
            rep.add(f"({k}')", kw.wnorm(commutator(a, b) @ d @ s3), tol)
    elif kind == "penta":
        _, p2, p3 = t.forms
        x = fms["X"]
        rep.add("(X D P3 - D P2)|ker", kw.wnorm(x @ d @ p3 - d @ p2), tol)
    else:
        raise OpcoreError(f"unknown kind {kind!r}")
    return rep


def commutator_profile(fset: FundamentalSet, tol: float = 1e-9) -> CheckReport:
    """Full table of the commutator identities behind the sufficient
    conditions, on the window of ``fset.tup``.  Violations mark the report
    hypothesis-violated, never failed: these are hypotheses, not necessary
    conditions.
    """
    if fset.kind not in ("gamma7", "gamma5"):
        raise OpcoreError("a single fundamental operator has no commutator profile")
    window = fset.tup.window
    rep = CheckReport(name=f"commutators-{fset.kind}", hypothesis_only=True,
                      window_margin=window.margin)
    # P F P = Q (Q* F Q) Q*, so products and commutators of the compressions
    # carry the norms of the two-sided windowed operators; each distinct F is
    # compressed once, as a form, and every table entry is a form's norm
    names = (tuple(f"F{i+1}" for i in range(6)) if fset.kind == "gamma7"
             else ("G1", "G2", "G1t", "G2t"))
    fs = list(map(once(window.compress), (fset.forms[n] for n in names)))
    adj, comm = once(lambda f: f.H), once(commutator)  # once per distinct form or pair
    for (i, j), res in commutator_norms(fs):
        rep.add(f"[{names[i]},{names[j]}]", res, tol)

    if fset.kind == "gamma7":
        partner = {i: j for i, j, _, _ in RELATIONS["gamma7"]}
        # the identity of (i, j) is the adjoint of that of (5 - j, 5 - i)
        for i in range(6):
            for j in range(i + 1, 6 - i):
                ci, cj = partner[i], partner[j]
                gap = comm(adj(fs[ci]), fs[j]) - comm(adj(fs[cj]), fs[i])
                rep.add(f"[F{ci+1}*,F{j+1}]-[F{cj+1}*,F{i+1}]", op_norm(gap), tol)
        return rep

    c1, c2, c1t, c2t = (comm(adj(m), m) for m in fs)
    idents = [
        ("[G1*,G1]-4[G2*,G2]", c1 - 4.0 * c2),
        ("[G1*,G1]-4[G1t*,G1t]", c1 - 4.0 * c1t),
        ("[G1*,G1]-[G2t*,G2t]", c1 - c2t),
        ("4[G2*,G2]-[G2t*,G2t]", 4.0 * c2 - c2t),
        ("4[G1t*,G1t]-[G2t*,G2t]", 4.0 * c1t - c2t),
    ]
    idents += [(f"[{na},{nb}*]-[{nb},{na}*]", comm(a, adj(b)) - comm(b, adj(a)))
               for (na, a), (nb, b) in combinations(zip(names, fs), 2)]
    idents.append(("[2G2*,2G2]-[2G1t*,2G1t]", 4.0 * (c2 - c1t)))
    for label, m in idents:
        rep.add(label, op_norm(m), tol)
    return rep
