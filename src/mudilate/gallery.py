"""End-to-end reproduction cases wired for the CLI: the shift-block seven-
tuple with commuting fundamentals whose mixed commutators obstruct, its
five-tuple slice, the nilpotent-symbol family with a hand-built dilation,
the pentablock family, and the point-level pushforward families.

Every case is deterministic: equal parameters produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import opcore
from .opcore import OperatorTuple, _compact, _mat, herm_sqrt, op_norm
from .spaces import ModelSpace, Window, auto_margin, embed_blocks, hardy_shift, window
from .domains import (DomainPoint, membership, point_pi, point_pi_eta,
                      psi3_supnorm)
from .fundamentals import (MEMBERS, PIVOT, RELATIONS, DefectData, chain_report,
                           solve_fundamentals)
from .dilate import DilationResult, coextension, pushforward, \
    pentablock_dilation, schaffer
from .verify import _self_comm, commutator_profile, is_commuting, \
    isometry_check, necessary_conditions
from .report import CheckReport, dumps


CASE_IDS = ("exam1", "exam2", "exam3", "exam5", "pi_family", "axis_family")


@dataclass
class GalleryCase:
    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in CASE_IDS:
            raise ValueError(f"unknown case {self.id!r}; choose from {CASE_IDS}")
        p = dict(self.params)
        p.setdefault("trunc", 8)
        p.setdefault("depth", 4)
        p.setdefault("alpha", 0.5)
        p.setdefault("z_samples", 8)
        p.setdefault("n_points", 25)
        p.setdefault("seed", 7)
        if p["z_samples"] < 1:
            raise ValueError("z_samples must be >= 1")
        if p["trunc"] < 6:
            raise ValueError("trunc must be >= 6 to leave a margin-4 window")
        if p["depth"] < 2:
            raise ValueError("depth must be >= 2")
        if abs(p["alpha"]) > 1.0:
            raise ValueError("alpha must lie in the closed unit disc")
        # the largest case space is the exam3 dilation: 8 trunc base
        # coordinates plus max(depth, 4) copies of its 4 trunc-dim defect
        dim = 4 * p["trunc"] * (2 + max(p["depth"], 4))
        if dim > opcore.MAX_DENSE_DIM:
            raise ValueError(f"trunc {p['trunc']} and depth {p['depth']} need a "
                             f"{dim}-dim dilation, above the dense limit "
                             f"{opcore.MAX_DENSE_DIM}")
        self.params = p


# ---------------------------------------------------------------------------
# shift-block seven-tuple (three Hardy summands)


def build_exam1(trunc: int = 8):
    """Seven-tuple generated by the nilpotent block raise and the diagonal
    shift on three scalar Hardy summands, with its known fundamentals."""
    space = ModelSpace(((1, trunc),) * 3)
    m = hardy_shift(1, trunc)
    eye = np.eye(trunc)
    t1 = embed_blocks(space, {(0, 1): eye, (1, 2): eye})
    t2 = embed_blocks(space, {(0, 0): m, (1, 1): m, (2, 2): m})
    tup = pushforward("pi", t1, t2, window=window(space, 1))
    m2 = m @ m
    expected_f = {
        "F1": embed_blocks(space, {(0, 1): eye}),
        "F2": embed_blocks(space, {(0, 0): m, (1, 1): m}),
        "F3": embed_blocks(space, {(0, 1): m}),
        "F4": embed_blocks(space, {(0, 1): m}),
        "F5": np.zeros((space.total_dim,) * 2, dtype=complex),
        "F6": embed_blocks(space, {(0, 1): m2}),
    }
    return space, tup, expected_f


def build_exam2(trunc: int = 8):
    """Five-tuple slice of the exam1 family at slice parameter 1."""
    space, tup7, _ = build_exam1(trunc)
    tup5 = pushforward("pi_eta", tup7, 1.0, window=window(space, 4))
    m = hardy_shift(1, trunc)
    eye = np.eye(trunc)
    m2 = m @ m
    displayed = OperatorTuple("gamma5", (
        embed_blocks(space, {(0, 1): eye, (1, 2): eye}),
        embed_blocks(space, {(0, 1): m, (0, 2): m, (1, 2): m}),
        embed_blocks(space, {(0, 2): m2}),
        embed_blocks(space, {(0, 0): m, (0, 1): m, (1, 1): m, (1, 2): m, (2, 2): m}),
        embed_blocks(space, {(0, 1): m2, (1, 2): m2}),
    ))
    expected_g = {
        "G1": embed_blocks(space, {(0, 1): eye}),
        "G2": 0.5 * embed_blocks(space, {(0, 1): m}),
        "G1t": 0.5 * embed_blocks(space, {(0, 0): m, (0, 1): m, (1, 1): m}),
        "G2t": embed_blocks(space, {(0, 1): m2}),
    }
    return space, tup7, tup5, displayed, expected_g


# ---------------------------------------------------------------------------
# nilpotent-symbol family on four C^2-fiber summands


def _raising_symbol(alpha: float, trunc: int) -> np.ndarray:
    """Rank-one symbol on the C^2-fiber space: level-0 fiber map [[0, a], [0, 0]]."""
    g = np.zeros((2 * trunc, 2 * trunc), dtype=complex)
    g[0, 1] = alpha
    return g


def projection_defect(space: ModelSpace, summands: tuple) -> DefectData:
    """Idealized defect data for a coordinate-projection defect operator."""
    n = space.total_dim
    mask = np.zeros(n)
    for i in summands:
        sl = space.summand_slice(i)
        mask[sl] = 1.0
    d = np.diag(mask)
    q = np.eye(n)[:, mask > 0.5]
    return DefectData(D=_mat(d), range_basis=q, dvals=np.ones(q.shape[1]))


def build_exam3(alpha: float = 0.5, trunc: int = 8):
    """Seven-tuple (A, A, 0, A, 0, 0, P) with nilpotent symbol A and a
    rotation-coupled shift P; defect = first + fourth summands."""
    space = ModelSpace(((2, trunc),) * 4)
    g = _raising_symbol(alpha, trunc)
    m2 = hardy_shift(2, trunc)
    a = embed_blocks(space, {(0, 0): g})
    b = np.zeros((space.total_dim,) * 2, dtype=complex)
    p = embed_blocks(space, {(1, 2): m2, (2, 1): -1.0 * m2})
    tup = OperatorTuple("gamma7", (a, a, b, a, b, b, p))
    f_embedded = embed_blocks(space, {(0, 0): g})
    return space, tup, f_embedded


def build_exam3_dilation(alpha: float, trunc: int, depth: int) -> DilationResult:
    """The hand-specified dilation of the exam3 family: the symbol members
    repeat (f, f*) down the copies, and the zero-symbol members and the
    shift insert one extra zero block row."""
    space, tup, f_emb = build_exam3(alpha, trunc)
    dd = projection_defect(space, (0, 3))
    f = dd.compress(f_emb)
    fh, eye = f.conj().T, np.eye(dd.rank)
    a, z = ([fh], {0: f, 1: fh}), ([f, fh], {1: f, 2: fh})
    members = (a, a, z, a, z, z, ([None, eye], {2: eye}))
    return coextension("gamma7", tup, dd, depth, members)


def build_exam5(alpha: float = 0.5, trunc: int = 8):
    """Pentablock triple (damped identity, nilpotent symbol, coupled shift);
    defect = first summand."""
    space = ModelSpace(((2, trunc),) * 4)
    g = _raising_symbol(alpha, trunc)
    l0 = herm_sqrt(np.eye(2 * trunc) - 0.25 * (g.conj().T @ g + g @ g.conj().T))
    m2 = hardy_shift(2, trunc)
    eye = np.eye(2 * trunc)
    p1 = embed_blocks(space, {(0, 0): l0, (1, 1): eye, (2, 2): eye, (3, 3): eye})
    p2 = embed_blocks(space, {(0, 0): g})
    p3 = embed_blocks(space, {(1, 1): m2, (2, 3): m2, (3, 2): -1.0 * m2})
    tup = OperatorTuple("penta", (p1, p2, p3))
    return space, tup, p2


# ---------------------------------------------------------------------------
# gallery-case runners


def _merge(dst: CheckReport, src: CheckReport, prefix: str):
    worst_fail = 0.0
    for item in src.items:
        if not item.passed:
            worst_fail = max(worst_fail, item.residual)
    dst.add(f"{prefix}: worst failing residual", worst_fail,
            max((i.tol for i in src.items), default=0.0),
            ok=(src.verdict == "pass"))
    dst.undecided.extend(f"{prefix}: {u}" for u in src.undecided)


def _expect_schaffer(rep: CheckReport, case: GalleryCase, tup, fset, w,
                     rel_label: str):
    """Dilate a gamma7/gamma5 tuple and record its relation rows, the pivot
    isometry, the co-extension property and the non-commuting members of
    the first relation row."""
    kind, depth, piv = tup.kind, case.params["depth"], PIVOT[tup.kind]
    dil = schaffer(kind, tup, fset, depth)
    kw = dil.window(w)
    v = [_compact(o) for o in dil.ops]
    rel = max(kw.wnorm(v[i] - v[j].H @ v[piv])
              for i, j, _, _ in RELATIONS[kind])
    rep.add(rel_label, rel, 1e-9)
    iso = kw.wnorm(v[piv].H @ v[piv] - _compact(np.eye(dil.dim, dtype=complex)))
    rep.add(f"{MEMBERS[kind][piv]} isometric on window", iso, 1e-9)
    coext = max(dil.coextension_residuals(tup.ops, w))
    rep.add("co-extension of the original tuple", coext, 1e-9)
    i, j = RELATIONS[kind][0][:2]
    cviol = kw.wnorm(v[i] @ v[j] - v[j] @ v[i])
    rep.add("dilation members fail to commute (expected)",
            cviol, 0.9, ok=cviol >= 0.9)


def _run_exam1(case: GalleryCase) -> CheckReport:
    p = case.params
    space, tup, expected_f = build_exam1(p["trunc"])
    mar = auto_margin(space, tup.ops)
    w = window(space, mar)
    rep = CheckReport(name="exam1", window_margin=mar)

    comm = is_commuting(tup, 1e-9, w)
    _merge(rep, comm, "tuple commutes")

    fset = solve_fundamentals("gamma7", tup, tol=1e-9, window=w)
    rep.add("fundamental solve residual", max(fset.residuals.values()), 1e-9)
    worst = max(w.equal(fset[name], expected_f[name]) for name in expected_f)
    rep.add("fundamentals match displayed forms", worst, 1e-10)

    chain = chain_report("gamma7", tup, z_samples=p["z_samples"], window=w,
                         fset=fset)
    _merge(rep, chain, "torus condition chain")
    rep.margins = chain.margins

    prof = commutator_profile(fset, tol=1e-10, window=w)
    by_label = {i.label: i.residual for i in prof.items}
    worst_comm = max(v for k, v in by_label.items() if k.startswith("[F") and "*" not in k)
    rep.add("all [Fi,Fj]=0", worst_comm, 1e-10)
    for a, b in ((1, 6), (2, 5)):
        gap = by_label[f"[F{b}*,F{b}]-[F{a}*,F{a}]"]
        rep.add(f"||[F{a}*,F{a}]-[F{b}*,F{b}]||", gap, 0.99, ok=gap >= 0.99)
    rep.add("||[F3*,F3]-[F4*,F4]||", by_label["[F4*,F4]-[F3*,F3]"], 1e-10)

    nec = necessary_conditions("gamma7", tup, fset, tol=1e-9, window=w)
    _merge(rep, nec, "kernel-restricted necessary conditions")

    _expect_schaffer(rep, case, tup, fset, w, "dilation relations Vi=V(7-i)*V7")
    rep.notes.append("sufficient-condition hypotheses violated while the "
                     "necessary conditions hold: the hypotheses are not necessary")
    return rep


def _run_exam2(case: GalleryCase) -> CheckReport:
    p = case.params
    space, tup7, tup5, displayed, expected_g = build_exam2(p["trunc"])
    mar = auto_margin(space, tup5.ops)
    w = window(space, mar)
    rep = CheckReport(name="exam2", window_margin=mar)

    exact = max(float(np.linalg.norm(a - b, 2))
                for a, b in zip(tup5.ops, displayed.ops))
    rep.add("slice of exam1 equals displayed five-tuple", exact, 1e-12)

    comm = is_commuting(tup5, 1e-9, w)
    _merge(rep, comm, "tuple commutes")

    fset = solve_fundamentals("gamma5", tup5, tol=1e-9, window=w)
    worst = max(w.equal(fset[name], expected_g[name]) for name in expected_g)
    rep.add("fundamentals match displayed forms", worst, 1e-10)

    chain = chain_report("gamma5", tup5, z_samples=p["z_samples"], window=w,
                         fset=fset)
    _merge(rep, chain, "torus condition chain")
    rep.margins = chain.margins

    nec = necessary_conditions("gamma5", tup5, fset, tol=1e-9, window=w)
    _merge(rep, nec, "kernel-restricted necessary conditions")
    by = {i.label: i.residual for i in nec.items}
    pair_gap = max(abs(by[f"({k})"] - by[f"({k}')"]) for k in range(2, 8))
    rep.add("primed/unprimed condition pairs agree", pair_gap, 1e-10)

    prof = commutator_profile(fset, tol=1e-10, window=w)
    pb = {i.label: i.residual for i in prof.items}
    worst_comm = max(pb[k] for k in pb if k.count("*") == 0 and "-" not in k)
    rep.add("fundamental operators commute", worst_comm, 1e-10)
    for key in ("[G1*,G1]-[G2t*,G2t]", "[2G2*,2G2]-[2G1t*,2G1t]"):
        rep.add(f"||{key}||", pb[key], 0.9, ok=pb[key] >= 0.9)

    _expect_schaffer(rep, case, tup5, fset, w, "dilation relations W=partner* W3")
    return rep


def _run_exam3(case: GalleryCase) -> CheckReport:
    p = case.params
    alpha = p["alpha"]
    depth = max(p["depth"], 4)
    space, tup, f_emb = build_exam3(alpha, p["trunc"])
    mar = auto_margin(space, tup.ops)
    w = window(space, mar)
    rep = CheckReport(name="exam3", window_margin=mar)

    comm = is_commuting(tup, 1e-9, w)
    _merge(rep, comm, "tuple commutes")

    fset = solve_fundamentals("gamma7", tup, tol=1e-9, window=w)
    zero = np.zeros((space.total_dim,) * 2, dtype=complex)
    worst = max(
        max(w.equal(fset[n], f_emb) for n in ("F1", "F2", "F4")),
        max(w.equal(fset[n], zero) for n in ("F3", "F5", "F6")),
    )
    rep.add("fundamentals: symbol on defect, zeros elsewhere", worst, 1e-10)

    nec = necessary_conditions("gamma7", tup, fset, tol=1e-9, window=w)
    _merge(rep, nec, "kernel-restricted necessary conditions")

    dil = build_exam3_dilation(alpha, p["trunc"], depth)
    kw = dil.window(w)
    chk = isometry_check("gamma7", dil.tuple(), tol=1e-9, window=kw)
    _merge(rep, chk, "hand-built dilation is a gamma7 isometry")
    coext = max(dil.coextension_residuals(tup.ops, w))
    rep.add("co-extension of the original tuple", coext, 1e-9)
    rep.add("||V1|| equals |alpha|", abs(op_norm(dil.ops[0]) - abs(alpha)), 1e-9)
    rep.add("||V3|| bounded by 1", max(0.0, op_norm(dil.ops[2]) - 1.0), 1e-9)
    return rep


def _run_exam5(case: GalleryCase) -> CheckReport:
    p = case.params
    alpha = p["alpha"]
    space, tup, x_emb = build_exam5(alpha, p["trunc"])
    mar = auto_margin(space, tup.ops)
    w = window(space, mar)
    rep = CheckReport(name="exam5", window_margin=mar)

    comm = is_commuting(tup, 1e-9, w)
    _merge(rep, comm, "tuple commutes")

    fset = solve_fundamentals("penta", tup, tol=1e-9, window=w)
    rep.add("fundamental of the last pair equals the symbol",
            w.equal(fset["X"], x_emb), 1e-10)

    dil = pentablock_dilation(tup, fset, p["depth"])
    kw = dil.window(w)
    chk = isometry_check("penta", dil.tuple(), tol=1e-9, window=kw)
    _merge(rep, chk, "dilation triple is a pentablock isometry")
    by = {i.label: i.residual for i in chk.items}
    rep.add("R2=R2*R3 on window", by["R2=R2*R3"], 1e-10)
    rep.add("R1*R1 + R2*R2/4 = I on window", by["R1*R1+R2*R2/4=I"], 1e-9)
    rep.add("||R2|| equals |alpha|", abs(op_norm(dil.ops[1]) - abs(alpha)), 1e-8)
    coext = max(dil.coextension_residuals(tup.ops, w))
    rep.add("co-extension of the original triple", coext, 1e-9)
    nec = necessary_conditions("penta", tup, fset, tol=1e-9, window=w)
    _merge(rep, nec, "kernel-restricted necessary condition")
    return rep


def _run_pi_family(case: GalleryCase) -> CheckReport:
    p = case.params
    rng = np.random.default_rng(p["seed"])
    n = p["n_points"]
    rep = CheckReport(name="pi_family")

    def disc(scale=0.98):
        return scale * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())

    worst_psi = 0.0
    ok7 = ok5 = True
    etas = [disc() for _ in range(8)]
    for _ in range(n):
        a, b = disc(), disc()
        pt7 = point_pi(a, b)
        r7 = membership(pt7)
        ok7 &= r7.verdict == "inside"
        worst_psi = max(worst_psi, psi3_supnorm(pt7, grid=32).value)
        for eta in etas[:2]:
            r5 = membership(point_pi_eta(pt7, eta))
            ok5 &= r5.verdict == "inside"
    rep.add("two-parameter family lands inside (gamma7)", 0.0 if ok7 else 1.0, 0.0)
    rep.add("sliced family lands inside (gamma5)", 0.0 if ok5 else 1.0, 0.0)
    rep.add("two-variable symbol stays contractive", max(0.0, worst_psi - 1.0), 1e-8)

    bad = 0
    for _ in range(n):
        a, b = disc(), disc()
        bigger = 1.2 + rng.uniform()
        if rng.uniform() < 0.5:
            a = bigger * np.exp(2j * np.pi * rng.uniform())
        else:
            b = bigger * np.exp(2j * np.pi * rng.uniform())
        r = membership(DomainPoint("tetra", (a, b, a * b)))
        if r.verdict != "outside":
            bad += 1
    rep.add("inflated axis points rejected (tetra)", float(bad), 0.0)
    return rep


def _run_axis_family(case: GalleryCase) -> CheckReport:
    p = case.params
    trunc = p["trunc"]
    space = ModelSpace(((1, trunc),) * 2)
    m = hardy_shift(1, trunc)
    eye = np.eye(trunc)
    a = embed_blocks(space, {(1, 0): eye})
    b = embed_blocks(space, {(0, 0): m, (1, 1): m})
    pid = np.eye(space.total_dim)
    mar = auto_margin(space, (a, b, pid))
    w = window(space, mar)
    rep = CheckReport(name="axis_family", window_margin=mar)

    trip = pushforward("gamma3", a, b, pid, window=w)
    t1, t6, t7 = trip.ops
    chk = isometry_check("partial", t7, tol=1e-9, window=w)
    _merge(rep, chk, "averaged product is a partial isometry")
    tup = pushforward("axis7", t1, t6, t7, window=w)
    fset = solve_fundamentals("gamma7", tup, tol=1e-9, window=w)
    dd = fset.defect
    rep.add("defect operator is a projection", dd.projection_gap, 1e-9)
    f1_exp = embed_blocks(space, {(1, 1): (1.0 / 3.0) * (eye + m)})
    f6_exp = embed_blocks(space, {(1, 1): (1.0 / 3.0) * m})
    zero = np.zeros((space.total_dim,) * 2, dtype=complex)
    worst = max(
        w.equal(fset["F1"], f1_exp), w.equal(fset["F6"], f6_exp),
        max(w.equal(fset[n], zero) for n in ("F2", "F3", "F4", "F5")),
    )
    rep.add("fundamentals carry the averaged symbols", worst, 1e-10)

    prof = commutator_profile(fset, tol=1e-10, window=w)
    rep.add("all commutator identities hold (contrast with exam1)",
            prof.worst(), 1e-10)

    # restriction of the tuple to the kernel of the last member (= the
    # defect range of a partial isometry) carries the same commutator
    # table as the fundamentals
    kw = Window(w.margin, dd.range_basis @ dd.window_range(w))
    gap = 0.0
    for i, j in ((i, j) for i, j, _, _ in RELATIONS["gamma7"] if i < j):
        fi, fj, di, dj = (kw.compress(x) for x in (
            fset[f"F{i+1}"], fset[f"F{j+1}"], tup.ops[i], tup.ops[j]))
        gap = max(gap, float(np.linalg.norm(
            (_self_comm(fi) - _self_comm(fj)) - (_self_comm(di) - _self_comm(dj)), 2)))
    rep.add("kernel-restricted tuple mirrors fundamental commutators", gap, 1e-10)

    beta = 0.7
    qspace = ModelSpace(((1, trunc),))
    wq = window(qspace, auto_margin(qspace, (m,)))
    clean = pushforward("axis7", np.conj(beta) * np.eye(trunc),
                        beta * m, m, window=wq)
    chk2 = isometry_check("gamma7", clean, tol=1e-9, window=wq)
    _merge(rep, chk2, "axis embedding of a clean isometric triple")

    rng = np.random.default_rng(p["seed"])
    bad = 0
    for _ in range(p["n_points"]):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        z = 0.95 * z / np.linalg.norm(z, 2)
        x1, x6, x7 = z[0, 0], z[1, 1], np.linalg.det(z)
        r = membership(DomainPoint("gamma7", (x1, 0, 0, 0, 0, x6, x7)))
        if r.verdict not in ("inside", "boundary"):
            bad += 1
    rep.add("axis points of contractions land inside", float(bad), 0.0)
    return rep


_RUNNERS = {
    "exam1": _run_exam1,
    "exam2": _run_exam2,
    "exam3": _run_exam3,
    "exam5": _run_exam5,
    "pi_family": _run_pi_family,
    "axis_family": _run_axis_family,
}


def run_example(case: GalleryCase) -> CheckReport:
    rep = _RUNNERS[case.id](case)
    rep.notes.append("params " + dumps(case.params))
    return rep


def emit_report(report, fmt: str = "json") -> bytes:
    if fmt == "json":
        return (report.to_json() + "\n").encode()
    if fmt == "text":
        return report.to_text().encode()
    raise ValueError(f"unknown format {fmt!r}")


def run_gallery(case_ids=None, **params):
    """Run the selected cases (all by default); returns list of reports."""
    ids = list(case_ids) if case_ids else list(CASE_IDS)
    reports = []
    for cid in ids:
        case = GalleryCase(cid, dict(params))
        reports.append(run_example(case))
    return reports
