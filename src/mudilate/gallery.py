"""End-to-end reproduction cases wired for the CLI.

exam1 (the shift-block seven-tuple whose mixed fundamental commutators
obstruct), exam2 (its five-tuple slice), exam3 (the nilpotent-symbol family
with a hand-built dilation) and exam5 (the pentablock family) run one
battery, ``_run_operator_case``; each declares only its builder, dilation
and own items (``_OperatorCase``).  pi_family and axis_family are
point-level pushforward families with runners of their own.

Every case is deterministic: equal parameters produce byte-identical JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import opcore
from .opcore import OperatorTuple, _Block, _diag, _eye, commutator, herm_sqrt, op_norm
from .spaces import ModelSpace, Window, auto_margin, embed_blocks, hardy_shift, window
from .domains import (DomainPoint, membership, point_pi, point_pi_eta,
                      psi3_supnorm)
from .fundamentals import (MAX_Z_SAMPLES, MEMBERS, PIVOT, RELATIONS, chain_report,
                           defect, solve_fundamentals)
from .dilate import DilationResult, coextension, pushforward, \
    pentablock_dilation, schaffer
from .verify import commutator_profile, is_commuting, isometry_check, \
    necessary_conditions, partial_isometry_check
from .report import CheckReport, dumps


CASE_IDS = ("exam1", "exam2", "exam3", "exam5", "pi_family", "axis_family")


@dataclass
class GalleryCase:
    id: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.id not in CASE_IDS:
            raise ValueError(f"unknown case {self.id!r}; choose from {CASE_IDS}")
        p = dict(trunc=8, depth=4, alpha=0.5, z_samples=8, n_points=25, seed=7)
        p.update(self.params)
        if not 1 <= p["z_samples"] <= MAX_Z_SAMPLES:
            raise ValueError(f"z_samples must lie in [1, {MAX_Z_SAMPLES}]")
        if p["trunc"] < 6:
            raise ValueError("trunc must be >= 6 to leave a margin-4 window")
        if p["depth"] < 2:
            raise ValueError("depth must be >= 2")
        if not abs(p["alpha"]) <= 1.0:  # NaN fails it too
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
    eye = _eye(trunc)
    t1 = embed_blocks(space, {(0, 1): eye, (1, 2): eye})
    t2 = embed_blocks(space, {(0, 0): m, (1, 1): m, (2, 2): m})
    tup = pushforward("pi", t1, t2)
    m2 = m @ m
    expected_f = {
        "F1": embed_blocks(space, {(0, 1): eye}),
        "F2": embed_blocks(space, {(0, 0): m, (1, 1): m}),
        "F3": embed_blocks(space, {(0, 1): m}),
        "F4": embed_blocks(space, {(0, 1): m}),
        "F5": _diag(np.zeros(0), (space.total_dim,) * 2),
        "F6": embed_blocks(space, {(0, 1): m2}),
    }
    return space, tup, expected_f


def build_exam2(trunc: int = 8):
    """Five-tuple slice of the exam1 family at slice parameter 1, its known
    fundamentals and the five-tuple as the paper displays it."""
    space, tup7, _ = build_exam1(trunc)
    tup5 = pushforward("pi_eta", tup7, 1.0)
    m = hardy_shift(1, trunc)
    eye = _eye(trunc)
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
    return space, tup5, expected_g, displayed


# ---------------------------------------------------------------------------
# nilpotent-symbol family on four C^2-fiber summands


def _raising_symbol(alpha: float, trunc: int) -> _Block:
    """Rank-one symbol on the C^2-fiber space: level-0 fiber map [[0, a], [0, 0]]."""
    return alpha * _Block(np.array([0]), np.array([1]), np.ones(1, complex), (2 * trunc,) * 2)


def build_exam3(alpha: float = 0.5, trunc: int = 8):
    """Seven-tuple (A, A, 0, A, 0, 0, P) with nilpotent symbol A and a
    rotation-coupled shift P; defect = first + fourth summands.  Its
    fundamentals F1..F6 are its first six members."""
    space = ModelSpace(((2, trunc),) * 4)
    m2 = hardy_shift(2, trunc)
    a = embed_blocks(space, {(0, 0): _raising_symbol(alpha, trunc)})
    b = _diag(np.zeros(0), (space.total_dim,) * 2)
    p = embed_blocks(space, {(1, 2): m2, (2, 1): -1.0 * m2})
    tup = OperatorTuple("gamma7", (a, a, b, a, b, b, p))
    return space, tup, {name: tup.forms[i] for i, _, name, _ in RELATIONS["gamma7"]}


def build_exam3_dilation(tup: OperatorTuple, depth: int) -> DilationResult:
    """The hand-specified dilation of the exam3 tuple ``tup`` (``build_exam3``)
    on its displayed defect: that of the coordinate projection T = I - E,
    whose defect operator is the projection E onto the first and fourth of
    the four summands.  The symbol members repeat (f, f*) down the copies,
    and the zero-symbol members and the shift insert one extra zero block row."""
    summand = np.arange(tup.dim) // (tup.dim // 4)
    s = _eye(tup.dim).cols((summand == 1) | (summand == 2))  # T = I - E = S S*
    dd = defect(s @ s.H)
    f = dd.compress(tup.forms[0])
    fh, eye = f.H, _eye(dd.rank)
    a, z = ([fh], {0: f, 1: fh}), ([f, fh], {1: f, 2: fh})
    members = (a, a, z, a, z, z, ([None, eye], {2: eye}))
    return coextension(tup, dd, depth, members)


def build_exam5(alpha: float = 0.5, trunc: int = 8):
    """Pentablock triple (damped identity, nilpotent symbol, coupled shift);
    defect = first summand.  Its fundamental X is the symbol P2."""
    space = ModelSpace(((2, trunc),) * 4)
    g = _raising_symbol(alpha, trunc)
    l0 = herm_sqrt(_eye(2 * trunc) - 0.25 * (g.H @ g + g @ g.H))
    m2 = hardy_shift(2, trunc)
    eye = _eye(2 * trunc)
    p1 = embed_blocks(space, {(0, 0): l0, (1, 1): eye, (2, 2): eye, (3, 3): eye})
    p2 = embed_blocks(space, {(0, 0): g})
    p3 = embed_blocks(space, {(1, 1): m2, (2, 3): m2, (3, 2): -1.0 * m2})
    tup = OperatorTuple("penta", (p1, p2, p3))
    return space, tup, {"X": tup.forms[1]}


# ---------------------------------------------------------------------------
# the operator-case battery


def _merge(dst: CheckReport, src: CheckReport, prefix: str):
    worst_fail = 0.0
    for item in src.items:
        if not item.passed:
            worst_fail = max(worst_fail, item.residual)
    dst.add(f"{prefix}: worst failing residual", worst_fail,
            max((i.tol for i in src.items), default=0.0),
            ok=(src.verdict == "pass"))
    dst.undecided.extend(f"{prefix}: {u}" for u in src.undecided)


def _by_label(rep: CheckReport) -> dict:
    return {i.label: i.residual for i in rep.items}


def _expect_fundamentals(rep: CheckReport, label: str, fset, expected: dict):
    """One item: the largest gap, on the tuple's window, between a solved F
    and its displayed form (a coordinate form, or an array read for its form)."""
    equal = fset.tup.window.equal
    rep.add(label, max(equal(fset.forms[n], f) for n, f in expected.items()), 1e-10)


# the relation-row item of a Schäffer dilation, per kind
_RELATION_LABEL = {"gamma7": "dilation relations Vi=V(7-i)*V7",
                   "gamma5": "dilation relations W=partner* W3"}


def _expect_schaffer(rep: CheckReport, tup: OperatorTuple):
    """Record the relation rows of a Schäffer dilation's ``tup``, the pivot
    isometry and the non-commuting members of the first relation row: the
    dilation of a tuple whose sufficient-condition hypotheses fail."""
    kind, piv, v, kw = tup.kind, PIVOT[tup.kind], tup.forms, tup.window
    rel = max(kw.wnorm(v[i] - v[j].H @ v[piv]) for i, j, _, _ in RELATIONS[kind])
    rep.add(_RELATION_LABEL[kind], rel, 1e-9)
    iso = kw.wnorm(v[piv].H @ v[piv] - _eye(tup.dim))
    rep.add(f"{MEMBERS[kind][piv]} isometric on window", iso, 1e-9)
    i, j = RELATIONS[kind][0][:2]
    cviol = kw.wnorm(commutator(v[i], v[j]))
    rep.add("dilation members fail to commute (expected)",
            cviol, 0.9, ok=cviol >= 0.9)


@dataclass(frozen=True)
class _OperatorCase:
    """What an operator case declares; ``_run_operator_case`` runs the rest.

    ``build(params)`` gives the space, the tuple, the expected F (name ->
    form or array) and any case data; ``expect`` labels the expected-F item.
    ``dilate(fset, params)`` builds an isometric dilation; without it the
    case takes Schäffer's, which need not commute.  A ``commute`` label
    adds the torus chain and the commutator profile.  ``items(rep, **run)``
    adds the case's own items from the battery's results."""

    build: Callable
    expect: str
    items: Callable
    dilate: Callable | None = None
    commute: str | None = None


def _exam1_items(rep, fset, prof, **_):
    rep.add("fundamental solve residual", max(fset.residuals.values()), 1e-9)
    for a, b in ((1, 6), (2, 5)):
        gap = prof[f"[F{b}*,F{b}]-[F{a}*,F{a}]"]
        rep.add(f"||[F{a}*,F{a}]-[F{b}*,F{b}]||", gap, 0.99, ok=gap >= 0.99)
    rep.add("||[F3*,F3]-[F4*,F4]||", prof["[F4*,F4]-[F3*,F3]"], 1e-10)
    rep.notes.append("sufficient-condition hypotheses violated while the "
                     "necessary conditions hold: the hypotheses are not necessary")


def _exam2_items(rep, fset, data, prof, nec, **_):
    exact = max(op_norm(a - b) for a, b in zip(fset.tup.forms, data[0].forms))
    rep.add("slice of exam1 equals displayed five-tuple", exact, 1e-12)
    nec = _by_label(nec)
    pair_gap = max(abs(nec[f"({k})"] - nec[f"({k}')"]) for k in range(2, 8))
    rep.add("primed/unprimed condition pairs agree", pair_gap, 1e-10)
    for key in ("[G1*,G1]-[G2t*,G2t]", "[2G2*,2G2]-[2G1t*,2G1t]"):
        rep.add(f"||{key}||", prof[key], 0.9, ok=prof[key] >= 0.9)


def _exam3_items(rep, p, dil, **_):
    rep.add("||V1|| equals |alpha|", abs(op_norm(dil.forms[0]) - abs(p["alpha"])), 1e-9)
    rep.add("||V3|| bounded by 1", max(0.0, op_norm(dil.forms[2]) - 1.0), 1e-9)


def _exam5_items(rep, p, dil, iso, **_):
    by = _by_label(iso)
    rep.add("R2=R2*R3 on window", by["R2=R2*R3"], 1e-10)
    rep.add("R1*R1 + R2*R2/4 = I on window", by["R1*R1+R2*R2/4=I"], 1e-9)
    rep.add("||R2|| equals |alpha|", abs(op_norm(dil.forms[1]) - abs(p["alpha"])), 1e-8)


# lambdas and the battery look each builder up at call time, so that a
# rebound module attribute (a tracer's wrapper) is the one called
_OPERATOR_CASES = {
    "exam1": _OperatorCase(lambda p: build_exam1(p["trunc"]),
                           "fundamentals match displayed forms", _exam1_items,
                           commute="all [Fi,Fj]=0"),
    "exam2": _OperatorCase(lambda p: build_exam2(p["trunc"]),
                           "fundamentals match displayed forms", _exam2_items,
                           commute="fundamental operators commute"),
    "exam3": _OperatorCase(
        lambda p: build_exam3(p["alpha"], p["trunc"]),
        "fundamentals: symbol on defect, zeros elsewhere", _exam3_items,
        lambda fset, p: build_exam3_dilation(fset.tup, max(p["depth"], 4))),
    "exam5": _OperatorCase(
        lambda p: build_exam5(p["alpha"], p["trunc"]),
        "fundamental of the last pair equals the symbol", _exam5_items,
        lambda fset, p: pentablock_dilation(fset, p["depth"])),
}


def _run_operator_case(case: GalleryCase) -> CheckReport:
    """The battery of exam1, exam2, exam3 and exam5, in one order: window the
    tuple, tuple commutes, solve, expected fundamentals, torus chain and
    profile, necessary conditions, dilation and co-extension, own items."""
    p, spec = case.params, _OPERATOR_CASES[case.id]
    space, tup, expected, *data = spec.build(p)
    tup = replace(tup, window=window(space, auto_margin(space, tup.forms)))
    rep = CheckReport(name=case.id, window_margin=tup.window.margin)
    _merge(rep, is_commuting(tup, 1e-9), "tuple commutes")
    fset = solve_fundamentals(tup, tol=1e-9)
    _expect_fundamentals(rep, spec.expect, fset, expected)

    prof = iso = None
    if spec.commute:
        chain = chain_report(fset, z_samples=p["z_samples"])
        _merge(rep, chain, "torus condition chain")
        rep.notes.append(f"torus condition chain: {chain.notes[-1]}")
        rep.margins = chain.margins
        prof = _by_label(commutator_profile(fset, tol=1e-10))
        plain = max(v for k, v in prof.items() if "*" not in k and "-" not in k)
        rep.add(spec.commute, plain, 1e-10)
    nec = necessary_conditions(fset, tol=1e-9)
    _merge(rep, nec, "kernel-restricted necessary conditions")

    if spec.dilate is None:
        dil = schaffer(fset, p["depth"])
        _expect_schaffer(rep, dil.tup)
    else:
        dil = spec.dilate(fset, p)
        iso = isometry_check(dil.tup, tol=1e-9)
        _merge(rep, iso, f"dilation is a {dil.kind} isometry")
    rep.add("co-extension of the original tuple", max(dil.coextension_residuals()), 1e-9)
    spec.items(rep, p=p, fset=fset, data=data, prof=prof, nec=nec, dil=dil, iso=iso)
    return rep


# ---------------------------------------------------------------------------
# point-level families


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
    eye = _eye(trunc)
    a = embed_blocks(space, {(1, 0): eye})
    b = embed_blocks(space, {(0, 0): m, (1, 1): m})
    pid = _eye(space.total_dim)
    mar = auto_margin(space, (a, b, pid))
    w = window(space, mar)
    rep = CheckReport(name="axis_family", window_margin=mar)

    trip = pushforward("gamma3", a, b, pid)
    t1, t6, t7 = trip.forms
    chk = partial_isometry_check(t7, tol=1e-9, window=w)
    _merge(rep, chk, "averaged product is a partial isometry")
    tup = replace(pushforward("axis7", t1, t6, t7), window=w)
    fset = solve_fundamentals(tup, tol=1e-9)
    dd = fset.defect
    rep.add("defect operator is a projection", dd.projection_gap, 1e-9)
    _expect_fundamentals(rep, "fundamentals carry the averaged symbols", fset, {
        "F1": embed_blocks(space, {(1, 1): (1.0 / 3.0) * (eye + m)}),
        "F6": embed_blocks(space, {(1, 1): (1.0 / 3.0) * m}),
        **dict.fromkeys(("F2", "F3", "F4", "F5"), _diag(np.zeros(0), (tup.dim,) * 2))})

    prof = commutator_profile(fset, tol=1e-10)
    rep.add("all commutator identities hold (contrast with exam1)",
            prof.worst(), 1e-10)

    # restriction of the tuple to the kernel of the last member (= the
    # defect range of a partial isometry) carries the same commutator
    # table as the fundamentals
    kw = Window(w.margin, dd.range_basis @ w.inside(dd.range_basis))
    gap = 0.0
    for i, j in ((i, j) for i, j, _, _ in RELATIONS["gamma7"] if i < j):
        fi, fj, di, dj = (commutator(c.H, c) for c in map(kw.compress, (
            fset.forms[f"F{i+1}"], fset.forms[f"F{j+1}"], tup.forms[i], tup.forms[j])))
        gap = max(gap, op_norm((fi - fj) - (di - dj)))
    rep.add("kernel-restricted tuple mirrors fundamental commutators", gap, 1e-10)

    beta = 0.7
    qspace = ModelSpace(((1, trunc),))
    clean = replace(pushforward("axis7", np.conj(beta) * _eye(trunc), beta * m, m),
                    window=window(qspace, auto_margin(qspace, (m,))))
    chk2 = isometry_check(clean, tol=1e-9)
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
    **dict.fromkeys(_OPERATOR_CASES, _run_operator_case),
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
