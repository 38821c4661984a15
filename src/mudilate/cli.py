"""Command-line front end.

Matrices travel as JSON ({"rows": r, "cols": c, "data": [[re, im], ...]},
row-major); tuples as {"kind": ..., "ops": [matrix, ...]}.  Exit status: 0
when every verdict passes (membership: the point belongs to the domain), 2
when only hypothesis checks fail, 1 on failures and errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .domains import COORD_MAP, BlockStructure, DomainPoint, membership, mu_E
from .fundamentals import (MEMBERS, RELATIONS, FundamentalSet, OperatorTuple, SolveError,
                           require_commuting, solve_fundamentals)
from .dilate import egervary, pentablock_dilation, schaffer
from .verify import commutator_profile, is_commuting, isometry_check, \
    necessary_conditions
from .gallery import CASE_IDS, GalleryCase, emit_report, run_example
from .report import (dumps, json_of_type, operator_from_dict, operator_to_dict,
                     pair_to_complex)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_tuple(path, kind):
    d = json_of_type("a tuple file", _load_json(path), dict)
    if "ops" not in d:
        raise ValueError("tuple file needs an 'ops' list")
    ops = json_of_type("a tuple's 'ops'", d["ops"], list)
    return OperatorTuple(kind, tuple(operator_from_dict(o) for o in ops))


def _load_point(text, kind=None):
    d = json.loads(text)
    if isinstance(d, dict):
        if "coords" not in d:
            raise ValueError("a point needs a 'coords' list")
        coords, kind = d["coords"], kind or d.get("kind")
    else:
        coords = d
    coords = json_of_type("a point's coordinates", coords, list)
    if kind is None:
        raise ValueError("point kind missing (give --kind or a 'kind' field)")
    return DomainPoint(kind, tuple(pair_to_complex(p) for p in coords))


def _fset_to_dict(fset):
    return {
        "kind": fset.kind,
        "ops": {name: operator_to_dict(fset[name]) for name in fset.names()},
        "residuals": {k: float(v) for k, v in fset.residuals.items()},
        "defect_rank": fset.defect.rank,
        "defect_is_projection": fset.defect.is_projection,
    }


def _exit_for(verdict: str) -> int:
    if verdict in ("pass", "inside", "boundary"):
        return 0
    if verdict == "hypothesis-violated":
        return 2
    return 1


def cmd_membership(args):
    point = _load_point(args.point, args.kind)
    rep = membership(point, tol=args.tol)
    print(rep.to_json())
    return _exit_for(rep.verdict)


def cmd_mu(args):
    structure = BlockStructure.parse(args.structure)
    op = operator_from_dict(_load_json(args.matrix))
    value = mu_E(op, structure, tol=args.tol)
    print(dumps({"mu": value, "tol": args.tol,
                 "structure": [structure.n, structure.s, list(structure.r)]}))
    return 0


def cmd_fundamental(args):
    tup = _load_tuple(args.tuple, args.kind)
    fset = solve_fundamentals(tup)
    print(dumps(_fset_to_dict(fset)))
    return 0


def cmd_dilate(args):
    if args.kind == "egervary":
        d = _load_json(args.tuple)
        if isinstance(d, dict) and "ops" in d:
            ops = json_of_type("a tuple's 'ops'", d["ops"], list)
            d = ops[0] if ops else None
        u = egervary(operator_from_dict(d), args.N)
        res = float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2))
        print(dumps({"kind": "egervary", "N": args.N, "dim": u.shape[0],
                     "unitary_residual": res,
                     "matrix": operator_to_dict(u)}))
        return 0
    fset = solve_fundamentals(_load_tuple(args.tuple, args.kind))
    dilation = pentablock_dilation if args.kind == "penta" else schaffer
    dil = dilation(fset, args.depth)
    print(dumps({"kind": args.kind, "depth": dil.depth, "dim": dil.dim,
                 "defect_rank": dil.defect.rank,
                 "ops": [operator_to_dict(o.dense()) for o in dil.forms]}))
    return 0


def _fundamentals_for(tup, path=None, tol=1e-9):
    """Solve the fundamentals to ``tol``, or load them from ``path`` and check
    each equation D F D = w (T_i - T_j* T_p) on the tuple to ``tol``.  Both
    refuse a non-commuting tuple (``require_commuting``); with ``path`` no F
    is solved, so a tuple with no solution is refused by the given F's residual."""
    if path is None:
        return solve_fundamentals(tup, tol)
    require_commuting(tup)
    rhs, _ = tup.rhs, tup.defect  # a tuple that cannot carry equations goes before the file
    given = _load_json(path)
    given = given.get("ops", {}) if isinstance(given, dict) else {}
    ops = {}
    for name in rhs:
        ops[name] = f = operator_from_dict(given[name]) if name in given else None
        if f is None or f.shape != (tup.dim, tup.dim):
            raise SolveError(f"kind {tup.kind} needs {name} as a "
                             f"{tup.dim}x{tup.dim} operator")
    return FundamentalSet(tup, ops, tol)


def cmd_verify(args):
    if not 0.0 <= args.tol <= 1e-2:  # NaN fails it too
        raise ValueError("--tol must lie in [0, 1e-2]")
    if args.check == "profile" and args.kind == "penta":
        raise ValueError("the commutator profile needs gamma7 or gamma5 "
                         "fundamentals; a penta triple has a single one")
    tup = _load_tuple(args.tuple, args.kind)
    if args.check == "commuting":
        rep = is_commuting(tup, tol=args.tol)
    elif args.check == "isometry":
        rep = isometry_check(tup, tol=args.tol)
    else:
        fset = _fundamentals_for(tup, args.fundamentals, args.tol)
        if args.check == "necessary":
            rep = necessary_conditions(fset, tol=args.tol)
        else:
            rep = commutator_profile(fset, tol=args.tol)
    print(rep.to_json())
    return _exit_for(rep.verdict)


def cmd_gallery(args):
    ids = list(CASE_IDS) if args.case == "all" else [args.case]
    fmt = "text" if args.text else "json"
    status = 0
    for cid in ids:
        case = GalleryCase(cid, {"alpha": args.alpha, "trunc": args.trunc,
                                 "depth": args.depth,
                                 "z_samples": args.zsamples})
        rep = run_example(case)
        sys.stdout.write(emit_report(rep, fmt).decode())
        status = max(status, _exit_for(rep.verdict))
    return status


def build_parser():
    p = argparse.ArgumentParser(prog="mudilate",
                                description="mu-quotient domain and dilation workbench")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("membership", help="domain membership verdict for a point")
    m.add_argument("--kind", choices=tuple(COORD_MAP))
    m.add_argument("--point", required=True,
                   help='JSON: {"kind": ..., "coords": [[re,im], ...]}')
    m.add_argument("--tol", type=float, default=1e-6)
    m.set_defaults(func=cmd_membership)

    mu = sub.add_parser("mu", help="structured singular value of a matrix")
    mu.add_argument("--structure", required=True, help="n,s,r1,...,rs")
    mu.add_argument("--matrix", required=True, help="matrix JSON file")
    mu.add_argument("--tol", type=float, default=1e-4)
    mu.set_defaults(func=cmd_mu)

    f = sub.add_parser("fundamental", help="solve the fundamental equations")
    f.add_argument("--kind", required=True, choices=tuple(RELATIONS))
    f.add_argument("--tuple", required=True, help="tuple JSON file")
    f.set_defaults(func=cmd_fundamental)

    d = sub.add_parser("dilate", help="construct an isometric dilation")
    d.add_argument("--kind", required=True, choices=tuple(MEMBERS) + ("egervary",))
    d.add_argument("--tuple", required=True, help="tuple (or matrix) JSON file")
    d.add_argument("--depth", type=int, default=4)
    d.add_argument("--N", type=int, default=3)
    d.set_defaults(func=cmd_dilate)

    v = sub.add_parser("verify", help="run a predicate suite on a tuple")
    v.add_argument("--kind", required=True, choices=tuple(MEMBERS))
    v.add_argument("--check", default="isometry",
                   choices=("isometry", "commuting", "necessary", "profile"))
    v.add_argument("--tuple", required=True)
    v.add_argument("--fundamentals", help="optional fundamentals JSON")
    v.add_argument("--tol", type=float, default=1e-9)
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gallery", help="run the reproduction cases")
    g.add_argument("--case", default="all", choices=("all",) + CASE_IDS)
    g.add_argument("--alpha", type=float, default=0.5)
    g.add_argument("--trunc", type=int, default=8)
    g.add_argument("--depth", type=int, default=4)
    g.add_argument("--zsamples", type=int, default=8)
    g.add_argument("--text", action="store_true")
    g.set_defaults(func=cmd_gallery)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
