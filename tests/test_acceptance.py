"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Tolerances are pinned to their contract values; runtime limits are asserted
where the contract states them.
"""

import json
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from mudilate.opcore import numerical_radius, op_norm, spectral_radius
from mudilate.spaces import window
from mudilate.domains import (E311, E312, DomainPoint, membership, mu_E,
                              point_pi, point_pi_eta)
from mudilate.fundamentals import defect, solve_fundamentals
from mudilate.dilate import egervary, pentablock_dilation
from mudilate.verify import commutator_profile, is_commuting, \
    necessary_conditions
from mudilate.gallery import (build_exam1, build_exam2, build_exam3,
                              build_exam3_dilation, build_exam5)

from conftest import dense_members, random_contraction


def report(num, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


def test_criterion_1_exam1_reproduction():
    t0 = time.perf_counter()
    space, tup, expected_f = build_exam1(8)
    w = window(space, 4)
    fset = solve_fundamentals(replace(tup, window=w), tol=1e-9)
    f_gap = max(w.equal(fset[n], expected_f[n]) for n in expected_f)
    prof = commutator_profile(fset, tol=1e-10)
    by = {i.label: i.residual for i in prof.items}
    comm_gap = max(v for k, v in by.items() if "*" not in k)
    g16 = by["[F6*,F6]-[F1*,F1]"]
    g25 = by["[F5*,F5]-[F2*,F2]"]
    g34 = by["[F4*,F4]-[F3*,F3]"]
    nec = necessary_conditions(fset, tol=1e-9)
    dt = time.perf_counter() - t0
    ok = (f_gap <= 1e-10 and comm_gap <= 1e-10 and g16 >= 0.99 and g25 >= 0.99
          and g34 <= 1e-10 and nec.worst() <= 1e-9 and nec.verdict == "pass"
          and dt < 5.0)
    report(1, ok, f"(fundamentals {f_gap:.1e}, gaps {g16:.2f}/{g25:.2f}/{g34:.1e}, "
                  f"necessary {nec.worst():.1e}, {dt:.2f}s)")


def test_criterion_2_exam2_reproduction():
    space, tup5, _, displayed = build_exam2(8)
    w = window(space, 4)
    slice_gap = max(float(np.linalg.norm(a - b, 2))
                    for a, b in zip(dense_members(tup5), dense_members(displayed)))
    fset = solve_fundamentals(replace(tup5, window=w), tol=1e-9)
    prof = commutator_profile(fset, tol=1e-10)
    by = {i.label: i.residual for i in prof.items}
    g11 = by["[G1*,G1]-[G2t*,G2t]"]
    g12 = by["[2G2*,2G2]-[2G1t*,2G1t]"]
    nec = necessary_conditions(fset, tol=1e-9)
    nb = {i.label: i.residual for i in nec.items}
    pair_gap = max(abs(nb[f"({k})"] - nb[f"({k}')"]) for k in range(2, 8))
    ok = (slice_gap <= 1e-12 and g11 >= 0.9 and g12 >= 0.9
          and pair_gap <= 1e-10 and nec.verdict == "pass")
    report(2, ok, f"(slice {slice_gap:.1e}, gaps {g11:.2f}/{g12:.2f}, "
                  f"pair agreement {pair_gap:.1e})")


def test_criterion_3_exam3_sweep():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        space, tup, _ = build_exam3(alpha, 8)
        w = window(space, 4)
        dil = build_exam3_dilation(replace(tup, window=w), 6)
        kw = dil.tup.window
        comm = is_commuting(dil.tup, tol=1e-9)
        v = [o.dense() for o in dil.forms]
        rel = max(kw.wnorm(v[i] - v[5 - i].conj().T @ v[6]) for i in range(6))
        iso = kw.wnorm(v[6].conj().T @ v[6] - np.eye(len(v[6])))
        norm_gap = abs(op_norm(dil.forms[0]) - abs(alpha))
        ok &= (comm.verdict == "pass" and rel <= 1e-9 and iso <= 1e-9
               and norm_gap <= 1e-9)
        detail.append(f"a={alpha}: rel {rel:.1e} iso {iso:.1e} |V1| {norm_gap:.1e}")
    dt = time.perf_counter() - t0
    ok &= dt < 10.0
    report(3, ok, f"({'; '.join(detail)}; {dt:.2f}s)")


def test_criterion_4_exam5_sweep():
    ok = True
    detail = []
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        space, tup, _ = build_exam5(alpha, 8)
        w = window(space, 4)
        fset = solve_fundamentals(replace(tup, window=w), tol=1e-9)
        dil = pentablock_dilation(fset, 4)
        kw = dil.window()
        r = [o.dense() for o in dil.forms]
        fix = kw.wnorm(r[1] - r[1].conj().T @ r[2])
        gram = kw.wnorm(r[0].conj().T @ r[0] + 0.25 * r[1].conj().T @ r[1]
                        - np.eye(len(r[0])))
        norm_gap = abs(op_norm(dil.forms[1]) - abs(alpha))
        nec = necessary_conditions(fset, tol=1e-9)
        ok &= (fix <= 1e-10 and gram <= 1e-9 and norm_gap <= 1e-8
               and nec.worst() <= 1e-9 and nec.verdict == "pass")
        detail.append(f"a={alpha}: {fix:.1e}/{gram:.1e}/{norm_gap:.1e}")
    report(4, ok, f"({'; '.join(detail)})")


def test_criterion_5_egervary():
    rng = np.random.default_rng(101)
    ok = True
    worst_u, worst_c = 0.0, 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        t = random_contraction(rng, d)
        u = egervary(t, n)
        worst_u = max(worst_u, float(np.linalg.norm(
            u.conj().T @ u - np.eye(len(u)), 2)))
        for k in range(1, n + 1):
            got = np.linalg.matrix_power(u, k)[:d, :d]
            worst_c = max(worst_c, float(np.linalg.norm(
                got - np.linalg.matrix_power(t, k), 2)))
    ok &= worst_u <= 1e-9 and worst_c <= 1e-9
    # sharpness: the compression property must break at k = N + 1
    broke = False
    for n in (1, 2, 3):
        u = egervary([[0.5]], n)
        gap = abs(np.linalg.matrix_power(u, n + 1)[0, 0] - 0.5 ** (n + 1))
        broke |= gap > 0.1
    ok &= broke
    report(5, ok, f"(unitarity {worst_u:.1e}, compression {worst_c:.1e}, "
                  f"sharp at N+1: {broke})")


def test_criterion_6_mu_oracle_equivalence():
    rng = np.random.default_rng(103)
    worst_diag = 0.0
    for _ in range(50):
        d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = np.diag(d)
        worst_diag = max(worst_diag,
                         abs(mu_E(a, E311, tol=1e-4) - np.abs(d).max()))
    worst_block = 0.0
    for _ in range(50):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a[1:, 1:] = b
        want = max(abs(a[0, 0]), spectral_radius(b))
        worst_block = max(worst_block,
                          abs(mu_E(a, E312, tol=1e-4) - want))
    ok = worst_diag <= 1e-3 and worst_block <= 1e-3
    report(6, ok, f"(diag {worst_diag:.1e}, block {worst_block:.1e})")


def test_criterion_7_inequality_chain():
    rng = np.random.default_rng(107)
    worst = 0.0
    for dim in range(2, 9):
        for _ in range(200):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            r = spectral_radius(a)
            om = numerical_radius(a)
            nn = op_norm(a)
            worst = max(worst, r - om, om - nn)
    jordan = abs(numerical_radius([[0, 1], [0, 0]]) - 0.5)
    ok = worst <= 1e-8 and jordan <= 1e-8
    report(7, ok, f"(worst violation {worst:.2e}, jordan cell gap {jordan:.1e})")


def test_criterion_8_solver_round_trip():
    rng = np.random.default_rng(109)
    worst = 0.0
    done = 0
    while done < 100:
        n = int(rng.integers(2, 9))
        t = random_contraction(rng, n, top=0.995)
        dd = defect(t)
        if dd.rank == 0:
            continue
        f = rng.standard_normal((dd.rank, dd.rank)) \
            + 1j * rng.standard_normal((dd.rank, dd.rank))
        q, dplus = dd.range_basis.dense(), dd.pinv().dense()
        f_emb = q @ f @ q.conj().T
        rhs = dd.form.dense() @ f_emb @ dd.form.dense()
        rec = dplus @ rhs @ dplus
        worst = max(worst, float(np.linalg.norm(rec - f_emb, 2))
                    / max(1.0, float(np.linalg.norm(f_emb, 2))))
        done += 1
    ok = worst <= 1e-8
    report(8, ok, f"(worst relative recovery error {worst:.2e})")


def test_criterion_9_pi_family_membership():
    rng = np.random.default_rng(113)

    def disc():
        return 0.995 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())

    bad_inside = 0
    for _ in range(100):
        a, b = disc(), disc()
        p7 = point_pi(a, b)
        if membership(p7).verdict != "inside":
            bad_inside += 1
        if membership(point_pi_eta(p7, 1.0)).verdict != "inside":
            bad_inside += 1
    bad_outside = 0
    for _ in range(100):
        a, b = disc(), disc()
        grow = (1.2 + rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if rng.uniform() < 0.5:
            a = grow
        else:
            b = grow
        if membership(DomainPoint("tetra", (a, b, a * b))).verdict != "outside":
            bad_outside += 1
    ok = bad_inside == 0 and bad_outside == 0
    report(9, ok, f"(false negatives {bad_inside}, false positives {bad_outside})")


def test_criterion_10_cli_gallery():
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mudilate.cli", "gallery", "--case", "all"],
        capture_output=True, text=True, timeout=120)
    dt = time.perf_counter() - t0
    verdicts = [json.loads(line)["verdict"] for line in proc.stdout.splitlines()]
    ok = proc.returncode == 0 and dt < 60.0 and len(verdicts) == 6 \
        and all(v == "pass" for v in verdicts)
    report(10, ok, f"(exit {proc.returncode}, {len(verdicts)} cases, {dt:.1f}s)")
