"""The folded rho forms of ``chain_report`` against the dense reference:
for every coordinate pair (a, b) of the relation table, the report's
``rho-pair-psd`` item and ``margins["rho"]`` equal the smallest eigenvalue,
over the same torus samples z, of

    rho(OperatorTuple("tetra", (a, z b, z L))).op
        + rho(OperatorTuple("tetra", (b, z a, z L))).op

(L the pivot), compressed through the window when there is one."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mudilate.fundamentals import (CHAIN_TOL, PIVOT, RELATIONS, chain_report, rho,
                                   solve_fundamentals)
from mudilate.gallery import build_exam1, build_exam2
from mudilate.opcore import WHOLE_SPACE, OperatorTuple
from mudilate.spaces import auto_margin, window

from conftest import dense_members, unchecked_fundamentals

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)
TOL = 1e-12


def _dense_pair_mins(tup, z_samples):
    """{pair tag: min over z of the smallest eigenvalue of the summed dense
    rho forms}, computed pair by pair from ``rho``, on the tuple's window."""
    kind, t, w = tup.kind, dense_members(tup), tup.window
    last = t[PIVOT[kind]]
    zs = np.exp(2j * np.pi * np.arange(z_samples) / z_samples)
    out = {}
    for i, j, _, wt in RELATIONS[kind]:
        if i > j:
            continue
        a, b = wt * t[i], wt * t[j]
        vals = []
        for z in zs:
            h = (rho(OperatorTuple("tetra", (a, z * b, z * last))).op
                 + rho(OperatorTuple("tetra", (b, z * a, z * last))).op)
            vals.append(np.linalg.eigvalsh(h).min() if w is WHOLE_SPACE
                        else w.psd_min_eig(h))
        out[(i, j)] = min(vals)
    return out


def _assert_matches_dense(fset, z_samples):
    rep = chain_report(fset, z_samples=z_samples)
    ref = _dense_pair_mins(fset.tup, z_samples)
    items = [i for i in rep.items if i.label.startswith("rho-pair-psd")]
    assert len(items) == len(ref)
    for item, value in zip(items, ref.values()):
        assert abs(item.residual - max(0.0, -value)) <= TOL, item.label
    assert abs(rep.margins["rho"] - min(ref.values())) <= TOL


@pytest.mark.parametrize("case", ["exam1", "exam2"])
def test_gallery_tuples_on_their_windows(case):
    if case == "exam1":
        space, tup, _ = build_exam1(8)
    else:
        space, tup, _, _ = build_exam2(8)
    w = window(space, auto_margin(space, dense_members(tup)))
    _assert_matches_dense(solve_fundamentals(replace(tup, window=w), tol=CHAIN_TOL), 8)


@st.composite
def dense_tuple(draw):
    """A seeded gamma7 or gamma5 tuple of random, generally non-commuting
    members of dimension 2-4, each of norm at most 1."""
    kind = draw(st.sampled_from(("gamma7", "gamma5")))
    n = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = []
    for _ in range(7 if kind == "gamma7" else 5):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ops.append(m * (rng.uniform(0.1, 1.0) / np.linalg.norm(m, 2)))
    return OperatorTuple(kind, ops), draw(st.integers(1, 8))


@SETTINGS
@given(dense_tuple())
def test_random_tuples_without_window(case):
    # the draws need not commute, so their fundamentals are not solved; the
    # rho items read the tuple alone
    tup, z_samples = case
    _assert_matches_dense(unchecked_fundamentals(tup), z_samples)
