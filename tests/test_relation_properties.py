"""Randomised invariants of the relation table: on scalar gamma7/gamma5
tuples, the Schaffer dilation built from ``RELATIONS`` satisfies every
relation V_i = V_j* V_pivot of the table, its pivot is an isometry, and it
co-extends the original tuple.  The gamma7 isometry check decides both
ways on scalar tuples: it passes the dilations of domain points and fails
those of tuples with a pair outside the closed tetrablock.  A
``FundamentalSet`` checks the equations of the table when built: it
refuses exactly the perturbed F whose dense windowed residual exceeds its
tolerance."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mudilate.dilate import schaffer
from mudilate.domains import DomainPoint, certificate_search, gamma7_coords
from mudilate.fundamentals import (ARITY, PIVOT, RELATIONS, FundamentalSet, OperatorTuple,
                                   SolveError, solve_fundamentals)
from mudilate.spaces import Window
from mudilate.verify import isometry_check

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

_SCALAR = dict(allow_nan=False, allow_infinity=False)


@st.composite
def scalar_tuple(draw):
    """A 1x1 gamma7 or gamma5 tuple with |T_pivot| <= 0.9."""
    kind = draw(st.sampled_from(("gamma7", "gamma5")))
    n = 7 if kind == "gamma7" else 5
    vals = [draw(st.complex_numbers(max_magnitude=1.0, **_SCALAR))
            for _ in range(n)]
    vals[PIVOT[kind]] = draw(st.complex_numbers(max_magnitude=0.9, **_SCALAR))
    return OperatorTuple(kind, [np.array([[v]]) for v in vals])


@SETTINGS
@given(scalar_tuple(), st.integers(2, 5))
def test_schaffer_satisfies_every_relation_row(tup, depth):
    # depth 2 keeps one copy: the derived margin is capped at depth - 1
    fset = solve_fundamentals(replace(tup, window=Window(0, np.eye(1))))
    dil = schaffer(fset, depth)
    rep = isometry_check(dil.tup)
    relations = [i for i in rep.items
                 if ("=" in i.label and "*" in i.label and "<=" not in i.label)]
    pivot_iso = [i for i in rep.items if i.label.endswith(" isometry")]
    assert len(relations) == (6 if tup.kind == "gamma7" else 4)
    assert len(pivot_iso) == 1
    for item in relations + pivot_iso:
        assert item.residual <= 1e-12, item
    assert max(dil.coextension_residuals()) <= 1e-12


@st.composite
def diagonal_point(draw):
    """Coordinates x1..x7 of diag(p, q, r) with |p|, |q|, |r| <= 0.95, a
    point of the Gamma_E(3;3;1,1,1) domain."""
    d = [draw(st.complex_numbers(max_magnitude=0.95, **_SCALAR)) for _ in range(3)]
    return gamma7_coords(np.diag(d))


def _dilation_check(c, depth):
    tup = OperatorTuple("gamma7", [np.array([[v]], dtype=complex) for v in c])
    dil = schaffer(solve_fundamentals(replace(tup, window=Window(0, np.eye(1)))), depth)
    return isometry_check(dil.tup)


@SETTINGS
@given(diagonal_point())
def test_dilations_of_domain_points_pass(c):
    assert _dilation_check(c, 5).verdict == "pass"


@SETTINGS
@given(diagonal_point(),
       st.lists(st.complex_numbers(max_magnitude=0.3, **_SCALAR),
                min_size=6, max_size=6))
def test_tetrablock_pair_violation_fails(c, dx):
    """Perturb x1..x6 of a domain point.  Where a pair (x_i, x_{7-i}, x7)
    lies outside the closed tetrablock, the tuple is no
    Gamma_E(3;3;1,1,1)-contraction, so its dilation is no gamma7 isometry
    and the check must fail, on a ||Vk||<=1 item (the relations hold by
    construction).  The exact tetra certificate bound (the norm of the
    minimal-norm realiser) measures the violation.  The check reads
    ||Vk Q|| on the kept copies of a finite section, which reaches ||Vk||
    only slowly as the depth grows: bounds in (1, 1.05) still pass at
    depth 5 and some at depth 20.  So the property asks for a bound of at
    least 1.05 and uses depth 10, where every such draw fails."""
    c = [x + d for x, d in zip(c[:6], dx)] + [c[6]]
    bound = max(certificate_search(DomainPoint("tetra", (c[i], c[5 - i], c[6])))
                .constraint_value for i in range(3))
    assume(bound >= 1.05)
    failed = [i.label for i in _dilation_check(c, 10).items if not i.passed]
    assert failed and all(label.startswith("||V") for label in failed), failed


@st.composite
def perturbed_fundamentals(draw):
    """A diagonal (so commuting) gamma7, gamma5 or penta tuple of dimension
    1-4 with |T_pivot| <= 0.9 on a drawn window, its solved fundamentals as
    arrays with a random F perturbed by 0.01 to 100 times a drawn tolerance,
    and the tolerance."""
    kind = draw(st.sampled_from(("gamma7", "gamma5", "penta")))
    n = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vals = rng.uniform(size=(ARITY[kind], n)) * np.exp(2j * np.pi * rng.uniform(size=(ARITY[kind], n)))
    vals[PIVOT[kind]] *= 0.9
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    tup = OperatorTuple(kind, [np.diag(v) for v in vals],
                        Window(0, q[:, :draw(st.integers(1, n))]))
    forms = {name: f.dense() for name, f in solve_fundamentals(tup).forms.items()}
    name, tol = draw(st.sampled_from(sorted(forms))), draw(st.sampled_from((1e-12, 1e-9, 1e-3)))
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    forms[name] = forms[name] + tol * 10.0 ** rng.uniform(-2.0, 2.0) * e / np.linalg.norm(e, 2)
    return tup, forms, tol


@SETTINGS
@given(perturbed_fundamentals())
def test_fundamental_set_checks_itself(case):
    tup, forms, tol = case
    t = [f.dense() for f in tup.forms]
    p, q = PIVOT[tup.kind], tup.window.basis.dense()
    d = np.diag(np.sqrt(1.0 - np.abs(np.diag(t[p])) ** 2))
    ref = {name: float(np.linalg.norm((d @ forms[name] @ d - w * (t[i] - t[j].conj().T @ t[p]))
                                      @ q, 2))
           for i, j, name, w in RELATIONS[tup.kind]}
    worst = max(ref.values())
    assume(abs(worst - tol) > 1e-9 * tol)  # clear of the rounding of either norm
    if worst > tol:
        with pytest.raises(SolveError, match="fails its equation"):
            FundamentalSet(tup, forms, tol)
        return
    fset = FundamentalSet(tup, forms, tol)
    assert list(fset.residuals) == list(ref)
    for name, value in ref.items():
        assert abs(fset.residuals[name] - value) <= 1e-12 * max(1.0, value), name
    assert fset.defect is tup.defect
