"""Randomised invariants of the relation table: on scalar gamma7/gamma5
tuples, the Schaffer dilation built from ``RELATIONS`` satisfies every
relation V_i = V_j* V_pivot of the table, its pivot is an isometry, and it
co-extends the original tuple."""

import numpy as np
from hypothesis import given, settings, strategies as st

from mudilate.dilate import schaffer
from mudilate.fundamentals import PIVOT, solve_fundamentals
from mudilate.opcore import OperatorTuple
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
    fset = solve_fundamentals(tup.kind, tup)
    dil = schaffer(tup.kind, tup, fset, depth)
    kw = dil.window(Window(0, np.eye(1)))
    rep = isometry_check(tup.kind, dil.tuple(), window=kw)
    relations = [i for i in rep.items
                 if ("=" in i.label and "*" in i.label and "<=" not in i.label)]
    pivot_iso = [i for i in rep.items if i.label.endswith(" isometry")]
    assert len(relations) == (6 if tup.kind == "gamma7" else 4)
    assert len(pivot_iso) == 1
    for item in relations + pivot_iso:
        assert item.residual <= 1e-12, item
    assert max(dil.coextension_residuals(tup.ops)) <= 1e-12
