"""An exact solver independent of `bnb_clique`, used only in tests.

Every bestK, and every exit 3, rests on the one branch and bound of
`clique.bnb_clique`.  HiGHS, through `scipy.optimize.milp`, solves the same
problem by another route: the edge formulation of maximum clique, maximise
sum x over binary x with x_0 = 1 (a code in standard form holds 0^n, and
vertex 0 is adjacent to every vertex) and x_u + x_v <= 1 for each non-edge.
It works in floating point, so no record and no exit code rests on it; it
checks the solver.  scipy is in the `test` extra and is imported directly,
so a missing scipy fails these tests rather than skipping them.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from cwskit.clique import make_cws_clique_graph, max_clique
from cwskit.errormap import error_set, setup
from cwskit.graphs import Graph, isomorphism_class_masks

# Clique numbers of three n=7 d=2 LC-orbit representatives that
# `max_clique` leaves budget-bound at --budget 7000000.  Each was settled by
# `highs_clique_number` below (scipy 1.17.1, HiGHS status 0, optimal) on a
# 2-vCPU host: 0x7c in 0.5 s (114 vertices), 0x931 in 5-7 s (113 vertices)
# and 0x3db4 in 0.3-0.5 s (107 vertices).
N7_D2_OMEGA = {0x7C: 20, 0x931: 20, 0x3DB4: 16}


def highs_clique_number(cg) -> int:
    """The largest clique through vertex 0 of the clique graph, by HiGHS."""
    m = cg.size
    missing = [(i, j) for i in range(m) for j in range(i + 1, m) if not cg.has_edge(i, j)]
    constraints = []
    if missing:
        rows = np.repeat(np.arange(len(missing)), 2)
        a = coo_array((np.ones(rows.size), (rows, np.ravel(missing))), shape=(len(missing), m))
        constraints.append(LinearConstraint(a, -np.inf, 1))
    lower = np.zeros(m)
    lower[0] = 1
    res = milp(-np.ones(m), constraints=constraints, integrality=np.ones(m),
               bounds=Bounds(lower, 1))
    assert res.status == 0, res.message
    return round(-res.fun)


@pytest.mark.parametrize("n, d", [(5, 2), (6, 2), (6, 3)])
def test_highs_agrees_with_max_clique_on_every_class(n, d):
    # 34 + 156 + 156 = 346 isomorphism classes
    errors = error_set(n, d)
    classes = 0
    for mask, _size in isomorphism_class_masks(n):
        cg = make_cws_clique_graph(setup(errors, Graph.from_mask(n, mask)))
        res = max_clique(cg)
        assert res.exact
        assert highs_clique_number(cg) == res.clique.size, hex(mask)
        classes += 1
    assert classes == {5: 34, 6: 156}[n]


@pytest.mark.parametrize("mask", [0x7C, 0x3DB4], ids=hex)
def test_recorded_n7_clique_numbers(mask):
    # the two quick ones of the recorded values, solved again; 0x931 takes
    # several seconds and is only recorded
    cg = make_cws_clique_graph(setup(error_set(7, 2), Graph.from_mask(7, mask)))
    assert highs_clique_number(cg) == N7_D2_OMEGA[mask]


@pytest.mark.parametrize("mask", sorted(N7_D2_OMEGA), ids=hex)
def test_budget_bound_cliques_stay_within_the_recorded_values(mask):
    cg = make_cws_clique_graph(setup(error_set(7, 2), Graph.from_mask(7, mask)))
    res = max_clique(cg, 20_000)
    assert not res.exact
    assert res.clique.size <= N7_D2_OMEGA[mask]
