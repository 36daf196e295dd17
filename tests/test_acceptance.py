"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with `pytest tests/test_acceptance.py`; a PASS/FAIL line per criterion is
printed in the terminal summary.  Criteria 1 and 8 depend on the bundled
five-qubit example data; that data is internally inconsistent with its
claimed distance (see tests below for the two-line proof), so those two
criteria fail honestly rather than being weakened.
"""

import random
import time

import numpy as np
import pytest

from conftest import random_graph
from cwskit.ac06 import (
    StabilizerState,
    ac06_to_cws,
    ac06_to_standard_form,
    change_generators,
    cset,
    cws_to_ac06,
    regenerate_generators,
)
from cwskit.clique import make_cws_clique_graph, max_clique
from cwskit.errormap import error_set, setup
from cwskit.gf2 import BitString, ClassicalCode, PauliOp, random_invertible
from cwskit.graphs import Graph, enumerate_graphs
from cwskit.search import EXIT_ABSENT, SearchJob, run_search
from cwskit.structure import (
    additivity_label,
    double_linear_subcode,
    extend_dim3_to_dim4,
    is_linear,
)
from cwskit.verify import (
    CWSCode,
    detection_check,
    kl_oracle,
    kl_oracle_states,
    stabilizer_state_vector,
)
from test_ac06 import EX2_CPRIME, EX2_GENERATORS, ex2_data
from test_clique import brute_force_max_clique, random_cl_arrays


def test_criterion_01_example_conversion():
    """five-qubit example conversion: exact generators/code, oracle distance 2"""
    start = time.monotonic()
    data = ex2_data()
    conv = ac06_to_cws(data)
    assert [str(g) for g in conv.stabilizer.generators] == EX2_GENERATORS
    assert {str(b) for b in conv.code_unshifted} == EX2_CPRIME
    assert str(conv.shift) == "10000"
    res = ac06_to_standard_form(data)
    assert res.cws.n == 5
    assert res.cws.dimension == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    # The remaining claim cannot hold for this input: Y on qubit 1 has
    # commutation pattern 01000 against the pinned generators, and the
    # pinned code contains 11000 and 10000 whose XOR is 01000, so a
    # weight-1 error joins two basis states and the distance is 1.
    assert kl_oracle(res.cws, 2) == 2


def test_criterion_02_n5_d2_exhaustive():
    """n=5 d=2 exhaustive search finds best K=6 with an oracle-verified witness"""
    start = time.monotonic()
    res = run_search(SearchJob(n=5, d=2, graph_source="all", worker_count=1))
    assert res.total_graphs == 1024
    assert res.summary_best_k == 6
    assert res.witness is not None
    assert kl_oracle(res.witness, 2) == 2
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_03_n5_d3_exhaustive():
    """n=5 d=3 exhaustive search finds best K=2, additive, distance 3"""
    start = time.monotonic()
    res = run_search(SearchJob(n=5, d=3, graph_source="all", worker_count=1))
    assert res.summary_best_k == 2
    assert res.witness is not None
    assert detection_check(res.witness, error_set(5, 3)).detects
    assert kl_oracle(res.witness, 3) == 3
    assert is_linear(res.witness.code).is_linear
    assert additivity_label(res.witness.code) == "additive"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_04_no_733_code():
    """((7,3,3)) nonexistence: exact orbit-mode search exits with absence"""
    start = time.monotonic()
    res = run_search(SearchJob(n=7, d=3, target_k=3, graph_source="lc"))
    assert res.exit_code == EXIT_ABSENT
    assert res.summary_best_k == 2
    assert all(r.status == "exact" for r in res.records)
    iso = run_search(SearchJob(n=7, d=3, target_k=3, graph_source="iso"))
    assert iso.exit_code == EXIT_ABSENT
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"took {elapsed:.2f}s"


def test_criterion_05_detection_oracle_agreement():
    """detection conditions agree with the dense oracle over the full n<=4 sweep"""
    for n in (1, 2, 3, 4):
        errs = error_set(n, 2)
        for g in enumerate_graphs(n):
            cg = make_cws_clique_graph(setup(errs, g))
            res = max_clique(cg)
            assert res.exact
            code = ClassicalCode.from_ints(
                n, sorted(cg.words[i] for i in res.clique.members)
            )
            q = CWSCode(g, code)
            assert detection_check(q, errs).detects
            assert kl_oracle(q, 2) == 2
    # agreement must also hold in the failing direction
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 4)
        g = random_graph(n, rng)
        words = {0}
        while len(words) < rng.randint(2, 4):
            words.add(rng.randrange(1 << n))
        q = CWSCode(g, ClassicalCode.from_ints(n, sorted(words)))
        detects = detection_check(q, error_set(n, 2)).detects
        assert detects == (kl_oracle(q, 2) == 2)


def test_criterion_06_three_word_codes_extend():
    """every verified K=3 code at n<=5, d=2 extends to a verified linear K=4 code"""
    checked = 0
    oracle_checked = 0
    for n in (2, 3, 4, 5):
        errs = error_set(n, 2)
        for g in enumerate_graphs(n):
            cg = make_cws_clique_graph(setup(errs, g))
            for i in range(1, cg.size):
                for j in range(i + 1, cg.size):
                    if not cg.has_edge(i, j):
                        continue
                    c2, c3 = cg.words[i], cg.words[j]
                    q = CWSCode(g, ClassicalCode.from_ints(n, sorted([0, c2, c3])))
                    assert detection_check(q, errs).detects
                    out = extend_dim3_to_dim4(q, errs)
                    assert out.dimension == 4
                    assert is_linear(out.code).is_linear
                    assert detection_check(out, errs).detects
                    checked += 1
                    if checked % 37 == 0:
                        assert kl_oracle(out, 2) == 2
                        oracle_checked += 1
    assert checked > 1000
    assert oracle_checked > 25


def test_criterion_07_linear_subcode_doubling():
    """1000 random (code, linear subcode, v) triples double to verified codes"""
    rng = random.Random(11)
    done = 0
    while done < 1000:
        n = rng.randint(3, 6)
        d = 2
        g = random_graph(n, rng)
        errs = error_set(n, d)
        cg = make_cws_clique_graph(setup(errs, g))
        res = max_clique(cg)
        values = sorted(cg.words[i] for i in res.clique.members)
        if len(values) < 2:
            continue
        q = CWSCode(g, ClassicalCode.from_ints(n, values))
        assert detection_check(q, errs).detects
        value_set = set(values)
        closure = {0}
        for _ in range(rng.randint(0, 3)):
            w = rng.choice(values)
            trial = closure | {c ^ w for c in closure}
            if trial <= value_set:
                closure = trial
        outside = [v for v in values if v not in closure]
        if not outside:
            continue
        v = rng.choice(outside)
        out = double_linear_subcode(
            q, ClassicalCode.from_ints(n, sorted(closure)), BitString(n, v), errs
        )
        assert out.dimension == 2 * len(closure)
        assert detection_check(out, errs).detects
        assert kl_oracle(out, d) == d
        done += 1


def test_criterion_08_generator_change_invariance():
    """100 random generator changes keep the example code verifying at distance 2"""
    res = ac06_to_standard_form(ex2_data())
    n = 5
    graph_gens = tuple(
        PauliOp(n, 1 << l, res.graph.rows[l], 0) for l in range(n)
    )
    base_cset_size = len(cset(cws_to_ac06(res.cws).f))
    rng = random.Random(12)
    for _ in range(100):
        r = random_invertible(n, rng)
        new_gens = regenerate_generators(StabilizerState(graph_gens), r)
        new_code = change_generators(r, res.cws.code)
        states = [stabilizer_state_vector(new_gens, c.value) for c in new_code.words]
        moved = CWSCode(res.graph, new_code.sorted())
        assert len(cset(cws_to_ac06(moved).f)) == base_cset_size
        # fails for the bundled example data: the code space has distance 1,
        # so no generator change can make it verify at distance 2
        assert kl_oracle_states(states, 2) == 2


def test_criterion_09_solver_oracle_equivalence():
    """branch-and-bound equals subset brute force on 200 random instances"""
    rng = random.Random(13)
    for _ in range(200):
        cg = make_cws_clique_graph(random_cl_arrays(4, rng))
        assert cg.size <= 16
        res = max_clique(cg)
        assert res.exact
        best, _witness = brute_force_max_clique(cg)
        assert res.clique.size == best


def test_criterion_10_four_qubit_example_codes():
    """the two four-qubit example codes verify as ((4,4,2)), linear and nonlinear"""
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    c1 = ClassicalCode.from_texts(["0000", "0110", "0101", "0011"])
    c2 = ClassicalCode.from_texts(["0000", "0110", "0101", "1011"])
    for code, linear in ((c1, True), (c2, False)):
        q = CWSCode(g, code)
        assert q.dimension == 4
        assert detection_check(q, error_set(4, 2)).detects
        assert kl_oracle(q, 2) == 2
        assert kl_oracle(q, 3) == 2
        assert is_linear(code).is_linear == linear
