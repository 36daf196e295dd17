import itertools
import random

import numpy as np
import pytest

from conftest import random_graph
from cwskit.clique import (
    CliqueGraph,
    cws_maxclique,
    find_clique_of_size,
    heuristic_clique,
    make_cws_clique_graph,
    max_clique,
    parse_clique_graph_dump,
)
from cwskit.errormap import ClArrays, error_set, setup
from cwskit.graphs import Graph
from cwskit.verify import CWSCode, detection_check, kl_oracle


def arrays_from_bools(n: int, cl: np.ndarray, d: np.ndarray) -> ClArrays:
    return ClArrays(n, cl, d)


def random_cl_arrays(n: int, rng) -> ClArrays:
    cl = np.zeros(1 << n, dtype=bool)
    d = np.zeros(1 << n, dtype=bool)
    for i in range(1, 1 << n):
        cl[i] = rng.random() < 0.4
        d[i] = rng.random() < 0.1
    cl[0] = rng.random() < 0.2
    return arrays_from_bools(n, cl, d)


def brute_force_max_clique(cg: CliqueGraph) -> tuple[int, tuple[int, ...]]:
    """Vectorised subset enumeration over every vertex set (any clique, not
    just those through vertex 0); returns size and the lexicographically
    smallest witness codeword set among maximum cliques."""
    m = cg.size
    rows = cg.rows
    masks = np.arange(1 << m, dtype=np.int64)
    ok = np.ones(1 << m, dtype=bool)
    for v in range(m):
        in_set = (masks >> v) & 1 == 1
        allowed = np.int64(rows[v] | (1 << v))
        ok &= ~in_set | ((masks & ~allowed) == 0)
    sizes = np.bitwise_count(masks).astype(np.int64)
    sizes[~ok] = -1
    best = int(sizes.max())
    witnesses = []
    for mask in np.flatnonzero(sizes == best):
        members = tuple(i for i in range(m) if (int(mask) >> i) & 1)
        witnesses.append(tuple(sorted(int(cg.vertices[i]) for i in members)))
    return best, min(witnesses)


class TestMakeCliqueGraph:
    def test_two_qubit_edge_graph_single_vertex(self):
        g = Graph.from_edges(2, [(0, 1)])
        cg = make_cws_clique_graph(setup(error_set(2, 2), g))
        assert cg.size == 1
        assert list(cg.vertices) == [0]
        res = max_clique(cg)
        assert res.clique.members == (0,) and res.exact

    def test_no_constraints_gives_complete_graph(self):
        n = 3
        cl = np.zeros(1 << n, dtype=bool)
        d = np.zeros(1 << n, dtype=bool)
        cg = make_cws_clique_graph(arrays_from_bools(n, cl, d))
        assert cg.size == 8
        for i in range(8):
            for j in range(8):
                if i != j:
                    assert cg.has_edge(i, j)
        assert max_clique(cg).clique.size == 8

    def test_star_instance(self):
        # only 0^n is adjacent to everything; the other two vertices clash
        cl = np.zeros(4, dtype=bool)
        cl[0b11] = True
        d = np.zeros(4, dtype=bool)
        cg = make_cws_clique_graph(arrays_from_bools(2, cl, d))
        assert cg.size == 3
        res = max_clique(cg)
        assert res.clique.size == 2

    def test_vertex_zero_always_present(self):
        rng = random.Random(0)
        for _ in range(20):
            cg = make_cws_clique_graph(random_cl_arrays(3, rng))
            assert cg.vertices[0] == 0

    def test_edges_respect_cl(self):
        rng = random.Random(1)
        for _ in range(20):
            arrays = random_cl_arrays(4, rng)
            cg = make_cws_clique_graph(arrays)
            for i in range(cg.size):
                for j in range(i + 1, cg.size):
                    expect = not arrays.cl[int(cg.vertices[i]) ^ int(cg.vertices[j])]
                    assert cg.has_edge(i, j) == expect

    def test_dump_round_trip(self):
        rng = random.Random(2)
        cg = make_cws_clique_graph(random_cl_arrays(3, rng))
        m, rows = parse_clique_graph_dump(cg.dump())
        assert m == cg.size
        assert rows == cg.rows

    def test_dump_bytes_pinned(self):
        # ring4, d=2: each row is one little-endian uint64 word
        cg = make_cws_clique_graph(setup(error_set(4, 2), Graph.ring(4)))
        assert cg.dump() == (
            "vertices=6\n"
            "3e00000000000000\n3100000000000000\n2900000000000000\n"
            "2500000000000000\n2300000000000000\n1f00000000000000\n"
        )

    def test_vertex_zero_must_be_universal(self):
        with pytest.raises(ValueError, match="universal"):
            CliqueGraph(2, np.array([0, 1, 2]), [0b010, 0b001, 0b001])


class TestMaxClique:
    def test_matches_brute_force(self):
        rng = random.Random(3)
        for _ in range(30):
            cg = make_cws_clique_graph(random_cl_arrays(4, rng))
            res = max_clique(cg)
            assert res.exact
            best, _witness = brute_force_max_clique(cg)
            assert res.clique.size == best

    def test_lexicographic_tie_break(self):
        rng = random.Random(4)
        for _ in range(15):
            cg = make_cws_clique_graph(random_cl_arrays(4, rng))
            res = max_clique(cg)
            _best, witness = brute_force_max_clique(cg)
            got = tuple(sorted(int(cg.vertices[i]) for i in res.clique.members))
            assert got == witness

    def test_ring9_d3_pinned(self):
        # result, tie-break and node count of the exact search on a 269-vertex graph
        cg = make_cws_clique_graph(setup(error_set(9, 3), Graph.ring(9)))
        res = max_clique(cg)
        assert cg.size == 269 and res.exact and res.nodes == 5416
        words = sorted(int(cg.vertices[i]) for i in res.clique.members)
        assert words == [0, 35, 70, 146, 177, 212, 313, 350, 367, 427, 460, 509]

    def test_budget_flagged(self):
        cl = np.zeros(1 << 4, dtype=bool)
        d = np.zeros(1 << 4, dtype=bool)
        cg = make_cws_clique_graph(arrays_from_bools(4, cl, d))
        res = max_clique(cg, budget=1)
        assert not res.exact
        assert res.clique.size >= 1

    def test_members_form_clique_containing_zero(self):
        rng = random.Random(5)
        for _ in range(20):
            cg = make_cws_clique_graph(random_cl_arrays(4, rng))
            res = max_clique(cg)
            assert 0 in res.clique.members
            for a, b in itertools.combinations(res.clique.members, 2):
                assert cg.has_edge(a, b)

    def test_translation_by_member_preserves_cliques_when_d_empty(self):
        rng = random.Random(55)
        checked = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            g = random_graph(n, rng)
            arrays = setup(error_set(n, 2), g)
            if arrays.degenerate:
                continue
            cg = make_cws_clique_graph(arrays)
            res = max_clique(cg)
            words = [int(cg.vertices[i]) for i in res.clique.members]
            admissible = set(int(v) for v in cg.vertices)
            index_of = {int(v): i for i, v in enumerate(cg.vertices)}
            for c in words:
                translated = [w ^ c for w in words]
                assert set(translated) <= admissible
                idx = [index_of[w] for w in translated]
                for a, b in itertools.combinations(idx, 2):
                    assert cg.has_edge(a, b)
            checked += 1
        assert checked >= 10


class TestFindCliqueOfSize:
    def test_k1_always(self):
        rng = random.Random(6)
        cg = make_cws_clique_graph(random_cl_arrays(3, rng))
        res = find_clique_of_size(cg, 1)
        assert res.found and res.clique.members == (0,)

    def test_k_above_vertex_count_absent(self):
        g = Graph.from_edges(2, [(0, 1)])
        cg = make_cws_clique_graph(setup(error_set(2, 2), g))
        res = find_clique_of_size(cg, 2)
        assert not res.found and res.exhausted
        assert res.best_size == 1

    def test_found_cliques_have_exact_size(self):
        rng = random.Random(7)
        for _ in range(30):
            cg = make_cws_clique_graph(random_cl_arrays(4, rng))
            best, _ = brute_force_max_clique(cg)
            for k in range(1, best + 2):
                res = find_clique_of_size(cg, k)
                if k <= best:
                    assert res.found
                    assert res.clique.size == k
                    for a, b in itertools.combinations(res.clique.members, 2):
                        assert cg.has_edge(a, b)
                else:
                    assert not res.found and res.exhausted
                    assert res.best_size == best

    def test_ring9_d3_size13_absent_pinned(self):
        cg = make_cws_clique_graph(setup(error_set(9, 3), Graph.ring(9)))
        res = find_clique_of_size(cg, 13)
        assert not res.found and res.exhausted
        assert res.nodes == 4566 and res.best_size == 12


class TestCwsMaxclique:
    def test_two_qubit_edge_code(self):
        code = cws_maxclique(error_set(2, 2), Graph.from_edges(2, [(0, 1)]))
        assert [str(w) for w in code.words] == ["00"]

    def test_pentagon_d3(self):
        code = cws_maxclique(error_set(5, 3), Graph.ring(5))
        assert code.size == 2
        q = CWSCode(Graph.ring(5), code)
        assert detection_check(q, error_set(5, 3)).detects
        assert kl_oracle(q, 3) == 3

    def test_returned_codes_always_detect(self):
        rng = random.Random(8)
        for _ in range(25):
            n = rng.randint(2, 5)
            g = random_graph(n, rng)
            d = rng.randint(1, 3)
            errs = error_set(n, d)
            code = cws_maxclique(errs, g)
            assert code.contains_zero()
            q = CWSCode(g, code.sorted())
            assert detection_check(q, errs).detects


def test_heuristic_is_a_clique_lower_bound():
    rng = random.Random(9)
    for seed in range(10):
        cg = make_cws_clique_graph(random_cl_arrays(4, rng))
        clique = heuristic_clique(cg, seed=seed, restarts=50)
        best, _ = brute_force_max_clique(cg)
        assert 1 <= clique.size <= best
        for a, b in itertools.combinations(clique.members, 2):
            assert cg.has_edge(a, b)
    # determinism for a fixed seed
    cg = make_cws_clique_graph(random_cl_arrays(4, random.Random(77)))
    assert heuristic_clique(cg, 5).members == heuristic_clique(cg, 5).members
