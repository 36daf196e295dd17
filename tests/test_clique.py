import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import random_graph, reversed_bits
from cwskit.clique import (
    Clique,
    CliqueGraph,
    clique_graphs,
    cws_maxclique,
    find_clique_of_size,
    lex_min_clique,
    make_cws_clique_graph,
    max_clique,
    solve,
)
from cwskit.errormap import ClArrays, cl_map, error_set, setup, setup_table
from cwskit.graphs import Graph, edge_count, rows_table
import cwskit.search
from cwskit.search import BUILD_CHUNK, GraphRecord, SearchJob
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
    rows = [reversed_bits(r, m) for r in cg.rows]  # vertex j at bit j
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
        witnesses.append(tuple(sorted(cg.words[i] for i in members)))
    return best, min(witnesses)


class TestMakeCliqueGraph:
    def test_two_qubit_edge_graph_single_vertex(self):
        g = Graph.from_edges(2, [(0, 1)])
        cg = make_cws_clique_graph(setup(error_set(2, 2), g))
        assert cg.size == 1
        assert cg.words == [0]
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
            assert cg.words[0] == 0

    def test_edges_respect_cl(self):
        rng = random.Random(1)
        for _ in range(20):
            arrays = random_cl_arrays(4, rng)
            cg = make_cws_clique_graph(arrays)
            for i in range(cg.size):
                for j in range(i + 1, cg.size):
                    expect = not arrays.cl[cg.words[i] ^ cg.words[j]]
                    assert cg.has_edge(i, j) == expect

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65])
    def test_rows_are_high_bit_first(self, m):
        # vertex j of m is bit m-1-j in every row, across byte and word edges
        n = 7
        rng = np.random.default_rng(m)
        others = rng.choice(np.arange(1, 1 << n), m - 1, replace=False)
        words = np.concatenate(([0], others))
        cl = rng.random(1 << n) < 0.4
        cl[words] = False
        d = np.ones(1 << n, dtype=bool)
        d[words] = False
        cg = make_cws_clique_graph(arrays_from_bools(n, cl, d))
        assert cg.size == m and sorted(cg.words) == sorted(words)
        for i in range(m):
            expect = 0
            for j in range(m):
                edge = i != j and not cl[cg.words[i] ^ cg.words[j]]
                assert cg.has_edge(i, j) == edge
                expect |= edge << (m - 1 - j)
            assert cg.rows[i] == expect

    def test_dump_round_trip(self):
        rng = random.Random(2)
        cg = make_cws_clique_graph(random_cl_arrays(3, rng))
        header, *lines = cg.dump().splitlines()
        assert header == f"vertices={cg.size}"
        assert [
            reversed_bits(int.from_bytes(bytes.fromhex(ln), "little"), cg.size)
            for ln in lines
        ] == cg.rows

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 128])
    def test_dump_matches_string_reversal_at_word_edges(self, m):
        # the reference reverses each high-bit-first row as a binary string
        rng = np.random.default_rng(m)
        n = 8
        verts = np.sort(rng.choice(1 << n, m, replace=False))[None]
        cl = rng.random((1, 1 << n)) < 0.4
        cg = CliqueGraph(n, verts[0].tolist(), cwskit.clique.clique_conflicts(verts, cl)[0])
        nbytes = 8 * ((m + 63) >> 6)
        expect = [f"vertices={m}"] + [
            int(format(row, f"0{m}b")[::-1], 2).to_bytes(nbytes, "little").hex()
            for row in cg.rows
        ]
        assert cg.dump() == "\n".join(expect) + "\n"

    def test_dump_bytes_pinned(self):
        # ring4, d=2: each row is one little-endian uint64 word
        cg = make_cws_clique_graph(setup(error_set(4, 2), Graph.ring(4)))
        assert cg.dump() == (
            "vertices=6\n"
            "3e00000000000000\n3100000000000000\n2900000000000000\n"
            "2500000000000000\n2300000000000000\n1f00000000000000\n"
        )

    def test_multi_word_dump_pinned(self):
        # ring9, d=3: 269 vertices, five words a row, the last one partial
        cg = make_cws_clique_graph(setup(error_set(9, 3), Graph.ring(9)))
        assert cg.size == 269
        assert hashlib.sha256(cg.dump().encode()).hexdigest() == (
            "c936803e1c15e7e1730ec0c43edc8a9d6d9026cce85892763992184dad36be09"
        )

    def test_setup_and_clique_graph_dumps_pinned(self):
        # 5,422 instances: every n=5 graph at d = 1, 2, 3, 4 and 6 (the empty
        # error set and d = n+1 among them), 300 seeded n=7 graphs at random
        # d in 1..5, and ring9 and ring10 at d=3; 3,365 are degenerate
        def instances():
            for d in (1, 2, 3, 4, 6):
                for mask in range(1 << edge_count(5)):
                    yield Graph.from_mask(5, mask), d
            rng = random.Random(11)
            for _ in range(300):
                yield Graph.from_mask(7, rng.randrange(1 << edge_count(7))), rng.randint(1, 5)
            yield Graph.ring(9), 3
            yield Graph.ring(10), 3

        cl_d, cliques = hashlib.sha256(), hashlib.sha256()
        degenerate = 0
        for g, d in instances():
            arrays = setup(error_set(g.n, d), g)
            degenerate += arrays.degenerate
            cl_d.update(arrays.dump().encode())
            cliques.update(make_cws_clique_graph(arrays).dump().encode())
        assert degenerate == 3365
        assert cl_d.hexdigest() == (
            "99d35911a5f1ccc81fd0e9fe01ee53acd945dc253ed6806d9bd642aa1d2c3fce"
        )
        assert cliques.hexdigest() == (
            "745b3056b65839552d5c74f19687ef3c85ba34be3e7607a020476aadf45792f8"
        )

    def test_vertex_zero_first_and_universal_vertices_ascending(self):
        # the invariants the solvers rely on, which CliqueGraph does not
        # re-check: 0^n is vertex 0, vertices ascend, row 0 is universal
        rng = random.Random(10)
        degenerate = 0
        for _ in range(200):
            arrays = random_cl_arrays(4, rng)
            degenerate += arrays.degenerate
            cg = make_cws_clique_graph(arrays)
            assert cg.vertices[0] == 0
            assert all(np.diff(cg.vertices) > 0)
            assert cg.rows[0] == (1 << (cg.size - 1)) - 1
        assert degenerate > 0


def reference_build(g: Graph, patterns: list[int], errors) -> tuple[set, set, list, list]:
    """(CL, D, vertices, rows) of one graph from the definitions, given the
    cl_map pattern of each error: D holds the words with odd overlap with
    the X support of some error whose pattern is zero, the vertices are 0
    and every word in neither set, and two vertices are joined when their
    XOR is not in CL."""
    cl = set(patterns)
    zero_u = [e.u for e, p in zip(errors.paulis, patterns) if p == 0]
    d = {x for x in range(1 << g.n) if any((x & u).bit_count() & 1 for u in zero_u)}
    vertices = [0] + [x for x in range(1, 1 << g.n) if x not in cl and x not in d]
    m = len(vertices)
    rows = [
        sum(1 << (m - 1 - j) for j, b in enumerate(vertices) if a != b and a ^ b not in cl)
        for a in vertices
    ]
    return cl, d, vertices, rows


class TestBatchedBuild:
    """`setup_table` and `clique_graphs` over many graphs at once, one chunk
    of mixed vertex counts per (n, d), against `reference_build`."""

    def check(self, n: int, masks: list[int], ds) -> tuple[int, int, set]:
        """(degenerate instances, instances with m = 1, vertex counts seen)."""
        full = error_set(n, n + 1)
        graphs = [Graph.from_mask(n, mask) for mask in masks]
        patterns = [[cl_map(e, g).value for e in full.paulis] for g in graphs]
        degenerate, single, sizes = 0, 0, set()
        for d in ds:
            errors = error_set(n, d)
            assert errors.paulis == full.paulis[: len(errors)]  # ascending weight
            cl, dd = setup_table(errors, rows_table(n, masks))
            assert cl.shape == dd.shape == (len(masks), 1 << n)
            built = list(clique_graphs(n, cl, dd))
            for r, g in enumerate(graphs):
                ref_cl, ref_d, vertices, rows = reference_build(
                    g, patterns[r][: len(errors)], errors
                )
                assert set(np.flatnonzero(cl[r]).tolist()) == ref_cl
                assert set(np.flatnonzero(dd[r]).tolist()) == ref_d
                assert built[r].vertices.tolist() == vertices
                assert built[r].rows == rows
                degenerate += 0 in ref_cl
                single += len(vertices) == 1
                sizes.add(len(vertices))
        return degenerate, single, sizes

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_graph_at_every_distance(self, n):
        degenerate, single, sizes = self.check(
            n, list(range(1 << edge_count(n))), range(1, n + 2)
        )
        assert degenerate > 0 and single > 0 and len(sizes) > 1

    @pytest.mark.parametrize("n, count", [(6, 24), (7, 10)])
    def test_seeded_graphs(self, n, count):
        rng = random.Random(n)
        masks = [0] + [rng.randrange(1 << edge_count(n)) for _ in range(count)]
        degenerate, single, sizes = self.check(n, masks, range(1, n + 2))
        assert degenerate > 0 and single > 0 and len(sizes) > 1

    def test_vertex_zero_has_no_conflicts(self):
        # a branch reads conflicts[m] as vertex 0's mask: vertex 0 is adjacent
        # to every other vertex, so the mask is 0 in every graph of the n=5
        # d=2 and n=7 d=3 chunks, m = 1 and degenerate graphs among them
        sizes, degenerate = set(), 0
        for n, d, count in ((5, 2, 1 << edge_count(5)), (7, 3, 1024)):
            errors = error_set(n, d)
            for lo in range(0, count, BUILD_CHUNK):
                chunk = list(range(lo, min(count, lo + BUILD_CHUNK)))
                cl, dd = setup_table(errors, rows_table(n, chunk))
                degenerate += int(np.count_nonzero(cl[:, 0]))
                for cg in clique_graphs(n, cl, dd):
                    assert len(cg.conflicts) == cg.size + 1
                    assert cg.conflicts[0] == cg.conflicts[cg.size] == 0
                    sizes.add(cg.size)
        assert 1 in sizes and len(sizes) > 1 and degenerate > 0

    def test_no_graphs(self):
        cl, d = setup_table(error_set(4, 2), rows_table(4, []))
        assert cl.shape == d.shape == (0, 16)
        assert list(clique_graphs(4, cl, d)) == []


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
            plain = max_clique(cg)
            members, _nodes = lex_min_clique(cg, plain.clique.size, plain.nodes)
            _best, witness = brute_force_max_clique(cg)
            got = tuple(sorted(cg.words[i] for i in members))
            assert got == witness

    def test_ring9_d3_pinned(self):
        # result, tie-break and node count of the exact search on a 269-vertex
        # graph: the plain solve, then the refinement on top of it
        cg = make_cws_clique_graph(setup(error_set(9, 3), Graph.ring(9)))
        plain = max_clique(cg)
        assert cg.size == 269 and plain.exact and plain.nodes == 4566
        assert plain.clique.size == 12
        members, nodes = lex_min_clique(cg, plain.clique.size, plain.nodes)
        assert nodes == 5416
        words = sorted(cg.words[i] for i in members)
        assert words == [0, 35, 70, 146, 177, 212, 313, 350, 367, 427, 460, 509]

    def test_one_vertex_graph_builds_no_tables(self):
        # vertex 0 alone leaves no candidate: the results and node counts are
        # those of the kernel's empty search
        cg = make_cws_clique_graph(setup(error_set(6, 3), Graph.empty(6)))
        assert cg.size == 1
        for budget in (-1, 0):
            res = max_clique(cg, budget)
            assert (res.clique.members, res.exact, res.nodes) == ((0,), True, 0)
            assert lex_min_clique(cg, res.clique.size, res.nodes, budget) == ([0], 0)
            one = find_clique_of_size(cg, 1, budget)
            assert (one.clique.members, one.exhausted, one.nodes, one.best_size) == ((0,), True, 0, 1)
            for k in (2, 3):
                assert find_clique_of_size(cg, k, budget) == (None, True, 0, 1)

    def test_every_exact_solver_meets_the_vertex_cap(self, monkeypatch):
        # one guard holds the cap for the solve, the target-K search and the
        # refinement; a one-word target is answered before it
        cg = make_cws_clique_graph(setup(error_set(5, 2), Graph.ring(5)))
        exact = max_clique(cg)
        assert exact.exact and exact.clique.size >= 3
        monkeypatch.setattr("cwskit.clique.MAX_EXACT_VERTICES", cg.size - 1)
        message = f"exact solver capped at {cg.size - 1} vertices"
        with pytest.raises(ValueError, match=message):
            max_clique(cg)
        with pytest.raises(ValueError, match=message):
            find_clique_of_size(cg, 2)
        with pytest.raises(ValueError, match=message):
            lex_min_clique(cg, exact.clique.size, exact.nodes)
        assert find_clique_of_size(cg, 1).clique.members == (0,)

    def test_refinement_without_an_exact_answer_or_budget_is_a_no_op(self):
        cg = make_cws_clique_graph(setup(error_set(9, 3), Graph.ring(9)))
        bound = max_clique(cg, budget=1000)
        assert not bound.exact
        assert lex_min_clique(cg, bound.clique.size, bound.nodes, 1000) is None
        # 4566 nodes settle the size; the budget dies while refining it
        plain = max_clique(cg, budget=5000)
        assert plain.exact and plain.nodes == 4566
        assert lex_min_clique(cg, plain.clique.size, plain.nodes, 5000) is None
        assert lex_min_clique(cg, plain.clique.size, plain.nodes, 5416)[1] == 5416

    def test_refinement_above_the_maximum_is_none(self, monkeypatch):
        # every candidate fails, so the refinement gives up instead of
        # retrying the same candidates: no more B&B calls than vertices
        calls = []
        bnb = cwskit.clique.bnb_clique

        def counted(conflicts, m, *args):
            calls.append(1)
            if len(calls) > m:
                raise RuntimeError("the refinement loops")
            return bnb(conflicts, m, *args)

        rng = random.Random(5)
        graphs = [make_cws_clique_graph(setup(error_set(5, 2), Graph.ring(5)))]
        graphs += [make_cws_clique_graph(random_cl_arrays(4, rng)) for _ in range(10)]
        solved = [(cg, *solve(cg)) for cg in graphs]
        monkeypatch.setattr("cwskit.clique.bnb_clique", counted)
        for cg, best, _members, nodes, _exhausted in solved:
            calls.clear()
            assert lex_min_clique(cg, best + 1, nodes) is None

    def test_refinement_of_one_member_runs_no_branch_and_bound(self, monkeypatch):
        cg = make_cws_clique_graph(setup(error_set(5, 2), Graph.ring(5)))
        assert cg.size > 1

        def refuse(*args):
            raise AssertionError("a one-member refinement called the B&B")

        monkeypatch.setattr("cwskit.clique.bnb_clique", refuse)
        assert lex_min_clique(cg, 1) == ([0], 0)
        assert lex_min_clique(cg, 1, 7, 3) == ([0], 7)

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
            words = [cg.words[i] for i in res.clique.members]
            admissible = set(cg.words)
            index_of = {v: i for i, v in enumerate(cg.words)}
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


def old_max_clique(cg: CliqueGraph, budget: int) -> tuple:
    """`max_clique` then `codewords`, as they were before `solve`: (members,
    exact, nodes, words), the words read from the vertex array."""
    m = cg.size
    _size, members, nodes, exhausted = cwskit.clique.bnb_clique(
        cg.conflicts, m, (1 << (m - 1)) - 1, 0, budget
    )
    members = tuple(sorted([0] + members))
    return members, exhausted, nodes, tuple(int(cg.vertices[i]) for i in members)


def old_find_clique_of_size(cg: CliqueGraph, k: int, budget: int) -> tuple:
    """`find_clique_of_size` as it was before `solve`: (members or None,
    exhausted, nodes, best size)."""
    if k == 1:
        return (0,), True, 0, 1
    m = cg.size
    size, members, nodes, exhausted = cwskit.clique.bnb_clique(
        cg.conflicts, m, (1 << (m - 1)) - 1, k - 1, budget
    )
    if size >= k - 1:
        return tuple(sorted([0] + sorted(members)[: k - 1])), exhausted, nodes, k
    return None, exhausted, nodes, size + 1


def old_process_mask(job: SearchJob, mask: int, cg: CliqueGraph) -> tuple:
    """`search._process_mask` as it was before `solve`, canon = raw mask."""
    if job.target_k is None:
        members, exact, nodes, code = old_max_clique(cg, job.budget)
        best_k = len(members)
    else:
        members, exhausted, nodes, best_k = old_find_clique_of_size(cg, job.target_k, job.budget)
        exact = members is not None or exhausted
        code = None if members is None else tuple(int(cg.vertices[i]) for i in members)
    status = "exact" if exact else "bound"
    return nodes, GraphRecord(job.n, mask, mask, cg.size, best_k, status, code)


def solve_instances(name: str) -> list[tuple[int, int, int, CliqueGraph]]:
    """(n, d, mask, clique graph) of one instance set of the differential."""
    if name == "rings":
        return [
            (n, 3, Graph.ring(n).mask(), make_cws_clique_graph(setup(error_set(n, 3), Graph.ring(n))))
            for n in (9, 10)
        ]
    n, d = int(name[1]), int(name[3])
    if n < 6:
        masks = list(range(1 << edge_count(n)))
    else:
        rng = random.Random(40 + d)
        masks = [rng.randrange(1 << edge_count(n)) for _ in range(200)]
    errors = error_set(n, d)
    out = []
    for lo in range(0, len(masks), BUILD_CHUNK):
        chunk = masks[lo : lo + BUILD_CHUNK]
        graphs = clique_graphs(n, *setup_table(errors, rows_table(n, chunk)))
        out += [(n, d, mask, cg) for mask, cg in zip(chunk, graphs)]
    return out


class TestSolveDifferential:
    """`solve`, its two wrappers and `search._process_mask` against the
    solver composition they replace, which called the kernel and the
    NamedTuple results separately: bests, member ids, words, node counts
    and exhaustion are identical."""

    BUDGETS = (-1, 0, 1, 57, 10_000)

    @pytest.mark.parametrize("name", ["n4d2", "n5d2", "n5d3", "n6d2", "n6d3", "rings"])
    def test_solve_matches_the_old_solvers(self, name, monkeypatch):
        instances = solve_instances(name)
        bound = found = absent = 0
        for n, d, mask, cg in instances:
            assert cg.vertices.tolist() == cg.words and cg.vertices is cg.vertices
            # ring10 does not exhaust in a test's time: its bestK is that of
            # the largest budget, and its unlimited budget is left out
            ring10 = n == 10
            best_k = len(old_max_clique(cg, 10_000 if ring10 else -1)[0])
            for budget in self.BUDGETS[ring10:]:
                members, exact, nodes, words = old_max_clique(cg, budget)
                bound += not exact
                assert solve(cg, None, budget) == (len(members), list(members), nodes, exact)
                assert max_clique(cg, budget) == (Clique(members), exact, nodes)
                for target in [*sorted({1, 2, best_k, best_k + 1}), None]:
                    if target is not None:
                        ref = old_find_clique_of_size(cg, target, budget)
                        got = solve(cg, target, budget)
                        ids = None if ref[0] is None else list(ref[0])
                        assert got == (ref[3], ids, ref[2], ref[1])
                        clique = None if ref[0] is None else Clique(ref[0])
                        assert find_clique_of_size(cg, target, budget) == (clique, *ref[1:])
                        found += ref[0] is not None
                        absent += ref[0] is None and ref[1]
                    job = SearchJob(n=n, d=d, target_k=target, budget=budget)
                    monkeypatch.setitem(cwskit.search._W, "job", job)
                    got = cwskit.search._process_mask(mask, mask, cg)
                    assert got == old_process_mask(job, mask, cg)
                    code = got[1].code
                    assert code is None or all(type(w) is int for w in code)
        # every outcome of the solvers occurs in the set
        assert bound and found and absent


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
