import gc
import hashlib
import random
import sys

import numpy as np

from conftest import random_graph, reversed_bits
from cwskit import clique, errormap, graphs
from cwskit.clique import MAX_EXACT_VERTICES, make_cws_clique_graph
from cwskit.errormap import ErrorSet, cl_map, error_set, setup
from cwskit.gf2 import PauliOp
from cwskit.graphs import Graph, edge_count, rows_table


def _random_adjacency_rows(rng, m):
    rows_int = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.5:
                rows_int[i] |= 1 << j
                rows_int[j] |= 1 << i
    return rows_int


def _bnb(rows_int, m, cand, stop_at, budget, best_size=0):
    """bnb_clique on low-bit-first rows and candidates (vertex j at bit j),
    turned into the kernel's conflict list (entry k: the non-neighbours of
    vertex m - k) and candidates, high bit first."""
    full = (1 << m) - 1
    conflicts = [0] + [
        reversed_bits(full ^ rows_int[v] ^ (1 << v), m) for v in reversed(range(m))
    ]
    return clique.bnb_clique(conflicts, m, reversed_bits(cand, m), stop_at, budget, best_size)


def _brute_force_max_clique(rows_int, m):
    best = 0
    for mask in range(1 << m):
        ok = True
        t = mask
        while t:
            v = (t & -t).bit_length() - 1
            t &= t - 1
            if mask & ~rows_int[v] & ~(1 << v):
                ok = False
                break
        if ok:
            best = max(best, bin(mask).count("1"))
    return best


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    for size in (1, 63, 64, 65, 1000):
        bits = rng.random(size) < 0.3
        words = errormap.pack_bits(bits)
        assert words.dtype == np.uint64 and words.size == (size + 63) // 64
        unpacked = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert np.array_equal(unpacked[:size].astype(bool), bits)
        assert not unpacked[size:].any()


def test_int_rows_and_bit_rows_are_inverse():
    # column 0 is the top bit, across byte and word edges, for 0, 1 and
    # several rows, from bool and uint8 tables
    rng = np.random.default_rng(5)
    for width in (1, 7, 8, 9, 63, 64, 65, 128, 709):
        for count in (0, 1, 5):
            table = rng.random((count, width)) < 0.5
            # the reference: each row read as a binary numeral
            values = [int("".join(map(str, row.astype(int))), 2) for row in table]
            for t in (table, table.astype(np.uint8)):
                assert clique.int_rows(t) == values
                assert np.array_equal(clique.bit_rows(clique.int_rows(t), width), t)
            rows = clique.bit_rows(values, width)
            assert rows.shape == (count, width) and rows.dtype == np.uint8
            assert clique.int_rows(rows) == values
        edges = [(1 << width) - 1, 1 << (width - 1), 1, 0]
        assert clique.int_rows(clique.bit_rows(edges, width)) == edges


def test_cl_patterns_match_cl_map():
    # one-row tables: every X-support weight 0..n and the empty error set
    rng = random.Random(1)
    for n in (1, 4, 10):
        g = Graph.from_mask(n, rng.randrange(1 << edge_count(n)))
        paulis = [
            PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(200)
        ]
        for w in range(n + 1):
            u = sum(1 << q for q in rng.sample(range(n), w))
            paulis.append(PauliOp(n, u, rng.randrange(1 << n) if w else 1))
        paulis = [p for p in paulis if p.u or p.v]
        errs = ErrorSet(n, tuple(paulis))
        assert {p.u.bit_count() for p in paulis} == set(range(n + 1))
        got = errormap.cl_patterns(errs.xcols, errs.v, g.rows_array()[None])
        assert got.shape == (1, len(paulis))
        assert got[0].tolist() == [cl_map(p, g).value for p in paulis]
    empty = ErrorSet(3, ())
    table = Graph.ring(3).rows_array()[None]
    assert errormap.cl_patterns(empty.xcols, empty.v, table).shape == (1, 0)


def test_cl_patterns_of_a_row_table_stack_the_single_graph_patterns():
    rng = random.Random(4)
    for n, d in [(1, 2), (4, 1), (4, 3), (7, 3), (7, 8)]:
        errs = error_set(n, d)
        masks = [rng.randrange(1 << edge_count(n)) for _ in range(9)]
        got = errormap.cl_patterns(errs.xcols, errs.v, rows_table(n, masks))
        assert got.shape == (len(masks), len(errs))
        for mask, row in zip(masks, got.tolist()):
            g = Graph.from_mask(n, mask)
            assert row == [cl_map(p, g).value for p in errs.paulis]
    assert errormap.cl_patterns(errs.xcols, errs.v, rows_table(7, [])).shape == (0, len(errs))


def test_graph_signs_match_edge_list():
    rng = random.Random(2)
    for n in (1, 3, 6):
        g = Graph.from_mask(n, rng.randrange(1 << edge_count(n)))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if g.has_edge(i, j)]
        expected = [
            (-1) ** sum((x >> i) & (x >> j) & 1 for i, j in edges) for x in range(1 << n)
        ]
        assert graphs.graph_signs(g.rows_array(), n).tolist() == expected


def test_clique_conflicts_matches_pairwise_loop():
    # R graphs of m vertices each, one to four words per mask
    rng = np.random.default_rng(3)
    for n, m in (
        (2, 1), (2, 3), (4, 9), (6, 40), (7, 63), (7, 64), (7, 65), (7, 128), (8, 200)
    ):
        count = 3
        cl = rng.random((count, 1 << n)) < 0.4
        verts = np.array(
            [np.sort(rng.choice(1 << n, m, replace=False)) for _ in range(count)]
        )
        conflicts = clique.clique_conflicts(verts, cl)
        assert len(conflicts) == count
        for r in range(count):
            assert len(conflicts[r]) == m + 1 and conflicts[r][0] == 0
            for i in range(m):
                mask = conflicts[r][m - i]  # vertex i's entry, colouring order
                assert mask >> m == 0
                mask = reversed_bits(mask, m)  # vertex j at bit j
                for j in range(m):
                    conflict = i != j and cl[r, verts[r, i] ^ verts[r, j]]
                    assert bool((mask >> j) & 1) == conflict


def test_bnb_matches_brute_force():
    rng = random.Random(4)
    for _ in range(25):
        m = rng.randint(1, 13)
        rows_int = _random_adjacency_rows(rng, m)
        size, members, _nodes, exhausted = _bnb(rows_int, m, (1 << m) - 1, 0, -1)
        assert size == _brute_force_max_clique(rows_int, m)
        assert exhausted
        assert len(members) == size
        for a in members:
            for b in members:
                if a != b:
                    assert (rows_int[a] >> b) & 1


def test_bnb_best_size_is_the_incumbent():
    # only a clique larger than best_size is reported; with none, the call
    # hands best_size back with no members, exhausted
    rng = random.Random(12)
    for _ in range(25):
        m = rng.randint(1, 13)
        rows_int = _random_adjacency_rows(rng, m)
        omega = _brute_force_max_clique(rows_int, m)
        full = (1 << m) - 1
        for best_size in range(omega + 2):
            size, members, nodes, exhausted = _bnb(rows_int, m, full, 0, -1, best_size)
            if best_size >= omega:
                assert (size, members, exhausted) == (best_size, [], True)
            else:
                assert (size, len(members), exhausted) == (omega, omega, True)
        assert _bnb(rows_int, m, 0, 0, -1, 3) == (3, [], 0, True)
    cg = make_cws_clique_graph(setup(error_set(9, 3), Graph.ring(9)))
    full = (1 << (cg.size - 1)) - 1
    size, _members, nodes, exhausted = clique.bnb_clique(cg.conflicts, cg.size, full, 0, -1)
    assert (size, nodes, exhausted) == (11, 4566, True)  # K = 12 with vertex 0
    size, members, fewer, exhausted = clique.bnb_clique(cg.conflicts, cg.size, full, 0, -1, 11)
    assert (size, members, exhausted) == (11, [], True) and fewer < nodes


def test_bnb_budget_flagging():
    rows_int = _random_adjacency_rows(random.Random(5), 12)
    _s, _m, nodes, exhausted = _bnb(rows_int, 12, (1 << 12) - 1, 0, 1)
    assert not exhausted and nodes == 2


def test_bnb_stop_at_short_circuits():
    # the first clique of size >= 2 ends the search before the maximum is proven
    m = 14
    rows_int = _random_adjacency_rows(random.Random(5), m)
    full = (1 << m) - 1
    size, members, nodes, exhausted = _bnb(rows_int, m, full, 2, -1)
    best, _mem, all_nodes, all_exhausted = _bnb(rows_int, m, full, 0, -1)
    assert 2 <= size < best and len(members) == size and not exhausted
    assert all_exhausted and nodes < all_nodes


def _differential_instances(count=200, seed=8):
    """Seeded `_bnb` arguments: m 1-69, mixed densities, random candidate
    sets, stop_at values and budgets."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 69)
        density = rng.choice((rng.random(), rng.uniform(0.5, 0.9)))
        rows = [0] * m
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < density:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        full = (1 << m) - 1
        cand = rng.choice((full, rng.getrandbits(m), rng.getrandbits(m) | rng.getrandbits(m)))
        stop_at = rng.choice((0, 0, rng.randint(1, m)))
        budget = rng.choice((-1, rng.randint(0, 50), rng.randint(0, 3000)))
        yield rows, m, cand, stop_at, budget


def test_bnb_search_tree_pinned():
    # every (best_size, members, nodes, exhausted), members in the order the
    # search found them, so a change of visiting order shows here
    h = hashlib.sha256()
    for args in _differential_instances():
        h.update(repr(_bnb(*args)).encode())
    assert h.hexdigest() == "1027bc52af0d29b925829dee75d13846deb4b66426b0af239dfaa45dd7d9bdd1"


def test_bnb_ring10_d3_budget_pinned():
    cg = make_cws_clique_graph(setup(error_set(10, 3), Graph.ring(10)))
    assert cg.size == 709
    size, members, nodes, exhausted = clique.bnb_clique(
        cg.conflicts, 709, (1 << 708) - 1, 0, 10_000
    )
    assert (size, nodes, exhausted) == (16, 10_001, False)  # K = 17 with vertex 0
    assert members == [
        693, 652, 627, 600, 511, 526, 403, 400, 355, 334, 214, 195, 164, 116, 79, 8
    ]


def _cws_instances(seed=9):
    """Seeded `bnb_clique` arguments on CWS clique graphs at d=3 with m well
    above 64, so that every set spans several int digits: ring9, ring10 and
    two fixed n=10 graphs, each on its full candidate set and on one seeded
    partial set, with stop_at 0, K-1 and K (K the best size at 2,500 nodes)
    and budgets 0, 1, 57 and 2,500."""
    rng = random.Random(seed)
    graphs = [Graph.ring(9), Graph.ring(10),
              Graph.from_mask(10, 0x0DBD81E74EF5), Graph.from_mask(10, 0x03F5F29D0DA9)]
    for g in graphs:
        cg = make_cws_clique_graph(setup(error_set(g.n, 3), g))
        m = cg.size
        for cand in ((1 << (m - 1)) - 1, rng.getrandbits(m - 1)):
            k = clique.bnb_clique(cg.conflicts, m, cand, 0, 2500)[0]
            for stop_at in (0, k - 1, k):
                for budget in (0, 1, 57, 2500):
                    yield cg.conflicts, m, cand, stop_at, budget


def test_bnb_cws_search_tree_pinned():
    # the multi-digit counterpart of test_bnb_search_tree_pinned: m is 269
    # to 709 here, against at most 69 there
    h = hashlib.sha256()
    sizes = set()
    for args in _cws_instances():
        sizes.add(args[1])
        h.update(repr((args[1:], clique.bnb_clique(*args))).encode())
    assert sizes == {269, 709, 670, 662}
    assert h.hexdigest() == "f78c8a2d11d815c2a63ac7239852f62db209a7f30e35a0cecc2bb6ab6a078634"


def test_bnb_leaves_the_recursion_limit_alone():
    limit = sys.getrecursionlimit()
    rows_int = _random_adjacency_rows(random.Random(6), 40)
    _bnb(rows_int, 40, (1 << 40) - 1, 0, -1)
    assert sys.getrecursionlimit() == limit
    # the search keeps its own stack, so a clique deeper than the limit leaves
    # it alone too; a low limit keeps the complete graph small
    low = 300
    m = 400
    full = (1 << m) - 1
    complete = [full ^ (1 << v) for v in range(m)]
    sys.setrecursionlimit(low)
    try:
        size, members, _nodes, exhausted = _bnb(complete, m, full, 0, -1)
        assert sys.getrecursionlimit() == low
        # also when a budget cuts the search short
        _bnb(complete, m, full, 0, 50)
        assert sys.getrecursionlimit() == low
    finally:
        sys.setrecursionlimit(limit)
    assert size == m and exhausted and sorted(members) == list(range(m))


def test_bnb_frees_its_state_on_return():
    # no reference cycle outlives the call, so its per-call tables are freed
    # at once, not at the next garbage collection
    rows_int = _random_adjacency_rows(random.Random(7), 30)
    full = (1 << 30) - 1
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _bnb(rows_int, 30, full, 0, -1)
        _bnb(rows_int, 30, full, 0, 5)  # unwound by the budget
        _bnb(rows_int, 30, full, 2, -1)  # unwound by stop_at
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def _compaction_instances(seed=10):
    """`bnb_clique` arguments whose search compacts wide subtrees: ring10,
    ring11 and the first two seeded n=10 graphs with m above 300 at d=3,
    each on its full candidate set and on a seeded partial set of about a
    quarter of it (wide and sparse from the root), with stop_at 0, K-1 and
    K (K the best size at 10,000 nodes) and budgets 0, 1, 57 and 10,000."""
    rng = random.Random(seed)
    graphs = [make_cws_clique_graph(setup(error_set(n, 3), Graph.ring(n))) for n in (10, 11)]
    while len(graphs) < 4:
        cg = make_cws_clique_graph(setup(error_set(10, 3), random_graph(10, rng)))
        if cg.size > 300:
            graphs.append(cg)
    for cg in graphs:
        m = cg.size
        for cand in ((1 << (m - 1)) - 1, rng.getrandbits(m - 1) & rng.getrandbits(m - 1)):
            k = clique.bnb_clique(cg.conflicts, m, cand, 0, 10_000)[0]
            for stop_at in (0, k - 1, k):
                for budget in (0, 1, 57, 10_000):
                    yield cg.conflicts, m, cand, stop_at, budget


def test_compaction_keeps_the_search_tree(monkeypatch):
    # the same (best_size, members, nodes, exhausted) with wide subtrees
    # solved on their own vertices and with no subtree compacted
    instances = list(_compaction_instances())
    compacted = []
    induced = clique._induced_conflicts

    def counted(conflicts, m, cand):
        compacted.append(m)
        return induced(conflicts, m, cand)

    monkeypatch.setattr(clique, "_induced_conflicts", counted)
    on = [clique.bnb_clique(*args) for args in instances]
    sizes = {args[1] for args in instances}
    assert len(sizes) == 4 and sizes <= set(compacted)  # every graph compacts
    monkeypatch.setattr(clique, "_COMPACT_BITS", MAX_EXACT_VERTICES + 1)
    compacted.clear()
    off = [clique.bnb_clique(*args) for args in instances]
    assert compacted == []
    assert on == off


def test_induced_conflicts_match_clique_conflicts():
    # the compacted list of a vertex subset is the list clique_conflicts
    # gathers from CL on the subset's words; m and the subset size cover
    # whole and part bytes
    rng = random.Random(11)
    graphs = []
    for n, m in ((8, 128), (8, 203)):
        cl = np.random.default_rng(m).random((1, 1 << n)) < 0.5
        graphs.append((np.sort(rng.sample(range(1 << n), m))[None], cl))
    arrays = setup(error_set(10, 3), Graph.ring(10))
    cg = make_cws_clique_graph(arrays)
    graphs.append((cg.vertices[None], arrays.cl[None]))
    for verts, cl in graphs:
        m = verts.shape[1]
        conflicts = clique.clique_conflicts(verts, cl)[0]
        for s in (1, 8, 9, 63, 64, 65, m // 2, m):
            chosen = sorted(rng.sample(range(m), s))
            cand = sum(1 << (m - 1 - v) for v in chosen)
            ids, sub = clique._induced_conflicts(conflicts, m, cand)
            assert ids == chosen
            assert sub == clique.clique_conflicts(verts[:, ids], cl)[0]


def _nested_calls(m):
    """The most compacted calls nested below a search of m vertices: each
    call at least halves the width, and compacts only above the constant."""
    count = 0
    while m > clique._COMPACT_BITS:
        m //= 2
        count += 1
    return count


def test_compaction_depth_is_bounded(monkeypatch):
    assert _nested_calls(MAX_EXACT_VERTICES) == 4
    depth = deepest = 0
    kernel = clique.bnb_clique

    def tracked(*args):
        nonlocal depth, deepest
        depth += 1
        deepest = max(deepest, depth)
        try:
            return kernel(*args)
        finally:
            depth -= 1

    monkeypatch.setattr(clique, "bnb_clique", tracked)
    # a random graph of adjacency density 0.4 on 2,048 vertices: each
    # branch keeps about 0.4 of its parent's vertices, so the walk down the
    # first branches compacts 2,048 -> ~820 -> ~330 -> ~130 vertices, the
    # bound for 2,048
    rng = np.random.default_rng(12)
    m = 2048
    adj = np.triu(rng.integers(0, 5, (m, m), dtype=np.uint8) < 2, 1)
    adj |= adj.T
    conflict = ~adj
    np.fill_diagonal(conflict, False)
    rows = np.packbits(conflict[::-1], axis=1)  # entry k: vertex m - k
    conflicts = [0] + [int.from_bytes(row.tobytes(), "big") for row in rows]
    clique.bnb_clique(conflicts, m, (1 << m) - 1, 0, 100)
    assert deepest == 1 + _nested_calls(m) == 4
    for n in (10, 11):
        cg = make_cws_clique_graph(setup(error_set(n, 3), Graph.ring(n)))
        deepest = 0
        clique.bnb_clique(cg.conflicts, cg.size, (1 << (cg.size - 1)) - 1, 0, 10_000)
        assert 2 <= deepest <= 1 + _nested_calls(cg.size)
