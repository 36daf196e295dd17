import random

import numpy as np

import cwskit.kernels as K
from cwskit.errormap import cl_map
from cwskit.gf2 import PauliOp
from cwskit.graphs import Graph, edge_count


def _random_adjacency_rows(rng, m):
    rows_int = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.5:
                rows_int[i] |= 1 << j
                rows_int[j] |= 1 << i
    return rows_int


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
        assert np.array_equal(K.unpack_bits(K.pack_bits(bits), size), bits)


def test_cl_patterns_match_cl_map():
    rng = random.Random(1)
    for n in (1, 4, 10):
        g = Graph.from_mask(n, rng.randrange(1 << edge_count(n)))
        paulis = [
            PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n)) for _ in range(200)
        ]
        u = np.array([p.u for p in paulis], dtype=np.int64)
        v = np.array([p.v for p in paulis], dtype=np.int64)
        got = K.cl_patterns(u, v, g.rows_array())
        assert [int(x) for x in got] == [cl_map(p, g).value for p in paulis]


def test_graph_signs_match_edge_list():
    rng = random.Random(2)
    for n in (1, 3, 6):
        g = Graph.from_mask(n, rng.randrange(1 << edge_count(n)))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if g.has_edge(i, j)]
        expected = [
            (-1) ** sum((x >> i) & (x >> j) & 1 for i, j in edges) for x in range(1 << n)
        ]
        assert K.graph_signs(g.rows_array(), n).tolist() == expected


def test_clique_adjacency_matches_pairwise_loop():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 7):
        cl = rng.random(1 << n) < 0.4
        cl[0] = False
        verts = np.flatnonzero(~cl).astype(np.int64)
        adj = K.clique_adjacency(verts, cl)
        m = verts.size
        assert adj.shape == (m, (m + 63) >> 6)
        for i in range(m):
            for j in range(m):
                edge = i != j and not cl[verts[i] ^ verts[j]]
                assert bool((int(adj[i, j >> 6]) >> (j & 63)) & 1) == edge


def test_bnb_matches_brute_force():
    rng = random.Random(4)
    for _ in range(25):
        m = rng.randint(1, 13)
        rows_int = _random_adjacency_rows(rng, m)
        size, members, _nodes, exhausted = K.bnb_clique(rows_int, m, (1 << m) - 1, 0, -1)
        assert size == _brute_force_max_clique(rows_int, m)
        assert exhausted
        assert len(members) == size
        for a in members:
            for b in members:
                if a != b:
                    assert (rows_int[a] >> b) & 1


def test_bnb_budget_flagging():
    rows_int = _random_adjacency_rows(random.Random(5), 12)
    _s, _m, nodes, exhausted = K.bnb_clique(rows_int, 12, (1 << 12) - 1, 0, 1)
    assert not exhausted and nodes == 2


def test_bnb_stop_at_short_circuits():
    # the first clique of size >= 2 ends the search before the maximum is proven
    m = 14
    rows_int = _random_adjacency_rows(random.Random(5), m)
    full = (1 << m) - 1
    size, members, nodes, exhausted = K.bnb_clique(rows_int, m, full, 2, -1)
    best, _mem, all_nodes, all_exhausted = K.bnb_clique(rows_int, m, full, 0, -1)
    assert 2 <= size < best and len(members) == size and not exhausted
    assert all_exhausted and nodes < all_nodes
