import random

import numpy as np

import cwskit.kernels as K


def _random_bitset_graph(rng, m):
    rows_int = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.5:
                rows_int[i] |= 1 << j
                rows_int[j] |= 1 << i
    words = (m + 63) >> 6
    adj = np.zeros((m, words), dtype=np.uint64)
    for i in range(m):
        r = rows_int[i]
        for w in range(words):
            adj[i, w] = np.uint64((r >> (64 * w)) & 0xFFFFFFFFFFFFFFFF)
    return rows_int, adj


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(0)
    for size in (1, 63, 64, 65, 1000):
        bits = rng.random(size) < 0.3
        assert np.array_equal(K.unpack_bits(K.pack_bits(bits), size), bits)


def test_cl_patterns_paths_agree():
    rng = np.random.default_rng(1)
    for n in (1, 4, 10):
        rows = rng.integers(0, 1 << n, n).astype(np.int64)
        u = rng.integers(0, 1 << n, 200).astype(np.int64)
        v = rng.integers(0, 1 << n, 200).astype(np.int64)
        assert np.array_equal(K.cl_patterns_jit(u, v, rows), K.cl_patterns_py(u, v, rows))


def test_graph_signs_paths_agree():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        rows = np.zeros(n, dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        assert np.array_equal(K.graph_signs_jit(rows, n), K.graph_signs_py(rows, n))


def test_clique_adjacency_paths_agree():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6):
        cl = rng.random(1 << n) < 0.4
        cl[0] = False
        verts = np.flatnonzero(~cl).astype(np.int64)
        a = K.clique_adjacency_jit(verts, cl)
        b = K.clique_adjacency_py(verts, cl)
        assert np.array_equal(a, b)


def test_bnb_paths_agree_and_match_brute_force():
    rng = random.Random(4)
    for _ in range(25):
        m = rng.randint(1, 13)
        rows_int, adj = _random_bitset_graph(rng, m)
        cand = np.zeros((m + 63) >> 6, dtype=np.uint64)
        cand[0] = np.uint64((1 << m) - 1)
        s1, mem1, _n1, ex1 = K.bnb_clique_jit(adj, m, cand, 0, -1)
        s2, mem2, _n2, ex2 = K.bnb_clique_py(rows_int, m, (1 << m) - 1, 0, -1)
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
        assert s1 == s2 == best
        assert ex1 and ex2
        for members, size in ((mem1, s1), (mem2, s2)):
            assert len(members) == size
            for a in members:
                for b in members:
                    if a != b:
                        assert (rows_int[a] >> b) & 1


def test_bnb_budget_flagging():
    rng = random.Random(5)
    rows_int, adj = _random_bitset_graph(rng, 12)
    cand = np.zeros(1, dtype=np.uint64)
    cand[0] = np.uint64((1 << 12) - 1)
    _s, _m, _nodes, exhausted = K.bnb_clique_jit(adj, 12, cand, 0, 1)
    assert not exhausted
    _s, _m, _nodes, exhausted = K.bnb_clique_py(rows_int, 12, (1 << 12) - 1, 0, 1)
    assert not exhausted


def test_bnb_stop_at_short_circuits():
    # complete graph: searching for a 3-clique must not explore everything
    m = 10
    rows_int = [((1 << m) - 1) & ~(1 << i) for i in range(m)]
    adj = np.zeros((m, 1), dtype=np.uint64)
    for i in range(m):
        adj[i, 0] = np.uint64(rows_int[i])
    cand = np.zeros(1, dtype=np.uint64)
    cand[0] = np.uint64((1 << m) - 1)
    size, members, _nodes, exhausted = K.bnb_clique_jit(adj, m, cand, 3, -1)
    assert size >= 3 and not exhausted


def test_default_binding_matches_flag():
    if K.NUMBA_DISABLED:
        assert K.cl_patterns is K.cl_patterns_py
    elif K.HAVE_NUMBA:
        assert K.cl_patterns is K.cl_patterns_jit
