#!/usr/bin/env python3
"""Benchmark the numba-compiled kernels against their pure-Python/NumPy
fallbacks.  Both variants are always importable, so no environment flag is
needed here; set CWSKIT_NO_NUMBA=1 to make the package itself use the
fallbacks.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import time

import numpy as np

import cwskit.kernels as K
from cwskit.errormap import error_set
from cwskit.graphs import Graph, class_table, edge_count


def timeit(fn, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_cl_patterns(repeat: int):
    rng = np.random.default_rng(0)
    n = 7
    errs = error_set(n, 3)
    u = np.fromiter((e.u for e in errs), dtype=np.int64)
    v = np.fromiter((e.v for e in errs), dtype=np.int64)
    masks = rng.integers(0, 1 << edge_count(n), 400)
    graphs = [Graph.from_mask(n, int(m)).rows_array() for m in masks]

    def run(fn):
        def body():
            for rows in graphs:
                fn(u, v, rows)

        return body

    return "cl_patterns (400 graphs x 210 errors)", run(K.cl_patterns_jit), run(
        K.cl_patterns_py
    )


def bench_graph_signs(repeat: int):
    rng = random.Random(1)
    n = 11
    g = Graph.from_mask(n, rng.randrange(1 << edge_count(n)))
    rows = g.rows_array()
    return (
        f"graph_signs (n={n}, 2^{n} entries)",
        lambda: K.graph_signs_jit(rows, n),
        lambda: K.graph_signs_py(rows, n),
    )


def bench_clique_adjacency(repeat: int):
    rng = np.random.default_rng(2)
    n = 10
    cl = rng.random(1 << n) < 0.6
    cl[0] = False
    verts = np.flatnonzero(~cl).astype(np.int64)
    return (
        f"clique_adjacency ({verts.size} vertices)",
        lambda: K.clique_adjacency_jit(verts, cl),
        lambda: K.clique_adjacency_py(verts, cl),
    )


def bench_bnb(repeat: int):
    rng = random.Random(3)
    m = 70
    rows_int = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.55:
                rows_int[i] |= 1 << j
                rows_int[j] |= 1 << i
    words = (m + 63) >> 6
    adj = np.zeros((m, words), dtype=np.uint64)
    for i in range(m):
        for w in range(words):
            adj[i, w] = np.uint64((rows_int[i] >> (64 * w)) & 0xFFFFFFFFFFFFFFFF)
    cand = np.zeros(words, dtype=np.uint64)
    full = (1 << m) - 1
    for w in range(words):
        cand[w] = np.uint64((full >> (64 * w)) & 0xFFFFFFFFFFFFFFFF)
    return (
        f"max clique branch and bound (m={m}, p=0.55)",
        lambda: K.bnb_clique_jit(adj, m, cand, 0, -1),
        lambda: K.bnb_clique_py(rows_int, m, full, 0, -1),
    )


def bench_canon(repeat: int):
    # NumPy only, so both columns time the same function
    n = 6
    return (
        f"class table build (n={n}, 156 classes, {n}! perms)",
        lambda: class_table(n),
        lambda: class_table(n),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    if not K.HAVE_NUMBA:
        print("numba unavailable or disabled; jit timings will equal fallback")
    K.warmup()

    benches = [
        bench_cl_patterns,
        bench_graph_signs,
        bench_clique_adjacency,
        bench_bnb,
        bench_canon,
    ]
    print(f"{'kernel':<50} {'numba':>10} {'fallback':>10} {'speedup':>8}")
    for bench in benches:
        name, jit_fn, py_fn = bench(args.repeat)
        jit_fn()  # compile before timing
        t_jit = timeit(jit_fn, args.repeat)
        t_py = timeit(py_fn, args.repeat)
        ratio = t_py / t_jit if t_jit > 0 else float("inf")
        print(f"{name:<50} {t_jit * 1e3:>8.2f}ms {t_py * 1e3:>8.2f}ms {ratio:>7.1f}x")


if __name__ == "__main__":
    main()
