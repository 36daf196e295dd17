#!/usr/bin/env python3
"""Time the hot numeric kernels on fixed, seeded inputs.

Each case returns ``(name, fn, fn)``: the same callable twice, the tuple
shape that ``perfbench/kernels.py`` unpacks.  The branch-and-bound cases
also print nodes/s.

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import tempfile
import time
from pathlib import Path

import numpy as np

import cwskit.kernels as K
from cwskit.clique import clique_graphs, make_cws_clique_graph, max_clique
from cwskit.errormap import error_set, setup, setup_table, triple_counts
from cwskit.graphs import (
    Graph,
    class_table,
    edge_count,
    lc_orbit_masks,
    rows_table,
    write_graph_file,
)
import cwskit.search
from cwskit.search import (
    BUILD_CHUNK,
    SearchJob,
    _append,
    _load_checkpoint,
    _process_mask,
    run_search,
)
from cwskit.verify import first_failing_code


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
    masks = rng.integers(0, 1 << edge_count(n), 400)
    rows = rows_table(n, masks.tolist())
    fn = lambda: K.cl_patterns(errs.xcols, errs.v, rows)
    return "cl_patterns (400 graphs x 210 errors)", fn, fn


def bench_graph_signs(repeat: int):
    rng = random.Random(1)
    n = 11
    g = Graph.from_mask(n, rng.randrange(1 << edge_count(n)))
    rows = g.rows_array()
    fn = lambda: K.graph_signs(rows, n)
    return f"graph_signs (n={n}, 2^{n} entries)", fn, fn


def bench_clique_adjacency(repeat: int):
    """`clique_conflicts` on one n=10 graph; the case keeps its old name,
    which perfbench/kernels.py loads it by."""
    rng = np.random.default_rng(2)
    n = 10
    cl = rng.random((1, 1 << n)) < 0.6
    cl[:, 0] = False
    verts = np.flatnonzero(~cl[0])[None]
    fn = lambda: K.clique_conflicts(verts, cl)
    return f"clique_conflicts ({verts.shape[1]} vertices)", fn, fn


def bench_clique_graphs(repeat: int):
    """The batched build, BUILD_CHUNK graphs at a time, as a search builds
    them: row table, CL/D arrays, then the clique graphs.  Two sweeps: the
    1,024 graphs of the n=5 d=2 `all` sweep, and the first 1,024 graphs of
    the n=7 d=3 `all` sweep, every one degenerate, so that each of them
    also takes the D arrays' elimination and parity loop."""
    sweeps = [(5, 2, 1 << edge_count(5)), (7, 3, 1024)]

    def body():
        for n, d, count in sweeps:
            errors = error_set(n, d)
            for lo in range(0, count, BUILD_CHUNK):
                chunk = list(range(lo, min(count, lo + BUILD_CHUNK)))
                for _cg in clique_graphs(n, *setup_table(errors, rows_table(n, chunk))):
                    pass  # each graph is dropped before the next is made

    return "batched clique-graph build (n=5 d=2, n=7 d=3; 2x1024)", body, body


def bench_triple_counts(repeat: int):
    """The triple count by which a target-K >= 3 search decides that a graph
    has no 3-word code, over the first BUILD_CHUNK graphs of the n=7 d=3
    `all` sweep, whose CL/D arrays are built beforehand."""
    n = 7
    cl, d = setup_table(error_set(n, 3), rows_table(n, list(range(BUILD_CHUNK))))
    fn = lambda: triple_counts(cl, d)
    return f"triple counts (n=7 d=3, {BUILD_CHUNK} graphs)", fn, fn


def bench_bnb(repeat: int):
    rng = random.Random(3)
    m = 70
    # conflicts[m - i]: vertex i's non-neighbours, high bit first (vertex j
    # is bit m-1-j); conflicts[0] is 0
    conflicts = [0] * (m + 1)
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() >= 0.55:
                conflicts[m - i] |= 1 << (m - 1 - j)
                conflicts[m - j] |= 1 << (m - 1 - i)
    fn = lambda: K.bnb_clique(conflicts, m, (1 << m) - 1, 0, -1)
    return f"max clique branch and bound (m={m}, p=0.55)", fn, fn


RING10_BUDGET = 10_000


def bench_bnb_ring10(repeat: int):
    """The d=3 clique graph of the ring on 10 qubits, as a search builds it."""
    cg = make_cws_clique_graph(setup(error_set(10, 3), Graph.ring(10)))
    m = cg.size
    fn = lambda: K.bnb_clique(cg.conflicts, m, (1 << (m - 1)) - 1, 0, RING10_BUDGET)
    return f"branch and bound, ring10 d=3 (m={m}, {RING10_BUDGET} nodes)", fn, fn


RING11_BUDGET = 20_000


def bench_bnb_ring11(repeat: int):
    """The d=3 clique graph of the ring on 11 qubits (m = 1,652), where the
    search solves its wide, sparse subtrees on their own vertices."""
    cg = make_cws_clique_graph(setup(error_set(11, 3), Graph.ring(11)))
    m = cg.size
    fn = lambda: K.bnb_clique(cg.conflicts, m, (1 << (m - 1)) - 1, 0, RING11_BUDGET)
    return f"branch and bound, ring11 d=3 (m={m}, {RING11_BUDGET} nodes)", fn, fn


def bench_bnb_ring9(repeat: int):
    """The d=3 clique graph of the ring on 9 qubits, solved exactly: the
    search exhausts after 4,566 nodes."""
    cg = make_cws_clique_graph(setup(error_set(9, 3), Graph.ring(9)))
    m = cg.size
    fn = lambda: K.bnb_clique(cg.conflicts, m, (1 << (m - 1)) - 1, 0, -1)
    return f"branch and bound, ring9 d=3 (m={m}, exact)", fn, fn


def bench_canon(repeat: int):
    """The n=7 class table, as `--graphs all` and `lc` build it; `iso` runs
    the same orbit pass without the table and without class sizes."""
    n = 7
    fn = lambda: class_table(n)
    return f"class table build (n={n}, 1044 classes, {n}! perms)", fn, fn


def bench_lc_orbits(repeat: int):
    """The LC orbits of the n=7 graphs, as `--graphs lc --n 7` lists them:
    the class table, then the mask-level closure of each orbit."""
    fn = lambda: list(lc_orbit_masks(7))
    return f"LC orbits (n=7, {len(fn())} orbits)", fn, fn


def bench_checkpoint_verify(repeat: int):
    """The stored codes of the n=5 d=2 `all` sweep, verified as a resume
    verifies its checkpoint."""
    records = run_search(SearchJob(n=5, d=2, graph_source="all")).records
    masks = [r.raw_mask for r in records]
    codes = [list(r.code) for r in records]
    errors = error_set(5, 2)
    fn = lambda: first_failing_code(masks, codes, errors)
    return f"checkpoint verify (n=5 d=2 all, {len(masks)} records)", fn, fn


def bench_checkpoint_verify_n7(repeat: int):
    """The stored codes (K 1 to 2) of the first 4,096 raw masks at n=7 d=3,
    verified as one chunk: nearly every graph has zero patterns, 22,784 in
    all, and the word pairs are few."""
    n = 7
    errors = error_set(n, 3)
    masks = list(range(4096))
    codes = []
    for lo in range(0, len(masks), BUILD_CHUNK):
        table = rows_table(n, masks[lo : lo + BUILD_CHUNK])
        codes += [tuple([cg.words[i] for i in max_clique(cg).clique.members])
                  for cg in clique_graphs(n, *setup_table(errors, table))]
    fn = lambda: first_failing_code(masks, codes, errors)
    return f"checkpoint verify (n=7 d=3, {len(masks)} degenerate records)", fn, fn


def bench_checkpoint_load(repeat: int):
    """The complete checkpoint of the n=5 d=2 `all` sweep, loaded as a
    resume loads it: every line decoded, then every stored code verified."""
    job = SearchJob(n=5, d=2, graph_source="all")
    tmp = tempfile.TemporaryDirectory()  # removed once `fn` is collected
    run_search(job, checkpoint=Path(tmp.name) / "sweep5.ckpt")

    def fn():
        return _load_checkpoint(Path(tmp.name) / "sweep5.ckpt", job)

    return f"checkpoint load (n=5 d=2 all, {len(fn())} records)", fn, fn


def bench_resume_witness(repeat: int):
    """The resume of the complete ring9 d=3 `file` checkpoint: one record
    replayed, its code verified, and the witness refined from it."""
    tmp = tempfile.TemporaryDirectory()  # removed once `fn` is collected
    gf = Path(tmp.name) / "ring9.txt"
    gf.write_text(write_graph_file(Graph.ring(9)))
    job = SearchJob(n=9, d=3, graph_source="file", graph_file=str(gf))
    run_search(job, checkpoint=Path(tmp.name) / "ring9.ckpt")

    def fn():
        return run_search(job, checkpoint=Path(tmp.name) / "ring9.ckpt")

    return "resume witness (ring9 d=3 file, complete checkpoint)", fn, fn


def bench_record_path(repeat: int):
    """The per-record path of the n=5 d=2 `all` sweep with a checkpoint:
    `_process_mask` (solve and record), `checkpoint_line` and `_append`
    into a temporary file, over the sweep's 1,024 clique graphs, built
    beforehand."""
    n = 5
    job = SearchJob(n=n, d=2, graph_source="all")
    masks = list(range(1 << edge_count(n)))
    canon = class_table(n)[0][masks].tolist()
    errors = error_set(n, 2)
    graphs = []
    for lo in range(0, len(masks), BUILD_CHUNK):
        table = rows_table(n, masks[lo : lo + BUILD_CHUNK])
        graphs += clique_graphs(n, *setup_table(errors, table))
    tmp = tempfile.TemporaryDirectory()  # removed once `fn` is collected

    def fn():
        cwskit.search._W["job"] = job  # the job `_process_mask` reads
        with open(Path(tmp.name) / "sweep5.ckpt", "wb", buffering=0) as f:
            for mask, c, cg in zip(masks, canon, graphs):
                _append(f, _process_mask(mask, c, cg)[1].checkpoint_line())

    return f"record path (n=5 d=2 all, {len(graphs)} prebuilt graphs)", fn, fn


# The cases `main` times, in order.
BENCHES = [
    bench_cl_patterns,
    bench_graph_signs,
    bench_clique_adjacency,
    bench_clique_graphs,
    bench_triple_counts,
    bench_bnb,
    bench_bnb_ring10,
    bench_bnb_ring11,
    bench_bnb_ring9,
    bench_canon,
    bench_lc_orbits,
    bench_checkpoint_verify,
    bench_checkpoint_verify_n7,
    bench_checkpoint_load,
    bench_resume_witness,
    bench_record_path,
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    print(f"{'kernel':<55} {'time':>10}")
    for bench in BENCHES:
        name, fn, _ = bench(args.repeat)
        t = timeit(fn, args.repeat)
        line = f"{name:<55} {t * 1e3:>8.2f}ms"
        if bench in (bench_bnb, bench_bnb_ring10, bench_bnb_ring11, bench_bnb_ring9):
            nodes = fn()[2]
            line += f" {nodes / t / 1e3:>7.0f}k nodes/s"
        print(line)


if __name__ == "__main__":
    main()
