"""The benchmark's workloads: which searches each one runs, why, and what
their outputs must be.

Every search runs single-process (worker_count=1), one at a time, each
started after the previous one returned (a closed loop with one client).
Only `solve10` depends on the seed: it adds random n=10 graphs to two fixed
rings.  The other workloads ignore the seed.

The workloads are scaled so that one search takes well under a second and a
run of a few seconds holds many of them; each still has the layer mix it
exists for (see WHY).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from cwskit.graphs import Graph, edge_count, mask_hex, write_graph_file
from cwskit.search import SearchJob, run_search

SOLVE_BUDGET = 10_000  # B&B nodes per solve10 instance
SOLVE_RANDOM = 8  # random n=10 graphs per solve10 pass
SOLVE_D = 3

WHY = {
    "absence6": "((6,3,3)) absence over isomorphism classes: the graph-class layer is most of the time",
    "sweep5": "exhaustive n=5 d=2 sweep with a checkpoint: per-graph canonical labels, setup, clique build and solve",
    "solve10": "single-graph n=9/10 d=3 max-clique solves at a fixed node budget: branch-and-bound dominates",
    "resume5": "sweep5 rerun against its complete checkpoint: checkpoint reads and verification, no solving",
}


@dataclass(frozen=True)
class Expect:
    """What a search must return.  None means "not checked"."""

    exit_codes: frozenset[int]
    records: int | None = None
    best_k: int | None = None
    digest: str | None = None  # sha256 of render_result


@dataclass(frozen=True)
class Search:
    label: str
    job: SearchJob
    expect: Expect
    checkpoint: Path | None = None
    fresh_checkpoint: bool = False  # remove the checkpoint before each call


SWEEP5_DIGEST = "298c65cf196854e43906449b5a71d8cbb253eebf8bb96ca6187bd8f37a5dba14"
ABSENCE6_DIGEST = "a3615d5d20e0706d8179234246fac9812bc2cb73370fee62688c46d9c462fe48"
RING9_DIGEST = "d14ac8df8979abd788f22c268a9f4ca342efe39a6382a14dee9b29616f16f943"


def _sweep5_job() -> SearchJob:
    return SearchJob(n=5, d=2, graph_source="all")


def _sweep5_expect() -> Expect:
    return Expect(frozenset({0}), records=1024, best_k=6, digest=SWEEP5_DIGEST)


def _has_twins(g: Graph) -> bool:
    """Two vertices with the same neighbours apart from each other."""
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.rows[i] & ~(1 << j) == g.rows[j] & ~(1 << i):
                return True
    return False


def solve_graphs(seed: int) -> list[tuple[str, Graph]]:
    """Ring9, ring10, then SOLVE_RANDOM uniform n=10 graphs with minimum
    degree 3 and no twin vertices, drawn from the seed.

    Twins or low-degree vertices make the code degenerate and collapse the
    clique graph (K drops to 4-10 with m < 300), which would make
    best_k_sum depend on the seed rather than on the solver."""
    out = [("ring9", Graph.ring(9)), ("ring10", Graph.ring(10))]
    rng = random.Random(seed)
    while len(out) < 2 + SOLVE_RANDOM:
        g = Graph.from_mask(10, rng.randrange(1 << edge_count(10)))
        if min(r.bit_count() for r in g.rows) >= 3 and not _has_twins(g):
            out.append((f"random{len(out) - 2}_{mask_hex(10, g.mask())}", g))
    return out


def build(name: str, seed: int, work: Path) -> list[Search]:
    """The searches of one pass of workload `name`.  Writes the inputs they
    need under `work`; for resume5 that includes the complete checkpoint,
    produced here, untimed, by the code under test."""
    if name == "absence6":
        job = SearchJob(n=6, d=3, target_k=3, graph_source="iso")
        expect = Expect(frozenset({3}), records=156, best_k=2, digest=ABSENCE6_DIGEST)
        return [Search("absence6", job, expect)]
    if name == "sweep5":
        return [
            Search("sweep5", _sweep5_job(), _sweep5_expect(), work / "sweep5.ckpt", True)
        ]
    if name == "resume5":
        ckpt = work / "resume5.ckpt"
        ckpt.unlink(missing_ok=True)
        run_search(_sweep5_job(), checkpoint=ckpt)
        return [Search("resume5", _sweep5_job(), _sweep5_expect(), ckpt)]
    if name == "solve10":
        searches = []
        for label, g in solve_graphs(seed):
            path = work / f"{label}.graph"
            path.write_text(write_graph_file(g))
            job = SearchJob(
                n=g.n,
                d=SOLVE_D,
                graph_source="file",
                graph_file=str(path),
                budget=SOLVE_BUDGET,
            )
            if label == "ring9":
                # exact (exit 0) at K=12 within the budget
                expect = Expect(frozenset({0}), records=1, best_k=12, digest=RING9_DIGEST)
            else:
                expect = Expect(frozenset({0, 4}), records=1)
            searches.append(Search(label, job, expect))
        return searches
    raise ValueError(f"unknown workload {name!r}")
