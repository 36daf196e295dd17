"""Traced mirror of `cwskit.search.run_search` for the per-layer run.

`traced_search` drives the same pipeline as a single-process, exact-mode
`run_search` by calling each layer's public functions, and wraps every call
in a span named after its layer.  It returns a real `SearchResult`, so the
benchmark can require it to equal `run_search`'s output for the same job.
Nothing here is timed by the end-to-end run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from cwskit.clique import find_clique_of_size, make_cws_clique_graph, max_clique
from cwskit.errormap import error_set, setup
from cwskit.gf2 import ClassicalCode
from cwskit.graphs import (
    Graph,
    canonical_form,
    edge_count,
    isomorphism_classes,
    parse_graph_file,
)
from cwskit.search import GraphRecord, SearchJob, SearchResult
from cwskit.verify import CWSCode, detection_check

from spans import Tracer


@dataclass
class SearchCounts:
    """Exact counts of one traced search; they must repeat run after run."""

    classes: int = 0
    class_size_sum: int = 0
    orbit_images: int = 0  # classes x n!: permutation images computed
    m: list[int] = field(default_factory=list)
    nodes: dict[int, int] = field(default_factory=dict)  # raw mask -> B&B nodes
    checkpoint_bytes: int = 0


def traced_search(
    job: SearchJob, checkpoint: Path | None, tr: Tracer
) -> tuple[SearchResult, SearchCounts]:
    if job.exactness != "exact" or job.graph_source == "lc":
        raise ValueError("the traced mirror covers exact all/iso/file searches")
    counts = SearchCounts()
    n = job.n
    with tr.span("search.run"):
        if job.graph_source == "file":
            with tr.span("graphs.graph_build"):
                g = parse_graph_file(Path(job.graph_file).read_text())
            masks = [g.mask()]
        elif job.graph_source == "all":
            masks = list(range(1 << edge_count(n)))
        else:
            with tr.span("graphs.iso_classes"):
                classes = list(isomorphism_classes(n))
            masks = [g.mask() for g, _size in classes]
            counts.classes = len(classes)
            counts.class_size_sum = sum(size for _g, size in classes)
            counts.orbit_images = len(classes) * math.factorial(n)

        done: dict[int, dict] = {}
        if checkpoint:
            with tr.span("search.checkpoint_load"):
                done = _load_checkpoint(checkpoint, job, tr, counts)
        pending = [m for m in masks if m not in done]

        handle = None
        if checkpoint:
            with tr.span("search.checkpoint_write"):
                fresh = not checkpoint.exists() or not checkpoint.read_text().strip()
                handle = open(checkpoint, "a")
                if fresh:
                    head = json.dumps({"job": job.fingerprint()}) + "\n"
                    handle.write(head)
                    handle.flush()
                    counts.checkpoint_bytes += len(head)

        errors = error_set(n, job.d)
        canonical_input = job.graph_source == "iso"
        outcomes = list(done.values())
        try:
            for mask in pending:
                with tr.span("graphs.graph_build"):
                    g = Graph.from_mask(n, mask)
                if canonical_input:
                    canon = mask
                else:
                    with tr.span("graphs.canonical_form"):
                        canon = canonical_form(g).mask
                with tr.span("errormap.setup"):
                    arrays = setup(errors, g)
                with tr.span("clique.build"):
                    cg = make_cws_clique_graph(arrays)
                code = None
                with tr.span("clique.solve"):
                    if job.target_k is None:
                        res = max_clique(cg, job.budget)
                        best_k = res.clique.size
                        status = "exact" if res.exact else "bound"
                        code = [int(cg.vertices[i]) for i in res.clique.members]
                    else:
                        res = find_clique_of_size(cg, job.target_k, job.budget)
                        if res.found:
                            best_k, status = job.target_k, "exact"
                            code = [int(cg.vertices[i]) for i in res.clique.members]
                        else:
                            best_k = res.best_size
                            status = "exact" if res.exhausted else "bound"
                counts.m.append(cg.size)
                counts.nodes[mask] = res.nodes
                rec = {
                    "raw_mask": mask,
                    "canon_mask": canon,
                    "m": cg.size,
                    "bestK": best_k,
                    "status": status,
                    "code": code,
                }
                outcomes.append(rec)
                if handle:
                    with tr.span("search.checkpoint_write"):
                        line = json.dumps(rec) + "\n"
                        handle.write(line)
                    counts.checkpoint_bytes += len(line)
        finally:
            if handle:
                with tr.span("search.checkpoint_write"):
                    handle.close()

        records = [
            GraphRecord(
                n=n,
                canon_mask=rec["canon_mask"],
                raw_mask=rec["raw_mask"],
                m=rec["m"],
                best_k=rec["bestK"],
                status=rec["status"],
                code=tuple(rec["code"]) if rec.get("code") else None,
            )
            for rec in outcomes
        ]
        records.sort(key=GraphRecord.sort_key)
        best_k = max((r.best_k for r in records), default=0)
        witness = None
        for rec in records:
            if rec.best_k == best_k and rec.code is not None:
                with tr.span("graphs.graph_build"):
                    wg = Graph.from_mask(n, rec.raw_mask)
                witness = CWSCode(wg, ClassicalCode.from_ints(n, sorted(rec.code)))
                break
    result = SearchResult(job, records, best_k, witness, len(masks), 0.0)
    return result, counts


def _load_checkpoint(path: Path, job: SearchJob, tr: Tracer, counts: SearchCounts) -> dict[int, dict]:
    done: dict[int, dict] = {}
    if not path.exists() or not path.read_text().strip():
        return done
    text = path.read_text()
    counts.checkpoint_bytes += len(text)
    lines = text.splitlines()
    if json.loads(lines[0]).get("job") != job.fingerprint():
        raise ValueError("checkpoint belongs to a different job")
    errors = error_set(job.n, job.d)
    for ln in lines[1:]:
        ln = ln.strip()
        if not ln:
            continue
        rec = json.loads(ln)
        if rec.get("code"):
            with tr.span("graphs.graph_build"):
                g = Graph.from_mask(job.n, rec["raw_mask"])
            q = CWSCode(g, ClassicalCode.from_ints(job.n, sorted(rec["code"])))
            with tr.span("verify.detection_check"):
                detects = detection_check(q, errors).detects
            if not detects:
                raise ValueError("checkpoint contains a code that fails verification")
        done[rec["raw_mask"]] = rec
    return done


def plain_exhaustive_nodes(result: SearchResult, counts: SearchCounts) -> tuple[int, int]:
    """(plain nodes, solver nodes) over the exactly solved graphs of a search.

    Plain nodes are those of one exhaustive `find_clique_of_size(cg, m+1)`,
    a bare branch and bound with no stopping size and no refinement."""
    job = result.job
    errors = error_set(job.n, job.d)
    plain = solver = 0
    for rec in result.records:
        used = counts.nodes.get(rec.raw_mask, 0)
        if rec.status != "exact" or used == 0:
            continue
        cg = make_cws_clique_graph(setup(errors, Graph.from_mask(job.n, rec.raw_mask)))
        res = find_clique_of_size(cg, cg.size + 1, job.budget)
        if res.exhausted:
            plain += res.nodes
            solver += used
    return plain, solver
