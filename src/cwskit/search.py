"""Search orchestration: stream graphs, solve per-graph clique instances on a
worker pool, persist deterministic results, and support checkpoint/resume.

Workers pull raw graph ids (edge masks) and process them independently; the
collector sorts records by canonical id so output never depends on
completion order or worker count.  Absence of a target dimension is only
concluded from an exact, fully exhausted run over a class-covering source.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .clique import (
    find_clique_of_size,
    heuristic_clique,
    make_cws_clique_graph,
    max_clique,
)
from .errormap import error_set, setup
from .gf2 import ClassicalCode
from .graphs import (
    MAX_TABLE_N,
    Graph,
    canonical_form,
    class_table,
    edge_count,
    isomorphism_classes,
    lc_orbit_representatives,
    mask_hex,
    parse_graph_file,
)
from .verify import CWSCode, detection_check

COVERING_SOURCES = {"all", "iso", "lc"}

EXIT_FOUND = 0
EXIT_ABSENT = 3
EXIT_INCONCLUSIVE = 4


class SearchAborted(RuntimeError):
    """A worker failed; partial results are not a conclusion."""


@dataclass(frozen=True)
class SearchJob:
    n: int
    d: int
    target_k: int | None = None
    graph_source: str = "all"  # all | iso | lc | file
    graph_file: str | None = None
    exactness: str = "exact"  # exact | heuristic
    worker_count: int = 1
    seed: int = 0
    budget: int = -1

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 1 <= self.d <= self.n + 1:
            raise ValueError(f"distance must be in 1..{self.n + 1}, got {self.d}")
        if self.graph_source not in COVERING_SOURCES | {"file"}:
            raise ValueError(f"unknown graph source {self.graph_source!r}")
        if self.graph_source == "file" and not self.graph_file:
            raise ValueError("file source needs a graph file")
        if self.exactness not in {"exact", "heuristic"}:
            raise ValueError(f"unknown exactness {self.exactness!r}")
        if self.target_k is not None and self.target_k < 1:
            raise ValueError("target K must be positive")

    def fingerprint(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "target_k": self.target_k,
            "graph_source": self.graph_source,
            "graph_file": self.graph_file,
            "exactness": self.exactness,
            "seed": self.seed,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class GraphRecord:
    n: int
    canon_mask: int
    raw_mask: int
    m: int
    best_k: int
    status: str  # exact | bound
    code: tuple[int, ...] | None

    def line(self) -> str:
        return (
            f"graph={mask_hex(self.n, self.canon_mask)} "
            f"cliquegraph_vertices={self.m} bestK={self.best_k} status={self.status}"
        )

    def sort_key(self) -> tuple[int, int]:
        return (self.canon_mask, self.raw_mask)


@dataclass
class SearchResult:
    job: SearchJob
    records: list[GraphRecord]
    summary_best_k: int
    witness: CWSCode | None
    total_graphs: int
    elapsed: float

    @property
    def exit_code(self) -> int:
        job = self.job
        found = job.target_k is not None and self.summary_best_k >= job.target_k
        if job.target_k is None:
            if job.exactness == "heuristic":
                return EXIT_FOUND
            all_exact = all(r.status == "exact" for r in self.records)
            return EXIT_FOUND if all_exact else EXIT_INCONCLUSIVE
        if found:
            return EXIT_FOUND
        absence_proven = (
            job.exactness == "exact"
            and job.graph_source in COVERING_SOURCES
            and all(r.status == "exact" for r in self.records)
        )
        return EXIT_ABSENT if absence_proven else EXIT_INCONCLUSIVE

    @property
    def conclusive(self) -> bool:
        return self.exit_code in (EXIT_FOUND, EXIT_ABSENT)


# ---------------------------------------------------------------------------
# per-worker state and graph processing

_W: dict = {}


def _init_worker(job: SearchJob) -> None:
    _W["job"] = job
    _W["errors"] = error_set(job.n, job.d)
    _W["canon"] = None


def _canon_mask(mask: int, g: Graph) -> int:
    """Canonical id of a pending graph: iso/lc masks already are one, `all`
    looks it up in a class table built on first use, `file` runs the DFS."""
    source = _W["job"].graph_source
    if source in {"iso", "lc"}:
        return mask
    if source == "all" and g.n <= MAX_TABLE_N:
        if _W["canon"] is None:
            _W["canon"], _classes = class_table(g.n)
        return int(_W["canon"][mask])
    return canonical_form(g).mask


def _process_mask(mask: int) -> dict:
    job: SearchJob = _W["job"]
    g = Graph.from_mask(job.n, mask)
    canon = _canon_mask(mask, g)
    cg = make_cws_clique_graph(setup(_W["errors"], g))
    target_k = job.target_k
    code: tuple[int, ...] | None = None

    if job.exactness == "heuristic":
        seed = (job.seed * 1000003 + mask) & 0x7FFFFFFF
        clique = heuristic_clique(cg, seed)
        best_k, status = clique.size, "bound"
        code = tuple(int(cg.vertices[i]) for i in clique.members)
    elif target_k is None:
        res = max_clique(cg, job.budget)
        best_k = res.clique.size
        status = "exact" if res.exact else "bound"
        code = tuple(int(cg.vertices[i]) for i in res.clique.members)
    else:
        res = find_clique_of_size(cg, target_k, job.budget)
        if res.found:
            best_k, status = target_k, "exact"
            code = tuple(int(cg.vertices[i]) for i in res.clique.members)
        else:
            best_k = res.best_size
            status = "exact" if res.exhausted else "bound"

    return {
        "raw_mask": mask,
        "canon_mask": canon,
        "m": cg.size,
        "bestK": best_k,
        "status": status,
        "code": list(code) if code is not None else None,
    }


def _record_from(n: int, rec: dict) -> GraphRecord:
    return GraphRecord(
        n=n,
        canon_mask=rec["canon_mask"],
        raw_mask=rec["raw_mask"],
        m=rec["m"],
        best_k=rec["bestK"],
        status=rec["status"],
        code=tuple(rec["code"]) if rec.get("code") else None,
    )


# ---------------------------------------------------------------------------

def _graph_masks(job: SearchJob) -> list[int]:
    if job.graph_source == "file":
        g = parse_graph_file(Path(job.graph_file).read_text())
        if g.n != job.n:
            raise ValueError("graph file does not match the job's n")
        return [g.mask()]
    if job.graph_source == "all":
        if job.n > 8:
            raise ValueError("exhaustive graph source supports n <= 8")
        return list(range(1 << edge_count(job.n)))
    if job.graph_source == "iso":
        return [g.mask() for g, _size in isomorphism_classes(job.n)]
    return [g.mask() for g in lc_orbit_representatives(job.n)]


def _load_checkpoint(path: Path, job: SearchJob) -> dict[int, dict]:
    """Replay completed records; every stored code must re-verify.

    An interrupted run can leave a torn last line.  Once every complete
    line has been replayed, everything after the final newline is cut from
    the file (all of it when no complete header line exists), so that the
    next append starts a line of its own.  A complete line that does not
    decode is corruption, not a torn tail, and raises."""
    done: dict[int, dict] = {}
    data = path.read_bytes() if path.exists() else b""
    keep = data.rfind(b"\n") + 1
    lines = data[:keep].decode().splitlines()
    if not any(ln.strip() for ln in lines):
        keep, lines = 0, []
    elif json.loads(lines[0]).get("job") != job.fingerprint():
        raise ValueError("checkpoint belongs to a different job")
    errors = error_set(job.n, job.d)
    for lineno, ln in enumerate(lines[1:], start=2):
        ln = ln.strip()
        if not ln:
            continue
        try:
            rec = json.loads(ln)
        except json.JSONDecodeError as exc:
            raise ValueError(f"checkpoint line {lineno} cannot be decoded") from exc
        if rec.get("code"):
            g = Graph.from_mask(job.n, rec["raw_mask"])
            q = CWSCode(g, ClassicalCode.from_ints(job.n, sorted(rec["code"])))
            if not detection_check(q, errors).detects:
                raise ValueError("checkpoint contains a code that fails verification")
        done[rec["raw_mask"]] = rec
    if keep < len(data):
        os.truncate(path, keep)
    return done


def run_search(
    job: SearchJob,
    checkpoint: Path | None = None,
    progress: bool = False,
) -> SearchResult:
    start = time.monotonic()
    masks = _graph_masks(job)
    done = _load_checkpoint(checkpoint, job) if checkpoint else {}
    pending = [m for m in masks if m not in done]

    ck_handle = None
    if checkpoint:
        ck_handle = open(checkpoint, "a", buffering=1)  # line-buffered: no lost records
        if ck_handle.tell() == 0:
            ck_handle.write(json.dumps({"job": job.fingerprint()}) + "\n")

    # a checkpoint may hold graphs outside this job's list; replay only ours
    outcomes: list[dict] = [done[m] for m in masks if m in done]

    def consume(stream) -> None:
        for idx, rec in enumerate(stream):
            outcomes.append(rec)
            if ck_handle:
                ck_handle.write(json.dumps(rec) + "\n")
            if progress and (idx + 1) % 5000 == 0:
                print(f"processed {idx + 1}/{len(pending)}", file=sys.stderr)

    try:
        if job.worker_count <= 1 or len(pending) <= 1:
            _init_worker(job)
            consume(map(_process_mask, pending))
        else:
            ctx = mp.get_context("fork")
            chunk = max(1, min(1024, len(pending) // (job.worker_count * 16)))
            with ctx.Pool(
                job.worker_count,
                initializer=_init_worker,
                initargs=(job,),
            ) as pool:
                consume(pool.imap_unordered(_process_mask, pending, chunksize=chunk))
    except Exception as exc:
        if ck_handle:
            ck_handle.close()
        raise SearchAborted(f"worker failure: {exc}") from exc
    if ck_handle:
        ck_handle.close()

    records = [_record_from(job.n, rec) for rec in outcomes]
    records.sort(key=GraphRecord.sort_key)

    best_k = max((r.best_k for r in records), default=0)
    witness = None
    for rec in records:
        if rec.best_k == best_k and rec.code is not None:
            witness = CWSCode(
                Graph.from_mask(job.n, rec.raw_mask),
                ClassicalCode.from_ints(job.n, sorted(rec.code)),
            )
            break

    return SearchResult(
        job=job,
        records=records,
        summary_best_k=best_k,
        witness=witness,
        total_graphs=len(masks),
        elapsed=time.monotonic() - start,
    )


def render_result(result: SearchResult) -> str:
    lines = [
        f"n={result.job.n}",
        f"d={result.job.d}",
        f"mode={result.job.graph_source}",
    ]
    lines.extend(r.line() for r in result.records)
    lines.append(f"summary_bestK={result.summary_best_k}")
    return "\n".join(lines) + "\n"


def write_result_file(path: Path, result: SearchResult) -> None:
    path.write_text(render_result(result))
