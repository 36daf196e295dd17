"""Search orchestration: stream graphs, solve per-graph clique instances on a
worker pool, persist deterministic results, and support checkpoint/resume.

Workers take slices of the raw graph ids (edge masks) and deliver records
in graph order, so the checkpoint of a pool run is that of a serial run; the
result sorts them by canonical id.  Absence of a target dimension is only
concluded from an exact, fully exhausted run over a class-covering source.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing as mp
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .clique import (
    Clique,
    CliqueGraph,
    CliqueSearchResult,
    clique_graphs,
    find_clique_of_size,
    lex_min_clique,
    make_cws_clique_graph,
    max_clique,
)
from .errormap import error_set, setup, setup_table
from .gf2 import ClassicalCode
from .graphs import (
    MAX_CANONICAL_N,
    MAX_TABLE_N,
    Graph,
    canonical_form,
    class_table,
    edge_count,
    isomorphism_class_minima,
    lc_orbit_masks,
    mask_hex,
    parse_graph_file,
    rows_table,
)
from .verify import CWSCode, first_failing_code

COVERING_SOURCES = {"all", "iso", "lc"}

EXIT_FOUND = 0
EXIT_ABSENT = 3
EXIT_INCONCLUSIVE = 4

PROGRESS_EVERY = 5000  # --progress prints a line per this many solved graphs


class SearchAborted(RuntimeError):
    """A worker failed; partial results are not a conclusion."""


@dataclass(frozen=True)
class SearchJob:
    n: int
    d: int
    target_k: int | None = None
    graph_source: str = "all"  # all | iso | lc | file
    graph_file: str | None = None
    worker_count: int = 1
    budget: int = -1
    # not a field, so nothing sets it; only perfbench/pipeline.py reads it,
    # and ROADMAP item 1b, which deletes that file, deletes this too
    exactness = "exact"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 1 <= self.d <= self.n + 1:
            raise ValueError(f"distance must be in 1..{self.n + 1}, got {self.d}")
        if self.graph_source not in COVERING_SOURCES | {"file"}:
            raise ValueError(f"unknown graph source {self.graph_source!r}")
        if self.graph_source == "file" and not self.graph_file:
            raise ValueError("file source needs a graph file")
        if self.graph_file is not None and self.graph_source != "file":
            raise ValueError("a graph file needs the file graph source")
        if self.target_k is not None and self.target_k < 1:
            raise ValueError("target K must be positive")
        if self.worker_count < 1:
            raise ValueError(f"worker count must be positive, got {self.worker_count}")
        if self.budget < -1:
            raise ValueError(f"budget must be -1 (unlimited) or at least 0, got {self.budget}")

    def fingerprint(self) -> dict:
        """The checkpoint header: every field but worker_count, which cannot
        change the result, and in their old places the keys "exactness" and
        "seed", fixed at "exact" and 0.  Exact checkpoints from before the
        heuristic solver was removed still resume, and a heuristic run's
        checkpoint is refused."""
        return {
            "n": self.n, "d": self.d, "target_k": self.target_k,
            "graph_source": self.graph_source, "graph_file": self.graph_file,
            "exactness": "exact", "seed": 0, "budget": self.budget,
        }


class GraphRecord(NamedTuple):
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

    def checkpoint_line(self) -> str:
        """The record as one JSON checkpoint line, without its newline: the
        bytes `json.dumps` gives for the dict of keys raw_mask, canon_mask,
        m, bestK, status and code (a list, or null), formatted directly."""
        code = "null" if self.code is None else f"[{', '.join(map(str, self.code))}]"
        return (
            f'{{"raw_mask": {self.raw_mask}, "canon_mask": {self.canon_mask}, '
            f'"m": {self.m}, "bestK": {self.best_k}, "status": "{self.status}", '
            f'"code": {code}}}'
        )


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
        if self.inconclusive_reason is not None:
            return EXIT_INCONCLUSIVE
        job = self.job
        if job.target_k is None or self.summary_best_k >= job.target_k:
            return EXIT_FOUND
        return EXIT_ABSENT

    @property
    def inconclusive_reason(self) -> str | None:
        """Why the run is inconclusive (exit 4), or None when it is not.

        A run that found its target is never inconclusive.  Absence of a
        target is proven only over a covering source, and any run needs
        every record exact."""
        job = self.job
        if job.target_k is not None:
            if self.summary_best_k >= job.target_k:
                return None
            if job.graph_source not in COVERING_SOURCES:
                return f"--graphs {job.graph_source} does not cover every graph class"
        bound = sum(r.status == "bound" for r in self.records)
        if bound:
            return (
                f"{bound} of {self.total_graphs} graphs budget-bound"
                f" at --budget {job.budget}"
            )
        return None


# ---------------------------------------------------------------------------
# per-search state and graph processing

# Pending graphs whose CL/D arrays and clique graphs are built together, in a
# few NumPy calls; each graph is then solved on its own.
BUILD_CHUNK = 256

# The job, its error set and, for `all`, the class table: filled once per
# search by `run_search` before the pool forks, so workers inherit them.
_W: dict = {}


def _canon_masks(masks: list[int]) -> list[int]:
    """Canonical ids of pending graphs: iso/lc masks already are one, `all`
    looks them up in the class table, `file` runs the DFS."""
    job: SearchJob = _W["job"]
    if job.graph_source in {"iso", "lc"}:
        return masks
    if job.graph_source == "all":
        return _W["canon"][masks].tolist()
    return [canonical_form(Graph.from_mask(job.n, mask)).mask for mask in masks]


def _processed(masks: list[int]) -> Iterator[tuple[int, GraphRecord]]:
    """`_process_mask` of each graph, in order, built BUILD_CHUNK at a time.

    A graph is solved only when the iterator reaches it, and its clique
    graph is dropped before the next one is solved."""
    n = _W["job"].n
    for lo in range(0, len(masks), BUILD_CHUNK):
        chunk = masks[lo : lo + BUILD_CHUNK]
        graphs = clique_graphs(n, *setup_table(_W["errors"], rows_table(n, chunk)))
        for mask, canon, cg in zip(chunk, _canon_masks(chunk), graphs):
            yield _process_mask(mask, canon, cg)


def _process_chunk(masks: list[int]) -> list[tuple[int, GraphRecord]]:
    """A worker's task: `_processed` of a slice of the pending graphs."""
    return list(_processed(masks))


def _process_mask(mask: int, canon: int, cg: CliqueGraph) -> tuple[int, GraphRecord]:
    """(B&B nodes, record) of one graph; the nodes never reach the checkpoint."""
    job: SearchJob = _W["job"]
    target_k = job.target_k
    code: tuple[int, ...] | None = None

    if target_k is None:
        res = max_clique(cg, job.budget)
        best_k, nodes = res.clique.size, res.nodes
        status = "exact" if res.exact else "bound"
        code = cg.codewords(res.clique)
    else:
        res = find_clique_of_size(cg, target_k, job.budget)
        nodes = res.nodes
        if res.found:
            best_k, status = target_k, "exact"
            code = cg.codewords(res.clique)
        else:
            best_k = res.best_size
            status = "exact" if res.exhausted else "bound"

    return nodes, GraphRecord(
        n=job.n, canon_mask=canon, raw_mask=mask, m=cg.size,
        best_k=best_k, status=status, code=code,
    )


def _witness(job: SearchJob, rec: GraphRecord, nodes: int | None) -> CWSCode:
    """The reported code of the witness record.

    Records carry the solver's first maximum clique.  For an exactly solved
    max-clique record the witness is the lexicographically smallest one,
    refined here once per search instead of once per graph, from the
    record's code.  Under a finite budget the solve's nodes bound the
    refining, so a record replayed from a checkpoint (`nodes` None) is
    solved again first; the solve is deterministic, so the budget left is
    the same.  Under an unlimited budget the nodes are never read, and the
    refining starts from the stored code."""
    g = Graph.from_mask(job.n, rec.raw_mask)
    words = sorted(rec.code)
    if job.target_k is None and rec.status == "exact":
        cg = make_cws_clique_graph(setup(error_set(job.n, job.d), g))
        if nodes is None and job.budget >= 0:
            res = max_clique(cg, job.budget)
        else:
            members = tuple(int(i) for i in cg.vertices.searchsorted(words))
            res = CliqueSearchResult(Clique(members), True, nodes or 0)
        res = lex_min_clique(cg, res, job.budget)
        words = cg.codewords(res.clique)
    return CWSCode(g, ClassicalCode.from_ints(job.n, words))


# ---------------------------------------------------------------------------

def _graph_masks(job: SearchJob) -> list[int]:
    if job.graph_source == "file":
        if job.n > MAX_CANONICAL_N:
            raise ValueError(f"file graph source supports n <= {MAX_CANONICAL_N}")
        g = parse_graph_file(Path(job.graph_file).read_text())
        if g.n != job.n:
            raise ValueError("graph file does not match the job's n")
        return [g.mask()]
    if job.graph_source == "all":
        if job.n > MAX_TABLE_N:
            raise ValueError(f"exhaustive graph source supports n <= {MAX_TABLE_N}")
        return list(range(1 << edge_count(job.n)))
    if job.graph_source == "iso":
        return list(isomorphism_class_minima(job.n))
    return [masks[0] for masks in lc_orbit_masks(job.n)]


def _is_record(obj: dict) -> bool:
    """Whether `obj` holds the fields of a `GraphRecord`, typed as a search
    writes them: int masks, m and bestK (never bools), a known status, and a
    code that is absent, null or a list of ints.  A search stores a code of
    exactly bestK words, so a non-empty code of another length is refused."""
    if not (
        type(obj.get("raw_mask")) is int
        and type(obj.get("canon_mask")) is int
        and type(obj.get("m")) is int
        and type(obj.get("bestK")) is int
        and obj.get("status") in ("exact", "bound")
    ):
        return False
    code = obj.get("code")
    if code is None:
        return True
    if type(code) is not list:
        return False
    for c in code:
        if type(c) is not int:
            return False
    return not code or len(code) == obj["bestK"]


_DECODER = json.JSONDecoder()  # json.loads's settings, built once


def _decode_line(text: str):
    """`json.loads(text)` for a line that ends in a newline.

    The line a search writes is one JSON value and its newline; `raw_decode`
    reads that value without the whitespace scans and checks of `loads`.
    Any other line (leading or other trailing whitespace, more text, a BOM,
    no value) is left to `json.loads`, so every line gets its verdict."""
    try:
        obj, end = _DECODER.raw_decode(text)
    except json.JSONDecodeError:
        return json.loads(text)
    return obj if text[end:] == "\n" else json.loads(text)


def _checkpoint_line(ln: bytes, lineno: int) -> dict:
    """Complete checkpoint line `lineno`, decoded: the job header on line 1,
    a record on every later line."""
    try:
        obj = _decode_line(ln.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"checkpoint line {lineno} cannot be decoded") from exc
    if not isinstance(obj, dict) or not ("job" in obj if lineno == 1 else _is_record(obj)):
        what = "job header" if lineno == 1 else "record"
        raise ValueError(f"checkpoint line {lineno} is not a {what}")
    return obj


def _load_checkpoint(path: Path, job: SearchJob) -> dict[int, GraphRecord]:
    """Replay completed records by raw mask; every stored code must re-verify.

    The file is read in one pass, one line at a time, and never held whole.
    Blank lines are skipped; the job header is line 1.  The stored codes are
    verified together once every line is decoded, by
    `verify.first_failing_code`: on ints, in chunks, with no Graph or
    ClassicalCode per record.  So a line that does not decode is reported
    before a stored code that fails, wherever the two are in the file.

    An interrupted run can leave a torn last line.  Once every complete
    line has been replayed, everything after the final newline is cut from
    the file (all of it when no complete header line exists), so that the
    next append starts a line of its own.  A complete line that does not
    decode, or decodes to something other than a header or a record, is
    corruption, not a torn tail, and raises."""
    done: dict[int, GraphRecord] = {}
    coded: list[GraphRecord] = []  # records with a code, repeated masks included
    if not path.exists():
        return done
    with open(path, "r+b") as f:
        header, read = None, 0  # the decoded header, bytes of complete lines
        for lineno, ln in enumerate(f, start=1):
            if not ln.endswith(b"\n"):
                break  # the torn tail
            read += len(ln)
            if ln.isspace():
                continue
            if header is None:
                # the first non-blank line: unless it is line 1, line 1 is
                # blank, and a blank header line does not decode
                header = _checkpoint_line(ln if lineno == 1 else b"", 1)
                if header["job"] != job.fingerprint():
                    raise ValueError("checkpoint belongs to a different job")
                continue
            obj = _checkpoint_line(ln, lineno)
            code = obj.get("code")
            # a search stores no code only where it fell short of a target K,
            # so a null or empty code anywhere else would replay an unshown bestK
            if not code and (job.target_k is None or obj["bestK"] >= job.target_k):
                raise ValueError(f"checkpoint line {lineno} is not a record")
            rec = GraphRecord(
                job.n, obj["canon_mask"], obj["raw_mask"], obj["m"], obj["bestK"],
                obj["status"], tuple(code) if code else None,
            )
            if rec.code:
                coded.append(rec)
            done[rec.raw_mask] = rec
        masks, codes = [r.raw_mask for r in coded], [r.code for r in coded]
        if first_failing_code(masks, codes, error_set(job.n, job.d)) >= 0:
            raise ValueError("checkpoint contains a code that fails verification")
        keep = read if header else 0
        if keep < f.tell():
            f.truncate(keep)
    return done


def _check_replayed(job: SearchJob, records: list[GraphRecord]) -> None:
    """Refuse a replayed record of one of the job's graphs whose fields no
    search of the job writes.  It needs 1 <= bestK <= m <= 2^n, and a
    canonical id that is its raw mask (`iso` and `lc` list class minima) or,
    for `all` and `file`, a mask no larger with as many edges.  The exact
    `all`/`file` label stays trusted: checking it costs the class table or
    the DFS that a resume saves."""
    minima, top = job.graph_source in {"iso", "lc"}, 1 << job.n
    for _n, canon, raw, m, best_k, _status, _code in records:
        same = canon == raw if minima else canon.bit_count() == raw.bit_count()
        if not (same and 0 <= canon <= raw and 1 <= best_k <= m <= top):
            raise ValueError(
                f"checkpoint record of graph {mask_hex(job.n, raw)} does not fit the job"
            )


def run_search(
    job: SearchJob,
    checkpoint: Path | None = None,
    progress: bool = False,
) -> SearchResult:
    start = time.monotonic()
    masks = _graph_masks(job)
    done = _load_checkpoint(checkpoint, job) if checkpoint else {}
    pending = [m for m in masks if m not in done]
    # a checkpoint may hold graphs outside this job's list; replay only ours.
    # Solved records join them, and the list is sorted once the run ends.
    records = [done[m] for m in masks if m in done]
    _check_replayed(job, records)
    total_graphs = len(masks)
    del done, masks  # freed now, not held to the end of the run
    _W["job"] = job
    _W["errors"] = error_set(job.n, job.d)
    _W["canon"] = (
        class_table(job.n)[0] if job.graph_source == "all" and pending else None
    )

    ck_handle = None
    if checkpoint:
        ck_handle = open(checkpoint, "a", buffering=1)  # line-buffered: no lost records
        if ck_handle.tell() == 0:
            ck_handle.write(json.dumps({"job": job.fingerprint()}) + "\n")

    # the witness candidate: of the records with a code, the one with the
    # most words, then the lowest sort key; with its B&B nodes, or None for
    # a record replayed from the checkpoint
    def rank(rec: GraphRecord) -> tuple[int, int, int]:
        return (-rec.best_k, rec.canon_mask, rec.raw_mask)

    candidate = min((r for r in records if r.code is not None), key=rank, default=None)
    candidate_nodes = None

    solve_start = time.monotonic()

    def consume(stream) -> None:
        nonlocal candidate, candidate_nodes
        for idx, (nodes, rec) in enumerate(stream):
            records.append(rec)
            if rec.code is not None and (candidate is None or rank(rec) < rank(candidate)):
                candidate, candidate_nodes = rec, nodes
            if ck_handle:
                ck_handle.write(rec.checkpoint_line() + "\n")
            if progress and (idx + 1) % PROGRESS_EVERY == 0:
                rate = (idx + 1) / max(time.monotonic() - solve_start, 1e-9)
                eta = (len(pending) - idx - 1) / rate
                print(
                    f"processed {idx + 1}/{len(pending)} {rate:.0f} graphs/s eta {eta:.0f}s",
                    file=sys.stderr,
                )

    try:
        if job.worker_count <= 1 or len(pending) <= 1:
            consume(_processed(pending))
        else:
            # no more workers than graphs; --jobs is otherwise taken as asked,
            # also above the CPU count
            workers = min(job.worker_count, len(pending))
            ctx = mp.get_context("fork")
            size = max(1, min(BUILD_CHUNK, len(pending) // (workers * 16)))
            tasks = [pending[i : i + size] for i in range(0, len(pending), size)]
            with ctx.Pool(workers) as pool:
                # in task order, so records reach the checkpoint in graph order
                results = pool.imap(_process_chunk, tasks, chunksize=1)
                consume(itertools.chain.from_iterable(results))
    except Exception as exc:
        raise SearchAborted(f"worker failure: {exc}") from exc
    finally:
        if ck_handle:
            ck_handle.close()

    # the order of GraphRecord.sort_key: fields start n, canon_mask, raw_mask,
    # and raw masks are unique in a run, so no two records tie before them;
    # a key function would build a tuple per record
    records.sort()

    best_k = max((r.best_k for r in records), default=0)
    witness = None
    if candidate is not None and candidate.best_k == best_k:
        witness = _witness(job, candidate, candidate_nodes)

    return SearchResult(
        job=job,
        records=records,
        summary_best_k=best_k,
        witness=witness,
        total_graphs=total_graphs,
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
