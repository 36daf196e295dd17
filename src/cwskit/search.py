"""Search orchestration: stream graphs, solve per-graph clique instances on a
worker pool, persist deterministic results, and support checkpoint/resume.

Workers take slices of the raw graph ids (edge masks) and deliver records
in graph order, so the checkpoint of a pool run is that of a serial run; the
result sorts them by canonical id.  Absence of a target dimension is only
concluded from an exact, fully exhausted run over a class-covering source.

For a target K >= 3, a record without a code may come from the triple count
of the K = 3 structure theorem rather than the branch and bound: a graph
whose clique graph has no codewords a, b, a ^ b besides 0 has no 3-word code,
and gets the same record the exhausted branch and bound would write.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .clique import CliqueGraph, clique_graphs, lex_min_clique, make_cws_clique_graph, solve
from .errormap import error_set, setup, setup_table, triple_counts
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
    """A worker failed or a record failed a check; partial results are not a
    conclusion."""


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
        m, bestK, status and code (a list, or null), formatted directly.
        The repr of a list of Python ints is its JSON, so the code's words
        must be Python ints (a NumPy integer's repr is not)."""
        code = "null" if self.code is None else list(self.code)
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
    """(B&B nodes, record) of each graph, in order, built BUILD_CHUNK at a
    time: `_process_mask` of its clique graph, or, for a target K >= 3, the
    record of a graph with no triple a, b, a ^ b in V (`errormap.triple_counts`,
    T = 0), whose clique number is then 2, or 1 with V empty, by the K = 3
    structure theorem: no clique graph and no B&B, but the record the
    exhausted B&B writes, with 0 nodes.  At budget 0 the B&B of a non-empty
    V stops at its root and writes a bound record, so there every graph is
    solved.  A graph with T > 0 has a 3-clique, so an exact record of it with
    bestK < 3 is a branch and bound that exhausted without one: the search
    aborts rather than let it through.

    A graph is solved only when the iterator reaches it, and its clique
    graph is dropped before the next one is solved."""
    job: SearchJob = _W["job"]
    n = job.n
    decide = job.target_k is not None and job.target_k >= 3 and job.budget != 0
    for lo in range(0, len(masks), BUILD_CHUNK):
        chunk = masks[lo : lo + BUILD_CHUNK]
        cl, d = setup_table(_W["errors"], rows_table(n, chunk))
        if decide:
            triples, sizes = triple_counts(cl, d)
        else:  # every graph goes to the B&B, and no size is read
            triples = sizes = np.ones(len(chunk), np.int64)
        solved = triples > 0
        graphs = clique_graphs(n, cl[solved], d[solved])
        for mask, canon, solve_it, v_size in zip(
            chunk, _canon_masks(chunk), solved.tolist(), sizes.tolist()
        ):
            if solve_it:
                nodes, rec = _process_mask(mask, canon, next(graphs))
                if decide and rec.status == "exact" and rec.best_k < 3:
                    raise SearchAborted(
                        f"graph {mask_hex(n, mask)}: the triple count finds a 3-clique"
                        " that the branch and bound did not"
                    )
                yield nodes, rec
            else:
                m = v_size + 1
                yield 0, GraphRecord(n, canon, mask, m, min(m, 2), "exact", None)


def _process_chunk(masks: list[int]) -> list[tuple[int, GraphRecord]]:
    """A worker's task: `_processed` of a slice of the pending graphs."""
    return list(_processed(masks))


def _process_mask(mask: int, canon: int, cg: CliqueGraph) -> tuple[int, GraphRecord]:
    """(B&B nodes, record) of one graph; the nodes never reach the checkpoint."""
    job: SearchJob = _W["job"]
    best_k, members, nodes, exhausted = solve(cg, job.target_k, job.budget)
    if members is None:
        code, status = None, "exact" if exhausted else "bound"
    else:  # a found target K is exact, however early its search stopped
        words = cg.words
        code = tuple([words[i] for i in members])
        status = "exact" if exhausted or job.target_k is not None else "bound"
    return nodes, GraphRecord(job.n, canon, mask, cg.size, best_k, status, code)


def _witness(job: SearchJob, rec: GraphRecord, nodes: int | None) -> CWSCode:
    """The reported code of the witness record.

    Records carry the solver's first maximum clique.  For an exactly solved
    max-clique record the witness is the lexicographically smallest one,
    refined here once per search instead of once per graph, from the
    record's size.  Under a finite budget the solve's nodes bound the
    refining, so a record replayed from a checkpoint (`nodes` None) is
    solved again first; the solve is deterministic, so the budget left is
    the same.  Under an unlimited budget the nodes are never read.  Where
    the budget dies while refining, the solver's clique is reported."""
    g = Graph.from_mask(job.n, rec.raw_mask)
    words = sorted(rec.code)
    if job.target_k is None and rec.status == "exact":
        cg = make_cws_clique_graph(setup(error_set(job.n, job.d), g))
        if nodes is None and job.budget >= 0:
            _best, members, nodes, _exhausted = solve(cg, None, job.budget)
            words = [cg.words[i] for i in members]
        refined = lex_min_clique(cg, rec.best_k, nodes or 0, job.budget)
        if refined is not None:
            words = [cg.words[i] for i in refined[0]]
    return CWSCode(g, ClassicalCode.from_ints(job.n, words))


# ---------------------------------------------------------------------------

def _append(f, line: str) -> None:
    """Append `line` and its newline to the unbuffered file `f`, in one raw
    write unless the system writes less than asked, when the rest follows."""
    data = (line + "\n").encode()
    while data:
        data = data[f.write(data) :]


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


def _record_fields(obj: object) -> tuple | None:
    """(raw_mask, canon_mask, m, bestK, status, code) of `obj`, or None
    unless it is a dict holding the fields of a `GraphRecord` typed as a
    search writes them: int masks, m and bestK (never bools), a known
    status, and a code that is absent, null or a list of ints.  A search
    stores a code of exactly bestK words, so a non-empty code of another
    length is refused."""
    if type(obj) is not dict:
        return None
    get = obj.get
    fields = get("raw_mask"), get("canon_mask"), get("m"), get("bestK"), get("status"), get("code")
    raw, canon, m, best_k, status, code = fields
    if not (
        type(raw) is int
        and type(canon) is int
        and type(m) is int
        and type(best_k) is int
        # a tuple: a list or dict status compares unequal, a set would raise
        and status in ("exact", "bound")
    ):
        return None
    if code is not None:
        if type(code) is not list:
            return None
        for c in code:
            if type(c) is not int:
                return None
        if code and len(code) != best_k:
            return None
    return fields


_DECODER = json.JSONDecoder()  # json.loads's settings, built once


def _load_checkpoint(path: Path, job: SearchJob) -> dict[int, GraphRecord]:
    """Replay completed records by raw mask; every stored code must re-verify.

    The file is read in one pass, one line at a time, and never held whole.
    Blank lines are skipped; the job header is line 1 and every later line
    is a record.  Each line is decoded the same way: the C scanner of
    `_DECODER` reads the line a search writes, one JSON value and its
    newline, without the whitespace scans and checks of `json.loads`; any
    other line (no value at its start, or more after the value: whitespace,
    CRLF, a BOM, a second value) is left to `json.loads`, so every line gets
    its verdict.  A record's fields are checked by `_record_fields`.  The
    stored codes are verified together once every line is decoded, by
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
    # the records with a code, repeated masks included
    masks: list[int] = []
    codes: list[tuple[int, ...]] = []
    if not path.exists():
        return done
    n, target_k, scan = job.n, job.target_k, _DECODER.scan_once
    with open(path, "r+b") as f:
        header, read = False, 0  # a header was read, bytes of complete lines
        for lineno, ln in enumerate(f, start=1):
            if not ln.endswith(b"\n"):
                break  # the torn tail
            read += len(ln)
            if ln.isspace():
                continue
            if not header and lineno > 1:  # a blank header line does not decode
                raise ValueError("checkpoint line 1 cannot be decoded")
            try:
                text = ln.decode()
                try:
                    obj, end = scan(text, 0)
                except StopIteration:  # no value at the start of the line
                    end = 0
                if end != len(text) - 1:
                    obj = json.loads(text)
            except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, too deep
                raise ValueError(f"checkpoint line {lineno} cannot be decoded") from exc
            if lineno == 1:
                if type(obj) is not dict or "job" not in obj:
                    raise ValueError("checkpoint line 1 is not a job header")
                if obj["job"] != job.fingerprint():
                    raise ValueError("checkpoint belongs to a different job")
                header = True
                continue
            fields = _record_fields(obj)
            # a search stores no code (fields[5]) only where it fell short of a
            # target K, so a null or empty code anywhere else would replay an
            # unshown bestK (fields[3])
            if fields is None or not fields[5] and (target_k is None or fields[3] >= target_k):
                raise ValueError(f"checkpoint line {lineno} is not a record")
            raw, canon, m, best_k, status, code = fields
            if code:
                code = tuple(code)  # the decoded list is freed
                masks.append(raw)
                codes.append(code)
            done[raw] = GraphRecord(n, canon, raw, m, best_k, status, code or None)
        if first_failing_code(masks, codes, error_set(n, job.d)) >= 0:
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
        # unbuffered: each record is in the file once its line is appended
        ck_handle = open(checkpoint, "ab", buffering=0)
        if ck_handle.tell() == 0:
            _append(ck_handle, json.dumps({"job": job.fingerprint()}))

    # the witness candidate: of the records with a code, one with the most
    # words, `top`, then the least in record order (n, canon_mask, raw_mask,
    # with raw masks unique); with its B&B nodes, or None for a record
    # replayed from the checkpoint.  `top` is 0 while there is none.
    top = max((r.best_k for r in records if r.code is not None), default=0)
    candidate = min((r for r in records if r.best_k == top and r.code is not None), default=None)
    candidate_nodes = None

    solve_start = time.monotonic()

    def consume(stream) -> None:
        nonlocal candidate, candidate_nodes, top
        for idx, (nodes, rec) in enumerate(stream):
            records.append(rec)
            k = rec.best_k
            if k >= top and rec.code is not None and (k > top or rec < candidate):
                candidate, candidate_nodes, top = rec, nodes, k
            if ck_handle:
                _append(ck_handle, rec.checkpoint_line())
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
            import multiprocessing  # only a pool needs it: kept off every start-up

            ctx = multiprocessing.get_context("fork")
            size = max(1, min(BUILD_CHUNK, len(pending) // (workers * 16)))
            tasks = [pending[i : i + size] for i in range(0, len(pending), size)]
            with ctx.Pool(workers) as pool:
                # in task order, so records reach the checkpoint in graph order
                results = pool.imap(_process_chunk, tasks, chunksize=1)
                consume(itertools.chain.from_iterable(results))
    except SearchAborted:  # a reason of its own, also from a pool worker
        raise
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
