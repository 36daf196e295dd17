"""Correctness gate, run outside the timed region.

A search fails the gate on a wrong exit code, record count, summary K or
result digest, on a result that differs from the first call's, on a missing
witness where the job must emit one, or on a witness that fails either
verification route at the job's distance.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

from cwskit.errormap import error_set
from cwskit.search import SearchResult, render_result
from cwskit.verify import CWSCode, detection_check, kl_oracle

from workloads import Search


def digest(result: SearchResult) -> str:
    return hashlib.sha256(render_result(result).encode()).hexdigest()


def _no_span(_name: str):
    return nullcontext()


def code_problem(q: CWSCode, d: int, span=_no_span) -> str | None:
    """None if q detects all errors of weight < d by both routes.  `span`
    wraps each route, as Tracer.span does in the traced run."""
    errors = error_set(q.n, d)
    with span("verify.detection_check"):
        detects = detection_check(q, errors).detects
    with span("verify.kl_oracle"):
        oracle_d = kl_oracle(q, d)
    if not detects:
        return "witness fails detection_check"
    if oracle_d != d:
        return "witness fails kl_oracle"
    return None


class Gate:
    """Checks search results; verifies each distinct witness once."""

    def __init__(self) -> None:
        self._verified: dict[tuple, str | None] = {}
        self._digests: dict[str, str] = {}

    def problems(self, search: Search, result: SearchResult) -> list[str]:
        exp = search.expect
        out = []
        if result.exit_code not in exp.exit_codes:
            out.append(f"exit code {result.exit_code}, expected {sorted(exp.exit_codes)}")
        if exp.records is not None and len(result.records) != exp.records:
            out.append(f"{len(result.records)} records, expected {exp.records}")
        if exp.best_k is not None and result.summary_best_k != exp.best_k:
            out.append(f"summary_bestK={result.summary_best_k}, expected {exp.best_k}")
        dig = digest(result)
        if exp.digest is not None and dig != exp.digest:
            out.append("result digest mismatch")
        if self._digests.setdefault(search.label, dig) != dig:
            out.append("result differs from the first call's")
        job = result.job
        if result.witness is None:
            if job.target_k is None or result.exit_code == 0:
                out.append("no witness")
        else:
            q = result.witness
            key = (q.graph.rows, q.code.values, job.d)
            if key not in self._verified:
                self._verified[key] = code_problem(q, job.d)
            if self._verified[key]:
                out.append(self._verified[key])
        return [f"{search.label}: {p}" for p in out]
