"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from run import ROOT, import_package

import_package()

from cwskit.gf2 import ClassicalCode  # noqa: E402
from cwskit.graphs import Graph  # noqa: E402
from cwskit.search import SearchJob, run_search  # noqa: E402
from cwskit.verify import CWSCode  # noqa: E402

import metrics  # noqa: E402
import workloads  # noqa: E402
from gate import Gate, digest  # noqa: E402
from pipeline import plain_exhaustive_nodes, traced_search  # noqa: E402
from spans import Tracer, self_times, totals  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        [0, "search.run", 0.0, 10.0, None],
        [1, "clique.solve", 1.0, 4.0, 0],
        [2, "verify.kl_oracle", 2.0, 3.0, 1],
        [3, "clique.solve", 5.0, 9.0, 0],
        [4, "bench.witness_check", 11.0, 12.5, None],
    ]
    assert self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5}
    self_s, wall_s, calls = totals(spans)
    assert self_s == {"search.run": 3.0, "clique.solve": 6.0, "verify.kl_oracle": 1.0,
                      "bench.witness_check": 1.5}
    assert wall_s["clique.solve"] == 7.0 and wall_s["search.run"] == 10.0
    assert calls == {"search.run": 1, "clique.solve": 2, "verify.kl_oracle": 1,
                     "bench.witness_check": 1}


def test_tracer_links_parents():
    tr = Tracer()
    with tr.span("a"):
        with tr.span("b"):
            pass
        with tr.span("c"):
            with tr.span("d"):
                pass
    with tr.span("e"):
        pass
    assert [(s[1], s[4]) for s in tr.spans] == [
        ("a", None), ("b", 0), ("c", 0), ("d", 2), ("e", None)
    ]
    own = self_times(tr.spans)
    assert all(v >= 0 for v in own.values())
    assert sum(own[i] for i in range(4)) == pytest.approx(tr.spans[0][3] - tr.spans[0][2])


def _small_search(expect_digest: str | None) -> tuple[workloads.Search, object]:
    job = SearchJob(n=3, d=2, graph_source="all")
    result = run_search(job)
    expect = workloads.Expect(frozenset({0}), records=8, best_k=result.summary_best_k,
                              digest=expect_digest)
    return workloads.Search("small", job, expect), result


def test_gate_accepts_good_result():
    search, result = _small_search(None)
    search = dataclasses.replace(
        search, expect=dataclasses.replace(search.expect, digest=digest(result))
    )
    assert Gate().problems(search, result) == []


def test_gate_rejects_corrupted_digest():
    search, result = _small_search("0" * 64)
    assert Gate().problems(search, result) == ["small: result digest mismatch"]


def test_gate_rejects_witness_failing_verification():
    search, result = _small_search(None)
    # Z on qubit 0 of the empty graph maps 000 to 001: distance 1, not 2.
    bad = CWSCode(Graph.empty(3), ClassicalCode.from_ints(3, [0, 1]))
    broken = dataclasses.replace(result, witness=bad)
    assert Gate().problems(search, broken) == ["small: witness fails detection_check"]


def test_gate_rejects_wrong_exit_count_and_k():
    search, result = _small_search(None)
    search = dataclasses.replace(
        search, expect=workloads.Expect(frozenset({3}), records=9, best_k=99)
    )
    assert len(Gate().problems(search, result)) == 3


def test_seed_changes_only_solve10_random_instances(tmp_path):
    for name in ("absence6", "sweep5", "resume5"):
        assert workloads.build(name, 1, tmp_path) == workloads.build(name, 2, tmp_path)
    one = workloads.solve_graphs(1)
    two = workloads.solve_graphs(2)
    assert one[:2] == two[:2]
    assert [g for _l, g in one[2:]] != [g for _l, g in two[2:]]
    assert one == workloads.solve_graphs(1)
    for _label, g in one[2:]:
        assert min(r.bit_count() for r in g.rows) >= 3


@pytest.mark.parametrize("source", ["all", "iso"])
def test_traced_mirror_matches_run_search(tmp_path, source):
    job = SearchJob(n=4, d=2, graph_source=source)
    ck = tmp_path / "ck"
    ref = run_search(job, checkpoint=ck)
    ck.unlink()
    tr = Tracer()
    result, counts = traced_search(job, ck, tr)
    assert result.records == ref.records
    assert result.summary_best_k == ref.summary_best_k
    assert counts.checkpoint_bytes == ck.stat().st_size
    # resume from the complete checkpoint: no solving, same records
    resumed, again = traced_search(job, ck, tr)
    assert resumed.records == ref.records and again.m == []
    plain, solver = plain_exhaustive_nodes(result, counts)
    assert plain > 0 and solver >= plain


def test_benchmark_json_matches_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == metrics.END_TO_END
    assert spec["per_layer"] == metrics.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert set(metrics.MOVES) == {m["name"] for m in metrics.PER_LAYER}
    assert set(metrics.EXACT_COUNTS) <= set(metrics.MOVES)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "absence6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
