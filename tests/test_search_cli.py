import hashlib
import itertools
import json
import multiprocessing as mp
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cwskit.cli
from cwskit import clique, errormap
from cwskit.cli import main
from cwskit.clique import clique_graphs, cws_maxclique, make_cws_clique_graph
from cwskit.graphs import (
    Graph,
    canonical_form,
    class_table,
    edge_count,
    isomorphism_classes,
    lc_orbit_masks,
    rows_table,
    write_graph_file,
)
import cwskit.graphs
import cwskit.search
from cwskit.search import (
    EXIT_ABSENT,
    EXIT_FOUND,
    EXIT_INCONCLUSIVE,
    GraphRecord,
    SearchAborted,
    SearchJob,
    render_result,
    run_search,
)
from cwskit.verify import CWSCode, VerificationReport, detection_check
from cwskit.errormap import cl_map, error_set, setup, setup_table
from cwskit.gf2 import BitString, ClassicalCode

RECORD_RE = re.compile(
    r"^graph=[0-9a-f]+ cliquegraph_vertices=\d+ bestK=\d+ status=(exact|bound)$"
)


class TestRunSearch:
    def test_n5_d2_exhaustive(self):
        res = run_search(SearchJob(n=5, d=2, graph_source="all"))
        assert res.summary_best_k == 6
        assert res.total_graphs == 1024
        assert res.exit_code == EXIT_FOUND

    def test_deterministic_output(self):
        a = render_result(run_search(SearchJob(n=4, d=2, graph_source="all")))
        b = render_result(run_search(SearchJob(n=4, d=2, graph_source="all")))
        assert a == b

    def test_worker_count_does_not_change_output(self):
        seq = render_result(run_search(SearchJob(n=4, d=2, graph_source="all")))
        par = render_result(
            run_search(SearchJob(n=4, d=2, graph_source="all", worker_count=2))
        )
        assert seq == par

    def test_workers_share_one_class_table(self, tmp_path: Path, monkeypatch):
        # workers are forked, so each call leaves a line in a file
        calls = tmp_path / "calls"
        table = cwskit.search.class_table

        def counted(n):
            with open(calls, "a") as f:
                f.write(f"{n}\n")
            return table(n)

        monkeypatch.setattr(cwskit.search, "class_table", counted)
        par = run_search(SearchJob(n=4, d=2, graph_source="all", worker_count=2))
        assert calls.read_text().splitlines() == ["4"]
        assert par.records == run_search(SearchJob(n=4, d=2, graph_source="all")).records

    def test_pool_never_exceeds_the_pending_graphs(self, monkeypatch):
        # the pool is recorded and run in this process, so asking for a
        # thousand workers starts none
        asked = []

        class InProcessPool:
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(mp.get_context("fork"), "Pool", InProcessPool)
        job = SearchJob(n=4, d=2, graph_source="iso", worker_count=1000)
        res = run_search(job)
        assert asked == [res.total_graphs] and res.total_graphs == 11
        seq = run_search(SearchJob(n=4, d=2, graph_source="iso"))
        assert render_result(res) == render_result(seq)
        # a count below the number of graphs is taken as asked
        run_search(SearchJob(n=4, d=2, graph_source="iso", worker_count=3))
        assert asked[1:] == [3]

    def test_cli_import_leaves_multiprocessing_out(self):
        # only a --jobs pool needs multiprocessing; a fresh interpreter
        # shows what importing the command line alone loads
        src = str(Path(cwskit.cli.__file__).resolve().parents[1])
        code = "import sys, cwskit.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split() == ["False"]

    def test_result_file_format(self):
        res = run_search(SearchJob(n=3, d=2, graph_source="all"))
        lines = render_result(res).splitlines()
        assert lines[0] == "n=3"
        assert lines[1] == "d=2"
        assert lines[2] == "mode=all"
        assert lines[-1] == f"summary_bestK={res.summary_best_k}"
        for ln in lines[3:-1]:
            assert RECORD_RE.match(ln), ln

    def test_records_sorted_by_canonical_id(self):
        res = run_search(SearchJob(n=4, d=2, graph_source="all"))
        keys = [r.sort_key() for r in res.records]
        assert keys == sorted(keys)

    def test_all_mode_labels_match_canonical_form(self):
        res = run_search(SearchJob(n=4, d=2, graph_source="all"))
        assert len(res.records) == 64
        for rec in res.records:
            g = Graph.from_mask(4, rec.raw_mask)
            assert rec.canon_mask == canonical_form(g).mask

    def test_iso_mode_agrees_with_all_mode_on_best(self):
        for d in (2, 3):
            full = run_search(SearchJob(n=4, d=d, graph_source="all"))
            iso = run_search(SearchJob(n=4, d=d, graph_source="iso"))
            lc = run_search(SearchJob(n=4, d=d, graph_source="lc"))
            assert full.summary_best_k == iso.summary_best_k == lc.summary_best_k

    def test_lc_pruning_preserves_best_at_n5(self):
        assert run_search(SearchJob(n=5, d=2, graph_source="lc")).summary_best_k == 6
        assert run_search(SearchJob(n=5, d=3, graph_source="lc")).summary_best_k == 2

    @pytest.mark.parametrize("n,d,best_k", [(5, 2, 6), (6, 2, 16), (6, 3, 2), (7, 3, 2)])
    def test_best_k_over_lc_orbits_pinned(self, n, d, best_k):
        # ((5,6,2)) (Rains) and ((6,16,2)) are the literature values
        res = run_search(SearchJob(n=n, d=d, graph_source="lc", budget=2_000_000))
        assert res.summary_best_k == best_k
        assert res.exit_code == EXIT_FOUND
        assert all(r.status == "exact" for r in res.records)

    def test_n6_results_respect_singleton_bound(self):
        from cwskit.structure import is_linear
        from cwskit.verify import kl_oracle

        # the quantum Singleton bound caps K at 2^(n-2(d-1)); at n=6, d=2 the
        # cap 16 is attained by a linear witness, at d=3 the best is 2
        res2 = run_search(SearchJob(n=6, d=2, graph_source="lc"))
        assert res2.summary_best_k == 16 == 2 ** (6 - 2)
        assert kl_oracle(res2.witness, 2) == 2
        assert is_linear(res2.witness.code).is_linear
        res3 = run_search(SearchJob(n=6, d=3, graph_source="lc"))
        assert res3.summary_best_k == 2 <= 2 ** (6 - 4)
        assert kl_oracle(res3.witness, 3) == 3

    def test_absence_exit_code(self):
        res = run_search(SearchJob(n=2, d=2, target_k=2, graph_source="all"))
        assert res.summary_best_k == 1
        assert res.exit_code == EXIT_ABSENT

    def test_found_exit_code(self):
        res = run_search(SearchJob(n=2, d=1, target_k=4, graph_source="all"))
        assert res.exit_code == EXIT_FOUND
        assert res.witness is not None
        assert res.witness.dimension == 4

    def test_budget_inconclusive(self):
        res = run_search(SearchJob(n=4, d=1, graph_source="iso", budget=1))
        assert any(r.status == "bound" for r in res.records)
        assert res.exit_code == EXIT_INCONCLUSIVE

    def test_file_source(self, tmp_path: Path):
        gf = tmp_path / "ring.graph"
        gf.write_text(write_graph_file(Graph.ring(5)))
        res = run_search(SearchJob(n=5, d=3, graph_source="file", graph_file=str(gf)))
        assert res.summary_best_k == 2
        # absence through a single file is never a global conclusion
        res2 = run_search(
            SearchJob(n=5, d=3, target_k=3, graph_source="file", graph_file=str(gf))
        )
        assert res2.exit_code == EXIT_INCONCLUSIVE

    def test_witness_reverifies(self):
        res = run_search(SearchJob(n=4, d=2, graph_source="iso"))
        assert res.witness is not None
        assert detection_check(res.witness, error_set(4, 2)).detects

    def test_worker_failure_aborts(self, monkeypatch):
        def boom(*_args):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cwskit.search, "_process_mask", boom)
        with pytest.raises(SearchAborted):
            run_search(SearchJob(n=3, d=2, graph_source="iso"))


class TestTripleDecision:
    """A target-K >= 3 search writes the record of a graph without codeword
    triples (T = 0) from V, with no B&B: each record must be the one the B&B
    writes, at every budget.  Outputs alone cannot tell a broken count, which
    only sends graphs to the B&B, so the number decided is pinned too."""

    BUDGETS = (-1, 0, 1, 3)

    @staticmethod
    def search_state(monkeypatch, job: SearchJob) -> dict:
        """The state `run_search` gives `_processed`, set for `job`."""
        state = {"job": job, "errors": error_set(job.n, job.d)}
        if job.graph_source == "all":
            state["canon"] = class_table(job.n)[0]
        monkeypatch.setattr(cwskit.search, "_W", state)
        return state

    def solved_records(self, monkeypatch, job: SearchJob, masks: list[int]) -> list:
        """The `_process_mask` record of each of `masks` under `job`: every
        graph through the B&B, with no triple count.  (`_processed` with a
        count faked to T > 0 would abort on the graphs whose T is 0.)"""
        state = self.search_state(monkeypatch, job)
        cl, d = setup_table(state["errors"], rows_table(job.n, masks))
        canon = cwskit.search._canon_masks(masks)
        graphs = clique_graphs(job.n, cl, d)
        return [cwskit.search._process_mask(*args)[1] for args in zip(masks, canon, graphs)]

    def records(self, monkeypatch, job: SearchJob, masks: list[int]) -> tuple[list, int]:
        """`_processed` records of `masks` under `job`, and how many were
        decided without `_process_mask`."""
        self.search_state(monkeypatch, job)
        solved = 0
        process = cwskit.search._process_mask

        def counted(*args):
            nonlocal solved
            solved += 1
            return process(*args)

        monkeypatch.setattr(cwskit.search, "_process_mask", counted)
        recs = [rec for _nodes, rec in cwskit.search._processed(masks)]
        return recs, len(masks) - solved

    def assert_decision_moves_no_record(self, monkeypatch, n, d, k, source, masks):
        """The records with and without the decision, at every budget; the
        number decided at budget -1, which every budget but 0 matches."""
        decided_at = {}
        for budget in self.BUDGETS:
            job = SearchJob(n=n, d=d, target_k=k, graph_source=source, budget=budget)
            with monkeypatch.context() as m:
                solved_all = self.solved_records(m, job, masks)
            with monkeypatch.context() as m:
                decided, decided_at[budget] = self.records(m, job, masks)
            assert decided == solved_all, (n, d, k, budget)
        assert decided_at[0] == 0
        assert decided_at[1] == decided_at[3] == decided_at[-1]
        return decided_at[-1]

    # at d = 2 every graph decided has an empty V; at d = 3 many have a
    # non-empty V without triples (8,712 of the 32,768 at n = 6)
    @pytest.mark.parametrize(
        "n, d, k, decided", [(5, 2, 3, 51), (5, 2, 4, 51), (5, 3, 3, 1024), (6, 3, 3, 32768)]
    )
    def test_every_graph(self, monkeypatch, n, d, k, decided):
        masks = list(range(1 << edge_count(n)))
        assert self.assert_decision_moves_no_record(monkeypatch, n, d, k, "all", masks) == decided

    @pytest.mark.parametrize("source", ["iso", "lc"])
    def test_n7_d3_representatives(self, monkeypatch, source):
        masks = cwskit.search._graph_masks(SearchJob(n=7, d=3, graph_source=source))
        decided = self.assert_decision_moves_no_record(monkeypatch, 7, 3, 3, source, masks)
        assert decided == len(masks)

    def test_seeded_n6_d2_sample(self, monkeypatch):
        rng = random.Random(18)
        masks = [rng.randrange(1 << edge_count(6)) for _ in range(2000)]
        assert self.assert_decision_moves_no_record(monkeypatch, 6, 2, 3, "all", masks) == 7

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_exhausted_below_3_with_triples_aborts(self, capsys, monkeypatch, jobs):
        # a B&B that exhausts without the 3-clique that T > 0 guarantees:
        # mask 007 is the first (5,2) graph with a triple
        monkeypatch.setattr(cwskit.search, "solve", lambda *_args: (2, None, 1, True))
        argv = ["search", "--n", "5", "--d", "2", "--k", "3", "--graphs", "all"]
        assert main([*argv, "--jobs", jobs]) == 4
        assert capsys.readouterr().err == (
            "aborted: graph 007: the triple count finds a 3-clique"
            " that the branch and bound did not\n"
        )


# sha256 of exit code, stdout, result file and checkpoint of a checkpointed
# `cwskit search` run and of its resume from the complete checkpoint
RUN_PINS = {
    "n5-d2-all": (
        ["--n", "5", "--d", "2", "--graphs", "all"],
        "6504ca76b485f208fab2d8ff70413a0872fddf1fc1861b4c3e80521077901b00"),
    "n6-d3-k3-iso": (
        ["--n", "6", "--d", "3", "--k", "3", "--graphs", "iso"],
        "b9b6d245abca28d477c648e147cec84c4bb810991f82abd252e0d81acd5195d9"),
    "n5-d2-lc": (
        ["--n", "5", "--d", "2", "--graphs", "lc"],
        "27826d46e7866d77e70fe6530e46e642611590fcb883bc5e5a194bccf75b80f9"),
    **{
        f"n4-d{d}-all": (["--n", "4", "--d", str(d), "--graphs", "all"], digest)
        for d, digest in [
            (1, "ca0c71a0a2fd9a763c0203a4cacb8d639758b3a44f031f4598585e077dcc00bc"),
            (2, "e49bc6d9cb44425834114ec8bfb9b4f822ef32c67dcd58e69a06fb70bdab3493"),
            (3, "750abda62052f75712fae6953acaf704017816061933d5569b60cad2deb0be55"),
            (4, "04a69a872a5e98e6069a06df92747c4007224a6a079462a48e8261600ab680e8"),
            (5, "372113fba56f837ab9ed8fc23ffc6940308117bffb23531045c7b4e2d0aa416b"),
        ]
    },
    "n5-d3-all": (
        ["--n", "5", "--d", "3", "--graphs", "all"],
        "ee0101601d692fe4cd36a01874ce0241299075471b2a563b9f44ae95e7aa0482"),
    # bound and exact records side by side
    "n5-d2-all-budget3": (
        ["--n", "5", "--d", "2", "--graphs", "all", "--budget", "3"],
        "4868cb4680a1420da3554dad466874208110c72204df83069747aed546d61408"),
    "n6-d2-iso": (
        ["--n", "6", "--d", "2", "--graphs", "iso"],
        "dd1e2420f2cf8dd40bf03062bab881ce0e21e8d336cd112edea57bada4914a79"),
    "n6-d3-k3-lc": (
        ["--n", "6", "--d", "3", "--k", "3", "--graphs", "lc"],
        "538f29e8656edb49d49c0535060ecc6176a313c30843f4e2a31ef16680fa2922"),
    # 973 graphs solved and 51 decided by their triple count
    "n5-d2-k3-all": (
        ["--n", "5", "--d", "2", "--k", "3", "--graphs", "all"],
        "6a823ef6f2acc41fdfebb043322c303c5d9e9f05a6ba40c8fb991987aac4aabe"),
    # at budget 0 no graph is decided: 132 records are bound
    "n5-d3-k3-all-budget0": (
        ["--n", "5", "--d", "3", "--k", "3", "--graphs", "all", "--budget", "0"],
        "27779008716701511a4ad289f84059f5039a686df9337f11436fdf687acd8b32"),
}
# a pool delivers records in graph order: its outputs are the serial run's
RUN_PINS.update(
    (f"{key}-jobs2", ([*RUN_PINS[key][0], "--jobs", "2"], RUN_PINS[key][1]))
    for key in ("n5-d2-all", "n6-d2-iso", "n6-d3-k3-lc", "n5-d2-k3-all")
)


def run_and_resume_digest(argv: list[str], tmp_path: Path, capsys) -> str:
    ck, out = tmp_path / "run.ckpt", tmp_path / "res.txt"
    ck.unlink(missing_ok=True)
    h = hashlib.sha256()
    for _ in range(2):
        rc = main(["search", *argv, "--checkpoint", str(ck), "--out", str(out)])
        h.update(repr((rc, capsys.readouterr().out)).encode())
        h.update(out.read_bytes())
        h.update(ck.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def complete_n4_checkpoint(tmp_path_factory):
    """(job, its complete checkpoint's bytes, uninterrupted result, scratch path)."""
    job = SearchJob(n=4, d=2, graph_source="all")
    ck = tmp_path_factory.mktemp("complete") / "n4.ckpt"
    plain = render_result(run_search(job, checkpoint=ck))
    return job, ck.read_bytes(), plain, ck.with_name("cut.ckpt")


def lex_smallest_max_clique(cg) -> list[int]:
    """Words of the lexicographically smallest maximum clique, by enumeration:
    combinations come in lexicographic order, so the first clique met at the
    largest size is the smallest one."""
    for k in range(cg.size - 1, -1, -1):
        for rest in itertools.combinations(range(1, cg.size), k):
            if all(cg.has_edge(a, b) for a, b in itertools.combinations(rest, 2)):
                return [cg.words[i] for i in (0, *rest)]


class TestGraphMasks:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_class_masks_equal_graph_round_trip(self, n):
        iso = SearchJob(n=n, d=2, graph_source="iso")
        lc = SearchJob(n=n, d=2, graph_source="lc")
        assert cwskit.search._graph_masks(iso) == [
            g.mask() for g, _size in isomorphism_classes(n)
        ]
        assert cwskit.search._graph_masks(lc) == [
            Graph.from_mask(n, masks[0]).mask() for masks in lc_orbit_masks(n)
        ]

    @pytest.mark.parametrize("n, d", [(5, 2), (5, 3), (6, 2), (6, 3), (7, 3)])
    def test_lc_source_is_sound_graph_by_graph(self, n, d):
        # the lc source solves one class per LC orbit, which holds only if
        # every class of an orbit has the same exact bestK
        records = run_search(SearchJob(n=n, d=d, graph_source="iso")).records
        assert all(r.status == "exact" for r in records)
        best = {r.canon_mask: r.best_k for r in records}
        orbits = list(lc_orbit_masks(n))
        assert sorted(mask for masks in orbits for mask in masks) == sorted(best)
        for masks in orbits:
            assert len({best[mask] for mask in masks}) == 1, masks

    @pytest.mark.parametrize(
        "source, message",
        [
            ("iso", "isomorphism classes supported for n <= 8"),
            ("lc", "LC orbit enumeration supported for n <= 8"),
        ],
    )
    def test_class_sources_refuse_n9(self, source, message, capsys, monkeypatch):
        # the orbit pass has no guard of its own: at n=9 it would ask for
        # 2^36 visited bits, so fail fast if the refusal is ever lost
        def boom(*_args):
            raise AssertionError("orbit pass started at n=9")

        monkeypatch.setattr(cwskit.graphs, "_orbit_pass", boom)
        assert main(["search", "--n", "9", "--d", "2", "--graphs", source]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_all_refuses_n8(self, capsys, monkeypatch):
        # past the guard, `all` at n=8 would list 2^28 masks before solving
        # one graph, so fail fast if the refusal is ever lost
        def boom(*_args):
            raise AssertionError("2^28 masks listed at n=8")

        monkeypatch.setattr(cwskit.search, "edge_count", boom)
        assert main(["search", "--n", "8", "--d", "2"]) == 2
        assert capsys.readouterr().err == (
            "error: exhaustive graph source supports n <= 7\n"
        )

    def test_file_refuses_n_past_canonical_form(self, tmp_path: Path, capsys):
        gf = tmp_path / "ring11.graph"
        gf.write_text(write_graph_file(Graph.ring(11)))
        argv = ["search", "--n", "11", "--d", "3", "--graphs", "file", "--graph", str(gf)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: file graph source supports n <= 10\n"


class TestCheckpoint:
    @settings(deadline=None)
    @given(cut=st.floats(min_value=0.0, max_value=1.0))
    @example(cut=0.01)  # inside the header line
    @example(cut=0.5)  # inside a record line
    def test_resume_after_cut_at_any_byte(self, complete_n4_checkpoint, cut):
        # a run killed mid-write leaves a prefix of the complete file
        job, data, plain, ck = complete_n4_checkpoint
        ck.write_bytes(data[: round(cut * len(data))])
        assert render_result(run_search(job, checkpoint=ck)) == plain
        assert len(cwskit.search._load_checkpoint(ck, job)) == 1 << 6

    def test_undecodable_inner_line_raises(self, tmp_path: Path):
        job = SearchJob(n=3, d=2, graph_source="iso")
        ck = tmp_path / "bad.ckpt"
        run_search(job, checkpoint=ck)
        lines = ck.read_text().splitlines(keepends=True)
        lines.insert(2, '{"raw_mask": 1, "canon\n')
        ck.write_text("".join(lines))
        with pytest.raises(ValueError, match="line 3"):
            run_search(job, checkpoint=ck)

    def test_resume_matches_uninterrupted(self, tmp_path: Path):
        job = SearchJob(n=4, d=2, graph_source="iso")
        plain = render_result(run_search(job))

        ck = tmp_path / "run.ckpt"
        full = run_search(job, checkpoint=ck)
        lines = ck.read_text().splitlines()
        assert json.loads(lines[0])["job"] == job.fingerprint()
        # pinned: the header is what a resumed run compares against, so its
        # bytes may not change under existing checkpoints
        assert lines[0] == (
            '{"job": {"n": 4, "d": 2, "target_k": null, "graph_source": "iso", '
            '"graph_file": null, "exactness": "exact", "seed": 0, "budget": -1}}'
        )
        assert SearchJob(n=4, d=2, graph_source="iso", worker_count=3).fingerprint() == (
            job.fingerprint()
        )
        # keep the header and the first third of the records
        keep = 1 + (len(lines) - 1) // 3
        ck.write_text("\n".join(lines[:keep]) + "\n")
        resumed = run_search(job, checkpoint=ck)
        assert render_result(resumed) == plain == render_result(full)

    @pytest.mark.parametrize(
        "field, other",
        [(b'"exactness": "exact", "seed": 0', b'"exactness": "heuristic", "seed": 7'),
         (b'"d": 2', b'"d": 3')],
        ids=["heuristic-run", "other-d"],
    )
    def test_checkpoint_of_another_job_is_refused(
        self, field, other, complete_n4_checkpoint, capsys
    ):
        # the header names the job; a resume never appends to another job's file
        _job, data, _plain, ck = complete_n4_checkpoint
        head, rest = data.split(b"\n", 1)
        assert head.count(field) == 1
        forged = head.replace(field, other) + b"\n" + rest
        ck.write_bytes(forged)
        capsys.readouterr()
        assert main(["search", "--n", "4", "--d", "2", "--checkpoint", str(ck)]) == 2
        assert capsys.readouterr().err == "error: checkpoint belongs to a different job\n"
        assert ck.read_bytes() == forged

    def test_complete_checkpoint_builds_no_class_table(self, tmp_path: Path, monkeypatch):
        job = SearchJob(n=4, d=2, graph_source="all")
        ck = tmp_path / "all.ckpt"
        full = run_search(job, checkpoint=ck)

        def boom(_n):
            raise AssertionError("class table built with no pending graph")

        monkeypatch.setattr(cwskit.search, "class_table", boom)
        assert render_result(run_search(job, checkpoint=ck)) == render_result(full)

    @pytest.mark.parametrize(
        "job",
        [
            SearchJob(n=4, d=2, graph_source="all"),
            SearchJob(n=5, d=2, graph_source="all", budget=3),  # bound records
            SearchJob(n=6, d=3, target_k=3, graph_source="iso"),  # no codes
        ],
        ids=["n4-d2-all", "n5-d2-all-budget3", "n6-d3-k3-iso"],
    )
    def test_loaded_checkpoint_is_the_result_records(self, job, tmp_path: Path):
        # a replayed record is the one the run that stored it returned
        ck = tmp_path / "run.ckpt"
        res = run_search(job, checkpoint=ck)
        done = cwskit.search._load_checkpoint(ck, job).values()
        assert sorted(done, key=GraphRecord.sort_key) == res.records

    @pytest.mark.parametrize(
        "job",
        [
            SearchJob(n=4, d=2, graph_source="all"),
            SearchJob(n=4, d=2, graph_source="iso"),
            SearchJob(n=4, d=2, graph_source="lc"),
            SearchJob(n=4, d=2, graph_source="all", budget=1),  # bound records
            SearchJob(n=4, d=2, target_k=4, graph_source="all"),  # absent records
        ],
        ids=["n4-d2-all", "n4-d2-iso", "n4-d2-lc", "n4-d2-all-budget1",
             "n4-d2-k4-all"],
    )
    def test_checkpoint_line_is_json_dumps_of_the_record(self, job):
        records = run_search(job).records
        if job.target_k:
            assert {r.code is None for r in records} == {True, False}
        if job.budget >= 0:
            assert any(r.status == "bound" and r.code for r in records)
        # a 45-bit mask of an n=10 graph
        records.append(GraphRecord(n=10, canon_mask=(1 << 45) - 1, raw_mask=(1 << 44) | 5,
                                   m=709, best_k=3, status="bound", code=(0, 17, 1023)))
        for rec in records:
            code = None if rec.code is None else list(rec.code)
            assert rec.checkpoint_line() == json.dumps({
                "raw_mask": rec.raw_mask, "canon_mask": rec.canon_mask, "m": rec.m,
                "bestK": rec.best_k, "status": rec.status, "code": code,
            })

    def test_checkpoint_line_of_sampled_records(self):
        # the shapes a search stores: no code, one word and up to 64 words,
        # masks up to 2^45 - 1 (n=10 `file` graphs), bestK up to 4,096
        rng = random.Random(39)
        top = (1 << 45) - 1
        for i in range(3000):
            size = [None, 1, 64, rng.randrange(2, 64)][i % 4]
            code = None if size is None else tuple(
                [0] + sorted(rng.sample(range(1, 1 << 10), size - 1))
            )
            rec = GraphRecord(
                n=10, canon_mask=rng.choice([0, top, rng.randrange(top)]),
                raw_mask=rng.choice([0, top, rng.randrange(top)]),
                m=rng.randrange(1, 4097), best_k=rng.choice([1, 4096, rng.randrange(1, 4097)]),
                status=rng.choice(["exact", "bound"]), code=code,
            )
            assert rec.checkpoint_line() == json.dumps({
                "raw_mask": rec.raw_mask, "canon_mask": rec.canon_mask, "m": rec.m,
                "bestK": rec.best_k, "status": rec.status,
                "code": None if code is None else list(code),
            })

    @pytest.mark.parametrize(
        "job",
        [
            SearchJob(n=4, d=2, graph_source="all"),  # max_clique
            SearchJob(n=4, d=2, target_k=4, graph_source="all"),  # find_clique_of_size
            SearchJob(n=4, d=2, target_k=1, graph_source="iso"),  # its one-word answer
        ],
        ids=["n4-d2-all", "n4-d2-k4-all", "n4-d2-k1-iso"],
    )
    def test_record_codes_hold_python_ints(self, job):
        # checkpoint_line formats a code by its list's repr, which is JSON
        # only for Python ints: a NumPy integer prints as np.int64(3)
        words = [w for r in run_search(job).records if r.code for w in r.code]
        assert words and all(type(w) is int for w in words)

    def test_checkpoint_torn_line_ignored(self, tmp_path: Path):
        job = SearchJob(n=3, d=2, graph_source="iso")
        ck = tmp_path / "torn.ckpt"
        run_search(job, checkpoint=ck)
        ck.write_text(ck.read_text() + '{"raw_mask": 1, "canon')
        res = run_search(job, checkpoint=ck)
        assert res.summary_best_k == run_search(job).summary_best_k

    def test_resume_replays_only_the_jobs_graphs(self, tmp_path: Path):
        # the fingerprint names the graph file, not its content: after the
        # file changes, the stored ring5 record must not join the result
        gf = tmp_path / "g.graph"
        gf.write_text(write_graph_file(Graph.ring(5)))
        job = SearchJob(n=5, d=3, graph_source="file", graph_file=str(gf))
        ck = tmp_path / "file.ckpt"
        assert run_search(job, checkpoint=ck).summary_best_k == 2
        gf.write_text(write_graph_file(Graph.empty(5)))
        resumed = run_search(job, checkpoint=ck)
        assert [r.raw_mask for r in resumed.records] == [0]
        assert render_result(resumed) == render_result(run_search(job))

    def test_records_on_disk_before_next_graph(self, tmp_path: Path, monkeypatch):
        # a run killed while solving graph k keeps the k-1 records before it
        job = SearchJob(n=4, d=2, graph_source="all")
        ck = tmp_path / "live.ckpt"
        process = cwskit.search._process_mask
        calls = []

        def checked(mask, *args):
            on_disk = ck.read_text().splitlines()
            assert len(on_disk) == 1 + len(calls)
            calls.append(mask)
            return process(mask, *args)

        monkeypatch.setattr(cwskit.search, "_process_mask", checked)
        res = run_search(job, checkpoint=ck)
        assert len(calls) == res.total_graphs == 64

    def test_code_less_records_on_disk_before_next_graph(self, tmp_path: Path, monkeypatch):
        # the same promise where every record stores "code": null: at n=4
        # d=2 no graph reaches K=5.  The 23 graphs without a codeword triple
        # are decided with no solve, so the graph solved as mask k finds the
        # records of all k graphs before it, decided or solved, on disk
        job = SearchJob(n=4, d=2, target_k=5, graph_source="all")
        ck = tmp_path / "live.ckpt"
        process = cwskit.search._process_mask
        calls = []

        def checked(mask, *args):
            on_disk = ck.read_text().splitlines()
            assert len(on_disk) == 1 + mask
            calls.append(mask)
            return process(mask, *args)

        monkeypatch.setattr(cwskit.search, "_process_mask", checked)
        res = run_search(job, checkpoint=ck)
        assert len(calls) == 41 and res.total_graphs == 64
        records = ck.read_text().splitlines()[1:]
        assert len(records) == 64 and all(json.loads(ln)["code"] is None for ln in records)

    def test_short_writes_never_tear_a_line(self, tmp_path: Path, monkeypatch):
        # the system may write fewer bytes than asked; the rest of the line
        # must follow before the next one starts
        job = SearchJob(n=4, d=2, graph_source="all")
        plain = tmp_path / "plain.ckpt"
        full = run_search(job, checkpoint=plain)
        asked = []

        def opened(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if "a" in mode:  # the checkpoint's append handle, down to its raw file
                raw = getattr(getattr(f, "buffer", f), "raw", f)
                write = raw.write

                def short(data):
                    asked.append(len(data))
                    return write(data[:7])

                raw.write = short
            return f

        monkeypatch.setattr(cwskit.search, "open", opened, raising=False)
        ck = tmp_path / "short.ckpt"
        assert render_result(run_search(job, checkpoint=ck)) == render_result(full)
        assert max(asked) > 7 and ck.read_bytes() == plain.read_bytes()
        resumed = run_search(job, checkpoint=ck)
        assert render_result(resumed) == render_result(full)
        assert resumed.witness == full.witness and ck.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("kept, refine", [(64, True), (7, True), (64, False)])
    def test_resume_gives_the_same_witness(self, tmp_path: Path, kept, refine):
        # older checkpoints store the lexicographically smallest maximum
        # clique for every graph, newer ones the solver's first; both must
        # resume to the same result and witness, whether the witness graph
        # (raw mask 7, the eighth record) is replayed or solved again
        job = SearchJob(n=4, d=2, graph_source="all")
        plain = run_search(job)
        ck = tmp_path / "run.ckpt"
        run_search(job, checkpoint=ck)
        errors = error_set(4, 2)
        head, *lines = ck.read_text().splitlines()
        kept_lines = [head]
        for ln in lines[:kept]:
            rec = json.loads(ln)
            if refine:
                g = Graph.from_mask(4, rec["raw_mask"])
                cg = make_cws_clique_graph(setup(errors, g))
                rec["code"] = lex_smallest_max_clique(cg)
            kept_lines.append(json.dumps(rec))
        ck.write_text("\n".join(kept_lines) + "\n")
        resumed = run_search(job, checkpoint=ck)
        assert render_result(resumed) == render_result(plain)
        assert resumed.witness == plain.witness
        g = plain.witness.graph
        words = lex_smallest_max_clique(make_cws_clique_graph(setup(errors, g)))
        assert [w.value for w in plain.witness.code.words] == words

    @pytest.mark.parametrize("budget, run_nodes, resume_nodes",
                             [(-1, 5416, 850), (10_000, 5416, 5416)])
    def test_resume_solves_the_witness_again_only_under_a_budget(
        self, budget, run_nodes, resume_nodes, tmp_path: Path, monkeypatch
    ):
        # ring9 d=3: the run solves (4,566 nodes) and refines (850); a resume
        # refines from the stored code, and solves again only where the
        # solve's nodes count against the refining's budget
        gf = tmp_path / "ring9.txt"
        gf.write_text(write_graph_file(Graph.ring(9)))
        job = SearchJob(n=9, d=3, graph_source="file", graph_file=str(gf), budget=budget)
        ck = tmp_path / "ring9.ckpt"
        nodes = []
        bnb = clique.bnb_clique

        def counted(*args):
            out = bnb(*args)
            nodes.append(out[2])
            return out

        monkeypatch.setattr(clique, "bnb_clique", counted)
        run = run_search(job, checkpoint=ck)
        assert sum(nodes) == run_nodes
        nodes.clear()
        resumed = run_search(job, checkpoint=ck)
        assert sum(nodes) == resume_nodes
        assert render_result(resumed) == render_result(run)
        assert resumed.witness == run.witness
        assert resumed.witness.dimension == 12

    def test_replayed_record_with_a_forged_label_or_size_is_refused(
        self, tmp_path: Path, capsys
    ):
        # raw mask 1 is the one-edge graph: a record of canon_mask 63 (the
        # complete graph) and m 99 (above 2^4) would print graph=3f
        ck, out = tmp_path / "iso.ckpt", tmp_path / "res.txt"
        argv = ["search", "--n", "4", "--d", "2", "--graphs", "iso",
                "--checkpoint", str(ck), "--out", str(out)]
        assert main(argv) == 0
        head, *lines = ck.read_text().splitlines()
        records = [json.loads(ln) for ln in lines]
        (rec,) = [r for r in records if r["raw_mask"] == 1]
        rec["canon_mask"], rec["m"] = 63, 99
        ck.write_text("\n".join([head, *map(json.dumps, records)]) + "\n")
        out.unlink()
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint record of graph 01 does not fit the job\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, raw, canon, m, best_k, refused",
        [
            ("iso", 7, 7, 7, 4, False),  # the record as written
            ("iso", 7, 3, 7, 4, True),  # iso ids are the raw masks
            ("iso", 7, 7, 7, 0, True),
            ("iso", 7, 7, 3, 4, True),  # bestK above m
            ("iso", 7, 7, 17, 4, True),  # m above 2^n
            ("all", 14, 13, 6, 4, False),  # the record as written
            ("all", 14, 7, 6, 4, False),  # a smaller id of as many edges
            ("all", 14, 3, 6, 4, True),  # fewer edges
            ("all", 14, 19, 6, 4, True),  # as many edges, above the raw mask
            ("all", 14, -14, 6, 4, True),
        ],
    )
    def test_replayed_record_fields_are_checked(
        self, source, raw, canon, m, best_k, refused, tmp_path: Path
    ):
        # a code that verifies stays; only the label, m and bestK move (a
        # bestK other than the code's drops the code, under a target above it)
        job = SearchJob(n=4, d=2, graph_source=source)
        ck = tmp_path / "fields.ckpt"
        run_search(job, checkpoint=ck)
        _head, *lines = ck.read_text().splitlines()
        records = [json.loads(ln) for ln in lines]
        (rec,) = [r for r in records if r["raw_mask"] == raw]
        rec["canon_mask"], rec["m"] = canon, m
        if best_k != rec["bestK"]:
            rec["bestK"], rec["code"] = best_k, None
            job = SearchJob(n=4, d=2, target_k=5, graph_source=source)
        ck.write_text(json.dumps({"job": job.fingerprint()}) + "\n"
                      + "".join(json.dumps(r) + "\n" for r in records))
        if refused:
            with pytest.raises(ValueError, match=f"^checkpoint record of graph {raw:02x} "):
                run_search(job, checkpoint=ck)
        else:
            assert run_search(job, checkpoint=ck).summary_best_k == 4

    @pytest.mark.parametrize(
        "target, best_k, code",
        [(["--k", "5"], 9, None), (["--k", "5"], 5, None), ([], 7, None), ([], 4, [])],
        ids=["k5-null-above-k", "k5-null-at-k", "max-null", "max-empty"],
    )
    def test_record_without_a_code_is_refused_unless_short_of_k(
        self, target, best_k, code, tmp_path: Path, capsys
    ):
        # a search leaves the code out only where it fell short of the target
        # K; any other codeless record would set summary_bestK with no witness
        ck = tmp_path / "null.ckpt"
        argv = ["search", "--n", "4", "--d", "2", "--graphs", "iso", *target,
                "--checkpoint", str(ck)]
        assert main(argv) == (3 if target else 0)
        head, *lines = ck.read_text().splitlines()
        rec = json.loads(lines[0])
        rec["bestK"], rec["code"] = best_k, code
        ck.write_text("\n".join([head, json.dumps(rec), *lines[1:]]) + "\n")
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: checkpoint line 2 is not a record\n"

    def test_coded_record_below_a_codeless_one_leaves_no_witness(
        self, tmp_path: Path, capsys
    ):
        # a replayed code (it verifies) under a target K, of fewer words than
        # the bestK of a codeless record: the witness would not show that K
        words = tmp_path / "max.ckpt"
        assert main(["search", "--n", "4", "--d", "2", "--graphs", "iso",
                     "--checkpoint", str(words)]) == 0
        coded = next(json.loads(ln) for ln in words.read_text().splitlines()[1:]
                     if json.loads(ln)["bestK"] == 4)
        ck = tmp_path / "k5.ckpt"
        argv = ["search", "--n", "4", "--d", "2", "--graphs", "iso", "--k", "5",
                "--checkpoint", str(ck)]
        assert main(argv) == 3
        head, *lines = ck.read_text().splitlines()
        coded["bestK"], coded["code"] = 2, coded["code"][:2]
        lines.append(json.dumps(coded))  # the last line of a raw mask is replayed
        ck.write_text("\n".join([head, *lines]) + "\n")
        capsys.readouterr()
        assert main(argv) == 3
        out = capsys.readouterr().out
        assert "summary_bestK=4\n" in out and "witness_" not in out

    @pytest.mark.parametrize(
        "line, lineno",
        [('{"foo": 1}', 3), ("[1,2]", 3), ("[]", 1)],
        ids=["object-without-keys", "record-list", "header-list"],
    )
    def test_line_that_is_not_a_record_is_usage_error(
        self, line, lineno, tmp_path: Path, capsys
    ):
        ck = tmp_path / "odd.ckpt"
        argv = ["search", "--n", "3", "--d", "2", "--graphs", "iso",
                "--checkpoint", str(ck)]
        assert main(argv) == 0
        lines = ck.read_text().splitlines(keepends=True)
        if lineno == 1:
            lines[0] = line + "\n"  # in place of the header
        else:
            lines.insert(lineno - 1, line + "\n")
        ck.write_text("".join(lines))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: checkpoint line {lineno} ")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("raw_mask", "x"),
            ("canon_mask", 1.5),
            ("m", None),
            ("bestK", True),
            ("status", "maybe"),
            ("code", 5),
            ("code", ["0"]),
            ("code", [False]),
        ],
        ids=["raw_mask-str", "canon_mask-float", "m-null", "bestK-bool",
             "status-unknown", "code-int", "code-str-item", "code-bool-item"],
    )
    def test_record_with_a_wrong_type_is_usage_error(
        self, field, value, tmp_path: Path, capsys
    ):
        ck = tmp_path / "typed.ckpt"
        argv = ["search", "--n", "3", "--d", "2", "--graphs", "iso",
                "--checkpoint", str(ck)]
        assert main(argv) == 0
        complete = ck.read_text()
        record = {"raw_mask": 0, "canon_mask": 0, "m": 1, "bestK": 1,
                  "status": "exact", "code": [0]}
        ck.write_text(complete + json.dumps(record) + "\n")
        assert main(argv) == 0  # the well-typed record is accepted
        ck.write_text(complete + json.dumps({**record, field: value}) + "\n")
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: checkpoint line 6 is not a record\n"

    def test_stored_code_that_fails_verification_is_refused(
        self, complete_n4_checkpoint, capsys
    ):
        # on the empty graph, Z on qubit 0 induces the pattern 0001, the XOR
        # of the codewords 0 and 1: the stored code cannot detect it
        _job, data, _plain, ck = complete_n4_checkpoint
        head, *lines = data.decode().splitlines()
        records = [json.loads(ln) for ln in lines]
        (rec,) = [r for r in records if r["raw_mask"] == 0]
        rec["code"], rec["bestK"] = [0, 1], 2
        ck.write_text("\n".join([head, *map(json.dumps, records)]) + "\n")
        capsys.readouterr()
        assert main(["search", "--n", "4", "--d", "2", "--checkpoint", str(ck)]) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint contains a code that fails verification\n"
        )

    def test_lines_are_decoded_before_codes_are_verified(
        self, complete_n4_checkpoint, capsys
    ):
        # a failing code leaves a torn tail uncut; an undecodable line after
        # the failing code is still the fault reported
        _job, data, _plain, ck = complete_n4_checkpoint
        head, *lines = data.decode().splitlines()
        records = [json.loads(ln) for ln in lines]
        (rec,) = [r for r in records if r["raw_mask"] == 0]
        rec["code"], rec["bestK"] = [0, 1], 2
        body = [head, *map(json.dumps, records)]
        argv = ["search", "--n", "4", "--d", "2", "--checkpoint", str(ck)]
        torn = ("\n".join(body) + '\n{"raw_mask": 3').encode()
        ck.write_bytes(torn)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint contains a code that fails verification\n"
        )
        assert ck.read_bytes() == torn
        body.append("not json")
        ck.write_text("\n".join(body) + "\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint line {len(body)} cannot be decoded\n"
        )

    def test_invalid_utf8_line_reports_its_number(self, complete_n4_checkpoint, capsys):
        # a byte that is not UTF-8 makes its own line undecodable, reported
        # by number like any other line that does not decode
        _job, data, _plain, ck = complete_n4_checkpoint
        lines = data.split(b"\n")
        lines[5] = lines[5].replace(b'"exact"', b'"ex\xffact"')
        ck.write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["search", "--n", "4", "--d", "2", "--checkpoint", str(ck)]) == 2
        assert capsys.readouterr().err == "error: checkpoint line 6 cannot be decoded\n"

    def test_load_never_holds_the_whole_file(self, tmp_path: Path):
        # null codes verify nothing, so the file, not the pattern table,
        # would set the peak; a loader that holds the file (or its text or
        # lines) beside the records peaks near twice what it returns
        job = SearchJob(n=6, d=3, target_k=4, graph_source="all")
        ck = tmp_path / "null.ckpt"
        lines = [json.dumps({"job": job.fingerprint()})] + [
            GraphRecord(n=6, canon_mask=mask, raw_mask=mask, m=40, best_k=3,
                        status="bound", code=None).checkpoint_line()
            for mask in range(20_000)
        ]
        ck.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            done = cwskit.search._load_checkpoint(ck, job)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(done) == 20_000
        assert peak <= 1.5 * held

    @pytest.mark.parametrize(
        "code, message",
        [
            ([0, 16], "value 16 out of range for n=4"),
            ([0, -1], "value -1 out of range for n=4"),
            ([0, 16, -1], "value -1 out of range for n=4"),  # smallest first
            ([0, 16, 16], "value 16 out of range for n=4"),  # range before repeats
            ([0, 5, 5], "codewords must be pairwise distinct"),
            ([5, 5], "codewords must be pairwise distinct"),  # repeats before zero
            ([3, 5], "standard form requires the all-zeros codeword"),
            # on the empty graph X on qubit 0 maps to the zero pattern and
            # anticommutes with 0011; no error maps onto 0011 itself
            ([0, 3], "checkpoint contains a code that fails verification"),
        ],
        ids=["above-range", "negative", "both-out-of-range", "out-of-range-repeat",
             "repeated", "repeated-no-zero", "no-zero", "trivial-error-only"],
    )
    def test_stored_code_with_a_bad_word_is_refused(
        self, code, message, complete_n4_checkpoint, capsys
    ):
        _job, data, _plain, ck = complete_n4_checkpoint
        head, *lines = data.decode().splitlines()
        records = [json.loads(ln) for ln in lines]
        (rec,) = [r for r in records if r["raw_mask"] == 0]
        rec["code"], rec["bestK"] = code, len(code)
        ck.write_text("\n".join([head, *map(json.dumps, records)]) + "\n")
        capsys.readouterr()
        assert main(["search", "--n", "4", "--d", "2", "--checkpoint", str(ck)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_trivial_error_only_case_fails_on_a_zero_pattern(self):
        g, errors = Graph.empty(4), error_set(4, 2)
        assert all(cl_map(e, g).value != 3 for e in errors.paulis)
        report = detection_check(CWSCode(g, ClassicalCode.from_ints(4, [0, 3])), errors)
        assert str(report.witness.error) == "XIII"
        assert cl_map(report.witness.error, g).value == 0

    @pytest.mark.parametrize("raw_mask", [1 << 70, -5], ids=["2^70", "-5"])
    def test_foreign_record_is_decided_on_its_low_edge_bits(
        self, raw_mask, complete_n4_checkpoint, capsys
    ):
        # a record of no graph of the job is verified, never replayed; its
        # graph is the one Graph.from_mask reads: the low 6 bits of the mask
        job, data, plain, ck = complete_n4_checkpoint
        g = Graph.from_mask(4, raw_mask & 63)
        assert g == Graph.from_mask(4, raw_mask)
        passing = list(cws_maxclique(error_set(4, 2), g).values)
        argv = ["search", "--n", "4", "--d", "2", "--checkpoint", str(ck)]
        for code, rc in [([0], 0), (passing, 0), ([0, 1], 2)]:
            record = {"raw_mask": raw_mask, "canon_mask": 0, "m": 1,
                      "bestK": len(code), "status": "exact", "code": code}
            ck.write_bytes(data + (json.dumps(record) + "\n").encode())
            capsys.readouterr()
            assert main(argv) == rc
            out, err = capsys.readouterr()
            if rc == 0:
                assert render_result(run_search(job, checkpoint=ck)) == plain
            else:
                assert err == "error: checkpoint contains a code that fails verification\n"

    @pytest.mark.parametrize("argv, digest", RUN_PINS.values(), ids=RUN_PINS.keys())
    def test_run_and_resume_outputs_pinned(self, argv, digest, tmp_path: Path, capsys):
        assert run_and_resume_digest(argv, tmp_path, capsys) == digest

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_build_chunk_moves_no_output(self, chunk, tmp_path: Path, capsys,
                                         monkeypatch):
        # chunks that split the graphs unevenly, down to one graph per chunk
        monkeypatch.setattr(cwskit.search, "BUILD_CHUNK", chunk)
        moved = [
            key
            for key, (argv, digest) in RUN_PINS.items()
            if run_and_resume_digest(argv, tmp_path, capsys) != digest
        ]
        assert moved == []

    @pytest.mark.parametrize("best_k", [9, 3])
    def test_record_whose_code_is_not_best_k_words_is_refused(
        self, best_k, tmp_path: Path, capsys
    ):
        # a search stores exactly bestK words; a record claiming another K
        # beside its code would set summary_bestK and keep the witness
        ck = tmp_path / "k.ckpt"
        argv = ["search", "--n", "4", "--d", "2", "--graphs", "iso",
                "--checkpoint", str(ck)]
        assert main(argv) == 0
        head, *lines = ck.read_text().splitlines()
        i = next(i for i, ln in enumerate(lines) if json.loads(ln)["bestK"] == 4)
        rec = json.loads(lines[i])
        rec["bestK"] = best_k
        lines[i] = json.dumps(rec)
        ck.write_text("\n".join([head, *lines]) + "\n")
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint line {i + 2} is not a record\n"
        )

    def test_record_fields_keeps_the_verdict_of_the_generator_form(self):
        # the record check before it was written as flat tests; an accepted
        # record's fields are the dict's values
        def reference(obj):
            code = obj.get("code")
            return (
                all(type(obj.get(k)) is int for k in ("raw_mask", "canon_mask", "m", "bestK"))
                and obj.get("status") in ("exact", "bound")
                and (
                    code is None
                    or type(code) is list
                    and all(type(c) is int for c in code)
                    and (not code or len(code) == obj["bestK"])
                )
            )

        good = {"raw_mask": 5, "canon_mask": 3, "m": 7, "bestK": 2,
                "status": "exact", "code": [0, 6]}
        values = [0, 2, -1, 1 << 70, True, False, 2.0, "2", None, [2], {"k": 2}]
        codes = [None, [], [0], [0, 6], [0, 6, 9], [0, True], [0, 6.0], ["0", 6],
                 [None, 1], [[0], 6], (0, 6), "06", 6, 6.0, True, {"0": 6}]
        objs = [good, {}, {"code": [0, 6]}]
        for key in good:
            objs.append({k: v for k, v in good.items() if k != key})
            for value in values + codes + ["bound", "exact", "EXACT", "unknown", ""]:
                objs.append({**good, key: value})
        for code in codes:
            for best_k in (0, 1, 2, 3, True, 2.0):
                objs.append({**good, "code": code, "bestK": best_k})
        keys = ("raw_mask", "canon_mask", "m", "bestK", "status", "code")
        verdicts = []
        for obj in objs:
            fields = cwskit.search._record_fields(obj)
            verdicts.append(fields is not None)
            if fields is not None:
                assert fields == tuple(obj.get(k) for k in keys), obj
        assert verdicts == [reference(obj) for obj in objs]
        assert True in verdicts and False in verdicts

    def test_resume_builds_only_the_witness_objects(self, tmp_path: Path, monkeypatch):
        # stored codes are verified on ints: resuming the complete n=5
        # checkpoint builds one Graph, ClassicalCode and CWSCode, and the
        # BitStrings of their words, all for the witness
        job = SearchJob(n=5, d=2, graph_source="all")
        ck = tmp_path / "all.ckpt"
        full = run_search(job, checkpoint=ck)
        built = []
        for cls in (Graph, ClassicalCode, CWSCode, BitString):
            def counted(self, hook=cls.__post_init__):
                built.append(type(self).__name__)
                hook(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        resumed = run_search(job, checkpoint=ck)
        assert render_result(resumed) == render_result(full)
        assert resumed.witness == full.witness
        assert sorted(built) == ["BitString"] * 6 + ["CWSCode", "ClassicalCode", "Graph"]

    def test_checkpoint_job_mismatch(self, tmp_path: Path):
        ck = tmp_path / "other.ckpt"
        run_search(SearchJob(n=3, d=2, graph_source="iso"), checkpoint=ck)
        with pytest.raises(Exception):
            run_search(SearchJob(n=3, d=3, graph_source="iso"), checkpoint=ck)

    def test_checkpoint_with_worker_pool(self, tmp_path: Path):
        job = SearchJob(n=4, d=2, graph_source="iso", worker_count=2)
        ck = tmp_path / "pool.ckpt"
        res = run_search(job, checkpoint=ck)
        plain = render_result(run_search(SearchJob(n=4, d=2, graph_source="iso")))
        assert render_result(res) == plain
        # every record landed in the checkpoint
        lines = [ln for ln in ck.read_text().splitlines()[1:] if ln.strip()]
        assert len(lines) == res.total_graphs


DECODE_JOB = SearchJob(n=4, d=2, target_k=3, graph_source="all")  # null records below K
DECODE_HEADER = json.dumps({"job": DECODE_JOB.fingerprint()}).encode()
DECODE_RECORD = (b'{"raw_mask": 5, "canon_mask": 3, "m": 7, "bestK": 2, '
                 b'"status": "exact", "code": [0, 6]}')


def crafted_checkpoint_lines() -> list[bytes]:
    """Complete lines (each ends in a newline) around a header and a record:
    JSON whitespace and other whitespace before and after the value, CRLF
    endings, a UTF-8 BOM, two values or trailing garbage, NaN, floats and
    bools where ints belong, ints of 70 bits and more, unhashable statuses,
    and invalid UTF-8."""
    record = DECODE_RECORD
    bodies = [DECODE_HEADER, record, record.replace(b"[0, 6]", b"null"),
              b"{}", b"[]", b"1", b'"x"', b"null", b"NaN", b""]
    for old, new in [(b'"m": 7', b'"m": NaN'), (b'"m": 7', b'"m": Infinity'),
                     (b'"m": 7', b'"m": -Infinity'), (b'"m": 7', b'"m": 7.0'),
                     (b'"m": 7', b'"m": 7e0'), (b'"m": 7', b'"m": true'),
                     (b'"bestK": 2', b'"bestK": false'), (b'[0, 6]', b'[0, 6.0]'),
                     (b'[0, 6]', b'[0, true]'), (b'[0, 6]', b'[0, NaN]'),
                     (b'"raw_mask": 5', b'"raw_mask": %d' % (1 << 70)),
                     (b'"raw_mask": 5', b'"raw_mask": %d' % -(1 << 75)),
                     (b'[0, 6]', b'[0, %d]' % (1 << 80)),
                     (b'"exact"', b'"ex\\u0061ct"'), (b'"exact"', b'"ex\xffact"'),
                     (b'"exact"', b'"exact\xc3"'), (b", ", b",\t"), (b": ", b":"),
                     # unhashable: a status check by set membership would raise
                     (b'"exact"', b'["exact"]'), (b'"exact"', b'{"s": 1}')]:
        bodies.append(record.replace(old, new))
    lines = []
    for body in bodies:
        lines += [
            body + b"\n",
            b"  " + body + b"\n",
            b"\t" + body + b"\n",
            b"\r" + body + b"\n",
            body + b"\r\n",
            body + b" \n",
            body + b" \t\r\n",
            body + b"\x0c\n",
            b"\x0c" + body + b"\n",
            body + " ".encode() + b"\n",
            " ".encode() + body + b"\n",
            b"\xef\xbb\xbf" + body + b"\n",
            body + b" " + body + b"\n",
            body + body + b"\n",
            body + b"x\n",
            body + b"}\n",
            body[:-1] + b"\n",
            b"\xff" + body + b"\n",
            body + b"\xff\n",
        ]
    return lines


def crafted_checkpoints(ln: bytes) -> list[bytes]:
    """Checkpoints of DECODE_JOB holding the crafted line `ln`: as line 1,
    after a blank line 1, as line 3 between two null records, before a torn
    tail, and as line 1 before a torn tail."""
    head = DECODE_HEADER + b"\n"
    before = DECODE_RECORD.replace(b"[0, 6]", b"null") + b"\n"
    after = before.replace(b'"raw_mask": 5', b'"raw_mask": 6')
    torn = after[:20]
    return [ln + after, b"\n" + ln + after, head + before + ln + after,
            head + before + ln + torn, ln + torn]


def load_outcome(ck: Path, data: bytes) -> tuple:
    """The replayed records or the message of loading `data` from `ck`,
    and the file's bytes afterwards."""
    ck.write_bytes(data)
    try:
        got = ("loaded", sorted(cwskit.search._load_checkpoint(ck, DECODE_JOB).items()))
    except ValueError as exc:
        got = ("refused", str(exc))
    return got, ck.read_bytes()


# sha256 of the repr of every crafted line's load_outcome in every
# placement, in the order of test_each_line_keeps_its_outcome_in_every_placement,
# computed with the loader of commit c01c5f1 (a scanner path for records,
# raw_decode and then json.loads for every other line)
CRAFTED_OUTCOMES_SHA256 = "c5a78674c20ff5f0c256be62fa0d30d9cdd9aca9f29e6ae21985f3ca3e185091"


class TestCheckpointDecode:
    def test_each_line_keeps_its_outcome_in_every_placement(self, tmp_path: Path, monkeypatch):
        # the same records or message, and the same file bytes, as the load
        # that takes every line through json.loads
        ck = tmp_path / "crafted.ckpt"
        outcomes, messages = [], set()

        def no_value(text, idx):  # a scanner that sends every line to json.loads
            raise StopIteration(idx)

        for ln in crafted_checkpoint_lines():
            for data in crafted_checkpoints(ln):
                got = load_outcome(ck, data)
                with monkeypatch.context() as m:
                    m.setattr(cwskit.search, "_DECODER", SimpleNamespace(scan_once=no_value))
                    expect = load_outcome(ck, data)
                assert got == expect, data
                outcomes.append(got)
                messages.add(got[0][1] if got[0][0] == "refused" else "loaded")
        assert messages == {
            "loaded",
            "checkpoint line 1 cannot be decoded",
            "checkpoint line 1 is not a job header",
            "checkpoint line 3 cannot be decoded",
            "checkpoint line 3 is not a record",
            "checkpoint contains a code that fails verification",
            f"value {1 << 80} out of range for n=4",
        }
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == CRAFTED_OUTCOMES_SHA256

    def test_a_blank_first_line_does_not_decode(self, tmp_path: Path, monkeypatch):
        # a blank line 1 is refused before any later line is decoded
        ck = tmp_path / "blank.ckpt"
        data = b"\n" + DECODE_HEADER + b"\n" + DECODE_RECORD + b"\n"
        ck.write_bytes(data)

        def refuse(*args, **kwargs):
            raise AssertionError("a line was decoded")

        monkeypatch.setattr(json, "loads", refuse)
        monkeypatch.setattr(cwskit.search, "_DECODER", SimpleNamespace(scan_once=refuse))
        with pytest.raises(ValueError, match="^checkpoint line 1 cannot be decoded$"):
            cwskit.search._load_checkpoint(ck, DECODE_JOB)
        assert ck.read_bytes() == data

    @pytest.mark.parametrize("deep", [b"[" * 100000, b'{"a": ' * 100000],
                             ids=["array", "object"])
    def test_a_line_nested_too_deep_does_not_decode(self, tmp_path: Path, deep):
        # the JSON scanner raises RecursionError on it, not ValueError
        ck = tmp_path / "deep.ckpt"
        record = DECODE_RECORD.replace(b"[0, 6]", b"null") + b"\n"
        for lineno, data in [(1, deep + b"\n" + record),
                             (3, DECODE_HEADER + b"\n" + record + deep + b"\n")]:
            ck.write_bytes(data)
            with pytest.raises(ValueError, match=f"^checkpoint line {lineno} cannot be decoded$"):
                cwskit.search._load_checkpoint(ck, DECODE_JOB)
            assert ck.read_bytes() == data

    def test_written_lines_take_the_reused_decoder(self, complete_n4_checkpoint, monkeypatch):
        # every line a search writes, the header too, is decoded by the
        # scanner, without json.loads
        job, data, _plain, ck = complete_n4_checkpoint
        ck.write_bytes(data)
        expect = cwskit.search._load_checkpoint(ck, job)

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(json, "loads", refuse)
        assert cwskit.search._load_checkpoint(ck, job) == expect
        assert len(expect) == 1 << 6


class TestCli:
    def _graph_file(self, tmp_path: Path, g: Graph) -> str:
        path = tmp_path / "g.graph"
        path.write_text(write_graph_file(g))
        return str(path)

    def test_map_errors(self, tmp_path: Path, capsys):
        gf = self._graph_file(tmp_path, Graph.ring(5))
        out = tmp_path / "cl.dump"
        assert main(["map-errors", "--graph", gf, "--d", "3", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "cl_zero=0" in captured
        assert "degenerate=false" in captured
        assert out.read_text() == setup(error_set(5, 3), Graph.ring(5)).dump()

    def test_map_errors_degenerate_case(self, tmp_path: Path, capsys):
        gf = self._graph_file(tmp_path, Graph.empty(3))
        out = tmp_path / "cl.dump"
        assert main(["map-errors", "--graph", gf, "--d", "2", "--out", str(out)]) == 0
        assert "degenerate=true" in capsys.readouterr().out

    def test_map_errors_malformed_graph(self, tmp_path: Path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("n 3\n0 0\n")
        rc = main(["map-errors", "--graph", str(bad), "--d", "2"])
        assert rc != 0

    def test_clique_graph_dump(self, tmp_path: Path):
        gf = self._graph_file(tmp_path, Graph.ring(4))
        out = tmp_path / "cg.dump"
        assert main(["clique-graph", "--graph", gf, "--d", "2", "--out", str(out)]) == 0
        cg = make_cws_clique_graph(setup(error_set(4, 2), Graph.ring(4)))
        assert out.read_text() == cg.dump()

    @pytest.mark.parametrize("action", ["map-errors", "clique-graph"])
    def test_dump_without_out_goes_to_stdout(self, action, tmp_path: Path, capsys):
        # the stdout dump is the file --out writes, byte for byte
        gf = self._graph_file(tmp_path, Graph.ring(5))
        out = tmp_path / "dump.txt"
        assert main([action, "--graph", gf, "--d", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([action, "--graph", gf, "--d", "3"]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_search_cli_absence(self, tmp_path: Path):
        out = tmp_path / "res.txt"
        rc = main(
            ["search", "--n", "2", "--d", "2", "--k", "2", "--graphs", "all",
             "--out", str(out)]
        )
        assert rc == EXIT_ABSENT
        assert out.read_text().endswith("summary_bestK=1\n")

    @pytest.mark.parametrize("n, d", [(5, 9), (5, 0), (0, 2)])
    def test_search_cli_rejects_bad_n_or_d(self, n, d, capsys):
        assert main(["search", "--n", str(n), "--d", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "aborted" not in err

    @pytest.mark.parametrize("source", ["all", "iso", "lc"])
    @pytest.mark.parametrize("exists", [True, False], ids=["file", "missing"])
    def test_graph_file_without_file_source_is_usage_error(
        self, source, exists, tmp_path: Path, capsys
    ):
        # the file would be ignored: the search would run over every graph
        # of the source, and a checkpoint would not match the same job
        # without the stray path
        gf = tmp_path / "g.graph"
        if exists:
            gf.write_text(write_graph_file(Graph.ring(4)))
        argv = ["search", "--n", "4", "--d", "2", "--graphs", source, "--graph", str(gf)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a graph file needs the file graph source\n"

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_search_cli_rejects_worker_count_below_1(self, jobs, capsys):
        assert main(["search", "--n", "3", "--d", "2", "--jobs", jobs]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: worker count must be positive, got {jobs}\n"

    @pytest.mark.parametrize("budget", ["-7", "-2"])
    def test_search_cli_rejects_budget_below_minus_1(self, budget, capsys):
        # -1 is the one unlimited budget, so a checkpoint fingerprint names
        # an unlimited search one way only
        assert main(["search", "--n", "3", "--d", "2", "--budget", budget]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: budget must be -1 (unlimited) or at least 0, got {budget}\n"

    @pytest.mark.parametrize("option", [["--heuristic"], ["--seed", "3"]],
                             ids=["heuristic", "seed"])
    def test_removed_solver_options_are_unknown(self, option, capsys):
        # the exact solver under --budget is the only one; argparse exits 2
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "4", "--d", "2", *option])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: {' '.join(option)}\n")

    @pytest.mark.parametrize(
        "budget, code, best_k", [("-1", 0, 4), ("0", 4, 1)], ids=["unlimited", "zero"]
    )
    def test_search_cli_accepts_budget_minus_1_and_0(self, budget, code, best_k, capsys):
        # 0 expands no node, so every graph with a candidate is budget-bound
        assert main(["search", "--n", "4", "--d", "2", "--budget", budget]) == code
        out, _err = capsys.readouterr()
        assert f"summary_bestK={best_k}\n" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["map-errors", "--graph", "DIR", "--d", "2"],
            ["clique-graph", "--graph", "DIR", "--d", "2"],
            ["search", "--n", "4", "--d", "2", "--graphs", "file", "--graph", "DIR"],
            ["search", "--n", "4", "--d", "2", "--checkpoint", "DIR"],
            ["search", "--n", "2", "--d", "2", "--out", "DIR"],
            ["verify", "--code", "DIR"],
            ["convert", "--ac06", "DIR"],
            ["convert", "--code", "DIR"],
            ["structure", "linear", "--code", "DIR"],
            ["structure", "filter", "--n", "7", "--k", "3", "--d", "3", "--registry", "DIR"],
            ["orbit", "--graph", "DIR"],
        ],
        ids=lambda argv: " ".join(a for a in argv if a.startswith("--") or a.isalpha()),
    )
    def test_directory_path_is_input_error(self, argv, tmp_path: Path, capsys):
        rc = main([str(tmp_path) if a == "DIR" else a for a in argv])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, rc, graph, code",
        [
            (["--n", "5", "--d", "2", "--graphs", "all"], 0, "0dc",
             "00000,01100,10010,11101,11011,00111"),
            (["--n", "5", "--d", "3", "--graphs", "all"], 0, "0dc", "00000,11111"),
            (["--n", "6", "--d", "2", "--graphs", "lc"], 0, "001f",
             "000000,110000,101000,011000,100100,010100,001100,111100,"
             "100010,010010,001010,111010,000110,110110,101110,011110"),
            (["--n", "5", "--d", "2", "--budget", "3"], 4, "007",
             "00000,01101,01011,00111"),
        ],
        ids=["n5d2", "n5d3", "n6d2-lc", "n5d2-budget3"],
    )
    def test_search_witness_pinned(self, argv, rc, graph, code, capsys):
        assert main(["search", *argv]) == rc
        out = capsys.readouterr().out.splitlines()
        assert f"witness_graph={graph}" in out
        assert f"witness_code={code}" in out

    @pytest.mark.parametrize("out", ["DIR", "DIR/missing/res.txt", "DIR/file/res.txt"])
    def test_unwritable_out_refused_before_search(self, out, tmp_path: Path, capsys,
                                                 monkeypatch):
        def boom(*_args, **_kwargs):
            raise AssertionError("search ran before --out was checked")

        monkeypatch.setattr(cwskit.cli, "run_search", boom)
        (tmp_path / "file").write_text("")
        out = out.replace("DIR", str(tmp_path))
        assert main(["search", "--n", "5", "--d", "2", "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: --out")

    def test_witness_failing_kl_oracle_never_exits_0(self, tmp_path: Path, capsys,
                                                     monkeypatch):
        # hiding one error pattern fools the search and detection_check alike,
        # since both read errormap.cl_patterns: ((5,8,2)) does not exist, and
        # only the Knill-Laflamme oracle sees that
        cl_patterns = errormap.cl_patterns

        def hide_last(xcols, v, rows):
            patterns = cl_patterns(xcols, v, rows)
            patterns[..., -1] = patterns[..., 0]  # per graph, also for a row table
            return patterns

        monkeypatch.setattr(errormap, "cl_patterns", hide_last)
        out = tmp_path / "res.txt"
        rc = main(["search", "--n", "5", "--d", "2", "--graphs", "lc", "--out", str(out)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err == "aborted: witness fails kl_oracle\n"
        assert "witness_code=" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--n", "5", "--d", "2", "--budget", "3"],
             "766 of 1024 graphs budget-bound at --budget 3"),
            (["--n", "3", "--d", "2", "--k", "5", "--graphs", "file"],
             "--graphs file does not cover every graph class"),
        ],
        ids=["budget", "file"],
    )
    def test_inconclusive_exit_gives_its_reason(self, argv, reason, tmp_path: Path,
                                                capsys):
        if "file" in argv:
            argv = [*argv, "--graph", self._graph_file(tmp_path, Graph.ring(3))]
        assert main(["search", *argv]) == 4
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("elapsed=")
        assert err[1:] == [f"inconclusive: {reason}"]

    @pytest.mark.parametrize(
        "argv, rc",
        [(["--n", "4", "--d", "2"], 0), (["--n", "5", "--d", "3", "--k", "3"], 3)],
    )
    def test_conclusive_exit_gives_no_reason(self, argv, rc, capsys):
        assert main(["search", *argv]) == rc
        assert "inconclusive" not in capsys.readouterr().err

    def test_progress_lines_give_rate_and_eta(self, capsys, monkeypatch):
        argv = ["search", "--n", "4", "--d", "2"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setattr(cwskit.search, "PROGRESS_EVERY", 16)
        assert main([*argv, "--progress"]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        lines = [ln for ln in captured.err.splitlines() if ln.startswith("processed")]
        counts = []
        for ln in lines:
            match = re.fullmatch(r"processed (\d+)/64 (\d+) graphs/s eta (\d+)s", ln)
            assert match, ln
            counts.append(int(match[1]))
        assert counts == [16, 32, 48, 64]
        assert lines[-1].endswith(" eta 0s")

    def test_worker_failure_exits_4(self, capsys, monkeypatch):
        def boom(*_args):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cwskit.search, "_process_mask", boom)
        assert main(["search", "--n", "3", "--d", "2", "--graphs", "iso"]) == 4
        captured = capsys.readouterr()
        assert captured.err == "aborted: worker failure: induced failure\n"
        assert captured.out == ""

    def test_witness_failing_detection_check_exits_4(self, tmp_path: Path, capsys,
                                                     monkeypatch):
        def failing(q, errors):
            return VerificationReport(False, False, None)

        monkeypatch.setattr(cwskit.cli, "detection_check", failing)
        out = tmp_path / "res.txt"
        rc = main(["search", "--n", "4", "--d", "2", "--graphs", "iso", "--out", str(out)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.err == "aborted: witness fails detection_check\n"
        assert "witness_code=" not in captured.out
        assert not out.exists()

    def test_search_cli_found_writes_result(self, tmp_path: Path, capsys):
        out = tmp_path / "res.txt"
        rc = main(["search", "--n", "4", "--d", "2", "--graphs", "iso", "--out", str(out)])
        assert rc == EXIT_FOUND
        assert "summary_bestK=" in capsys.readouterr().out
        assert out.exists()

    def test_verify_cli(self, tmp_path: Path, capsys):
        from cwskit.gf2 import ClassicalCode
        from cwskit.verify import CWSCode, write_code_file

        q = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))
        write_code_file(tmp_path / "pent.code", q, "pent.graph")
        assert main(["verify", "--code", str(tmp_path / "pent.code")]) == 0
        text = capsys.readouterr().out
        assert "n=5" in text and "K=2" in text
        assert "distance=3" in text
        assert "linear=true" in text

    @pytest.mark.parametrize(
        "graph, words, argv, digest",
        [
            ("ring5", ["00000", "11111"], [],
             "a1add987ce4a99e84046b6bc42ae227e3fd5f3f52a94a0eb69b86014571e6b43"),
            ("ring5", ["00000", "11111"], ["--d", "2"],
             "c038a69619b5964406420b9e6b0769d868191058d1e5d7695459a5af3aedff91"),
            ("ring5", ["00000", "11111"], ["--d", "6"],
             "a007713b5d925237b181c921eb0dee34705f722c787d5a0bbd48182c94c9186d"),
            ("star4", ["0000", "0110", "0101", "0011"], [],
             "dec4dade5c3046bfae115a1d44b5f677e6f1ec372389f8828a590a9e72850c37"),
            ("star4", ["0000", "0110", "0101", "1011"], [],
             "41802f930f635df3a78503a85979e12b38151fb9cb8f59e5301f1947eb986b56"),
            ("star4", ["0000", "0110", "0101", "1011"], ["--d", "3"],
             "9c287ea7b37a9189b3ab2e0a7516723bb34d03faa9b302068290f6381d2cf943"),
        ],
        ids=["pentagon", "pentagon-d2", "pentagon-d6", "linear-4-4-2",
             "nonlinear-4-4-2", "witness"],
    )
    def test_verify_cli_pinned(self, graph, words, argv, digest, tmp_path: Path,
                               capsys):
        from cwskit.gf2 import ClassicalCode
        from cwskit.verify import CWSCode, write_code_file

        graphs = {
            "ring5": Graph.ring(5),
            "star4": Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        }
        q = CWSCode(graphs[graph], ClassicalCode.from_texts(words))
        write_code_file(tmp_path / "q.code", q, "q.graph")
        assert main(["verify", "--code", str(tmp_path / "q.code")] + argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_verify_cli_runs_the_oracle_once(self, tmp_path: Path, capsys,
                                             monkeypatch):
        from cwskit.gf2 import ClassicalCode
        from cwskit.verify import CWSCode, kl_oracle, write_code_file

        calls = []

        def counted(q, d):
            calls.append(d)
            return kl_oracle(q, d)

        monkeypatch.setattr(cwskit.verify, "kl_oracle", counted)
        monkeypatch.setattr(cwskit.cli, "kl_oracle", counted)
        q = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))
        write_code_file(tmp_path / "pent.code", q, "pent.graph")
        assert main(["verify", "--code", str(tmp_path / "pent.code"), "--d", "2"]) == 0
        assert "oracle_distance=2" in capsys.readouterr().out
        assert calls == [4]  # code_distance's cross-check at D + 1

    def test_convert_cli_round_trip(self, tmp_path: Path, capsys):
        ac06_text = (
            "n=5\nA:\n"
            "0011001111\n0110011110\n1100011101\n1000111011\n0001101000\n"
            "f:\nv1v2v3 + v3v4v5 + v2v3v4 + v1v2v5 + v1v4v5 + v1v2v3v4\n"
        )
        src = tmp_path / "ex.ac06"
        src.write_text(ac06_text)
        base = tmp_path / "converted"
        rc = main(["convert", "--ac06", str(src), "--out", str(base)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "stabilizer=IZYYZ" in out
        assert "K=6" in out
        assert main(["verify", "--code", str(base.with_suffix(".code"))]) == 0
        text = capsys.readouterr().out
        assert "n=5" in text and "K=6" in text and "distance=2" in text

    def test_convert_code_to_ac06(self, tmp_path: Path, capsys):
        from cwskit.gf2 import ClassicalCode
        from cwskit.verify import CWSCode, write_code_file

        q = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))
        write_code_file(tmp_path / "pent.code", q, "pent.graph")
        code = str(tmp_path / "pent.code")
        assert main(["convert", "--code", code]) == 0
        text = capsys.readouterr().out
        assert text.startswith("n=5\nA:\n")
        out = tmp_path / "pent.ac06"
        assert main(["convert", "--code", code, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == text
        # the written file converts back to a code of the same size
        assert main(["convert", "--ac06", str(out)]) == 0
        back = capsys.readouterr().out.splitlines()
        assert "n=5" in back and "K=2" in back

    def test_convert_requires_one_input(self, capsys):
        assert main(["convert"]) == 2

    def test_structure_cli_linear_and_filter(self, tmp_path: Path, capsys):
        from cwskit.gf2 import ClassicalCode
        from cwskit.verify import CWSCode, write_code_file

        q = CWSCode(
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
            ClassicalCode.from_texts(["0000", "0110", "0101", "0011"]),
        )
        write_code_file(tmp_path / "c1.code", q, "c1.graph")
        assert main(["structure", "linear", "--code", str(tmp_path / "c1.code")]) == 0
        assert "is_linear=true" in capsys.readouterr().out

        reg = tmp_path / "reg.txt"
        reg.write_text("n=7 K=2 d=3 optimal=yes source=tables\n")
        assert main(
            ["structure", "filter", "--n", "7", "--k", "3", "--d", "3",
             "--registry", str(reg)]
        ) == 0
        assert "verdict=pruned" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, missing",
        [
            (["linear"], "--code"),
            (["extend-dim3"], "--code"),
            (["double", "--code", "CODE"], "--subcode, --v"),
            (["filter"], "--registry, --n, --k"),
            (["filter", "--registry", "REG"], "--n, --k"),
        ],
        ids=["linear", "extend-dim3", "double", "filter", "filter-no-n-k"],
    )
    def test_structure_missing_option_is_usage_error(
        self, argv, missing, tmp_path: Path, capsys
    ):
        from cwskit.gf2 import ClassicalCode
        from cwskit.verify import CWSCode, write_code_file

        q = CWSCode(
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
            ClassicalCode.from_texts(["0000", "0110", "0101", "0011"]),
        )
        write_code_file(tmp_path / "c1.code", q, "c1.graph")
        (tmp_path / "reg.txt").write_text("n=7 K=2 d=3 optimal=yes source=tables\n")
        paths = {"CODE": str(tmp_path / "c1.code"), "REG": str(tmp_path / "reg.txt")}
        assert main(["structure"] + [paths.get(a, a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: structure {argv[0]} needs {missing}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "0", "--k", "3", "--d", "1"],
            ["--n", "7", "--k", "0", "--d", "3"],
            ["--n", "7", "--k", "3", "--d", "0"],
            ["--n", "7", "--k", "3", "--d", "9"],
        ],
        ids=["n0", "k0", "d0", "d9"],
    )
    def test_structure_filter_rejects_bad_numbers(self, argv, tmp_path: Path, capsys):
        reg = tmp_path / "reg.txt"
        reg.write_text("n=7 K=2 d=3 optimal=yes source=tables\n")
        assert main(["structure", "filter", "--registry", str(reg)] + argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")

    def test_structure_cli_linear_reports_a_violating_pair(self, tmp_path: Path, capsys):
        from cwskit.verify import write_code_file

        q = CWSCode(
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
            ClassicalCode.from_texts(["0000", "0110", "0101"]),
        )
        write_code_file(tmp_path / "c.code", q, "c.graph")
        assert main(["structure", "linear", "--code", str(tmp_path / "c.code")]) == 0
        assert capsys.readouterr().out == "is_linear=false\nviolating_pair=0110,0101\n"

    def test_structure_cli_double(self, tmp_path: Path, capsys):
        from cwskit.verify import parse_code_file, write_code_file

        q = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))
        write_code_file(tmp_path / "q.code", q, "q.graph")
        rc = main(
            ["structure", "double", "--code", str(tmp_path / "q.code"), "--d", "3",
             "--subcode", "00000", "--v", "11111", "--out", str(tmp_path / "doubled")]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "n=5\nK=2\ncodeword=00000\ncodeword=11111\noracle_distance=3\n"
        )
        back = parse_code_file(tmp_path / "doubled.code")
        assert back.graph == q.graph and set(back.code.values) == {0, 0b11111}

    def test_structure_cli_extend(self, tmp_path: Path, capsys):
        from cwskit.gf2 import ClassicalCode
        from cwskit.verify import CWSCode, write_code_file

        # a verified ((5,3,2)) instance found by search, extended to K=4
        res = run_search(SearchJob(n=5, d=2, target_k=3, graph_source="iso"))
        assert res.witness is not None
        write_code_file(tmp_path / "k3.code", res.witness, "k3.graph")
        rc = main(
            ["structure", "extend-dim3", "--code", str(tmp_path / "k3.code"),
             "--d", "2", "--out", str(tmp_path / "k4")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "K=4" in out
        assert "oracle_distance=2" in out

    def test_structure_cli_extend_output_pinned(self, tmp_path: Path, capsys):
        from cwskit.verify import write_code_file

        res = run_search(SearchJob(n=5, d=2, target_k=3, graph_source="iso"))
        write_code_file(tmp_path / "k3.code", res.witness, "k3.graph")
        assert (tmp_path / "k3.code").read_text() == (
            "n=5\ngraph=k3.graph\n00000\n01101\n01011\n"
        )
        rc = main(
            ["structure", "extend-dim3", "--code", str(tmp_path / "k3.code"),
             "--d", "2", "--out", str(tmp_path / "k4")]
        )
        assert rc == 0
        assert capsys.readouterr().out == (
            "n=5\nK=4\ncodeword=00000\ncodeword=00110\ncodeword=01101\n"
            "codeword=01011\noracle_distance=2\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "k3.code", "k3.graph", "k4.code", "k4.graph"
        ]
        assert (tmp_path / "k4.code").read_text() == (
            "n=5\ngraph=k4.graph\n00000\n00110\n01101\n01011\n"
        )
        assert (tmp_path / "k4.graph").read_text() == "n 5\n1 4\n2 4\n3 4\n"

    @pytest.mark.parametrize(
        "fact, argv, reason",
        [
            ("n=9 K=1 d=5 optimal=yes source=x", ["--n", "9", "--k", "2", "--d", "5"],
             "optimal additive ((9,1,5)) forbids K>1 (x)"),
            ("n=7 K=2 d=3 optimal=yes source=published tables",
             ["--n", "7", "--k", "3", "--d", "3"],
             "optimal additive ((7,2,3)) forbids K>2 (published tables)"),
        ],
        ids=["k1", "k2"],
    )
    def test_structure_cli_filter_reason_pinned(
        self, fact, argv, reason, tmp_path: Path, capsys
    ):
        reg = tmp_path / "reg.txt"
        reg.write_text(fact + "\n")
        assert main(["structure", "filter", "--registry", str(reg)] + argv) == 0
        assert capsys.readouterr().out == f"verdict=pruned\nreason={reason}\n"

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["linear", "--code", "K4"], ["--out", "OUT"]),
            (["filter", "--registry", "REG", "--n", "7", "--k", "3", "--d", "3"],
             ["--code", "K4"]),
            (["filter", "--registry", "REG", "--n", "7", "--k", "3", "--d", "3"],
             ["--out", "OUT"]),
            (["extend-dim3", "--code", "K3", "--d", "2", "--out", "OUT"],
             ["--subcode", "0000,0110"]),
            (["double", "--code", "K4", "--subcode", "0000,0110", "--v", "0101",
              "--d", "2", "--out", "OUT"], ["--registry", "REG"]),
        ],
        ids=["linear-out", "filter-code", "filter-out", "extend-dim3-subcode",
             "double-registry"],
    )
    def test_structure_option_outside_its_action_is_usage_error(
        self, argv, extra, tmp_path: Path, capsys
    ):
        # each action's parser holds only the options that action reads, so
        # an option it would ignore exits 2 before any file is read or written
        from cwskit.verify import write_code_file

        graph = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        words = ["0000", "0110", "0101", "0011"]
        write_code_file(tmp_path / "k4.code", CWSCode(graph, ClassicalCode.from_texts(words)),
                        "k4.graph")
        write_code_file(tmp_path / "k3.code",
                        CWSCode(graph, ClassicalCode.from_texts(words[:3])), "k3.graph")
        (tmp_path / "reg.txt").write_text("n=7 K=2 d=3 optimal=yes source=tables\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        paths = {"K4": str(tmp_path / "k4.code"), "K3": str(tmp_path / "k3.code"),
                 "REG": str(tmp_path / "reg.txt"), "OUT": str(tmp_path / "out")}
        extra = [paths.get(a, a) for a in extra]
        with pytest.raises(SystemExit) as exc:
            main(["structure"] + [paths.get(a, a) for a in argv] + extra)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        # without the extra option the same call runs
        assert main(["structure"] + [paths.get(a, a) for a in argv]) == 0

    def test_structure_options_go_after_the_action(self, tmp_path: Path, capsys):
        from cwskit.verify import write_code_file

        q = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))
        write_code_file(tmp_path / "q.code", q, "q.graph")
        with pytest.raises(SystemExit) as exc:
            main(["structure", "--code", str(tmp_path / "q.code"), "linear"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_orbit_cli(self, tmp_path: Path, capsys):
        gf = self._graph_file(tmp_path, Graph.ring(5))
        assert main(["orbit", "--graph", gf]) == 0
        out = capsys.readouterr().out
        assert out == "orbit_size=3\n0dc\n0dd\n0df\n"
        gf = self._graph_file(tmp_path, Graph.ring(7))
        assert main(["orbit", "--graph", gf]) == 0
        out = capsys.readouterr().out
        assert out.startswith("orbit_size=92\n00ad30\n00ad31\n")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "1b2ff999f47f88022a9e83acadf95e58278b11c422f5432ceeb7757a1edfca54"
        )
