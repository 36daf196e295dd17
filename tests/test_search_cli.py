import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwskit.cli import main
from cwskit.errormap import ClArrays
from cwskit.clique import parse_clique_graph_dump
from cwskit.graphs import Graph, canonical_form, write_graph_file
import cwskit.search
from cwskit.search import (
    EXIT_ABSENT,
    EXIT_FOUND,
    EXIT_INCONCLUSIVE,
    SearchAborted,
    SearchJob,
    render_result,
    run_search,
)
from cwskit.verify import detection_check
from cwskit.errormap import error_set

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

    def test_heuristic_mode_bounds(self):
        exact = run_search(SearchJob(n=4, d=2, graph_source="iso"))
        heur = run_search(
            SearchJob(n=4, d=2, graph_source="iso", exactness="heuristic", seed=7)
        )
        assert heur.summary_best_k <= exact.summary_best_k
        assert all(r.status == "bound" for r in heur.records)
        assert heur.exit_code == EXIT_FOUND
        again = run_search(
            SearchJob(n=4, d=2, graph_source="iso", exactness="heuristic", seed=7)
        )
        assert render_result(heur) == render_result(again)

    def test_witness_reverifies(self):
        res = run_search(SearchJob(n=4, d=2, graph_source="iso"))
        assert res.witness is not None
        assert detection_check(res.witness, error_set(4, 2)).detects

    def test_heuristic_reaching_target_counts_as_found(self):
        res = run_search(
            SearchJob(n=2, d=1, target_k=3, graph_source="all", exactness="heuristic")
        )
        assert res.summary_best_k >= 3
        assert res.exit_code == EXIT_FOUND

    def test_worker_failure_aborts(self, monkeypatch):
        def boom(_mask):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(cwskit.search, "_process_mask", boom)
        with pytest.raises(SearchAborted):
            run_search(SearchJob(n=3, d=2, graph_source="iso"))


@pytest.fixture(scope="module")
def complete_n4_checkpoint(tmp_path_factory):
    """(job, its complete checkpoint's bytes, uninterrupted result, scratch path)."""
    job = SearchJob(n=4, d=2, graph_source="all")
    ck = tmp_path_factory.mktemp("complete") / "n4.ckpt"
    plain = render_result(run_search(job, checkpoint=ck))
    return job, ck.read_bytes(), plain, ck.with_name("cut.ckpt")


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
        # keep the header and the first third of the records
        keep = 1 + (len(lines) - 1) // 3
        ck.write_text("\n".join(lines[:keep]) + "\n")
        resumed = run_search(job, checkpoint=ck)
        assert render_result(resumed) == plain == render_result(full)

    def test_complete_checkpoint_builds_no_class_table(self, tmp_path: Path, monkeypatch):
        job = SearchJob(n=4, d=2, graph_source="all")
        ck = tmp_path / "all.ckpt"
        full = run_search(job, checkpoint=ck)

        def boom(_n):
            raise AssertionError("class table built with no pending graph")

        monkeypatch.setattr(cwskit.search, "class_table", boom)
        assert render_result(run_search(job, checkpoint=ck)) == render_result(full)

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

        def checked(mask):
            on_disk = ck.read_text().splitlines()
            assert len(on_disk) == 1 + len(calls)
            calls.append(mask)
            return process(mask)

        monkeypatch.setattr(cwskit.search, "_process_mask", checked)
        res = run_search(job, checkpoint=ck)
        assert len(calls) == res.total_graphs == 64

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
        arrays = ClArrays.parse(out.read_text())
        assert arrays.n == 5

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
        m, rows = parse_clique_graph_dump(out.read_text())
        assert m == len(rows)

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

    def test_orbit_cli(self, tmp_path: Path, capsys):
        gf = self._graph_file(tmp_path, Graph.ring(5))
        assert main(["orbit", "--graph", gf]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("orbit_size=")
        assert len(out) == 1 + int(out[0].split("=")[1])
