import hashlib
import random
from pathlib import Path

import numpy as np

from conftest import dense_pauli, random_graph
from cwskit.clique import cws_maxclique
from cwskit.errormap import ErrorSet, _weight_errors, cl_map, error_set
from cwskit.gf2 import ClassicalCode, PauliOp, parity
from cwskit.graphs import Graph, graph_state_amplitudes
from cwskit.verify import (
    CWSCode,
    code_distance,
    detection_check,
    kl_oracle,
    kl_oracle_states,
    parse_code_file,
    report_lines,
    stabilizer_state_vector,
    verification_report,
    write_code_file,
)

PENTAGON = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))

EX3_GRAPH = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
EX3_C1 = ClassicalCode.from_texts(["0000", "0110", "0101", "0011"])
EX3_C2 = ClassicalCode.from_texts(["0000", "0110", "0101", "1011"])


def random_code(g: Graph, k: int, rng) -> CWSCode:
    words = {0}
    while len(words) < k:
        words.add(rng.randrange(1 << g.n))
    return CWSCode(g, ClassicalCode.from_ints(g.n, sorted(words)))


class TestDetectionCheck:
    def test_pentagon_distance3(self):
        report = detection_check(PENTAGON, error_set(5, 3))
        assert report.detects and not report.degenerate and report.witness is None

    def test_detection_failure_witness(self):
        q = CWSCode(Graph.empty(3), ClassicalCode.from_texts(["000", "100"]))
        errs = ErrorSet(3, (PauliOp.single(3, 0, "Z"),))
        report = detection_check(q, errs)
        assert not report.detects
        assert str(report.witness.error) == "ZII"
        a, b = report.witness.pair
        assert cl_map(report.witness.error, q.graph).value == (a ^ b).value

    def test_degeneracy_violation_witness(self):
        q = CWSCode(Graph.empty(2), ClassicalCode.from_texts(["00", "10"]))
        errs = ErrorSet(2, (PauliOp.single(2, 0, "X"),))
        report = detection_check(q, errs)
        assert not report.detects and report.degenerate
        (c,) = report.witness.pair
        assert cl_map(report.witness.error, q.graph).value == 0
        assert parity(c.value & report.witness.error.u) == 1

    def test_witness_has_lowest_error_index(self):
        q = CWSCode(Graph.empty(3), ClassicalCode.from_texts(["000", "110"]))
        errs = error_set(3, 2)  # starts X1, Y1, Z1, ...
        report = detection_check(q, errs)
        assert not report.detects
        # X1 maps to zero pattern and violates the commutation condition first
        assert str(report.witness.error) == "XII"

    def test_empty_error_set(self):
        report = detection_check(PENTAGON, error_set(5, 1))
        assert report.detects and not report.degenerate

    def test_reports_pinned(self):
        # (detects, degenerate, witness error, witness pair) over seeded codes
        # in shuffled word order, against weight-bounded and single-weight
        # error sets, so a change of witness choice shows here
        rng = random.Random(14)
        h = hashlib.sha256()
        violations = 0
        for _ in range(2000):
            n = rng.randint(2, 6)
            g = random_graph(n, rng)
            words = list(random_code(g, rng.randint(1, min(8, 1 << n)), rng).code.values)
            rng.shuffle(words)
            q = CWSCode(g, ClassicalCode.from_ints(n, words))
            if rng.random() < 0.5:
                errs = error_set(n, rng.randint(1, min(4, n + 1)))
            else:
                errs = ErrorSet(n, tuple(_weight_errors(n, rng.randint(1, n))))
            report = detection_check(q, errs)
            witness = report.witness
            if witness is not None:
                violations += 1
            h.update(repr((
                report.detects,
                report.degenerate,
                None if witness is None else str(witness.error),
                None if witness is None else tuple(str(b) for b in witness.pair),
            )).encode())
        assert violations == 1418
        assert h.hexdigest() == "62ea2d69d7d5d8c1b96f9ea41d4bd629dfd2d03e7fcebf7594693ee704d8d575"


class TestKlOracle:
    def test_pentagon(self):
        assert kl_oracle(PENTAGON, 3) == 3
        assert kl_oracle(PENTAGON, 4) == 3

    def test_k1_trivial(self):
        rng = random.Random(0)
        q = CWSCode(random_graph(4, rng), ClassicalCode.from_texts(["0000"]))
        assert kl_oracle(q, 1) == 1

    def test_lambda_zero_for_nonzero_patterns(self):
        # for a non-degenerate code, every checked error with a nonzero
        # induced pattern must have vanishing diagonal matrix elements
        amp = graph_state_amplitudes(PENTAGON.graph)
        x = np.arange(32)
        for e in error_set(5, 3):
            if cl_map(e, PENTAGON.graph).value == 0:
                continue
            de = dense_pauli(e)
            for c in PENTAGON.code.values:
                b = amp * (1 - 2 * ((np.bitwise_count(x & c) & 1).astype(np.int64)))
                assert abs(np.conj(b) @ de @ b) < 1e-9

    def test_agreement_with_detection(self):
        rng = random.Random(1)
        mismatches = 0
        for _ in range(60):
            n = rng.randint(2, 4)
            g = random_graph(n, rng)
            q = random_code(g, rng.randint(1, 4), rng)
            d = rng.randint(1, n)
            detects = detection_check(q, error_set(n, d)).detects
            oracle = kl_oracle(q, d) == d
            if detects != oracle:
                mismatches += 1
        assert mismatches == 0

    def test_agreement_on_search_outputs_up_to_n6(self):
        rng = random.Random(9)
        for n in (5, 6):
            errs = error_set(n, 2)
            for _ in range(20):
                g = random_graph(n, rng)
                code = cws_maxclique(errs, g)
                q = CWSCode(g, code.sorted())
                assert detection_check(q, errs).detects
                assert kl_oracle(q, 2) == 2


class TestCodeDistance:
    def test_pentagon(self):
        assert code_distance(PENTAGON) == 3

    def test_example3_codes(self):
        q1 = CWSCode(EX3_GRAPH, EX3_C1)
        q2 = CWSCode(EX3_GRAPH, EX3_C2)
        assert code_distance(q1) == 2
        assert code_distance(q2) == 2

    def test_single_codeword_code_detects_everything(self):
        # a one-dimensional code satisfies the detection conditions vacuously,
        # so the reported distance caps at n+1
        q = CWSCode(Graph.empty(1), ClassicalCode.from_texts(["0"]))
        assert code_distance(q) == 2
        q4 = CWSCode(Graph.empty(4), ClassicalCode.from_texts(["0000"]))
        assert code_distance(q4) == 5

    def test_above_oracle_size_skips_the_cross_check(self):
        # n = 13 is past MAX_ORACLE_N: the detection route alone answers
        q = CWSCode(Graph.empty(13), ClassicalCode.from_ints(13, [0, 1]))
        assert code_distance(q) == 1

    def test_search_outputs_verify(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(2, 5)
            g = random_graph(n, rng)
            d = rng.randint(1, 3)
            code = cws_maxclique(error_set(n, d), g)
            q = CWSCode(g, code.sorted())
            assert code_distance(q) >= d


class TestStabilizerStates:
    def test_graph_generators_reproduce_graph_state(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 4)
            g = random_graph(n, rng)
            gens = [PauliOp(n, 1 << l, g.rows[l], 0) for l in range(n)]
            vec = stabilizer_state_vector(gens, 0)
            amp = graph_state_amplitudes(g)
            overlap = abs(np.vdot(vec, amp))
            assert abs(overlap - 1) < 1e-9

    def test_kl_oracle_states_matches_cws_oracle(self):
        rng = random.Random(4)
        for _ in range(10):
            n = rng.randint(2, 4)
            g = random_graph(n, rng)
            q = random_code(g, rng.randint(1, 3), rng)
            gens = [PauliOp(n, 1 << l, g.rows[l], 0) for l in range(n)]
            states = [stabilizer_state_vector(gens, c) for c in q.code.values]
            for d in range(1, n + 1):
                assert kl_oracle_states(states, d) == kl_oracle(q, d)


class TestFilesAndReports:
    def test_code_file_round_trip(self, tmp_path: Path):
        write_code_file(tmp_path / "pent.code", PENTAGON, "pent.graph")
        q = parse_code_file(tmp_path / "pent.code")
        assert q.graph.rows == PENTAGON.graph.rows
        assert set(q.code.values) == set(PENTAGON.code.values)

    def test_report_lines(self):
        report = verification_report(PENTAGON, 3)
        text = report_lines(report, distance=3)
        assert "detects=true" in text
        assert "degenerate=false" in text
        assert "distance=3" in text
        assert "oracle_distance=3" in text

    def test_failure_report_includes_witness(self):
        q = CWSCode(Graph.empty(3), ClassicalCode.from_texts(["000", "100"]))
        report = detection_check(q, ErrorSet(3, (PauliOp.single(3, 0, "Z"),)))
        text = report_lines(report)
        assert "detects=false" in text
        assert "witness_error=ZII" in text
        assert "witness_pair=" in text
