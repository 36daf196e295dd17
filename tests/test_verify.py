import hashlib
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cwskit.verify
from conftest import dense_pauli, random_graph
from cwskit import kernels
from cwskit.clique import clique_graphs, cws_maxclique, make_cws_clique_graph, max_clique
from cwskit.errormap import (
    ErrorSet,
    _weight_errors,
    cl_map,
    error_set,
    setup,
    setup_table,
)
from cwskit.gf2 import ClassicalCode, PauliOp, parity
from cwskit.graphs import Graph, graph_state_amplitudes, rows_table
from cwskit.verify import (
    CWSCode,
    code_distance,
    detection_check,
    first_failing_code,
    kl_oracle,
    kl_oracle_states,
    parse_code_file,
    report_lines,
    stabilizer_state_vector,
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


def detection_instances(rng, per_case: int, max_d: int = 8):
    """(graph, words, errors) for every n in 1..7 and d in 1..min(n+1, max_d),
    per_case of each.  A third of the graphs get an isolated vertex, so X on it maps
    to the zero pattern.  The words contain 0, in shuffled order: a random
    clique of the clique graph (the code a search could store), that clique
    plus one random word, or random words."""
    for n in range(1, 8):
        for d in range(1, min(n + 1, max_d) + 1):
            errors = error_set(n, d)
            for _ in range(per_case):
                g = random_graph(n, rng)
                if rng.random() < 1 / 3:
                    v = rng.randrange(n)
                    g = Graph(n, tuple(0 if i == v else r & ~(1 << v)
                                       for i, r in enumerate(g.rows)))
                kind = rng.randrange(3)
                if kind < 2:
                    cg = make_cws_clique_graph(setup(errors, g))
                    top = cg.size - 1
                    order = list(range(1, top + 1))
                    rng.shuffle(order)
                    members = [0]
                    common = (1 << top) - 1  # neighbours of every member
                    for v in order:
                        if (common >> (top - v)) & 1:
                            members.append(v)
                            common &= cg.rows[v]
                    words = [cg.words[i] for i in members]
                    if kind == 1 and len(words) < 1 << n:
                        extra = rng.randrange(1, 1 << n)
                        while extra in words:
                            extra = rng.randrange(1, 1 << n)
                        words.append(extra)
                else:
                    words = list(random_code(g, rng.randint(1, min(8, 1 << n)), rng)
                                 .code.values)
                rng.shuffle(words)
                yield g, words, errors


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
        assert cl_map(report.witness.error, q.graph).value == a.value ^ b.value

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

    def test_reports_pinned_for_every_n_and_d(self):
        # 150 instances for each of the 35 (n, d) with n in 1..7 and d in
        # 1..n+1: valid clique codes, clique codes with one word too many,
        # and random codes, a third of them on degenerate graphs
        h = hashlib.sha256()
        tally = [0, 0, 0]  # passing, failing on one word, failing on a pair
        for g, words, errors in detection_instances(random.Random(17), 150):
            report = detection_check(CWSCode(g, ClassicalCode.from_ints(g.n, words)),
                                     errors)
            witness = report.witness
            tally[0 if witness is None else len(witness.pair)] += 1
            h.update(repr((
                report.detects,
                report.degenerate,
                None if witness is None else str(witness.error),
                None if witness is None else tuple(str(b) for b in witness.pair),
            )).encode())
        assert sum(tally) == 5250
        assert tally == [2689, 1018, 1543]
        assert h.hexdigest() == (
            "e5b772a178da6c64d9a0be770505432f546a946b387cf548cdf364cff3efefdd"
        )


class TestFirstFailingCode:
    def test_agrees_with_detection_check_over_seeded_batches(self, monkeypatch):
        # 10,150 batches of 1 to 8 (graph, code) pairs, each of one (n, d)
        # with n in 1..7 and d <= 4; three graphs a chunk, so most batches
        # span chunks; masks carry random bits above the edge bits, which
        # must not count
        monkeypatch.setattr(cwskit.verify, "VERIFY_CHUNK", 3)
        rng = random.Random(23)
        pools: dict[tuple[int, int], list] = {}
        for g, words, errors in detection_instances(rng, 60, max_d=4):
            q = CWSCode(g, ClassicalCode.from_ints(g.n, words))
            pools.setdefault((g.n, len(errors)), []).append(
                (g.mask(), words, errors, detection_check(q, errors).detects)
            )
        batches = 0
        boundary = [0, 0]  # first failures last in a chunk, first in a chunk
        for pool in pools.values():
            errors = pool[0][2]
            shift = errors.n * (errors.n - 1) // 2  # the edge bits
            for _ in range(406):
                picked = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
                masks = [m + (rng.randint(-4, 4) << shift) for m, *_ in picked]
                codes = [words for _m, words, _e, _ok in picked]
                expect = next((i for i, p in enumerate(picked) if not p[3]), -1)
                assert first_failing_code(masks, codes, errors) == expect
                batches += 1
                if expect >= 3:
                    boundary[expect % 3 == 0] += 1
        assert batches == 10_150
        assert min(boundary) > 0

    @pytest.mark.parametrize("at", [cwskit.verify.VERIFY_CHUNK - 1,
                                    cwskit.verify.VERIFY_CHUNK])
    def test_failure_on_either_side_of_a_full_chunk(self, at):
        errors = error_set(5, 2)
        g = Graph.ring(5)
        good = list(cws_maxclique(errors, g).values)
        masks = [g.mask()] * (cwskit.verify.VERIFY_CHUNK + 1)
        codes = [good] * len(masks)
        assert first_failing_code(masks, codes, errors) == -1
        codes[at] = [0, 1]  # Z on qubit 0 maps 0 onto 1
        assert first_failing_code(masks, codes, errors) == at

    @pytest.mark.parametrize(
        "words, message",
        [([0, 8], "value 8 out of range for n=3"),
         ([0, 9, -2], "value -2 out of range for n=3"),
         ([0, 1, 1], "codewords must be pairwise distinct"),
         ([1, 2], "standard form requires the all-zeros codeword")],
    )
    def test_refuses_what_cws_code_refuses(self, words, message):
        with pytest.raises(ValueError, match=message):
            CWSCode(Graph.empty(3), ClassicalCode.from_ints(3, sorted(words)))
        with pytest.raises(ValueError, match=message):
            first_failing_code([0], [words], error_set(3, 2))


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
        for e in error_set(5, 3).paulis:
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
    def test_oracle_and_distance_pinned(self):
        # (kl_oracle(q, d), code_distance(q)) over seeded codes, half of them
        # random and half maximum cliques at distance 2 or 3, and every d
        rng = random.Random(15)
        h = hashlib.sha256()
        for _ in range(300):
            n = rng.randint(2, 6)
            g = random_graph(n, rng)
            if rng.random() < 0.5:
                q = random_code(g, rng.randint(1, min(8, 1 << n)), rng)
            else:
                q = CWSCode(g, cws_maxclique(error_set(n, rng.randint(2, 3)), g).sorted())
            d = rng.randint(1, n + 1)
            h.update(repr((kl_oracle(q, d), code_distance(q))).encode())
        assert h.hexdigest() == (
            "c6c938a1c7bf1876dae8dbf3c6099b3da99a2698fa43b5f918aebc65a678511e"
        )

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


def random_stabilizer(n: int, rng) -> list[PauliOp]:
    """Graph-state generators of a random graph, then random generator
    changes g_i <- g_i g_j and random Hadamards H g H on single qubits."""
    g = random_graph(n, rng)
    gens = [PauliOp(n, 1 << l, g.rows[l], 0) for l in range(n)]
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            gens[i] = gens[i] @ gens[j]
    for j in range(n):
        if rng.random() < 0.5:
            gens = [hadamard(p, j) for p in gens]
    return gens


def hadamard(p: PauliOp, j: int) -> PauliOp:
    """H p H on qubit j: X <-> Z, and XZ -> ZX = -XZ."""
    flip = (((p.u ^ p.v) >> j) & 1) << j
    return PauliOp(p.n, p.u ^ flip, p.v ^ flip, p.phase + 2 * (((p.u & p.v) >> j) & 1))


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

    def test_state_vectors_pinned(self):
        # amplitudes rounded to 9 digits; + 0.0 turns -0.0 into 0.0, so the
        # digest pins values and not the sign of a zero
        rng = random.Random(15)
        h = hashlib.sha256()
        for _ in range(300):
            n = rng.randint(1, 7)
            gens = random_stabilizer(n, rng)
            vec = stabilizer_state_vector(gens, rng.randrange(1 << n))
            h.update((np.round(vec, 9) + 0.0).tobytes())
        assert h.hexdigest() == (
            "458206af680c71a368bbf6e9ac657ec377340b9d7f16cd26be06e6ca45104b51"
        )

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
        report = detection_check(PENTAGON, error_set(5, 3))
        text = report_lines(report, 3, 3)
        assert "detects=true" in text
        assert "degenerate=false" in text
        assert "distance=3" in text
        assert "oracle_distance=3" in text

    def test_failure_report_includes_witness(self):
        q = CWSCode(Graph.empty(3), ClassicalCode.from_texts(["000", "100"]))
        report = detection_check(q, ErrorSet(3, (PauliOp.single(3, 0, "Z"),)))
        text = report_lines(report, 1, None)
        assert "detects=false" in text
        assert "oracle_distance" not in text
        assert "witness_error=ZII" in text
        assert "witness_pair=" in text


def per_code_first_failing_code(masks, codes, errors: ErrorSet) -> int:
    """`first_failing_code` as the loop over one code at a time that the
    array version replaced, kept as its reference.  Each code's words are
    checked as CWSCode checks them (a ValueError with its message), then the
    code fails when a nonzero pattern of its graph is the XOR of two of its
    words, or a zero pattern's error anticommutes with one of its words."""
    n = errors.n
    patterns = kernels.cl_patterns(errors.xcols, errors.v, rows_table(n, masks))
    for i, (words, pats) in enumerate(zip(codes, patterns.tolist())):
        CWSCode(Graph.empty(n), ClassicalCode.from_ints(n, sorted(words)))
        hits = {a ^ b for a in words for b in words}
        for p, error in zip(pats, errors.paulis):
            if p in hits if p else any(parity(c & error.u) for c in words):
                return i
    return -1


CORRUPTIONS = ("negative", "high", "wide", "repeat", "no zero", "pair", "zero pattern")


def corrupted(words: list[int], g: Graph, errors: ErrorSet, kind: str, rng) -> list[int]:
    """`words` with one fault of the given kind, in shuffled order; the words
    are returned unchanged when the graph has no zero pattern to break."""
    n = g.n
    words = list(words)
    patterns = kernels.cl_patterns(errors.xcols, errors.v, g.rows_array()[None])[0]
    if kind == "negative":
        words.append(rng.choice([-1, -rng.randrange(1, 1 << n), -(1 << 63)]))
    elif kind == "high":
        words.append(rng.randrange(1 << n, 1 << (n + 3)))
    elif kind == "wide":  # beyond int64 either way
        words.append(rng.choice([1 << 63, (1 << 63) + rng.randrange(1 << 10),
                                 1 << 70, -(1 << 63) - 1]))
    elif kind == "repeat":
        words.append(rng.choice(words))
    elif kind == "no zero":
        words.remove(0)
    elif kind == "pair":
        p = int(rng.choice(patterns[patterns != 0]))
        extra = rng.choice(words) ^ p
        if extra not in words:
            words.append(extra)
    else:
        idx = np.flatnonzero(patterns == 0)
        if idx.size:
            u = errors.paulis[int(rng.choice(idx))].u
            extra = rng.choice([c for c in range(1 << n) if parity(c & u)])
            if extra not in words:
                words.append(extra)
    rng.shuffle(words)
    return words


def outcome(fn, *args):
    try:
        return ("index", fn(*args))
    except ValueError as exc:
        return ("refused", str(exc))


class TestFirstFailingCodeArrays:
    @pytest.mark.parametrize("chunk", [3, 4, 4096])
    def test_agrees_with_the_per_code_loop(self, monkeypatch, chunk):
        # seeded codes at n = 3..7, d = 2..3, a quarter of them corrupted;
        # small chunks put failures on both sides of their borders
        monkeypatch.setattr(cwskit.verify, "VERIFY_CHUNK", chunk)
        rng = random.Random(31)
        pools: dict[tuple[int, int], list] = {}
        for g, words, errors in detection_instances(rng, 30, max_d=3):
            if g.n >= 3 and len(errors) and errors.n == g.n:
                pools.setdefault((g.n, len(errors)), []).append((g, words, errors))
        assert len(pools) == 10
        seen: dict[str, int] = {}
        boundary = [0, 0]  # failures last in a chunk, first in a later one
        for pool in pools.values():
            errors = pool[0][2]
            shift = errors.n * (errors.n - 1) // 2
            for _ in range(120):
                masks, codes = [], []
                for _ in range(rng.randint(1, 10)):
                    g, words, _e = rng.choice(pool)
                    if rng.random() < 0.25:
                        words = corrupted(words, g, errors, rng.choice(CORRUPTIONS), rng)
                    masks.append(g.mask() + (rng.randint(-4, 4) << shift))
                    codes.append(words)
                expect = outcome(per_code_first_failing_code, masks, codes, errors)
                assert outcome(first_failing_code, masks, codes, errors) == expect
                kind = expect[1].split(" ")[0] if expect[0] == "refused" else expect[1] >= 0
                seen[kind] = seen.get(kind, 0) + 1
                if expect[0] == "index" and expect[1] > 0:
                    at = expect[1] % chunk
                    if at in (0, chunk - 1):
                        boundary[at == 0] += 1
        # every verdict occurs: out of range, repeated, no zero word, an
        # empty code ("a classical code needs ..."), a failing index, and
        # no failure
        assert set(seen) == {"value", "codewords", "standard", "a", True, False}
        assert min(seen.values()) >= 5
        if chunk < 10:
            assert min(boundary) > 0

    @pytest.mark.parametrize(
        "n, codes, expect",
        [(4, [[0, 3], [6, 0]], -1), (5, [[0, 3], [3, 12, 0, 22, 26], [0, 27, 12]], 1)],
        ids=["adjacent codes", "largest offset"],
    )
    def test_pairs_stay_in_their_code_and_reach_its_last_offset(self, n, codes, expect):
        """Adjacent codes on ring 4: 3 ^ 6 = 5 is a pattern, yet 3 and 6 are
        words of two codes that each detect, next to each other in the flat
        word array.  Largest offset on ring 5: the only pair of the longest
        code whose XOR is a pattern is its first and last word, 3 ^ 26 = 25."""
        errors = error_set(n, 2)
        masks = [Graph.ring(n).mask()] * len(codes)
        assert per_code_first_failing_code(masks, codes, errors) == expect
        assert first_failing_code(masks, codes, errors) == expect

    def test_the_first_wide_word_is_refused_after_earlier_failures(self):
        errors = error_set(4, 2)
        g = Graph.ring(4)
        good = list(cws_maxclique(errors, g).values)
        masks = [g.mask()] * 4
        with pytest.raises(ValueError, match=f"value {1 << 64} out of range for n=4"):
            first_failing_code(masks, [good, good, [0, 1 << 64], [0, 1]], errors)
        # a code that fails before the wide word is reported first
        assert first_failing_code(masks, [good, [0, 1], [0, 1 << 64], good], errors) == 1
        # the smallest bad word is named, as CWSCode names it
        with pytest.raises(ValueError, match=f"value {-(1 << 64)} out of range for n=4"):
            first_failing_code(masks, [good, [0, -1, -(1 << 64)], good, good], errors)

    @pytest.mark.parametrize("at", [0, cwskit.verify.VERIFY_CHUNK - 1], ids=["first", "last"])
    @pytest.mark.parametrize(
        "words, message",
        [([], "a classical code needs at least one codeword"),
         ([0, 1 << 70], f"value {1 << 70} out of range for n=4")],
        ids=["empty", "2^70"],
    )
    def test_refused_with_the_cws_code_message_at_either_end_of_a_chunk(
        self, at, words, message
    ):
        errors = error_set(4, 2)
        g = Graph.ring(4)
        with pytest.raises(ValueError, match=f"^{message}$"):
            CWSCode(g, ClassicalCode.from_ints(4, words))
        codes = [list(cws_maxclique(errors, g).values)] * (cwskit.verify.VERIFY_CHUNK + 1)
        codes[at] = words
        with pytest.raises(ValueError, match=f"^{message}$"):
            first_failing_code([g.mask()] * len(codes), codes, errors)


def first_codes(n: int, d: int, count: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """Raw masks 0..count-1 at n and the exact maximum-clique code that an
    n, d `all` search stores for each of them."""
    errors = error_set(n, d)
    masks = list(range(count))
    codes = []
    for lo in range(0, count, 256):
        table = rows_table(n, masks[lo : lo + 256])
        for cg in clique_graphs(n, *setup_table(errors, table)):
            codes.append(tuple([cg.words[i] for i in max_clique(cg).clique.members]))
    return masks, codes


def first_n6_codes(count: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """`first_codes` of the first `count` n=6 d=2 graphs."""
    return first_codes(6, 2, count)


class TestFirstFailingCodeMemory:
    PER_CODE_LOOP_PEAK = 2_199_716  # bytes; see the test's docstring

    def test_peak_within_twice_that_of_the_per_code_loop(self):
        """The stored codes of 8,192 n=6 d=2 records (the first 8,192 raw
        masks, mean K 12.8) verified under tracemalloc.  The per-code loop
        the array version replaced peaks at 2,199,716 bytes on this input
        (Python 3.11, numpy 2.4): the (4096, 18) pattern table and its
        adjacency table.  The array version flattens each chunk's codes and
        pairs its words one offset at a time, each step a few arrays of one
        entry per word, so its peak must stay within twice that."""
        masks, codes = first_n6_codes(8192)
        tracemalloc.start()
        try:
            assert first_failing_code(masks, codes, error_set(6, 2)) == -1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * self.PER_CODE_LOOP_PEAK


class TestFirstFailingCodeDegenerate:
    """The first 4,096 raw masks at n=7 d=3 with their stored codes (K 1 to
    2): one chunk in which nearly every graph has zero patterns, 22,784 of
    them, and the pairs are few."""

    PARENT_PEAK = 15_549_015  # bytes, the sort-merged check (Python 3.11, numpy 2.4)

    @pytest.fixture(scope="class")
    def chunk(self):
        masks, codes = first_codes(7, 3, 4096)
        errors = error_set(7, 3)
        zeros = kernels.cl_patterns(errors.xcols, errors.v, rows_table(7, masks)) == 0
        assert int(zeros.sum()) == 22_784
        return masks, [list(words) for words in codes], errors

    def test_every_stored_code_passes(self, chunk):
        masks, codes, errors = chunk
        assert {len(words) for words in codes} == {1, 2}
        assert first_failing_code(masks, codes, errors) == -1

    def test_agrees_with_the_per_code_loop_on_corruptions(self, chunk):
        masks, codes, errors = chunk
        patterns = kernels.cl_patterns(errors.xcols, errors.v, rows_table(7, masks))
        degenerate = np.flatnonzero((patterns == 0).any(axis=1)).tolist()
        rng = random.Random(7)
        for kind in CORRUPTIONS:
            for _ in range(2):
                at = rng.choice(degenerate)
                g = Graph.from_mask(7, masks[at])
                bad = corrupted(codes[at], g, errors, kind, rng)
                broken = codes[:at] + [bad] + codes[at + 1 :]
                expect = outcome(per_code_first_failing_code, masks, broken, errors)
                assert outcome(first_failing_code, masks, broken, errors) == expect
                if kind in ("pair", "zero pattern"):
                    assert expect == ("index", at)

    def test_peak_within_that_of_the_sort_merged_check(self, chunk):
        masks, codes, errors = chunk
        tracemalloc.start()
        try:
            assert first_failing_code(masks, codes, errors) == -1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.PARENT_PEAK
