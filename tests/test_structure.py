import itertools
import random

import pytest

from conftest import random_graph
from cwskit.clique import cws_maxclique, make_cws_clique_graph
from cwskit.errormap import error_set, setup
from cwskit.gf2 import BitString, ClassicalCode
from cwskit.graphs import Graph
from cwskit.structure import (
    additivity_label,
    double_linear_subcode,
    extend_dim3_to_dim4,
    is_linear,
    optimality_filter,
    parse_registry,
)
from cwskit.verify import CWSCode, detection_check, kl_oracle

EX3_GRAPH = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
EX3_C1 = ClassicalCode.from_texts(["0000", "0110", "0101", "0011"])
EX3_C2 = ClassicalCode.from_texts(["0000", "0110", "0101", "1011"])


class TestIsLinear:
    def test_group_code_is_linear(self):
        report = is_linear(EX3_C1)
        assert report.is_linear
        assert report.violating_pair is None
        assert len(report.basis) == 2

    def test_nonlinear_code(self):
        report = is_linear(EX3_C2)
        assert not report.is_linear
        a, b = report.violating_pair
        assert (a ^ b).value not in set(EX3_C2.values)

    def test_trivial_code(self):
        report = is_linear(ClassicalCode.from_texts(["0000"]))
        assert report.is_linear and report.basis == ()

    def test_missing_zero_refused(self):
        with pytest.raises(ValueError):
            is_linear(ClassicalCode.from_texts(["01", "10"]))

    def test_basis_spans_code(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.randint(2, 6)
            gens = [rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 3))]
            span = {0}
            for g in gens:
                span |= {s ^ g for s in span}
            code = ClassicalCode.from_ints(n, sorted(span))
            report = is_linear(code)
            assert report.is_linear
            assert len(code.words) == 1 << len(report.basis)

    def test_every_two_word_code_is_linear_labelled_additive(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 6)
            c = ClassicalCode.from_ints(n, [0, rng.randrange(1, 1 << n)])
            assert is_linear(c).is_linear
            assert additivity_label(c) == "additive"

    def test_additivity_labels(self):
        assert additivity_label(EX3_C1) == "additive"
        assert additivity_label(EX3_C2) == "not manifestly additive"
        assert additivity_label(EX3_C2, exhaustively_nonlinear_only=True) == "nonadditive"


def _k3_cliques(g: Graph, d: int):
    errs = error_set(g.n, d)
    cg = make_cws_clique_graph(setup(errs, g))
    rows = cg.rows
    for i in range(1, cg.size):
        for j in range(i + 1, cg.size):
            if (rows[i] >> j) & 1:
                yield (int(cg.vertices[i]), int(cg.vertices[j]))


class TestExtendDim3:
    def test_search_instances_extend_and_verify(self):
        errs = error_set(5, 2)
        found = 0
        rng = random.Random(2)
        for _ in range(30):
            g = random_graph(5, rng)
            pairs = list(_k3_cliques(g, 2))
            if not pairs:
                continue
            c2, c3 = pairs[0]
            q = CWSCode(g, ClassicalCode.from_ints(5, sorted([0, c2, c3])))
            if not detection_check(q, errs).detects:
                continue
            found += 1
            out = extend_dim3_to_dim4(q, errs)
            assert out.dimension == 4
            assert is_linear(out.code).is_linear
            assert detection_check(out, errs).detects
            assert kl_oracle(out, 2) == 2
        assert found >= 5

    def test_wrong_dimension_refused(self):
        q = CWSCode(Graph.empty(3), ClassicalCode.from_texts(["000", "100"]))
        with pytest.raises(ValueError):
            extend_dim3_to_dim4(q, error_set(3, 1))

    def test_failing_input_refused(self):
        q = CWSCode(
            Graph.empty(3), ClassicalCode.from_texts(["000", "100", "010"])
        )
        with pytest.raises(ValueError):
            extend_dim3_to_dim4(q, error_set(3, 2))

    def test_duplicate_codewords_unrepresentable(self):
        with pytest.raises(ValueError):
            ClassicalCode.from_texts(["000", "100", "100"])

    def test_classical_three_word_code_extends_to_closure(self):
        # an empty graph turns classical codes into CWS codes; a Z-only
        # error set keeps them verifiable
        g = Graph.empty(4)
        errs = error_set(4, 2)
        pairs = list(_k3_cliques(g, 2))
        assert pairs == []  # X errors are degenerate on the empty graph

    def test_extension_is_linear_closure(self):
        errs = error_set(4, 2)
        g = Graph.ring(4)
        for c2, c3 in itertools.islice(_k3_cliques(g, 2), 5):
            q = CWSCode(g, ClassicalCode.from_ints(4, sorted([0, c2, c3])))
            if detection_check(q, errs).detects:
                out = extend_dim3_to_dim4(q, errs)
                assert set(out.code.values) == {0, c2, c3, c2 ^ c3}


class TestDoubleLinearSubcode:
    def test_trivial_subcode_gives_two_word_code(self):
        errs = error_set(5, 3)
        q = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))
        b = ClassicalCode.from_texts(["00000"])
        out = double_linear_subcode(q, b, BitString.from_text("11111"), errs)
        assert set(out.code.values) == set(q.code.values)
        assert is_linear(out.code).is_linear

    def test_example_code_doubles_to_itself(self):
        errs = error_set(4, 2)
        q = CWSCode(EX3_GRAPH, EX3_C1)
        b = ClassicalCode.from_texts(["0000", "0110"])
        out = double_linear_subcode(q, b, BitString.from_text("0101"), errs)
        assert set(out.code.values) == set(EX3_C1.values)

    def test_random_doublings_verify(self):
        rng = random.Random(3)
        checked = 0
        for _ in range(40):
            n = rng.randint(3, 5)
            g = random_graph(n, rng)
            errs = error_set(n, 2)
            code = cws_maxclique(errs, g)
            if code.size < 2:
                continue
            q = CWSCode(g, code.sorted())
            values = list(code.values)
            linear_subs = [
                sub
                for r in range(1, len(values))
                for sub in itertools.combinations(values, r)
                if 0 in sub and is_linear(ClassicalCode.from_ints(n, sorted(sub))).is_linear
            ]
            sub_vals = linear_subs[rng.randrange(len(linear_subs))]
            outside = [v for v in values if v not in sub_vals]
            if not outside:
                continue
            v = rng.choice(outside)
            out = double_linear_subcode(
                q,
                ClassicalCode.from_ints(n, sorted(sub_vals)),
                BitString(n, v),
                errs,
            )
            assert out.dimension == 2 * len(sub_vals)
            assert detection_check(out, errs).detects
            assert kl_oracle(out, 2) == 2
            checked += 1
        assert checked >= 10

    def test_precondition_failures_named(self):
        errs = error_set(4, 2)
        q = CWSCode(EX3_GRAPH, EX3_C1)
        with pytest.raises(ValueError, match="outside"):
            double_linear_subcode(
                q,
                ClassicalCode.from_texts(["0000", "0110"]),
                BitString.from_text("0110"),
                errs,
            )
        with pytest.raises(ValueError, match="not a codeword"):
            double_linear_subcode(
                q,
                ClassicalCode.from_texts(["0000", "0110"]),
                BitString.from_text("1000"),
                errs,
            )
        with pytest.raises(ValueError, match="not linear"):
            double_linear_subcode(
                q,
                ClassicalCode.from_texts(["0000", "0110", "0101"]),
                BitString.from_text("0011"),
                errs,
            )
        with pytest.raises(ValueError, match="not contained"):
            double_linear_subcode(
                q,
                ClassicalCode.from_texts(["0000", "1100"]),
                BitString.from_text("0110"),
                errs,
            )


REGISTRY_TEXT = """\
n=7 K=2 d=3 optimal=yes source=published tables
n=5 K=4 d=2 optimal=yes source=published tables
n=6 K=1 d=4 optimal=no source=unknown
"""


class TestOptimalityFilter:
    def test_parse(self):
        entries = parse_registry(REGISTRY_TEXT)
        assert len(entries) == 3
        assert entries[0].n == 7 and entries[0].optimal
        assert entries[2].optimal is False

    def test_k2_optimal_prunes_k3(self):
        registry = parse_registry(REGISTRY_TEXT)
        assert optimality_filter(7, 3, 3, registry).verdict == "pruned"
        assert optimality_filter(7, 2, 3, registry).verdict == "open"

    def test_empty_registry_open(self):
        assert optimality_filter(7, 3, 3, ()).verdict == "open"

    def test_k4_optimality_does_not_prune(self):
        registry = parse_registry(REGISTRY_TEXT)
        assert optimality_filter(5, 6, 2, registry).verdict == "open"

    def test_k1_optimal_prunes_everything_above(self):
        registry = parse_registry("n=9 K=1 d=5 optimal=yes source=x\n")
        assert optimality_filter(9, 2, 5, registry).verdict == "pruned"
        assert optimality_filter(9, 1, 5, registry).verdict == "open"

    def test_malformed_registry(self):
        with pytest.raises(ValueError):
            parse_registry("n=7 K=x d=3 optimal=yes source=y\n")
        with pytest.raises(ValueError):
            parse_registry("nonsense line\n")
