import hashlib
import itertools
import random

import numpy as np
import pytest

from conftest import random_graph
from cwskit.clique import clique_graphs, cws_maxclique, make_cws_clique_graph, solve
from cwskit.errormap import error_set, setup, setup_table, triple_counts
from cwskit.gf2 import BitString, ClassicalCode
from cwskit.graphs import Graph, edge_count, isomorphism_class_minima, lc_orbit_masks, rows_table
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
        assert a.value ^ b.value not in set(EX3_C2.values)

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

    def test_reports_pinned(self):
        # (is_linear, basis, violating pair) over seeded spans, spans with one
        # word removed or added, and random codes containing the zero word
        rng = random.Random(14)
        h = hashlib.sha256()
        linear = 0
        for i in range(3000):
            n = rng.randint(1, 7)
            span = {0}
            for _ in range(rng.randint(0, min(n, 4))):
                g = rng.randrange(1 << n)
                span |= {s ^ g for s in span}
            words = set(span)
            if i % 4 == 1 and len(span) > 2:
                words.discard(rng.choice(sorted(span - {0})))
            elif i % 4 == 2 and len(span) < 1 << n:
                words.add(rng.choice(sorted(set(range(1 << n)) - span)))
            elif i % 4 == 3:
                words = {0} | {rng.randrange(1 << n) for _ in range(rng.randint(0, 9))}
            shuffled = rng.sample(sorted(words), len(words))
            report = is_linear(ClassicalCode.from_ints(n, shuffled))
            linear += report.is_linear
            h.update(repr((
                report.is_linear,
                None if report.basis is None else tuple(str(b) for b in report.basis),
                None if report.violating_pair is None
                else tuple(str(b) for b in report.violating_pair),
            )).encode())
        assert linear == 1818
        assert h.hexdigest() == "f77e5c0aa056ee363495ff2ac2759d4f41ed75e27add5e7f7358c607a35615c4"


def _k3_cliques(g: Graph, d: int):
    errs = error_set(g.n, d)
    cg = make_cws_clique_graph(setup(errs, g))
    for i in range(1, cg.size):
        for j in range(i + 1, cg.size):
            if cg.has_edge(i, j):
                yield (cg.words[i], cg.words[j])


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

    @pytest.mark.parametrize(
        "n, k, d", [(0, 2, 1), (7, 0, 3), (7, 3, 0), (7, 3, 9), (-1, 1, 1)]
    )
    def test_rejects_bad_parameters(self, n, k, d):
        with pytest.raises(ValueError):
            optimality_filter(n, k, d, ())

    def test_malformed_registry(self):
        with pytest.raises(ValueError):
            parse_registry("n=7 K=x d=3 optimal=yes source=y\n")
        with pytest.raises(ValueError):
            parse_registry("nonsense line\n")


class TestTripleCount:
    """The K = 3 structure theorem as a count, `errormap.triple_counts`,
    which target-K >= 3 searches decide by: a verified {0, a, b} extends
    to the linear {0, a, b, a ^ b}, so omega >= 3 exactly when some a, b in
    V have a ^ b in V, that is when T > 0."""

    CHUNK = 4096

    def assert_decides_k3(self, n: int, d: int, masks: list[int]) -> int:
        """T > 0 iff the target-3 solve finds 3, on every graph of `masks`;
        the number of graphs with T > 0."""
        positive = 0
        for lo in range(0, len(masks), self.CHUNK):
            chunk = masks[lo : lo + self.CHUNK]
            cl, dd = setup_table(error_set(n, d), rows_table(n, chunk))
            t, _size = triple_counts(cl, dd)
            found = [solve(cg, 3)[1] is not None for cg in clique_graphs(n, cl, dd)]
            assert (t > 0).tolist() == found, (n, d)
            positive += int(np.count_nonzero(t > 0))
        return positive

    def test_transform_matches_a_direct_pair_count(self):
        for n in (2, 3, 4):
            for d in (2, 3):
                rows = rows_table(n, range(1 << edge_count(n)))
                cl, dd = setup_table(error_set(n, d), rows)
                t, size = triple_counts(cl, dd)
                v = ~cl & ~dd
                v[:, 0] = False
                for count, words_in_v, row in zip(t.tolist(), size.tolist(), v):
                    words = np.flatnonzero(row).tolist()
                    assert words_in_v == len(words)
                    assert count == sum(row[a ^ b] for a in words for b in words)

    @pytest.mark.parametrize("n, d, positive", [(5, 2, 973), (5, 3, 0), (6, 3, 0)])
    def test_every_graph(self, n, d, positive):
        masks = list(range(1 << edge_count(n)))
        assert self.assert_decides_k3(n, d, masks) == positive

    def test_seeded_n6_d2_sample(self):
        rng = random.Random(18)
        masks = [rng.randrange(1 << edge_count(6)) for _ in range(2000)]
        assert self.assert_decides_k3(6, 2, masks) > 0

    @pytest.mark.parametrize("source", ["iso", "lc"])
    def test_n7_d3_representatives(self, source):
        if source == "iso":
            masks = list(isomorphism_class_minima(7))
        else:
            masks = [orbit[0] for orbit in lc_orbit_masks(7)]
        assert self.assert_decides_k3(7, 3, masks) == 0
