import math
import random

import numpy as np
import pytest

from conftest import random_graph
from cwskit import errormap
from cwskit.errormap import (
    ClArrays,
    ErrorSet,
    cl_map,
    error_set,
    setup,
    setup_table,
)
from cwskit.gf2 import ClassicalCode, PauliOp, parity, xor_basis
from cwskit.graphs import Graph, edge_count, rows_table
from cwskit.verify import CWSCode, detection_check


class TestErrorSet:
    def test_counts(self):
        assert len(error_set(5, 2)) == 15
        assert len(error_set(7, 3)) == 210
        assert len(error_set(2, 1)) == 0

    def test_cardinality_formula(self):
        rng = random.Random(0)
        for _ in range(10):
            n = rng.randint(1, 6)
            d = rng.randint(1, n + 1)
            expect = sum(math.comb(n, w) * 3**w for w in range(1, d))
            assert len(error_set(n, d)) == expect

    def test_deterministic_order(self):
        texts = [str(p) for p in error_set(3, 3).paulis]
        assert texts[:9] == [
            "XII", "YII", "ZII", "IXI", "IYI", "IZI", "IIX", "IIY", "IIZ",
        ]
        assert texts[9:15] == ["XXI", "XYI", "XZI", "YXI", "YYI", "YZI"]

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            ErrorSet(2, (PauliOp.identity(2),))

    def test_all_errors_have_positive_sign(self):
        for p in error_set(4, 3).paulis:
            assert p.hermitian_sign() == 1

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            error_set(3, 5)
        with pytest.raises(ValueError):
            error_set(3, 0)

    def test_arrays_are_read_only(self):
        errs = error_set(4, 2)
        u, v = errs.u, errs.v
        for arr in (u, v, errs.xcols, errs.xorder, errs.xstarts):
            with pytest.raises(ValueError):
                arr[0] = 1
        with pytest.raises(ValueError):
            u += 1

    def test_xcols_are_the_x_support_qubits_padded_with_n(self):
        # one row per support position, as many as the widest X support:
        # d-1 of them, n at d = n+1, none for the empty error set
        for n, d in [(4, 3), (4, 5), (3, 1)]:
            errs = error_set(n, d)
            assert errs.xcols.shape == (d - 1, len(errs))
            assert errs.xcols.dtype == np.int64
            for col, p in zip(errs.xcols.T.tolist(), errs.paulis):
                support = [q for q in range(n) if (p.u >> q) & 1]
                assert col == support + [n] * (d - 1 - len(support))

    def test_xorder_groups_the_errors_by_x_support(self):
        # every error once; one group per distinct u, in order of first
        # appearance, each group ascending
        for n, d in [(4, 3), (5, 2), (3, 4), (3, 1)]:
            errs = error_set(n, d)
            order, starts = errs.xorder.tolist(), errs.xstarts.tolist()
            assert sorted(order) == list(range(len(errs)))
            groups = [order[a:b] for a, b in zip(starts, starts[1:] + [len(order)])]
            heads = [errs.paulis[g[0]].u for g in groups]
            assert heads == list(dict.fromkeys(p.u for p in errs.paulis))
            for g, u in zip(groups, heads):
                assert g == sorted(g) and {errs.paulis[k].u for k in g} == {u}

    def test_xcols_width_is_the_widest_x_support(self):
        z_only = ErrorSet(3, (PauliOp.single(3, 0, "Z"), PauliOp(3, 0, 0b110)))
        assert z_only.xcols.shape == (0, 2)
        mixed = ErrorSet(3, (PauliOp(3, 0b101, 0), PauliOp.single(3, 2, "Y")))
        assert mixed.xcols.tolist() == [[0, 2], [2, 3]]

    def test_every_constructor_gives_the_same_setup_and_check(self):
        built = error_set(5, 3)
        sets = [
            built,
            ErrorSet(5, built.paulis),
        ]
        g = Graph.ring(5)
        codes = [
            CWSCode(g, ClassicalCode.from_texts(["00000", "11111"])),  # detects
            CWSCode(g, ClassicalCode.from_texts(["00000", "11000"])),  # does not
        ]
        for errs in sets:
            assert errs.paulis == built.paulis
            assert np.array_equal(errs.xcols, built.xcols)
            assert setup(errs, g).dump() == setup(built, g).dump()
            for q in codes:
                assert detection_check(q, errs) == detection_check(q, built)
        assert [detection_check(q, built).detects for q in codes] == [True, False]


class TestClMap:
    def test_z_errors_give_unit_patterns(self):
        g = Graph.ring(5)
        for l in range(5):
            assert cl_map(PauliOp.single(5, l, "Z"), g).value == 1 << l

    def test_ring_weights(self):
        # on a ring, single-qubit X, Y, Z induce patterns of weights 2, 3, 1
        g = Graph.ring(5)
        for l in range(5):
            assert cl_map(PauliOp.single(5, l, "X"), g).value == g.rows[l]
            weights = {
                "X": cl_map(PauliOp.single(5, l, "X"), g).value.bit_count(),
                "Y": cl_map(PauliOp.single(5, l, "Y"), g).value.bit_count(),
                "Z": cl_map(PauliOp.single(5, l, "Z"), g).value.bit_count(),
            }
            assert weights == {"X": 2, "Y": 3, "Z": 1}
            assert sorted(weights.values()) == [1, 2, 3]

    def test_isolated_vertex_x_maps_to_zero(self):
        g = Graph.empty(4)
        assert cl_map(PauliOp.single(4, 2, "X"), g).value == 0

    def test_linearity_in_the_error(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 6)
            g = random_graph(n, rng)
            e = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), 0)
            f = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), 0)
            assert cl_map(e @ f, g).value == cl_map(e, g).value ^ cl_map(f, g).value

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cl_map(PauliOp.single(3, 0, "X"), Graph.empty(4))


def _setup_marks(arrays: ClArrays) -> set[int]:
    return {i for i in range(1 << arrays.n) if arrays.cl[i]}


def _d_marks(arrays: ClArrays) -> set[int]:
    return {i for i in range(1 << arrays.n) if arrays.d[i]}


class TestSetup:
    def test_two_qubit_edge_graph(self):
        # hand application of the pattern map to the six single-qubit Paulis
        g = Graph.from_edges(2, [(0, 1)])
        arrays = setup(error_set(2, 2), g)
        assert _setup_marks(arrays) == {0b01, 0b10, 0b11}
        assert _d_marks(arrays) == set()
        assert not arrays.degenerate

    def test_empty_graph_single_x(self):
        g = Graph.empty(3)
        arrays = setup(ErrorSet(3, (PauliOp.single(3, 0, "X"),)), g)
        assert _setup_marks(arrays) == {0}
        assert _d_marks(arrays) == {i for i in range(8) if i & 1}
        assert arrays.degenerate

    def test_ring5_distance3_nondegenerate(self):
        arrays = setup(error_set(5, 3), Graph.ring(5))
        assert arrays.cl[0] == 0
        assert _d_marks(arrays) == set()

    def test_cl_equals_per_error_map(self):
        # oracle: the marked set must equal the patterns computed one error
        # at a time through the scalar path
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 6)
            g = random_graph(n, rng)
            d = rng.randint(1, min(n + 1, 4))
            errs = error_set(n, d)
            arrays = setup(errs, g)
            expect = {cl_map(e, g).value for e in errs.paulis}
            assert _setup_marks(arrays) == expect

    def test_d_matches_literal_definition(self):
        # oracle: D marked straight from the definition, error by error
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 5)
            g = random_graph(n, rng)
            errs = error_set(n, rng.randint(1, min(n + 1, 4)))
            arrays = setup(errs, g)
            expect = set()
            for e in errs.paulis:
                if cl_map(e, g).value == 0:
                    for i in range(1 << n):
                        if parity(i & e.u):
                            expect.add(i)
            assert _d_marks(arrays) == expect
            assert arrays.d[0] == 0

    def test_d_empty_when_nondegenerate(self):
        rng = random.Random(4)
        for _ in range(20):
            n = rng.randint(1, 5)
            g = random_graph(n, rng)
            arrays = setup(error_set(n, min(n + 1, 3)), g)
            if not arrays.degenerate:
                assert _d_marks(arrays) == set()

    def test_dump_round_trip(self):
        arrays = setup(error_set(4, 2), Graph.ring(4))
        lines = arrays.dump().splitlines()
        assert lines[0::2] == ["n=4 which=CL", "n=4 which=D"]
        for payload, bits in zip(lines[1::2], (arrays.cl, arrays.d)):
            raw = np.frombuffer(bytes.fromhex(payload), dtype=np.uint8)
            assert raw.size == 8  # one uint64 word holds 2^4 bits
            decoded = np.unpackbits(raw, bitorder="little").astype(bool)
            assert np.array_equal(decoded[:16], bits)
            assert not decoded[16:].any()

    def test_dump_bytes_pinned(self):
        # ring5, d=3: one uint64 word per array, hex of its little-endian bytes
        arrays = setup(error_set(5, 3), Graph.ring(5))
        assert arrays.dump() == (
            "n=5 which=CL\nfeffff7f00000000\nn=5 which=D\n0000000000000000\n"
        )

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            setup(error_set(3, 2), Graph.empty(4))


def per_graph_setup(errors: ErrorSet, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CL and D of one graph, given its adjacency rows, with D from a
    `xor_basis` of the graph's own zero-pattern X supports: the reference
    the chunk-wide elimination of `setup_table` must match."""
    n = len(rows)
    patterns = errormap.cl_patterns(errors.xcols, errors.v, rows[None])[0]
    cl = np.zeros(1 << n, dtype=bool)
    cl[patterns] = True
    d = np.zeros(1 << n, dtype=bool)
    x = np.arange(1 << n, dtype=np.int64)
    for b in xor_basis(errors.u[patterns == 0].tolist()):
        d |= errormap.parity_of_and(x, b)
    return cl, d


def assert_chunk_matches_per_graph(n: int, d: int, masks: list[int]) -> None:
    errors = error_set(n, d)
    rows = rows_table(n, masks)
    cl, dd = setup_table(errors, rows)
    for r, mask in enumerate(masks):
        want_cl, want_d = per_graph_setup(errors, rows[r])
        assert np.array_equal(cl[r], want_cl), (n, d, mask)
        assert np.array_equal(dd[r], want_d), (n, d, mask)


class TestChunkElimination:
    def test_every_graph_up_to_n5_at_every_distance(self):
        for n in range(1, 6):
            for d in range(1, n + 2):
                assert_chunk_matches_per_graph(n, d, list(range(1 << edge_count(n))))

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_seeded_graphs(self, n):
        rng = random.Random(n)
        masks = [rng.randrange(1 << edge_count(n)) for _ in range(24)] + [0]
        for d in range(1, n + 2):
            assert_chunk_matches_per_graph(n, d, masks)

    def test_empty_n20_graph(self):
        # every X support maps to 0, so the span is the whole space: 20
        # pivots, and D marks every nonzero word
        cl, d = setup_table(error_set(20, 3), np.zeros((1, 20), dtype=np.int64))
        want_cl, want_d = per_graph_setup(error_set(20, 3), np.zeros(20, dtype=np.int64))
        assert np.array_equal(cl[0], want_cl) and np.array_equal(d[0], want_d)
        assert not d[0, 0] and d[0, 1:].all()
