import math
import random

import numpy as np
import pytest

from conftest import random_graph
from cwskit.errormap import (
    ClArrays,
    ErrorSet,
    cl_map,
    error_set,
    explicit_error_set,
    parse_error_file,
    setup,
    write_error_file,
)
from cwskit.gf2 import PauliOp, parity
from cwskit.graphs import Graph


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
        texts = [str(p) for p in error_set(3, 3)]
        assert texts[:9] == [
            "XII", "YII", "ZII", "IXI", "IYI", "IZI", "IIX", "IIY", "IIZ",
        ]
        assert texts[9:15] == ["XXI", "XYI", "XZI", "YXI", "YYI", "YZI"]

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            explicit_error_set(2, [PauliOp.identity(2)])

    def test_all_errors_have_positive_sign(self):
        for p in error_set(4, 3):
            assert p.hermitian_sign() == 1

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            error_set(3, 5)
        with pytest.raises(ValueError):
            error_set(3, 0)

    def test_file_round_trip(self):
        errs = error_set(3, 2)
        again = parse_error_file(write_error_file(errs))
        assert [str(p) for p in again] == [str(p) for p in errs]


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
                "X": cl_map(PauliOp.single(5, l, "X"), g).weight(),
                "Y": cl_map(PauliOp.single(5, l, "Y"), g).weight(),
                "Z": cl_map(PauliOp.single(5, l, "Z"), g).weight(),
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
            assert cl_map(e @ f, g) == cl_map(e, g) ^ cl_map(f, g)

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
        arrays = setup(explicit_error_set(3, [PauliOp.single(3, 0, "X")]), g)
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
            expect = {cl_map(e, g).value for e in errs}
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
            for e in errs:
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
        again = ClArrays.parse(arrays.dump())
        assert again.n == arrays.n
        assert np.array_equal(again.cl, arrays.cl)
        assert np.array_equal(again.d, arrays.d)

    def test_dump_bytes_pinned(self):
        # ring5, d=3: one uint64 word per array, hex of its little-endian bytes
        arrays = setup(error_set(5, 3), Graph.ring(5))
        assert arrays.dump() == (
            "n=5 which=CL\nfeffff7f00000000\nn=5 which=D\n0000000000000000\n"
        )

    def test_array_lengths_checked(self):
        with pytest.raises(ValueError):
            ClArrays(3, np.zeros(7, dtype=bool), np.zeros(8, dtype=bool))
        with pytest.raises(ValueError):
            ClArrays.parse("n=7 which=CL\n" + "00" * 8 + "\nn=7 which=D\n" + "00" * 16)

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            setup(error_set(3, 2), Graph.empty(4))
