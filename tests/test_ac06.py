import random

import pytest

from conftest import random_graph
from cwskit.ac06 import (
    AC06Data,
    BooleanFunction,
    StabilizerState,
    ac06_to_cws,
    ac06_to_standard_form,
    change_generators,
    compute_sd,
    cset,
    cws_to_ac06,
    parse_ac06_file,
    regenerate_generators,
    stabilizer_to_graph,
    write_ac06_file,
)
from cwskit.gf2 import ClassicalCode, GF2Matrix, PauliOp, random_invertible
from cwskit.graphs import Graph
from cwskit.verify import (
    CWSCode,
    kl_oracle,
    kl_oracle_states,
    stabilizer_state_vector,
)

# the five-qubit six-dimensional example: generator matrix rows as
# "X-half Z-half" bit strings, plus the Boolean function
EX2_MATRIX_ROWS = [
    "00110 01111",
    "01100 11110",
    "11000 11101",
    "10001 11011",
    "00011 01000",
]
EX2_ANF = "v1v2v3 + v3v4v5 + v2v3v4 + v1v2v5 + v1v4v5 + v2v3v4v5"
# same matrix with the defective last term replaced; this variant actually
# reaches distance 2 and exercises the machinery end to end
EX2_ANF_FIXED = "v1v2v3 + v3v4v5 + v2v3v4 + v1v2v5 + v1v4v5 + v1v2v3v4"

EX2_GENERATORS = ["IZYYZ", "ZYYZI", "YYZIZ", "YZIZY", "IZIXX"]
EX2_CPRIME = {"00011", "11000", "10001", "00110", "01100", "10000"}


def ex2_matrix() -> GF2Matrix:
    rows = []
    for r in EX2_MATRIX_ROWS:
        bits = r.replace(" ", "")
        rows.append(sum(1 << i for i, c in enumerate(bits) if c == "1"))
    return GF2Matrix(10, tuple(rows))


def ex2_data(fixed: bool = False) -> AC06Data:
    f = BooleanFunction.from_anf(5, EX2_ANF_FIXED if fixed else EX2_ANF)
    return AC06Data(f, ex2_matrix())


def random_ac06(n: int, k: int, rng) -> AC06Data:
    """Random instance: graph-state rows scrambled by per-qubit symplectic
    moves and a random invertible row mix, plus a random weight-k function."""
    g = random_graph(n, rng)
    us = [1 << l for l in range(n)]
    vs = list(g.rows)
    for j in range(n):
        for move in range(rng.randint(0, 3)):
            kind = rng.choice("HS")
            for i in range(n):
                bu, bv = (us[i] >> j) & 1, (vs[i] >> j) & 1
                if kind == "H":
                    us[i] = (us[i] & ~(1 << j)) | (bv << j)
                    vs[i] = (vs[i] & ~(1 << j)) | (bu << j)
                else:
                    vs[i] ^= bu << j
    mix = random_invertible(n, rng)
    rows = [us[i] | (vs[i] << n) for i in range(n)]
    mixed = GF2Matrix(2 * n, tuple(rows))
    combined = tuple(mixed.mul_vec(mix.rows[i]) for i in range(n))
    support = set()
    while len(support) < k:
        support.add(rng.randrange(1 << n))
    f = BooleanFunction(n, tuple(sorted(support)))
    return AC06Data(f, GF2Matrix(2 * n, combined))


def conjugate(p: PauliOp, letter: str, j: int) -> PauliOp:
    """U p U^dagger for U = H, S or Z on qubit j, in the X^u Z^v normal form."""
    bu, bv = (p.u >> j) & 1, (p.v >> j) & 1
    if letter == "H":  # X <-> Z, and XZ -> ZX = -XZ
        flip = (bu ^ bv) << j
        return PauliOp(p.n, p.u ^ flip, p.v ^ flip, p.phase + 2 * (bu & bv))
    if letter == "S":  # X -> Y = iXZ, XZ -> iX
        return PauliOp(p.n, p.u, p.v ^ (bu << j), p.phase + bu)
    assert letter == "Z"  # X -> -X
    return PauliOp(p.n, p.u, p.v, p.phase + 2 * bu)


def cnot(p: PauliOp, c: int, t: int) -> PauliOp:
    """CNOT p CNOT: X_c -> X_c X_t and Z_t -> Z_c Z_t, no sign change."""
    u = p.u ^ (((p.u >> c) & 1) << t)
    v = p.v ^ (((p.v >> t) & 1) << c)
    return PauliOp(p.n, u, v, p.phase)


def random_state_generators(n: int, rng) -> list[PauliOp]:
    """A random H/S/CNOT circuit applied to the generators Z_i, then a
    random generator change, with every sign made +1."""
    gens = [PauliOp(n, 0, 1 << i, 0) for i in range(n)]
    for _ in range(rng.randint(0, 4 * n)):
        kind = rng.choice("HSC" if n > 1 else "HS")
        j = rng.randrange(n)
        if kind == "C":
            t = rng.randrange(n - 1)
            t += t >= j
            gens = [cnot(g, j, t) for g in gens]
        else:
            gens = [conjugate(g, kind, j) for g in gens]
    mix = random_invertible(n, rng)
    out = []
    for i in range(n):
        acc = PauliOp.identity(n)
        for j in range(n):
            if mix.entry(j, i):
                acc = acc @ gens[j]
        out.append(acc if acc.hermitian_sign() == 1 else PauliOp(n, acc.u, acc.v, acc.phase + 2))
    return out


class TestBooleanFunction:
    def test_example_support(self):
        f = BooleanFunction.from_anf(5, EX2_ANF)
        assert {str(b) for b in f.support_strings()} == {
            "11100", "00111", "01110", "11001", "10011", "01111",
        }
        assert len(f.support) == 6

    def test_anf_negation(self):
        f = BooleanFunction.from_anf(2, "~v1v2")
        assert {str(b) for b in f.support_strings()} == {"01"}

    def test_anf_errors(self):
        with pytest.raises(ValueError):
            BooleanFunction.from_anf(2, "v1 * v2")
        with pytest.raises(ValueError):
            BooleanFunction.from_anf(2, "v3")

    def test_cset_point_support(self):
        f = BooleanFunction(3, (0,))
        assert {b.value for b in cset(f)} == set(range(1, 8))

    def test_cset_full_support(self):
        f = BooleanFunction(2, (0, 1, 2, 3))
        assert cset(f) == ()

    def test_cset_zero_function_refused(self):
        with pytest.raises(ValueError):
            cset(BooleanFunction(3, ()))

    def test_example_cset_excludes_zero(self):
        f = BooleanFunction.from_anf(5, EX2_ANF)
        values = {b.value for b in cset(f)}
        assert 0 not in values


class TestAC06Data:
    def test_example_rows_independent_and_orthogonal(self):
        data = ex2_data()
        assert data.a.rank() == 5
        gens = data.stabilizer().generators
        for i in range(5):
            for j in range(i + 1, 5):
                assert gens[i].symplectic(gens[j]) == 0

    def test_tampered_matrix_refused(self):
        rows = list(ex2_matrix().rows)
        rows[0] ^= 1  # break symplectic orthogonality
        with pytest.raises(ValueError, match="rows"):
            AC06Data(BooleanFunction.from_anf(5, EX2_ANF), GF2Matrix(10, tuple(rows)))

    def test_dependent_rows_refused(self):
        mat = GF2Matrix(4, (0b0001, 0b0001))
        with pytest.raises(ValueError):
            AC06Data(BooleanFunction(2, (0,)), mat)


class TestAc06ToCws:
    def test_example_generators(self):
        conv = ac06_to_cws(ex2_data())
        assert [str(g) for g in conv.stabilizer.generators] == EX2_GENERATORS

    def test_example_code_and_shift(self):
        conv = ac06_to_cws(ex2_data())
        assert {str(b) for b in conv.code_unshifted} == EX2_CPRIME
        assert str(conv.shift) == "10000"
        assert conv.code.contains_zero()

    def test_word_operators_realise_sign_patterns(self):
        conv = ac06_to_cws(ex2_data())
        for w, c in zip(conv.word_operators, conv.code.words):
            for k, g in enumerate(conv.stabilizer.generators):
                assert w.symplectic(g) == (c.value >> k) & 1
        # the all-zeros codeword gets the identity
        zero_at = [c.value for c in conv.code.words].index(0)
        assert conv.word_operators[zero_at] == PauliOp.identity(5)

    def test_point_function_with_x_stabilizer(self):
        # f supported on 1^n with A = [I | 0] gives the one-word code
        n = 3
        f = BooleanFunction(n, ((1 << n) - 1,))
        data = AC06Data(f, GF2Matrix(2 * n, tuple(1 << i for i in range(n))))
        conv = ac06_to_cws(data)
        assert [c.value for c in conv.code.words] == [0]
        assert [str(g) for g in conv.stabilizer.generators] == ["XII", "IXI", "IIX"]


class TestStabilizerToGraph:
    def test_graph_form_is_fixed_point(self):
        rng = random.Random(0)
        for _ in range(10):
            g = random_graph(4, rng)
            gens = tuple(PauliOp(4, 1 << l, g.rows[l], 0) for l in range(4))
            graph, record = stabilizer_to_graph(StabilizerState(gens))
            assert graph.rows == g.rows
            assert record.letters == ("", "", "", "")
            assert record.generator_change.rows == GF2Matrix.identity(4).rows

    def test_bell_pair_becomes_edge_graph(self):
        gens = (PauliOp.from_text("ZZ"), PauliOp.from_text("XX"))
        graph, record = stabilizer_to_graph(StabilizerState(gens))
        assert graph.edges() == [(0, 1)]
        assert any("H" in letters for letters in record.letters)

    def test_reduction_reproduces_the_state(self):
        # the graph-form generators conjugated back by the recorded moves
        # must stabilize the same state; checked via state overlap with a
        # change of generators applied
        rng = random.Random(1)
        for _ in range(15):
            data = random_ac06(4, 3, rng)
            stab = data.stabilizer()
            graph, record = stabilizer_to_graph(stab)
            # regenerated generators from R must equal (up to the recorded
            # single-qubit moves) the canonical graph generators: verify by
            # checking the transformed code spaces agree at every distance
            conv = ac06_to_cws(data)
            res = ac06_to_standard_form(data)
            in_states = [
                stabilizer_state_vector(stab.generators, c.value)
                for c in conv.code.words
            ]
            for d in (1, 2, 3):
                assert kl_oracle_states(in_states, d) == kl_oracle(res.cws, d)


    # (rows, letters, R rows) of random_state_generators(n, Random(n)), as
    # computed before the reduction moved onto the shared GF(2) routines
    PINNED = {
        1: ((0,), ("",), (1,)),
        2: ((0, 0), ("H", "H"), (2, 1)),
        3: ((0, 0, 0), ("H", "H", "H"), (4, 2, 1)),
        4: ((0, 0, 0, 0), ("H", "", "H", "H"), (12, 1, 7, 3)),
        5: ((0, 0, 0, 16, 8), ("H", "HZ", "SZ", "H", "Z"), (2, 26, 1, 15, 29)),
        6: (
            (48, 0, 0, 32, 1, 9),
            ("HZ", "SZ", "Z", "H", "", "S"),
            (50, 43, 61, 19, 45, 37),
        ),
        7: (
            (4, 0, 1, 0, 0, 0, 0),
            ("H", "H", "SZ", "H", "H", "H", "H"),
            (103, 68, 54, 51, 91, 100, 55),
        ),
    }

    @pytest.mark.parametrize("n", sorted(PINNED))
    def test_pinned_reductions(self, n):
        gens = random_state_generators(n, random.Random(n))
        graph, record = stabilizer_to_graph(StabilizerState(tuple(gens)))
        got = (graph.rows, record.letters, record.generator_change.rows)
        assert got == self.PINNED[n]

    def test_letters_and_r_map_input_onto_graph_generators(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(1, 7)
            gens = random_state_generators(n, rng)
            graph, record = stabilizer_to_graph(StabilizerState(tuple(gens)))
            r = record.generator_change
            hadamarded = list(gens)
            for j, letters in enumerate(record.letters):
                if "H" in letters:
                    hadamarded = [conjugate(g, "H", j) for g in hadamarded]
            x_block = GF2Matrix(n, tuple(g.u for g in hadamarded))
            assert x_block.invert() is not None
            moved = list(gens)
            for j, letters in enumerate(record.letters):
                for letter in letters:
                    moved = [conjugate(g, letter, j) for g in moved]
            assert regenerate_generators(moved, r) == tuple(
                PauliOp(n, 1 << i, graph.rows[i], 0) for i in range(n)
            )
            # a one-state check would pass vacuously, so compare a two-word
            # code at d = 2
            code = ClassicalCode.from_ints(n, [0, rng.randrange(1, 1 << n)])
            in_states = [stabilizer_state_vector(gens, c) for c in code.values]
            moved_code = change_generators(r, code).sorted()
            assert kl_oracle_states(in_states, 2) == kl_oracle(
                CWSCode(graph, moved_code), 2
            )


class TestStabilizerState:
    def test_anticommuting_generators_refused(self):
        gens = (PauliOp.from_text("XI"), PauliOp.from_text("ZI"))
        with pytest.raises(ValueError, match="anticommute"):
            StabilizerState(gens)

    def test_dependent_generators_refused(self):
        gens = (PauliOp.from_text("ZZ"), PauliOp.from_text("ZZ"))
        with pytest.raises(ValueError, match="not independent"):
            StabilizerState(gens)

    def test_minus_sign_refused(self):
        gens = (PauliOp.from_text("-ZI"), PauliOp.from_text("IZ"))
        with pytest.raises(ValueError, match="sign"):
            StabilizerState(gens)


class TestFullChain:
    def test_fixed_example_reaches_distance_two(self):
        res = ac06_to_standard_form(ex2_data(fixed=True))
        assert res.cws.n == 5 and res.cws.dimension == 6
        assert kl_oracle(res.cws, 2) == 2
        assert kl_oracle(res.cws, 3) == 2

    def test_chain_preserves_dimension_and_distance(self):
        rng = random.Random(2)
        for _ in range(10):
            n = rng.randint(2, 4)
            k = rng.randint(1, 1 << (n - 1))
            data = random_ac06(n, k, rng)
            conv = ac06_to_cws(data)
            res = ac06_to_standard_form(data)
            assert res.cws.dimension == k == len(data.f.support)
            in_states = [
                stabilizer_state_vector(conv.stabilizer.generators, c.value)
                for c in conv.code.words
            ]
            for d in range(1, n + 2):
                assert kl_oracle_states(in_states, d) == kl_oracle(res.cws, d)


class TestChangeGenerators:
    def test_identity(self):
        code = ClassicalCode.from_texts(["000", "110", "011"])
        assert change_generators(GF2Matrix.identity(3), code).values == code.values

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        code = ClassicalCode.from_texts(["0000", "1100", "0110", "1010"])
        for _ in range(20):
            r = random_invertible(4, rng)
            back = change_generators(r.invert(), change_generators(r, code))
            assert back.values == code.values

    def test_singular_refused(self):
        code = ClassicalCode.from_texts(["00", "10"])
        with pytest.raises(ValueError):
            change_generators(GF2Matrix(2, (0b11, 0b11)), code)

    def test_non_square_refused(self):
        # GF2Matrix.invert refuses it
        code = ClassicalCode.from_texts(["00", "10"])
        with pytest.raises(ValueError, match="square"):
            change_generators(GF2Matrix(2, (0b01, 0b10, 0b11)), code)

    def test_invariance_under_generator_change(self):
        # transformed (generators, code) pairs describe the same code space
        res = ac06_to_standard_form(ex2_data(fixed=True))
        n = 5
        graph_gens = StabilizerState(
            tuple(PauliOp(n, 1 << l, res.graph.rows[l], 0) for l in range(n))
        )
        base_cset = len(cset(cws_to_ac06(res.cws).f))
        rng = random.Random(4)
        for _ in range(20):
            r = random_invertible(n, rng)
            new_gens = regenerate_generators(graph_gens, r)
            new_code = change_generators(r, res.cws.code)
            states = [
                stabilizer_state_vector(new_gens, c.value) for c in new_code.words
            ]
            assert kl_oracle_states(states, 2) == 2
            moved = CWSCode(res.graph, new_code.sorted())
            assert len(cset(cws_to_ac06(moved).f)) == base_cset


class TestCwsToAc06:
    def test_pentagon_round_trip(self):
        q = CWSCode(Graph.ring(5), ClassicalCode.from_texts(["00000", "11111"]))
        data = cws_to_ac06(q)
        assert len(data.f.support) == 2
        res = ac06_to_standard_form(data)
        assert res.cws.dimension == 2
        assert kl_oracle(res.cws, 3) == 3

    def test_example_full_cycle(self):
        res = ac06_to_standard_form(ex2_data(fixed=True))
        data2 = cws_to_ac06(res.cws)
        res2 = ac06_to_standard_form(data2)
        assert res2.cws.dimension == 6
        assert kl_oracle(res2.cws, 2) == 2

    def test_trivial_code_round_trip(self):
        q = CWSCode(Graph.empty(3), ClassicalCode.from_texts(["000"]))
        data = cws_to_ac06(q)
        assert len(data.f.support) == 1
        res = ac06_to_standard_form(data)
        assert res.cws.dimension == 1


class TestComputeSd:
    def test_graph_state_has_empty_sd_at_distance_two(self):
        g = Graph.ring(4)
        gens = tuple(PauliOp(4, 1 << l, g.rows[l], 0) for l in range(4))
        result = compute_sd(StabilizerState(gens), 2)
        assert result.elements == ()
        assert result.rank == 0

    def test_single_qubit_generators(self):
        gens = (PauliOp.from_text("XI"), PauliOp.from_text("IZ"))
        result = compute_sd(StabilizerState(gens), 2)
        assert {str(e) for e in result.elements} == {"XI", "IZ"}
        assert result.rank == 2

    def test_repetition_group(self):
        gens = [PauliOp.from_text("ZZI"), PauliOp.from_text("IZZ")]
        result = compute_sd(gens, 3)
        assert {str(e) for e in result.elements} == {"ZZI", "IZZ", "ZIZ"}
        assert result.rank == 2
        assert len(result.generators) == 2

    def test_first_r_span_and_rest_outside(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_graph(3, rng)
            gens = tuple(PauliOp(3, 1 << l, g.rows[l], 0) for l in range(3))
            result = compute_sd(StabilizerState(gens), 3)
            low = result.generators[: result.rank]
            for e in low:
                assert e.weight() < 3
            for e in result.generators[result.rank :]:
                assert e.weight() >= 3

    def test_full_rank_constraint_forces_trivial_codes(self):
        # on the edgeless graph every X generator has weight 1, so the
        # low-weight constraint pins all sign coordinates and the clique
        # search can only ever return the one-word code
        from cwskit.clique import cws_maxclique
        from cwskit.errormap import error_set

        n = 3
        g = Graph.empty(n)
        gens = tuple(PauliOp(n, 1 << l, 0, 0) for l in range(n))
        result = compute_sd(StabilizerState(gens), 2)
        assert result.rank == n
        assert cws_maxclique(error_set(n, 2), g).size == 1

    def test_pinned_subgroup_with_minus_sign(self):
        # three of five generators, one negated; values computed before
        # compute_sd moved onto insert_reduced
        gens = random_state_generators(5, random.Random(55))[:3]
        gens[1] = PauliOp(5, gens[1].u, gens[1].v, gens[1].phase + 2)
        assert [str(g) for g in gens] == ["ZXZIZ", "-IXIZI", "ZIIZZ"]
        result = compute_sd(gens, 3)
        assert [str(e) for e in result.elements] == ["-IXIZI", "-IIZII"]
        assert result.rank == 2
        assert [str(g) for g in result.generators] == ["-IXIZI", "-IIZII", "ZXZIZ"]

    @pytest.mark.parametrize(
        "texts, match",
        [
            (["XI", "ZI"], "commute"),
            (["ZZ", "-ZZ"], "not independent"),
            (["ZI", "iIZ"], "Hermitian"),
            (["ZI", "-iIZ"], "Hermitian"),
        ],
    )
    def test_invalid_generators_refused(self, texts, match):
        with pytest.raises(ValueError, match=match):
            compute_sd([PauliOp.from_text(t) for t in texts], 2)


class TestAc06File:
    def test_round_trip(self):
        data = ex2_data()
        again = parse_ac06_file(write_ac06_file(data))
        assert again.a.rows == data.a.rows
        assert again.f.support == data.f.support

    def test_anf_in_file(self):
        text = "n=2\nA:\n1000\n0100\nf:\nv1v2\n"
        data = parse_ac06_file(text)
        assert data.f.support == (3,)

    def test_bad_files(self):
        with pytest.raises(ValueError):
            parse_ac06_file("A:\n10\nf:\n1\n")
        with pytest.raises(ValueError):
            parse_ac06_file("n=1\nf:\n1\n")
        with pytest.raises(ValueError):
            parse_ac06_file("n=2\nA:\n1000\nf:\n11\n")
