import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_pauli
from cwskit.gf2 import (
    BitString,
    ClassicalCode,
    GF2Matrix,
    PauliOp,
    insert_reduced,
    random_invertible,
    parity,
    solve_linear,
    symplectic_product,
    xor_basis,
)


def bs(text: str) -> BitString:
    return BitString.from_text(text)


class TestBitString:
    def test_xor_examples(self):
        # XOR of the packed values is the position-wise XOR of the texts
        assert str(BitString(4, bs("0000").value ^ bs("0000").value)) == "0000"
        assert str(BitString(4, bs("0110").value ^ bs("0101").value)) == "0011"

    def test_dot_examples(self):
        # the GF(2) inner product is the parity of the AND
        assert parity(bs("1010").value & bs("1010").value) == 0
        assert parity(bs("100").value & bs("110").value) == 1
        rng = random.Random(2)
        for _ in range(20):
            n = rng.randint(1, 20)
            a = BitString(n, rng.randrange(1 << n))
            assert parity(a.value & 0) == 0

    def test_text_round_trip(self):
        for text in ("0", "1", "01101", "1" * 24):
            assert str(bs(text)) == text

    def test_bit_indexing_matches_text(self):
        b = bs("1000")
        assert b.value & 1 == 1 and (b.value >> 1) & 1 == 0
        assert b.value == 1

    def test_length_cap(self):
        with pytest.raises(ValueError):
            BitString(25, 0)
        with pytest.raises(ValueError):
            bs("0" * 25)

    def test_length_mismatch(self):
        # a value with more bits than the declared length
        with pytest.raises(ValueError):
            BitString(2, bs("001").value)


class TestPauliAlgebra:
    def test_symplectic_single_qubit(self):
        x = PauliOp.from_text("X")
        z = PauliOp.from_text("Z")
        assert x.symplectic(z) == 1
        assert x.symplectic(x) == 0
        assert symplectic_product(x, z) == 1

    def test_xz_is_minus_i_y(self):
        x = PauliOp.from_text("X")
        z = PauliOp.from_text("Z")
        y = PauliOp.from_text("Y")
        prod = x @ z
        assert np.allclose(dense_pauli(prod), -1j * dense_pauli(y))

    def test_identity_neutral(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(1, 6)
            p = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
            assert p @ PauliOp.identity(n) == p
            assert PauliOp.identity(n) @ p == p

    def test_compose_matches_dense(self):
        rng = random.Random(4)
        for _ in range(60):
            n = rng.randint(1, 3)
            p = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
            q = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
            assert np.allclose(dense_pauli(p @ q), dense_pauli(p) @ dense_pauli(q))

    def test_compose_associative(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 6)
            ps = [
                PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
                for _ in range(3)
            ]
            assert (ps[0] @ ps[1]) @ ps[2] == ps[0] @ (ps[1] @ ps[2])

    def test_self_composition_is_scalar(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(1, 8)
            p = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), rng.randrange(4))
            sq = p @ p
            assert sq.u == 0 and sq.v == 0
            assert sq.phase in (0, 2)

    def test_commutation_matches_dense(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 3)
            p = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), 0)
            q = PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n), 0)
            dp, dq = dense_pauli(p), dense_pauli(q)
            assert (p.symplectic(q) == 0) == np.allclose(dp @ dq, dq @ dp)

    def test_z_string_commutation_condition(self):
        # Z^c commutes with Z^v X^u exactly when c.u = 0
        rng = random.Random(8)
        for _ in range(40):
            n = rng.randint(1, 4)
            c = rng.randrange(1 << n)
            u = rng.randrange(1 << n)
            v = rng.randrange(1 << n)
            zc = PauliOp(n, 0, c, 0)
            e = PauliOp(n, u, v, 0)
            lhs = dense_pauli(zc) @ dense_pauli(e)
            rhs = dense_pauli(e) @ dense_pauli(zc)
            commute = parity(c & u) == 0
            assert np.allclose(lhs, rhs) == commute

    def test_text_round_trip(self):
        for text in ("IZYYZ", "-XX", "+iYZ", "-iZZZ", "Y"):
            p = PauliOp.from_text(text)
            expect = text[1:] if text.startswith("+") and not text.startswith("+i") else text
            assert str(p) == expect.replace("+i", "+i")
        assert str(PauliOp.from_text("+X")) == "X"

    def test_text_dense_consistency(self):
        mats = {
            "Y": np.array([[0, -1j], [1j, 0]]),
            "-X": -np.array([[0, 1], [1, 0]], dtype=complex),
            "+iZ": 1j * np.array([[1, 0], [0, -1]], dtype=complex),
        }
        for text, m in mats.items():
            assert np.allclose(dense_pauli(PauliOp.from_text(text)), m)

    def test_weight_and_sign(self):
        p = PauliOp.from_text("IZYYZ")
        assert p.weight() == 4
        assert p.hermitian_sign() == 1
        assert PauliOp(p.n, p.u, p.v, p.phase + 2).hermitian_sign() == -1
        assert PauliOp.from_text("+iX").hermitian_sign() is None

    def test_bad_text(self):
        for text in ("", "AB", "++X", "X Z"):
            with pytest.raises(ValueError):
                PauliOp.from_text(text)


class TestGF2Matrix:
    def test_identity_rank(self):
        for n in (1, 3, 8):
            assert GF2Matrix.identity(n).rank() == n

    def test_repeated_row_rank(self):
        m = GF2Matrix(4, (0b1010, 0b1010, 0b0001))
        assert m.rank() == 2

    def test_invert_singular(self):
        m = GF2Matrix(2, (0b11, 0b11))
        assert m.invert() is None

    def test_invert_round_trip(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.randint(1, 8)
            m = random_invertible(n, rng)
            inv = m.invert()
            assert inv is not None
            product = tuple(inv.mul_vec(r) for r in m.rows)  # m times inv
            assert product == GF2Matrix.identity(n).rows

    def test_row_reduce_idempotent(self):
        rng = random.Random(10)
        for _ in range(20):
            n = rng.randint(1, 8)
            rows = tuple(rng.randrange(1 << n) for _ in range(rng.randint(1, 8)))
            r = GF2Matrix(n, rows).row_reduce()
            assert r.row_reduce().rows == r.rows

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_rank_invariant_under_row_permutation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        rows = data.draw(
            st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=6)
        )
        perm = data.draw(st.permutations(rows))
        assert GF2Matrix(n, tuple(rows)).rank() == GF2Matrix(n, tuple(perm)).rank()

    def test_mul_vec_is_row_combination(self):
        m = GF2Matrix(3, (0b011, 0b101, 0b110))
        assert m.mul_vec(0b101) == (0b011 ^ 0b110)

    def test_solve_linear(self):
        rng = random.Random(11)
        for _ in range(60):
            ncols = rng.randint(1, 6)
            nrows = rng.randint(1, 6)
            rows = tuple(rng.randrange(1 << ncols) for _ in range(nrows))
            m = GF2Matrix(ncols, rows)
            rhs = rng.randrange(1 << nrows)
            x = solve_linear(m, rhs)
            solvable = any(
                all(
                    bin(rows[r] & cand).count("1") % 2 == (rhs >> r) & 1
                    for r in range(nrows)
                )
                for cand in range(1 << ncols)
            )
            if x is None:
                assert not solvable
            else:
                for r in range(nrows):
                    assert bin(rows[r] & x).count("1") % 2 == (rhs >> r) & 1

    def test_solve_zero_rhs_gives_zero(self):
        m = GF2Matrix(4, (0b0110, 0b1001))
        assert solve_linear(m, 0) == 0

    def test_insert_reduced_tracks_rank(self):
        rng = random.Random(8)
        for _ in range(200):
            values = [rng.randrange(1 << 6) for _ in range(rng.randint(1, 8))]
            by_top: dict[int, int] = {}
            for i, t in enumerate(values):
                before = GF2Matrix(6, tuple(values[:i])).rank()
                grew = GF2Matrix(6, tuple(values[: i + 1])).rank() > before
                assert insert_reduced(by_top, t) == grew
            basis = xor_basis(values)
            assert basis == list(by_top.values())
            assert GF2Matrix(6, tuple(basis)).rank() == len(basis) == len(by_top)


class TestClassicalCode:
    def test_duplicates_refused(self):
        with pytest.raises(ValueError):
            ClassicalCode.from_texts(["000", "000"])

    def test_sorted_puts_zero_first(self):
        c = ClassicalCode.from_texts(["110", "000", "011"])
        assert [str(w) for w in c.sorted().words] == ["000", "110", "011"]

    def test_shift_and_matrix_action(self):
        c = ClassicalCode.from_texts(["000", "110"])
        shifted = ClassicalCode.from_ints(3, (w ^ bs("110").value for w in c.values))
        assert {str(w) for w in shifted.words} == {"110", "000"}
        r = GF2Matrix.identity(3)
        assert c.mul_matrix(r).values == c.values
