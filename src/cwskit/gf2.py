"""GF(2) bit vectors, binary matrices, and the binary-symplectic Pauli algebra.

Conventions used across the whole package:

* A length-``n`` bit string is stored bit-packed in a Python int.  Bit ``i``
  of the int is qubit ``i+1`` / graph vertex ``i+1`` and is the *leftmost*
  character in text I/O, so ``"110"`` has value ``0b011 == 3``.
* A Pauli operator is kept in the normal form ``i^phase * X^u Z^v`` with the
  X factor on the left.  All composition and sign rules below are derived
  from that single normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

MAX_BITS = 24

_PHASE_PREFIX = {0: "", 1: "+i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"": 0, "+": 0, "+i": 1, "i": 1, "-": 2, "-i": 3}


def parity(x: int) -> int:
    return x.bit_count() & 1


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"bit length must be in 1..{MAX_BITS}, got {n}")


@dataclass(frozen=True)
class BitString:
    """Fixed-length GF(2) vector, bit-packed into an int."""

    n: int
    value: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for n={self.n}")

    @classmethod
    def from_text(cls, text: str) -> "BitString":
        text = text.strip()
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a bit string: {text!r}")
        value = 0
        for i, c in enumerate(text):
            if c == "1":
                value |= 1 << i
        return cls(len(text), value)

    def __str__(self) -> str:
        return "".join("1" if (self.value >> i) & 1 else "0" for i in range(self.n))


@dataclass(frozen=True)
class GF2Matrix:
    """Binary matrix with rows bit-packed into ints (bit j = column j)."""

    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.ncols < 1:
            raise ValueError("matrix needs at least one column")
        for r in self.rows:
            if not 0 <= r < (1 << self.ncols):
                raise ValueError("row value out of range for declared width")

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, tuple(1 << i for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def row_reduce(self) -> "GF2Matrix":
        """Reduced row-echelon form, pivoting on columns 0, 1, ... in order."""
        work = list(self.rows)
        pivot_row = 0
        for col in range(self.ncols):
            sel = None
            for r in range(pivot_row, len(work)):
                if (work[r] >> col) & 1:
                    sel = r
                    break
            if sel is None:
                continue
            work[pivot_row], work[sel] = work[sel], work[pivot_row]
            for r in range(len(work)):
                if r != pivot_row and (work[r] >> col) & 1:
                    work[r] ^= work[pivot_row]
            pivot_row += 1
            if pivot_row == len(work):
                break
        return GF2Matrix(self.ncols, tuple(work))

    def rank(self) -> int:
        return len(xor_basis(self.rows))

    def invert(self) -> "GF2Matrix | None":
        """Inverse of a square matrix, or None when singular.

        Row-reduces [M | I]; M is invertible iff the left block becomes I,
        and the right block is then its inverse."""
        n = self.ncols
        if self.nrows != n:
            raise ValueError("invert requires a square matrix")
        aug = GF2Matrix(
            2 * n, tuple(r | (1 << (n + i)) for i, r in enumerate(self.rows))
        )
        reduced = aug.row_reduce().rows
        mask = (1 << n) - 1
        if any((w & mask) != 1 << i for i, w in enumerate(reduced)):
            return None
        return GF2Matrix(n, tuple(w >> n for w in reduced))

    def mul_vec(self, v: int) -> int:
        """Row vector times matrix: bit t of the result is XOR_k v_k * M[k][t]."""
        acc = 0
        rows = self.rows
        k = 0
        while v:
            if v & 1:
                acc ^= rows[k]
            v >>= 1
            k += 1
        return acc

    def transpose(self) -> "GF2Matrix":
        cols = []
        for j in range(self.ncols):
            c = 0
            for i, r in enumerate(self.rows):
                c |= ((r >> j) & 1) << i
            cols.append(c)
        return GF2Matrix(self.nrows, tuple(cols))


def solve_linear(m: GF2Matrix, rhs: int) -> int | None:
    """One solution x of M x = rhs (x as column bit vector), or None.

    Row-reduces [M | rhs]; a pivot in the rhs column means no solution.
    Free variables are set to zero, which makes the solution deterministic
    and maps a zero right-hand side to the zero solution."""
    width = m.ncols
    aug = GF2Matrix(
        width + 1,
        tuple(r | (((rhs >> i) & 1) << width) for i, r in enumerate(m.rows)),
    )
    x = 0
    for r in aug.row_reduce().rows:
        if not r:
            continue
        col = (r & -r).bit_length() - 1  # pivot: lowest set bit of an RREF row
        if col == width:
            return None
        if (r >> width) & 1:
            x |= 1 << col
    return x


def insert_reduced(by_top: dict[int, int], t: int) -> bool:
    """Reduce t by the kept vectors, keyed by their top bits, and keep a
    nonzero remainder; True iff t was independent of the kept vectors."""
    while t:
        top = t.bit_length() - 1
        if top not in by_top:
            by_top[top] = t
            return True
        t ^= by_top[top]
    return False


def xor_basis(values: Iterable[int]) -> list[int]:
    """A basis of the GF(2) span of bit-packed vectors: the nonzero
    remainders of insert_reduced, in the order they were kept."""
    by_top: dict[int, int] = {}
    for t in values:
        insert_reduced(by_top, t)
    return list(by_top.values())


def random_invertible(n: int, rng) -> GF2Matrix:
    """Uniform-ish random invertible n x n matrix via rejection sampling."""
    while True:
        rows = tuple(rng.randrange(1 << n) for _ in range(n))
        m = GF2Matrix(n, rows)
        if m.invert() is not None:
            return m


_LETTER_UV = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_UV_LETTER = {v: k for k, v in _LETTER_UV.items()}


@dataclass(frozen=True)
class PauliOp:
    """n-qubit Pauli operator as ``i^phase * X^u Z^v``.

    ``u`` is the X support and ``v`` the Z support, both bit-packed; ``phase``
    is the exponent of i, modulo 4.  A Y letter on qubit j means bits
    ``u_j = v_j = 1`` plus one factor of i in the phase (Y = i X Z).
    """

    n: int
    u: int
    v: int
    phase: int = 0

    def __post_init__(self) -> None:
        _check_n(self.n)
        top = 1 << self.n
        if not (0 <= self.u < top and 0 <= self.v < top):
            raise ValueError("support out of range for declared n")
        if not 0 <= self.phase < 4:
            object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PauliOp":
        return cls(n, 0, 0, 0)

    @classmethod
    def from_text(cls, text: str) -> "PauliOp":
        """Parse e.g. "IZYYZ", "-XX", "+iYZ"."""
        text = text.strip()
        body = text.lstrip("+-i")
        prefix = text[: len(text) - len(body)]
        if prefix not in _PREFIX_PHASE:
            raise ValueError(f"bad sign prefix in {text!r}")
        if not body or any(c not in "IXYZ" for c in body):
            raise ValueError(f"bad Pauli letters in {text!r}")
        u = v = 0
        phase = _PREFIX_PHASE[prefix]
        for i, c in enumerate(body):
            cu, cv = _LETTER_UV[c]
            u |= cu << i
            v |= cv << i
            if c == "Y":
                phase += 1
        return cls(len(body), u, v, phase % 4)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliOp":
        cu, cv = _LETTER_UV[letter]
        phase = 1 if letter == "Y" else 0
        return cls(n, cu << qubit, cv << qubit, phase)

    def __str__(self) -> str:
        y_count = (self.u & self.v).bit_count()
        prefix = _PHASE_PREFIX[(self.phase - y_count) % 4]
        letters = "".join(
            _UV_LETTER[((self.u >> i) & 1, (self.v >> i) & 1)] for i in range(self.n)
        )
        return prefix + letters

    def weight(self) -> int:
        return (self.u | self.v).bit_count()

    def compose(self, other: "PauliOp") -> "PauliOp":
        """Operator product self * other with exact quarter-phase tracking."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        # Z^v1 X^u2 = (-1)^(v1.u2) X^u2 Z^v1 when renormalising to X-then-Z.
        phase = (self.phase + other.phase + 2 * parity(self.v & other.u)) % 4
        return PauliOp(self.n, self.u ^ other.u, self.v ^ other.v, phase)

    def __matmul__(self, other: "PauliOp") -> "PauliOp":
        return self.compose(other)

    def symplectic(self, other: "PauliOp") -> int:
        """Binary symplectic inner product; 0 iff the operators commute."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} != {other.n}")
        return parity(self.u & other.v) ^ parity(other.u & self.v)

    def hermitian_sign(self) -> int | None:
        """+1 or -1 for Hermitian operators, None for the +-i phases."""
        rem = (self.phase - (self.u & self.v).bit_count()) % 4
        if rem == 0:
            return 1
        if rem == 2:
            return -1
        return None


def symplectic_product(p: PauliOp, q: PauliOp) -> int:
    return p.symplectic(q)


@dataclass(frozen=True)
class ClassicalCode:
    """Ordered set of distinct equal-length codewords (the C in Q = (G, C))."""

    words: tuple[BitString, ...]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("a classical code needs at least one codeword")
        n = self.words[0].n
        if any(w.n != n for w in self.words):
            raise ValueError("codewords have mixed lengths")
        if len({w.value for w in self.words}) != len(self.words):
            raise ValueError("codewords must be pairwise distinct")

    @classmethod
    def from_ints(cls, n: int, values: Iterable[int]) -> "ClassicalCode":
        return cls(tuple(BitString(n, v) for v in values))

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "ClassicalCode":
        return cls(tuple(BitString.from_text(t) for t in texts))

    @property
    def n(self) -> int:
        return self.words[0].n

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(w.value for w in self.words)

    def contains_zero(self) -> bool:
        return any(w.value == 0 for w in self.words)

    def sorted(self) -> "ClassicalCode":
        """Ascending integer order; puts the all-zeros word first when present."""
        return ClassicalCode(tuple(sorted(self.words, key=lambda w: w.value)))

    def mul_matrix(self, r: GF2Matrix) -> "ClassicalCode":
        """Each codeword as a row vector multiplied by r over GF(2)."""
        if r.nrows != self.n or r.ncols != self.n:
            raise ValueError("matrix shape does not match codeword length")
        return ClassicalCode(
            tuple(BitString(self.n, r.mul_vec(w.value)) for w in self.words)
        )
