"""Pauli error sets and the induced classical patterns (CL and D arrays).

For an error E = +- Z^v X^u acting through graph G, the induced classical
pattern is v XOR the XOR of the adjacency rows selected by u.  Errors whose
pattern is zero act trivially on the graph state up to sign; the D array
marks the codewords c with c.u != 0 for some such error, which are exactly
the codewords a degenerate code must avoid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import kernels
from .gf2 import BitString, PauliOp, xor_basis
from .graphs import Graph

MAX_SETUP_N = 24
_CHUNK = 1 << 20

_LETTERS = "XYZ"


@dataclass(frozen=True)
class ErrorSet:
    """A set of Pauli errors to detect; never contains the identity."""

    n: int
    paulis: tuple[PauliOp, ...]
    weight_bound: int | None = None

    def __post_init__(self) -> None:
        for p in self.paulis:
            if p.n != self.n:
                raise ValueError("error set mixes qubit counts")
            if p.u == 0 and p.v == 0:
                raise ValueError("the identity is not an error")
        if self.weight_bound is not None:
            expect = sum(
                math.comb(self.n, w) * 3**w for w in range(1, self.weight_bound + 1)
            )
            if len(self.paulis) != expect:
                raise ValueError("weight-bounded error set has wrong cardinality")

    def __len__(self) -> int:
        return len(self.paulis)

    def __iter__(self) -> Iterator[PauliOp]:
        return iter(self.paulis)

    def uv_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        u = np.fromiter((p.u for p in self.paulis), dtype=np.int64, count=len(self.paulis))
        v = np.fromiter((p.v for p in self.paulis), dtype=np.int64, count=len(self.paulis))
        return u, v


def _weight_errors(n: int, w: int) -> Iterator[PauliOp]:
    for support in itertools.combinations(range(n), w):
        for letters in itertools.product(_LETTERS, repeat=w):
            u = v = 0
            phase = 0
            for q, c in zip(support, letters):
                if c != "Z":
                    u |= 1 << q
                if c != "X":
                    v |= 1 << q
                if c == "Y":
                    phase += 1
            yield PauliOp(n, u, v, phase % 4)


def error_set(n: int, d: int) -> ErrorSet:
    """All Pauli errors of weight 1..d-1, in deterministic order: ascending
    weight, supports lexicographic, letters X < Y < Z per position."""
    if not 1 <= d <= n + 1:
        raise ValueError(f"distance must be in 1..{n + 1}, got {d}")
    paulis = tuple(
        itertools.chain.from_iterable(_weight_errors(n, w) for w in range(1, d))
    )
    return ErrorSet(n, paulis, weight_bound=d - 1)


def explicit_error_set(n: int, paulis: Iterable[PauliOp]) -> ErrorSet:
    return ErrorSet(n, tuple(paulis))


def parse_error_file(text: str, n: int | None = None) -> ErrorSet:
    paulis = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        paulis.append(PauliOp.from_text(ln))
    if not paulis:
        raise ValueError("error file contains no operators")
    if n is None:
        n = paulis[0].n
    return ErrorSet(n, tuple(paulis))


def write_error_file(errors: ErrorSet) -> str:
    return "\n".join(str(p) for p in errors.paulis) + "\n"


# ---------------------------------------------------------------------------

def cl_map(e: PauliOp, g: Graph) -> BitString:
    """Classical pattern induced by e through g; the phase is ignored."""
    if e.n != g.n:
        raise ValueError(f"length mismatch: error n={e.n}, graph n={g.n}")
    acc = e.v
    t = e.u
    while t:
        l = (t & -t).bit_length() - 1
        t &= t - 1
        acc ^= g.rows[l]
    return BitString(g.n, acc)


class ClArrays:
    """The CL and D arrays: boolean arrays of length 2^n indexed by codeword."""

    def __init__(self, n: int, cl: np.ndarray, d: np.ndarray) -> None:
        self.n = n
        self.cl = np.asarray(cl, dtype=bool)
        self.d = np.asarray(d, dtype=bool)
        if self.cl.shape != (1 << n,) or self.d.shape != (1 << n,):
            raise ValueError("CL and D arrays must have length 2^n")

    @property
    def degenerate(self) -> bool:
        return bool(self.cl[0])

    def dump(self) -> str:
        """Each array as hex little-endian uint64 words of packed bits."""
        return (
            f"n={self.n} which=CL\n{kernels.pack_bits(self.cl).tobytes().hex()}\n"
            f"n={self.n} which=D\n{kernels.pack_bits(self.d).tobytes().hex()}\n"
        )

    @classmethod
    def parse(cls, text: str) -> "ClArrays":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) != 4:
            raise ValueError("CL/D dump must have two header+payload pairs")
        sections: dict[str, np.ndarray] = {}
        n = None
        for header, payload in (lines[0:2], lines[2:4]):
            parts = dict(p.split("=", 1) for p in header.split())
            n = int(parts["n"])
            words = np.frombuffer(bytes.fromhex(payload), dtype=np.uint64)
            if words.size != ((1 << n) + 63) >> 6:
                raise ValueError("word arrays have the wrong shape")
            sections[parts["which"]] = kernels.unpack_bits(words, 1 << n)
        if set(sections) != {"CL", "D"}:
            raise ValueError("dump must contain one CL and one D section")
        return cls(n, sections["CL"], sections["D"])


def setup(errors: ErrorSet, g: Graph) -> ClArrays:
    """Compute the CL and D arrays for an error set acting through a graph."""
    if errors.n != g.n:
        raise ValueError("error set and graph disagree on n")
    n = g.n
    if n > MAX_SETUP_N:
        raise ValueError(f"setup supports n <= {MAX_SETUP_N}")
    size = 1 << n

    cl_bits = np.zeros(size, dtype=bool)
    basis: list[int] = []
    if len(errors):
        u, v = errors.uv_arrays()
        patterns = kernels.cl_patterns(u, v, g.rows_array())
        cl_bits[patterns] = True
        # D[i] = 1 iff i has odd overlap with some trivially-mapping X support,
        # equivalently with some basis vector of their span.
        basis = xor_basis(u[patterns == 0].tolist())

    d_bits = np.zeros(size, dtype=bool)
    if basis:
        for lo in range(0, size, _CHUNK):
            hi = min(size, lo + _CHUNK)
            x = np.arange(lo, hi, dtype=np.int64)
            acc = np.zeros(hi - lo, dtype=bool)
            for b in basis:
                acc |= kernels.parity_of_and(x, b).astype(bool)
            d_bits[lo:hi] = acc

    return ClArrays(n, cl_bits, d_bits)
