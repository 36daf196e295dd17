"""Pauli error sets and the induced classical patterns (CL and D arrays).

For an error E = +- Z^v X^u acting through graph G, the induced classical
pattern is v XOR the XOR of the adjacency rows selected by u.  Errors whose
pattern is zero act trivially on the graph state up to sign; the D array
marks the codewords c with c.u != 0 for some such error, which are exactly
the codewords a degenerate code must avoid.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import kernels
from .gf2 import BitString, PauliOp
from .graphs import Graph

MAX_SETUP_N = 24
_CHUNK = 1 << 20

_LETTERS = "XYZ"


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ErrorSet:
    """A set of Pauli errors to detect; never contains the identity.

    The per-error arrays every graph of a search reads are built once, here,
    and are read-only: ``u`` and ``v`` as int64, and ``xcols``, the int64
    index arrays ``kernels.cl_patterns`` gathers adjacency rows by.  Row k
    of ``xcols`` holds, for each error, its k-th X-support qubit in
    ascending order, or ``n`` (a zero row) once the support runs out; there
    are as many rows as the largest X support has qubits.  ``xorder`` lists
    the error indices grouped by X support, groups in order of first
    appearance, and ``xstarts`` where each group starts in it, so that
    ``setup_table`` can OR flags per distinct X support without sorting."""

    n: int
    paulis: tuple[PauliOp, ...]
    u: np.ndarray = field(init=False, repr=False, compare=False)
    v: np.ndarray = field(init=False, repr=False, compare=False)
    xcols: np.ndarray = field(init=False, repr=False, compare=False)
    xorder: np.ndarray = field(init=False, repr=False, compare=False)
    xstarts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for p in self.paulis:
            if p.n != self.n:
                raise ValueError("error set mixes qubit counts")
            if p.u == 0 and p.v == 0:
                raise ValueError("the identity is not an error")
        count = len(self.paulis)
        u = np.fromiter((p.u for p in self.paulis), dtype=np.int64, count=count)
        v = np.fromiter((p.v for p in self.paulis), dtype=np.int64, count=count)
        supports = [[q for q in range(self.n) if (p.u >> q) & 1] for p in self.paulis]
        width = max(map(len, supports), default=0)
        xcols = np.array(
            [[s[k] if k < len(s) else self.n for s in supports] for k in range(width)],
            dtype=np.int64,
        ).reshape(width, count)
        groups: dict[int, list[int]] = {}
        for k, p in enumerate(self.paulis):
            groups.setdefault(p.u, []).append(k)
        xorder = np.array([k for group in groups.values() for k in group], dtype=np.int64)
        starts = [0, *itertools.accumulate(map(len, groups.values()))][:-1]
        object.__setattr__(self, "u", _frozen(u))
        object.__setattr__(self, "v", _frozen(v))
        object.__setattr__(self, "xcols", _frozen(xcols))
        object.__setattr__(self, "xorder", _frozen(xorder))
        object.__setattr__(self, "xstarts", _frozen(np.array(starts, dtype=np.int64)))

    def __len__(self) -> int:
        return len(self.paulis)


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


@functools.lru_cache(maxsize=8)
def error_set(n: int, d: int) -> ErrorSet:
    """All Pauli errors of weight 1..d-1, in deterministic order: ascending
    weight, supports lexicographic, letters X < Y < Z per position.

    Memoised per (n, d): an ErrorSet is immutable, so a search, its
    checkpoint reload and its witness share one."""
    if not 1 <= d <= n + 1:
        raise ValueError(f"distance must be in 1..{n + 1}, got {d}")
    paulis = tuple(
        itertools.chain.from_iterable(_weight_errors(n, w) for w in range(1, d))
    )
    return ErrorSet(n, paulis)


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


@dataclass(eq=False)
class ClArrays:
    """The CL and D arrays: boolean arrays of length 2^n indexed by codeword,
    as ``setup`` builds them."""

    n: int
    cl: np.ndarray
    d: np.ndarray

    @property
    def degenerate(self) -> bool:
        return bool(self.cl[0])

    def dump(self) -> str:
        """Each array as hex little-endian uint64 words of packed bits."""
        return (
            f"n={self.n} which=CL\n{kernels.pack_bits(self.cl).tobytes().hex()}\n"
            f"n={self.n} which=D\n{kernels.pack_bits(self.d).tobytes().hex()}\n"
        )


def setup_table(errors: ErrorSet, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CL and D arrays of R graphs at once, from their (R, n) int64
    adjacency row table (``graphs.rows_table``): two (R, 2^n) bool arrays,
    row r those of graph r.

    One ``kernels.cl_patterns`` call maps every error through every graph.
    D is computed only for degenerate graphs (CL holds 0): D[i] = 1 iff i
    has odd overlap with some trivially-mapping X support, equivalently with
    some vector of a basis of their span, which has at most n vectors.  A
    zero pattern has u != 0 (the identity is no error), so a degenerate
    graph's basis is not empty.

    The bases of all degenerate graphs come from one elimination over the
    chunk.  A graph's zero-pattern flags are ORed per distinct X support,
    which leaves it one vector per support that maps to 0.  Each round then
    takes, for every graph at once, its largest vector p as pivot and XORs
    p into each of its vectors x that has p's top bit (exactly those with
    x ^ p < x), p itself included.  No vector keeps a bit at or above that
    top bit, so there are at most n rounds, and a graph's nonzero pivots are
    a basis of its span."""
    count, n = rows.shape
    size = 1 << n
    cl = np.zeros((count, size), dtype=bool)
    d = np.zeros((count, size), dtype=bool)
    if not len(errors) or not count:
        return cl, d
    patterns = kernels.cl_patterns(errors.xcols, errors.v, rows)
    cl[np.arange(count)[:, None], patterns] = True
    degenerate = np.flatnonzero(cl[:, 0])
    if degenerate.size:
        # vecs[s, r]: the s-th distinct X support if an error with it maps
        # to 0 through degenerate graph r, else 0
        zero = (patterns.T == 0)[errors.xorder][:, degenerate]
        del patterns  # the largest array here, not held through the D fill
        supports = errors.u[errors.xorder[errors.xstarts]]
        vecs = np.logical_or.reduceat(zero, errors.xstarts, axis=0) * supports[:, None]
        basis = []
        pivot = vecs.max(axis=0)
        while pivot.any():
            basis.append(pivot[:, None])
            np.minimum(vecs, vecs ^ pivot, out=vecs)
            pivot = vecs.max(axis=0)
        for lo in range(0, size, _CHUNK):
            hi = min(size, lo + _CHUNK)
            x = np.arange(lo, hi, dtype=np.int64)
            acc = np.zeros((degenerate.size, hi - lo), dtype=bool)
            for b in basis:
                acc |= kernels.parity_of_and(x, b)
            d[degenerate, lo:hi] = acc
    return cl, d


@functools.lru_cache(maxsize=4)
def _hadamard(n: int) -> np.ndarray:
    """The (2^n, 2^n) Walsh-Hadamard matrix, entry (x, y) = (-1)^popcount(x & y),
    as float32: 4 MB at n = 10.  Built by Sylvester's doubling, in which the
    top bits of x and y pick the block and only both set flips its sign: at
    n = 10 that takes 2-5 ms and no int64 (x, y) table, against 12-16 ms by
    the popcount of every x & y."""
    h = np.ones((1, 1), dtype=np.float32)
    for _ in range(n):
        h = np.block([[h, h], [h, -h]])
    return _frozen(h)


def triple_counts(cl: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, |V|) of R graphs from their (R, 2^n) CL and D arrays
    (``setup_table``), both int64: V the words of each clique graph other
    than 0, ``~cl & ~d`` with column 0 cleared, and T = #{(a, b): a, b,
    a ^ b in V}.

    By the K = 3 structure theorem (``structure.extend_dim3_to_dim4``) a
    graph's clique number is at least 3 exactly when T > 0: a verified
    {0, a, b} extends to the verified {0, a, b, a ^ b}, and conversely such a
    triple makes {0, a, b} a clique, since a ^ b is not in CL.  T is
    2^-n sum_chi V^(chi)^3, V^ the +-1 Walsh-Hadamard transform of V, taken
    by one float32 matmul, exact since every partial sum is an integer below
    2^n <= 2^24; the cube sum, below 2^(4n), is exact in int64 up to n = 15.
    |V| is V^(0)."""
    n = cl.shape[1].bit_length() - 1
    v = ~cl & ~d
    v[:, 0] = False
    vhat = (v.astype(np.float32) @ _hadamard(n)).astype(np.int64)
    return (vhat**3).sum(axis=1) >> n, vhat[:, 0]


def setup(errors: ErrorSet, g: Graph) -> ClArrays:
    """Compute the CL and D arrays for an error set acting through a graph."""
    if errors.n != g.n:
        raise ValueError("error set and graph disagree on n")
    n = g.n
    if n > MAX_SETUP_N:
        raise ValueError(f"setup supports n <= {MAX_SETUP_N}")
    cl, d = setup_table(errors, np.array([g.rows], dtype=np.int64))
    return ClArrays(n, cl[0], d[0])
