"""Hot numeric kernels in NumPy and Python ints.

Sets in the clique layer are Python ints: vertex ``j`` is in set ``s`` when
``(s >> j) & 1``.  Little-endian uint64 words (``pack_bits``) appear only in
the CL/D and clique-graph dump formats.
"""

from __future__ import annotations

import sys

import numpy as np

# Read by perfbench/run.py and perfbench/kernels.py to label the kernel lane.
HAVE_NUMBA = False


# ---------------------------------------------------------------------------
# bit-array helpers

def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean array into little-endian uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    nwords = (bits.size + 63) >> 6
    padded = np.zeros(nwords * 64, dtype=np.uint8)
    padded[: bits.size] = bits
    bytes_ = np.packbits(padded, bitorder="little")
    return bytes_.view(np.uint64)


def unpack_bits(words: np.ndarray, size: int) -> np.ndarray:
    """Inverse of pack_bits; returns a boolean array of the given size."""
    bytes_ = np.asarray(words, dtype=np.uint64).view(np.uint8)
    bits = np.unpackbits(bytes_, bitorder="little")
    return bits[:size].astype(bool)


def parity_of_and(values: np.ndarray, mask: int) -> np.ndarray:
    """Elementwise parity of popcount(values & mask), as uint8."""
    return (np.bitwise_count(values & np.int64(mask)) & 1).astype(np.uint8)


# ---------------------------------------------------------------------------
# induced classical error patterns: v XOR (XOR of adjacency rows under u)

def cl_patterns(u: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    n = rows.shape[0]
    shifts = np.arange(n, dtype=np.int64)
    ubits = ((u[:, None] >> shifts) & 1).astype(np.uint8)
    adj = ((rows[:, None] >> shifts) & 1).astype(np.uint8)
    pat = (ubits @ adj) & 1
    packed = pat.astype(np.int64) @ (np.int64(1) << shifts)
    return v ^ packed


# ---------------------------------------------------------------------------
# graph-state sign vector: (-1)^q(x) for all basis strings x

def graph_signs(rows: np.ndarray, n: int) -> np.ndarray:
    x = np.arange(1 << n, dtype=np.int64)
    q = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        ri = int(rows[i])
        for j in range(i + 1, n):
            if (ri >> j) & 1:
                q ^= ((x >> i) & (x >> j) & 1).astype(np.uint8)
    return (1 - 2 * q.astype(np.int8)).astype(np.int8)


# ---------------------------------------------------------------------------
# CWS clique-graph adjacency over vertex indices

def clique_adjacency(verts: np.ndarray, cl_bool: np.ndarray) -> list[int]:
    """Neighbour mask of each vertex: j is a neighbour of i when i != j and
    the pattern verts[i] ^ verts[j] is not in CL."""
    ok = ~cl_bool[verts[:, None] ^ verts[None, :]]
    np.fill_diagonal(ok, False)
    packed = np.packbits(ok, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


# ---------------------------------------------------------------------------
# exact maximum-clique branch and bound with greedy colouring bounds
#
# Returns (best_size, best_members, nodes_expanded, exhausted).  `cand_int`
# is the initial candidate set; `stop_at` > 0 makes the search stop as soon
# as a clique of that size is found (exhausted is False in that case unless
# the space was fully explored first); `budget` < 0 means unlimited.

class _Stop(Exception):
    """Unwinds bnb_clique's recursion on budget exhaustion or early stop."""


def bnb_clique(
    adj_rows: list, m: int, cand_int: int, stop_at: int, budget: int
) -> tuple[int, list, int, bool]:
    """adj_rows[j] is the neighbour mask of vertex j, as a Python int."""
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 4 * m + 1000))
    best_size = 0
    best: list = []
    nodes = 0
    exhausted = True
    rstack = [0] * (m + 1)

    def colour(p: int):
        orderl = []
        boundl = []
        c = 0
        q = p
        while q:
            c += 1
            qc = q
            while qc:
                v = (qc & -qc).bit_length() - 1
                orderl.append(v)
                boundl.append(c)
                bit = 1 << v
                q &= ~bit
                qc &= ~bit & ~adj_rows[v]
        return orderl, boundl

    def expand(p: int, level: int) -> None:
        nonlocal best_size, best, nodes, exhausted
        nodes += 1
        if budget >= 0 and nodes > budget:
            exhausted = False
            raise _Stop
        orderl, boundl = colour(p)
        for i in range(len(orderl) - 1, -1, -1):
            if level + boundl[i] <= best_size:
                return
            v = orderl[i]
            p &= ~(1 << v)
            rstack[level] = v
            child = p & adj_rows[v]
            if child == 0:
                if level + 1 > best_size:
                    best_size = level + 1
                    best = rstack[:best_size]
                    if stop_at > 0 and best_size >= stop_at:
                        exhausted = False
                        raise _Stop
            else:
                expand(child, level + 1)

    if cand_int:
        try:
            expand(cand_int, 0)
        except _Stop:
            pass
    return best_size, best, nodes, exhausted


# Called by perfbench/kernels.py before timing; nothing needs compiling.
def warmup() -> None:
    pass
