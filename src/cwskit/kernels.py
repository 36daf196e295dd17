"""Hot numeric kernels with numba-compiled and pure-Python/NumPy variants.

Every kernel exists twice: a ``*_jit`` version compiled with ``numba.njit``
and a ``*_py`` fallback that uses only NumPy and Python ints.  The public
names bind to the jit versions unless numba is unavailable or the
``CWSKIT_NO_NUMBA`` environment variable is set to 1/true/yes, in which case
the fallbacks are used.  ``benchmarks/bench_kernels.py`` times both paths.

Bitset layout: a set over ``m`` indices is an array of ``ceil(m/64)`` uint64
words, bit ``j`` of the set living at ``words[j >> 6] >> (j & 63)``.
"""

from __future__ import annotations

import os
import sys

import numpy as np

_env = os.environ.get("CWSKIT_NO_NUMBA", "").strip().lower()
NUMBA_DISABLED = _env in {"1", "true", "yes", "on"}

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by CWSKIT_NO_NUMBA")
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    HAVE_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


# ---------------------------------------------------------------------------
# bit-array helpers (NumPy only, shared by both paths)

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

@njit(cache=True)
def cl_patterns_jit(u: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    m = u.shape[0]
    out = np.empty(m, dtype=np.int64)
    for k in range(m):
        acc = v[k]
        t = u[k]
        while t:
            l = 0
            while (t >> l) & 1 == 0:
                l += 1
            acc ^= rows[l]
            t &= t - 1
        out[k] = acc
    return out


def cl_patterns_py(u: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    n = rows.shape[0]
    shifts = np.arange(n, dtype=np.int64)
    ubits = ((u[:, None] >> shifts) & 1).astype(np.uint8)
    adj = ((rows[:, None] >> shifts) & 1).astype(np.uint8)
    pat = (ubits @ adj) & 1
    packed = pat.astype(np.int64) @ (np.int64(1) << shifts)
    return v ^ packed


# ---------------------------------------------------------------------------
# graph-state sign vector: (-1)^q(x) for all basis strings x

@njit(cache=True)
def graph_signs_jit(rows: np.ndarray, n: int) -> np.ndarray:
    size = 1 << n
    out = np.empty(size, dtype=np.int8)
    for x in range(size):
        q = 0
        t = x
        while t:
            l = 0
            while (t >> l) & 1 == 0:
                l += 1
            t &= t - 1
            # edges (l, j) with j > l and x_j = 1
            w = rows[l] & x & (~((1 << (l + 1)) - 1))
            w ^= w >> 32
            w ^= w >> 16
            w ^= w >> 8
            w ^= w >> 4
            w ^= w >> 2
            w ^= w >> 1
            q ^= w & 1
        out[x] = 1 - 2 * q
    return out


def graph_signs_py(rows: np.ndarray, n: int) -> np.ndarray:
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

@njit(cache=True)
def clique_adjacency_jit(verts: np.ndarray, cl_bool: np.ndarray) -> np.ndarray:
    m = verts.shape[0]
    words = (m + 63) >> 6
    adj = np.zeros((m, words), dtype=np.uint64)
    one = np.uint64(1)
    for i in range(m):
        vi = verts[i]
        for j in range(i + 1, m):
            if not cl_bool[vi ^ verts[j]]:
                adj[i, j >> 6] |= one << np.uint64(j & 63)
                adj[j, i >> 6] |= one << np.uint64(i & 63)
    return adj


def clique_adjacency_py(verts: np.ndarray, cl_bool: np.ndarray) -> np.ndarray:
    m = verts.shape[0]
    xor = verts[:, None] ^ verts[None, :]
    ok = ~cl_bool[xor]
    np.fill_diagonal(ok, False)
    words = (m + 63) >> 6
    padded = np.zeros((m, words * 64), dtype=np.uint8)
    padded[:, :m] = ok
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


# ---------------------------------------------------------------------------
# exact maximum-clique branch and bound with greedy colouring bounds
#
# Returns (best_size, best_members, nodes_expanded, exhausted).  `cand` is
# the initial candidate bitset; `stop_at` > 0 makes the search stop as soon
# as a clique of that size is found (exhausted is False in that case unless
# the space was fully explored first); `budget` < 0 means unlimited.

@njit(cache=True)
def bnb_clique_jit(
    adj: np.ndarray, m: int, cand: np.ndarray, stop_at: int, budget: int
) -> tuple[int, np.ndarray, int, bool]:
    words = adj.shape[1]
    one = np.uint64(1)

    depth = m + 1
    pset = np.zeros((depth, words), dtype=np.uint64)
    order = np.zeros((depth, m), dtype=np.int32)
    bound = np.zeros((depth, m), dtype=np.int32)
    count = np.zeros(depth, dtype=np.int32)
    idx = np.zeros(depth, dtype=np.int32)
    rstack = np.zeros(depth, dtype=np.int32)

    best_size = 0
    best = np.zeros(m, dtype=np.int32)
    nodes = 0
    exhausted = True

    # scratch for colouring
    q = np.zeros(words, dtype=np.uint64)
    qc = np.zeros(words, dtype=np.uint64)

    # push root frame
    level = 0
    for w in range(words):
        pset[0, w] = cand[w]

    def_empty = True
    for w in range(words):
        if cand[w]:
            def_empty = False
            break
    if def_empty:
        return 0, best[:0], 0, True

    # colour the root
    stack_top = 0
    frame_new = True
    done = False
    while not done:
        if frame_new:
            nodes += 1
            if budget >= 0 and nodes > budget:
                exhausted = False
                break
            # greedy colouring of pset[stack_top]
            cnt = 0
            for w in range(words):
                q[w] = pset[stack_top, w]
            colour = 0
            while True:
                nonzero = False
                for w in range(words):
                    if q[w]:
                        nonzero = True
                        break
                if not nonzero:
                    break
                colour += 1
                for w in range(words):
                    qc[w] = q[w]
                while True:
                    vw = -1
                    for w in range(words):
                        if qc[w]:
                            vw = w
                            break
                    if vw < 0:
                        break
                    word = qc[vw]
                    b = 0
                    while (word >> np.uint64(b)) & one == np.uint64(0):
                        b += 1
                    vtx = (vw << 6) + b
                    order[stack_top, cnt] = vtx
                    bound[stack_top, cnt] = colour
                    cnt += 1
                    q[vw] &= ~(one << np.uint64(b))
                    qc[vw] &= ~(one << np.uint64(b))
                    for w in range(words):
                        qc[w] &= ~adj[vtx, w]
            count[stack_top] = cnt
            idx[stack_top] = cnt - 1
            frame_new = False
            continue

        i = idx[stack_top]
        if i < 0 or stack_top + bound[stack_top, i] <= best_size:
            # frame finished or bound prune covers all remaining positions
            stack_top -= 1
            if stack_top < 0:
                done = True
            continue

        v = order[stack_top, i]
        idx[stack_top] = i - 1
        pset[stack_top, v >> 6] &= ~(one << np.uint64(v & 63))
        rstack[stack_top] = v

        child_empty = True
        for w in range(words):
            pset[stack_top + 1, w] = pset[stack_top, w] & adj[v, w]
            if pset[stack_top + 1, w]:
                child_empty = False

        if child_empty:
            if stack_top + 1 > best_size:
                best_size = stack_top + 1
                for t in range(best_size):
                    best[t] = rstack[t]
                if stop_at > 0 and best_size >= stop_at:
                    exhausted = False
                    done = True
        else:
            stack_top += 1
            frame_new = True

    return best_size, best[:best_size].copy(), nodes, exhausted


class _Stop(Exception):
    """Unwinds bnb_clique_py's recursion on budget exhaustion or early stop."""


def bnb_clique_py(
    adj_rows: list, m: int, cand_int: int, stop_at: int, budget: int
) -> tuple[int, list, int, bool]:
    """Python-int bitset variant; adj_rows[j] is the neighbour mask of j."""
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


# ---------------------------------------------------------------------------
# public bindings

if HAVE_NUMBA:
    cl_patterns = cl_patterns_jit
    graph_signs = graph_signs_jit
    clique_adjacency = clique_adjacency_jit
else:
    cl_patterns = cl_patterns_py
    graph_signs = graph_signs_py
    clique_adjacency = clique_adjacency_py


def warmup() -> None:
    """Trigger jit compilation on tiny inputs so timed runs measure algorithms."""
    if not HAVE_NUMBA:
        return
    rows = np.array([2, 1], dtype=np.int64)
    cl_patterns(np.array([1], dtype=np.int64), np.array([0], dtype=np.int64), rows)
    graph_signs(rows, 2)
    cl_bool = np.zeros(4, dtype=bool)
    adj = clique_adjacency(np.array([0, 1], dtype=np.int64), cl_bool)
    cand = np.zeros(1, dtype=np.uint64)
    cand[0] = 3
    bnb_clique_jit(adj, 2, cand, 0, -1)
