"""Hot numeric kernels in NumPy and Python ints.

Sets in the clique layer are Python ints, high bit first: vertex ``j`` of an
m-vertex clique graph is bit ``m - 1 - j``, so vertex ``j`` is in set ``s``
when ``(s >> (m - 1 - j)) & 1``.  ``int_rows`` and ``bit_rows`` are the one
codec between such ints and 0/1 tables, column ``j`` for vertex ``j``.
Little-endian uint64 words (``pack_bits``) appear only in the CL/D and
clique-graph dump formats.
"""

from __future__ import annotations

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


def int_rows(table: np.ndarray) -> list[int]:
    """Each row of a 2-D 0/1 table (bool or uint8) as an int, column 0 the
    top bit.  The rows are padded in front to whole 64-bit words, so one
    flat packbits gives the ints with no shift."""
    count, width = table.shape
    nbytes = 8 * ((width + 63) >> 6)
    padded = np.zeros((count, 8 * nbytes), dtype=np.uint8)
    padded[:, 8 * nbytes - width :] = table
    data = np.packbits(padded)
    if nbytes == 8:
        return data.view(">u8").tolist()
    data = data.tobytes()
    return [
        int.from_bytes(data[k : k + nbytes], "big") for k in range(0, len(data), nbytes)
    ]


def bit_rows(values: list[int], width: int) -> np.ndarray:
    """The inverse of `int_rows`: the (len(values), width) uint8 0/1 table
    of non-negative ints below 2^width, column 0 the top bit."""
    nbytes = (width + 7) >> 3
    data = b"".join([v.to_bytes(nbytes, "big") for v in values])
    table = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    return table.reshape(len(values), 8 * nbytes)[:, 8 * nbytes - width :]


def parity_of_and(values: np.ndarray, mask: int | np.ndarray) -> np.ndarray:
    """Elementwise parity of popcount(values & mask), as bool; an int64
    array ``mask`` broadcasts against ``values``."""
    # bitwise_count gives uint8, so its low bit reads as bool in place
    return (np.bitwise_count(values & np.int64(mask)) & 1).view(bool)


# ---------------------------------------------------------------------------
# induced classical error patterns: v XOR (XOR of adjacency rows under u)

def cl_patterns(xcols: np.ndarray, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Pattern of each error through each of R graphs, as an (R, E) array:
    ``v`` holds the errors' Z supports and ``xcols`` their X-support qubits,
    one index array per support position, padded with n (see ``ErrorSet``);
    ``rows`` is the (R, n) int64 adjacency row table (``graphs.rows_table``)."""
    # graphs along the last axis, so that table[col] gathers row col of every
    # graph; row n is the zero padding
    table = np.zeros((rows.shape[1] + 1, rows.shape[0]), dtype=np.int64)
    table[:-1] = rows.T
    pat = np.repeat(v[:, None], rows.shape[0], axis=1)
    for col in xcols:
        pat ^= table[col]
    return pat.T


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
# CWS clique-graph conflict masks over vertex indices

_GATHER_CELLS = 1 << 15  # mask cells gathered per step


def clique_conflicts(verts: np.ndarray, cl_bool: np.ndarray) -> list[list[int]]:
    """Conflict masks of R clique graphs with m vertices each, high bit
    first, in the order `bnb_clique` reads them.  Row r of the (R, m)
    ``verts`` lists graph r's vertices, row r of the (R, 2^n) ``cl_bool``
    its CL array; j is in i's mask when i != j and the pattern
    verts[r, i] ^ verts[r, j] is in CL, so the mask holds every vertex but
    i and its neighbours.  The vertices of a graph are distinct, so the zero
    pattern occurs only for i == j.

    Graph r's list has m + 1 ints: entry k is the mask of vertex m - k,
    whose bit is k - 1, and entry 0 is 0.  The R * m masks are gathered a
    block of whole masks at a time, so the index arrays stay small however
    large one graph is."""
    count, m = verts.shape
    size = cl_bool.shape[1]
    conflict = cl_bool.flatten()
    conflict[::size] = False  # the i ^ i pattern: no vertex conflicts with itself
    # graph r's vertices as indices into its row of the flat conflict array;
    # the words are below size = 2^n, so XOR keeps a graph's offset r * size
    based = verts | (np.arange(count) * size)[:, None]
    graph = np.repeat(np.arange(count), m)  # graph r of mask k = (r, i)
    centre = verts[:, ::-1].ravel()  # vertex verts[r, m - 1 - i] of mask k
    masks: list[int] = []
    step = max(1, _GATHER_CELLS // m)
    for lo in range(0, count * m, step):
        index = based[graph[lo : lo + step]]
        index ^= centre[lo : lo + step, None]
        masks.extend(int_rows(conflict.take(index)))
    return [[0, *masks[r * m : (r + 1) * m]] for r in range(count)]


# ---------------------------------------------------------------------------
# exact maximum-clique branch and bound with greedy colouring bounds
#
# Returns (best_size, best_members, nodes_expanded, exhausted).  `cand_int`
# is the initial candidate set; `stop_at` > 0 makes the search stop as soon
# as a clique of that size is found, and such a hit always returns exhausted
# False; `budget` < 0 means unlimited.  The members are vertex ids, in the
# order the search added them.
#
# Each node colours its candidates greedily into classes kept as bitsets (as
# in MCQ, Tomita & Seki 2003, and BBMC, San Segundo et al. 2011): class c
# takes the lowest remaining vertex, then the lowest one adjacent to none
# already in the class, and so on.  The node then branches on the vertices
# from the highest class down, highest vertex first within a class, and
# prunes when the level plus the class number cannot beat the best clique so
# far.
#
# A graph is one list, its conflict masks (`clique_conflicts`): entry k
# holds the vertices, other than the one at bit k - 1, that are not its
# neighbours.  Sets are high bit first (vertex j is bit m-1-j), so "lowest
# vertex" is the top bit.  A colouring step is then `b = qc.bit_length()`,
# two list lookups indexed by b itself (`bits[b]` is the top bit,
# `1 << (b - 1)`) and an AND with the positive mask `conflicts[b]`.  In
# CPython each is cheap on a big int: `bit_length` reads the top digit only,
# and an AND of two non-negative ints takes no two's-complement detour and
# shrinks as the top bits are cleared.  A pick is always in the set it leaves
# and never in the class it joins, so it is moved by `-` and `+`, which give
# the values of `^` and `|` and which CPython 3.11 specializes for ints (it
# does not specialize `^` or `|`).  A class's first pick is the top bit of
# the uncoloured set itself, taken before the inner loop.  Branching takes
# the lowest bit (`bit = cls & -cls`), one or two times a node, and reads the
# same list: with k = bit.bit_length(), the child is
# `p - (p & conflicts[k])`.  That is p AND the neighbours of the vertex at
# bit k - 1, exactly: p has already lost `bit`, a conflict mask never holds
# its own vertex, and every other vertex of p is either a neighbour or a
# conflict.  The classes hold the same vertices as with the opposite bit
# order, so the search tree is the same node for node.
#
# The colouring steps are nearly all of the time: on the solve10 graphs
# (perfbench, seed 7, 10,000 nodes a graph) there are 31.4 a node, 74% of
# the nodes are pruned at entry, by their own colouring, and 63% of the
# steps are in those nodes.  Two facts let a node do less around each step
# without changing the tree:
#   - `best_size` never falls, so a node entered at level L with best B never
#     branches on a class c <= B - L.  Those low classes are coloured only by
#     taking each pick out of the uncoloured set, and are not stored; the
#     node keeps the classes above them, and `base` = L plus their count, so
#     that the bound for the i-th kept class is `base + i > best_size`.
#   - If the low classes take every candidate, the node is pruned.  It is
#     still counted, and checked against the budget, where it is entered, so
#     a budget counts the same nodes; then the parent's walk goes on at once,
#     with no frame pushed.
#
# The search is one loop over an explicit stack, depth first.  The node being
# walked lives in locals: its candidates left `p`, its kept classes, `base`,
# the position `c` of the current kept class and the rest of that class
# `cls`.  A child that survives its low classes pushes these locals as one
# tuple, the parent's frame, and finishing a node pops it.  The root enters
# as the child of a done node with no classes, whose walk returns.
#
# Wide, sparse subtrees are solved on their own vertices.  A step costs more
# on a wider int, and a set keeps the width of its top vertex however few
# vertices it holds: on the solve10 graphs the whole budget goes into one
# depth-2 subtree of 225-330 candidates whose sets are 640-707 bits wide, and
# colouring that subtree's root set takes 167-180 ns a vertex there against
# 145-160 ns on the same vertices re-indexed (2-vCPU host, Python 3.11).  So
# a child that survives its low classes, is wider than `_COMPACT_BITS` bits
# and holds at most half as many candidates as its width is not walked here.
# Its vertices are listed in ascending order, the conflict list of the
# subgraph they induce is built (`_induced_conflicts`: the vertices' masks
# unpacked by `bit_rows`, their columns kept and packed back by `int_rows`,
# 0.2-0.3 ms for such a child), and the kernel solves that from all of its
# vertices: incumbent best_size - level - 1, the budget left before this
# node, and stop_at - level - 1 (at least 1) when stop_at is set.  The call
# enters this node again and counts it, so it is taken off the count here;
# the members follow rstack[:level + 1]; and if the call did not exhaust,
# neither does this search.  The root is such a child too.  A child pruned
# by its low classes is never compacted: that would cost more than its own
# colouring.
#   - The tree is unchanged: re-indexing keeps the vertex order, so every
#     colouring takes the same vertices into the same classes and every
#     branch is on the same vertex.  A node at level l of the subtree stands
#     at level + 1 + l here, and its prunes, its leaves, its stop and its
#     budget check are the same comparisons shifted by that constant.  An
#     incumbent below 0 (a path longer than the best) is passed as 0, which
#     prunes nothing and accepts every leaf, as the negative value would.
#   - The threshold: below it the saving per step is small and a compaction
#     can cost more than the subtree it serves.  Measured at 256, 300 and 400
#     bits on the solve10 kernel calls of seeds 7 and 3 (18 graphs, 10,000
#     nodes each) and on ring10 and ring11 at 200,000 nodes, interleaved
#     (CHANGES.md has the tables): 256 bits compacts 1,504 times on solve10,
#     against 189 at 300 and 19 at 400, and gives back part of solve10's
#     gain; 300 and 400 are within noise of each other, and 300 was ahead on
#     ring10 in the calmer of two runs.
#   - The recursion: a nested call has at most half its caller's width and
#     nests again only above `_COMPACT_BITS`, so a graph of 4,096 vertices
#     (`clique.MAX_EXACT_VERTICES`) nests at most four calls deep
#     (4,096 -> 2,048 -> 1,024 -> 512 -> 256).

# _BITS[k] is 1 << (k - 1), a set's top bit when its bit_length is k
# (_BITS[0] is 0).  One table serves every graph: it only grows, at kernel
# entry, to the largest m solved, and no entry ever changes, so no caller can
# see another's use.
_BITS = [0]

# sets wider than this, and at most half full, are solved re-indexed (above)
_COMPACT_BITS = 300


def bnb_clique(
    conflicts: list,
    m: int,
    cand_int: int,
    stop_at: int,
    budget: int,
    best_size: int = 0,
) -> tuple[int, list, int, bool]:
    """`conflicts` is one graph's list from `clique_conflicts`: entry k is
    the conflict mask of vertex m - k, high bit first, as a Python int, and
    entry 0 is 0.  `cand_int` is high bit first too.  `best_size` is the
    incumbent: only larger cliques are reported, and with none the call
    returns `best_size` and no members."""
    if not cand_int:
        return best_size, [], 0, True
    # a set >= wide is wider than _COMPACT_BITS bits; a narrower graph has none
    wide = 1 << (m if m < _COMPACT_BITS else _COMPACT_BITS)
    if len(_BITS) <= m:
        _BITS.extend(1 << (k - 1) for k in range(len(_BITS), m + 1))
    bits = _BITS
    # each node stands for a different clique, the vertices on its path, so
    # an unlimited search enters at most 2^m of them
    limit = budget if budget >= 0 else 1 << m
    best: list = []
    nodes = 0
    rstack = [0] * (m + 1)
    stack: list = []
    p, classes, base, c, cls = 0, None, 0, 1, 0
    child, level = cand_int, -1
    while True:
        nodes += 1  # enter `child` at level + 1
        if nodes > limit:
            return best_size, best, nodes, False
        q = child
        t = best_size - level - 1  # the low classes: c <= t
        while t > 0:
            b = q.bit_length()
            q -= bits[b]
            qc = q & conflicts[b]
            while qc:
                b = qc.bit_length()
                q -= bits[b]
                qc &= conflicts[b]
            if not q:
                break  # pruned: back to the parent's walk
            t -= 1
        else:
            if child < wide or 2 * child.bit_count() > child.bit_length():
                stack.append((p, classes, base, c, cls))
                level += 1
                p = child
                base = best_size if best_size > level else level
                classes = []
                while q:
                    b = q.bit_length()
                    cls = bits[b]
                    qc = q & conflicts[b]
                    while qc:
                        b = qc.bit_length()
                        cls += bits[b]
                        qc &= conflicts[b]
                    classes.append(cls)
                    q -= cls
                c = len(classes)
            else:
                # a wide, sparse child: its subtree on its own vertices, from
                # this node, which the call counts again
                size, found, used, exhausted = _solve_induced(
                    conflicts, m, child,
                    max(1, stop_at - level - 1) if stop_at > 0 else 0,
                    limit - nodes + 1, max(0, best_size - level - 1),
                )
                nodes += used - 1
                if found:
                    best_size = level + 1 + size
                    best = rstack[: level + 1] + found
                if not exhausted:
                    return best_size, best, nodes, False
        while True:
            if cls and base + c > best_size:
                bit = cls & -cls
                cls -= bit
                p -= bit
                k = bit.bit_length()
                rstack[level] = m - k
                child = p - (p & conflicts[k])
                if child:
                    break
                if level >= best_size:  # a maximal clique, larger than the best
                    best_size = level + 1
                    best = rstack[:best_size]
                    if stop_at > 0 and best_size >= stop_at:
                        return best_size, best, nodes, False
            elif cls or c == 1:  # pruned, or out of classes: the node is done
                if not stack:
                    return best_size, best, nodes, True
                p, classes, base, c, cls = stack.pop()
                level -= 1
            else:
                c -= 1
                cls = classes[c - 1]


def _induced_conflicts(conflicts: list, m: int, cand: int) -> tuple[list, list]:
    """The vertex ids of `cand`, ascending, and the conflict list of the
    subgraph they induce, in `clique_conflicts`'s format: vertex i of the
    subgraph is ids[i], in the same order."""
    cols = np.flatnonzero(bit_rows([cand], m)[0])
    ids = cols.tolist()
    # subgraph entry k is vertex ids[-k]: its mask, on the ids' columns
    table = bit_rows([conflicts[m - v] for v in reversed(ids)], m)
    return ids, [0, *int_rows(table[:, cols])]


def _solve_induced(
    conflicts: list, m: int, cand: int, stop_at: int, budget: int, best_size: int
) -> tuple[int, list, int, bool]:
    """`bnb_clique` from `cand` with every candidate, on the subgraph `cand`
    induces; the members come back as vertex ids of the whole graph."""
    ids, sub = _induced_conflicts(conflicts, m, cand)
    s = len(ids)
    size, found, nodes, exhausted = bnb_clique(
        sub, s, (1 << s) - 1, stop_at, budget, best_size
    )
    return size, [ids[v] for v in found], nodes, exhausted


# Called by perfbench/kernels.py before timing; nothing needs compiling.
def warmup() -> None:
    pass
