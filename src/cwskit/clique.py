"""The CWS clique graph and exact clique search.

Vertices are the admissible codewords (all-zeros always included); two
vertices are joined when no induced error pattern maps one to the other.
Because every valid codeword set translates (by XOR with any member) to an
equally valid set containing the all-zeros word, the solvers only report
cliques through vertex 0, which is adjacent to everything.

Sets of vertices are Python ints, high bit first: vertex ``j`` of an
m-vertex clique graph is bit ``m - 1 - j``, so vertex ``j`` is in set ``s``
when ``(s >> (m - 1 - j)) & 1``.  ``int_rows`` and ``bit_rows`` are the one
codec between such ints and 0/1 tables, column ``j`` for vertex ``j``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .errormap import ClArrays, ErrorSet, pack_bits, setup
from .gf2 import ClassicalCode
from .graphs import Graph

MAX_INDEX_SPACE_N = 20  # clique-graph vertex ids live in {0,1}^n
MAX_MATERIALIZED_VERTICES = 1 << 16
MAX_EXACT_VERTICES = 4096


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


class CliqueGraph:
    """The graph is its conflict masks, the one table the branch and bound
    colours and branches on (`clique_conflicts`): conflicts[m - i] holds
    every vertex but i and its neighbours, as a set in the high-bit-first
    layout above, and conflicts[0] is 0.  `size` is m, a plain attribute.

    The branch and bound colours with `bit_length`, which in this order finds
    the lowest vertex left by reading the top digit of an int; the search
    tree is the one the low-bit-first order gives, node for node.

    Built by `make_cws_clique_graph`, whose vertices ascend from 0^n and
    whose vertex 0 is adjacent to every other vertex.  `words` holds the
    vertices' words as Python ints, `vertices` the same words as an array,
    made on its first read."""

    def __init__(self, n: int, words: list[int], conflicts: list[int]) -> None:
        self.n = n
        self.words = words
        self.conflicts = conflicts
        self.size = len(conflicts) - 1

    @cached_property
    def vertices(self) -> np.ndarray:
        return np.array(self.words, dtype=np.intp)

    @property
    def rows(self) -> list[int]:
        """rows[i] is the neighbour mask of vertex i, high bit first, derived
        from the conflict masks on each read."""
        m = self.size
        full = (1 << m) - 1
        return [full ^ self.conflicts[m - i] ^ (1 << (m - 1 - i)) for i in range(m)]

    def has_edge(self, i: int, j: int) -> bool:
        return i != j and not (self.conflicts[self.size - i] >> (self.size - 1 - j)) & 1

    def dump(self) -> str:
        """Each row as hex little-endian uint64 words, ceil(m/64) of them,
        vertex j at bit j."""
        lines = [f"vertices={self.size}"]
        for row in bit_rows(self.rows, self.size):
            lines.append(pack_bits(row).tobytes().hex())
        return "\n".join(lines) + "\n"


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


def clique_graphs(n: int, cl: np.ndarray, d: np.ndarray) -> Iterator[CliqueGraph]:
    """The clique graphs of R setups, in row order, from their (R, 2^n) CL
    and D arrays (``errormap.setup_table``): admissible codewords plus
    compatibility edges.

    The vertices of every graph come from one stable argsort; the conflict
    masks take one ``clique_conflicts`` call and the word lists one
    ``tolist`` per vertex count m.  Each CliqueGraph is made only when the
    iterator reaches it."""
    if n > MAX_INDEX_SPACE_N:
        raise ValueError(
            f"clique graphs are materialised only up to n={MAX_INDEX_SPACE_N}"
        )
    ok = ~cl & ~d
    ok[:, 0] = True  # the all-zeros word is always a vertex
    sizes = np.count_nonzero(ok, axis=1)
    m_max = int(sizes.max(initial=0))
    if m_max > MAX_MATERIALIZED_VERTICES:
        raise ValueError(
            f"clique graph with {m_max} vertices exceeds the materialisation cap"
        )
    # each row: its vertices ascending, then the other words
    order = np.argsort(~ok, axis=1, kind="stable")
    words: list = [None] * len(sizes)
    conflicts: list = [None] * len(sizes)
    for m in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == m)
        verts = order[group, :m]
        masks = clique_conflicts(verts, cl[group])
        for r, w, mask in zip(group.tolist(), verts.tolist(), masks):
            words[r], conflicts[r] = w, mask
    return (CliqueGraph(n, w, mask) for w, mask in zip(words, conflicts))


def make_cws_clique_graph(arrays: ClArrays) -> CliqueGraph:
    """Admissible codewords plus compatibility edges, per the setup arrays."""
    return next(clique_graphs(arrays.n, arrays.cl[None], arrays.d[None]))


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
# neighbours.  Sets are high bit first (the module docstring), so "lowest
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
# 0.2-0.3 ms for such a child), and `bnb_clique` solves that from all of its
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
#     bits on the solve10 `bnb_clique` calls of seeds 7 and 3 (18 graphs, 10,000
#     nodes each) and on ring10 and ring11 at 200,000 nodes, interleaved
#     (CHANGES.md has the tables): 256 bits compacts 1,504 times on solve10,
#     against 189 at 300 and 19 at 400, and gives back part of solve10's
#     gain; 300 and 400 are within noise of each other, and 300 was ahead on
#     ring10 in the calmer of two runs.
#   - The recursion: a nested call has at most half its caller's width and
#     nests again only above `_COMPACT_BITS`, so a graph of 4,096 vertices
#     (`MAX_EXACT_VERTICES`) nests at most four calls deep
#     (4,096 -> 2,048 -> 1,024 -> 512 -> 256).

# _BITS[k] is 1 << (k - 1), a set's top bit when its bit_length is k
# (_BITS[0] is 0).  One table serves every graph: it only grows, at `bnb_clique`
# entry, to the largest m solved, and no entry ever changes, so no caller can
# see another's use.
_BITS = [0]

# sets wider than this, and at most half full, are solved re-indexed (above)
_COMPACT_BITS = 300


def bnb_clique(
    conflicts: list, m: int, cand_int: int, stop_at: int, budget: int, best_size: int = 0
) -> tuple[int, list, int, bool]:
    """`conflicts` is one graph's list from `clique_conflicts`: entry k is
    the conflict mask of vertex m - k, high bit first, as a Python int, and
    entry 0 is 0.  `cand_int` is high bit first too.  `best_size` is the
    incumbent: only larger cliques are reported, and with none the call
    returns `best_size` and no members.  Every exact solve passes the one
    vertex cap here, an empty `cand_int` included."""
    if m > MAX_EXACT_VERTICES:
        raise ValueError(f"exact solver capped at {MAX_EXACT_VERTICES} vertices")
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


def solve(
    cg: CliqueGraph, target_k: int | None = None, budget: int = -1
) -> tuple[int, list[int] | None, int, bool]:
    """(best K, member ids, B&B nodes, exhausted) of one branch and bound
    through vertex 0, in plain values.

    With no target: a maximum clique, exact when exhausted; the members are
    whichever maximum clique the search meets first, not a canonical choice
    (see `lex_min_clique`).  With a target K: a clique of exactly K members,
    or, when none is met, no members and the size of the largest clique
    seen (the true maximum when exhausted; a target above the vertex count
    simply exhausts without reaching it).  Member ids ascend."""
    if target_k is not None:
        if target_k < 1:
            raise ValueError("clique size must be at least 1")
        if target_k == 1:
            return 1, [0], 0, True
    stop_at = 0 if target_k is None else target_k - 1
    size, members, nodes, exhausted = bnb_clique(
        cg.conflicts, cg.size, (1 << (cg.size - 1)) - 1, stop_at, budget
    )
    if size < stop_at:
        return size + 1, None, nodes, exhausted
    members = sorted(members)[: stop_at or None]  # ids above 0, vertex 0 not a candidate
    return len(members) + 1, [0, *members], nodes, exhausted


def lex_min_clique(
    cg: CliqueGraph, size: int, nodes: int = 0, budget: int = -1
) -> tuple[list[int], int] | None:
    """(member ids, B&B nodes) of the lexicographically smallest clique of
    `size` members through vertex 0, where `size` is the graph's exact
    maximum and `nodes` what `solve` spent finding it, under the same budget.

    Greedy: each next member is the smallest candidate that still extends
    to a maximum clique, which costs about one more branch and bound per
    member; its nodes count against `budget` on top of `nodes`.  None when
    the budget dies before the choice is settled, or when no clique of
    `size` members exists."""
    chosen = [0]
    top = cg.size - 1
    p = (1 << top) - 1  # vertices adjacent to every chosen one
    remaining = size - 1
    while remaining > 0:
        q = p
        while q:  # candidates in ascending order: the top bit first
            b = q.bit_length() - 1
            q ^= 1 << b
            v = top - b
            pv = p - (1 << b) - (p & cg.conflicts[b + 1])  # v's neighbours in p
            if remaining > 1:
                sub_budget = -1 if budget < 0 else max(0, budget - nodes)
                found, _mem, used, exhausted = bnb_clique(
                    cg.conflicts, cg.size, pv, remaining - 1, sub_budget
                )
                nodes += used
                if found < remaining - 1:
                    if not exhausted:
                        return None  # budget died before the question was settled
                    continue
            chosen.append(v)
            p = pv
            remaining -= 1
            break
        else:
            return None
    return sorted(chosen), nodes


def cws_maxclique(errors: ErrorSet, g: Graph) -> ClassicalCode:
    """Setup -> clique graph -> exact max clique, returned as a classical code."""
    cg = make_cws_clique_graph(setup(errors, g))
    best, _members, nodes, _exhausted = solve(cg)
    members, _nodes = lex_min_clique(cg, best, nodes)
    return ClassicalCode.from_ints(g.n, [cg.words[i] for i in members])


# The solver's result objects and the wrappers that return them.  Only
# perfbench/pipeline.py, benchmarks/ and the tests call them; every src/
# path calls `solve` and `lex_min_clique`.  ROADMAP item 1b, which deletes
# pipeline.py, deletes these too.


class Clique(NamedTuple):
    """Vertex indices into a CliqueGraph, ascending."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class CliqueSearchResult(NamedTuple):
    clique: Clique
    exact: bool
    nodes: int


class FixedSizeResult(NamedTuple):
    clique: Clique | None
    exhausted: bool
    nodes: int
    best_size: int  # size of the largest clique seen (exact iff exhausted)

    @property
    def found(self) -> bool:
        return self.clique is not None


def max_clique(cg: CliqueGraph, budget: int = -1) -> CliqueSearchResult:
    """A maximum clique containing vertex 0; `solve` with no target."""
    _best, members, nodes, exhausted = solve(cg, None, budget)
    return CliqueSearchResult(Clique(tuple(members)), exhausted, nodes)


def find_clique_of_size(cg: CliqueGraph, k: int, budget: int = -1) -> FixedSizeResult:
    """A clique of size exactly k containing vertex 0, or proven absence;
    `solve` with target k."""
    best, members, nodes, exhausted = solve(cg, k, budget)
    clique = None if members is None else Clique(tuple(members))
    return FixedSizeResult(clique, exhausted, nodes, best)
