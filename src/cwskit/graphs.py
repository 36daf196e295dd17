"""Simple graphs, graph states, canonical labelling, and LC orbits.

A graph on ``n`` vertices is stored as bit-packed adjacency rows.  Every
graph also has an *edge mask*: edge (i, j) with i < j occupies bit
``E-1-(j(j-1)/2+i)`` where ``E = n(n-1)/2``.  With that layout, integer
order on masks is lexicographic order on the colex edge sequence, and the
canonical label of a graph is simply the minimum mask over all vertex
relabellings.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import gf2, kernels

MAX_EXHAUSTIVE_N = 8
MAX_TABLE_N = 7  # a canon[mask] table has 2^(n(n-1)/2) int32 entries: 8 MB at n=7
MAX_CANONICAL_N = 10
MAX_AMPLITUDE_N = 12


def edge_count(n: int) -> int:
    return n * (n - 1) // 2


def edge_bit(i: int, j: int, n: int) -> int:
    """Bit position of edge (i, j), i < j, in the edge mask."""
    if i > j:
        i, j = j, i
    return edge_count(n) - 1 - (j * (j - 1) // 2 + i)


@lru_cache(maxsize=16)
def _edge_positions(n: int) -> tuple[tuple[int, int, int], ...]:
    """(bit, i, j) of every edge i < j of the n-vertex edge mask."""
    return tuple((edge_bit(i, j, n), i, j) for j in range(n) for i in range(j))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``rows[i]`` is the neighbour bitmask of i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count does not match n")
        for i, r in enumerate(self.rows):
            if not 0 <= r < (1 << self.n):
                raise ValueError("adjacency row out of range")
            if (r >> i) & 1:
                raise ValueError(f"self loop at vertex {i}")
            for j in range(i + 1, self.n):
                if ((r >> j) & 1) != ((self.rows[j] >> i) & 1):
                    raise ValueError("adjacency matrix is not symmetric")

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Graph":
        rows = [0] * n
        for bit, i, j in _edge_positions(n):
            if (mask >> bit) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        return cls(n, tuple(rows))

    @classmethod
    def ring(cls, n: int) -> "Graph":
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if (self.rows[i] >> j) & 1
        ]

    def mask(self) -> int:
        m = 0
        rows = self.rows
        for bit, i, j in _edge_positions(self.n):
            if (rows[i] >> j) & 1:
                m |= 1 << bit
        return m

    def permute(self, perm: Sequence[int]) -> "Graph":
        """Relabel vertices: old vertex i becomes perm[i]."""
        rows = [0] * self.n
        for i, j in self.edges():
            rows[perm[i]] |= 1 << perm[j]
            rows[perm[j]] |= 1 << perm[i]
        return Graph(self.n, tuple(rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def rows_array(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)


@lru_cache(maxsize=16)
def _edge_row_bits(n: int) -> np.ndarray:
    """Read-only (E, n) int64 table: the row bits edge mask bit b sets, 1 << j
    in column i and 1 << i in column j for its edge (i, j)."""
    table = np.zeros((edge_count(n), n), dtype=np.int64)
    for bit, i, j in _edge_positions(n):
        table[bit, i] = 1 << j
        table[bit, j] = 1 << i
    table.flags.writeable = False
    return table


def rows_table(n: int, masks: Sequence[int]) -> np.ndarray:
    """Adjacency rows of many graphs at once: row r of the (R, n) int64 table
    is ``Graph.from_mask(n, masks[r]).rows``.

    Like ``from_mask``, it reads only the low E = n(n-1)/2 bits of a mask, so
    a mask of any size or sign gives the graph ``from_mask`` builds from it.
    E must stay below 63 (n <= 11)."""
    low = (1 << edge_count(n)) - 1
    kept = np.array([mask & low for mask in masks], dtype=np.int64)
    bits = (kept[:, None] >> np.arange(edge_count(n))) & 1
    return bits @ _edge_row_bits(n)


def mask_hex(n: int, mask: int) -> str:
    width = max(1, (edge_count(n) + 3) // 4)
    return f"{mask:0{width}x}"


# ---------------------------------------------------------------------------
# graph file format: "n <count>" then one "<i> <j>" line per edge

def parse_graph_file(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("n "):
        raise ValueError("graph file must start with 'n <count>'")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError("bad vertex count line") from exc
    if not 1 <= n <= gf2.MAX_BITS:  # no command takes more; checked before rows are built
        raise ValueError(f"vertex count must be in 1..{gf2.MAX_BITS}, got {n}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"bad edge line: {ln!r}") from exc
        if i == j:
            raise ValueError(f"self loop: {ln!r}")
        if not (i < j):
            raise ValueError(f"edges must list i < j: {ln!r}")
        if (i, j) in seen:
            raise ValueError(f"duplicate edge: {ln!r}")
        seen.add((i, j))
        edges.append((i, j))
    return Graph.from_edges(n, edges)


def write_graph_file(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# canonical labelling

@dataclass(frozen=True)
class CanonicalForm:
    n: int
    mask: int


def _perm_weights(n: int) -> np.ndarray:
    """(E, n!) int64 table of the action of every vertex permutation on
    edge-mask bits: row edge_bit(i, j), column p holds
    ``1 << edge_bit(perm[i], perm[j])``, so a mask's image under
    permutation p is the sum of column p over the mask's set bits.  Not
    cached: `_group_weights` reads it once per n and keeps only its sums."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    weights = np.zeros((max(1, edge_count(n)), len(perms)), dtype=np.int64)
    for j in range(n):
        for i in range(j):
            lo = np.minimum(perms[:, i], perms[:, j])
            hi = np.maximum(perms[:, i], perms[:, j])
            weights[edge_bit(i, j, n)] = 1 << (edge_count(n) - 1 - (hi * (hi - 1) // 2 + lo))
    return weights


# Edge bits per `_group_weights` table.  Five bits were a little faster at
# n = 6 and 7, but their n=8 tables take 54 MB against 36 MB for four, beside
# the pass's 256 MB visited array.
_GROUP_BITS = 4


@lru_cache(maxsize=8)
def _group_weights(n: int) -> tuple[np.ndarray, ...]:
    """Read-only (2^w, n!) int64 tables, one per group of `_GROUP_BITS`
    edge-mask bits from the lowest up (w is `_GROUP_BITS`, or fewer for the
    top group).  Row s of group g is the sum of the `_perm_weights` rows of
    the bits g * _GROUP_BITS + k that s sets, so a mask's images under every
    permutation are the sum, over the groups, of the row its bits select."""
    weights = _perm_weights(n)
    tables = []
    for lo in range(0, len(weights), _GROUP_BITS):
        rows = weights[lo : lo + _GROUP_BITS]
        table = np.zeros((1 << len(rows), weights.shape[1]), dtype=np.int64)
        for k, row in enumerate(rows):  # rows with bit k set: those without, plus row k
            np.add(table[: 1 << k], row, out=table[1 << k : 2 << k])
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _canonical_dfs(n: int, rows: Sequence[int]) -> int:
    """Branch-and-bound search for the minimum edge mask over relabellings
    of the n-vertex graph with adjacency rows `rows`.

    Builds the mask prefix position by position: the vertex placed at
    position k fixes the k edge bits towards positions 0..k-1, its *block*.
    Each free vertex carries its block, and placing a vertex w extends every
    remaining block by one bit, the free vertex's adjacency to w, so no block
    is rebuilt from the placed vertices.  A node tries its free vertices in
    increasing (block, vertex) order.  Increasing blocks are what make the
    `break` sound: once one child's prefix exceeds the best complete mask
    found, every later child's does too.  Ties break by vertex number, so
    the search tree, and with it the node count, depends on nothing but
    the rows.
    """
    nedge = edge_count(n)
    best = 1 << nedge  # above every mask: nothing is pruned before a leaf

    def descend(free: list[tuple[int, int]], k: int, prefix: int, bits: int) -> None:
        nonlocal best
        if not free:
            best = min(best, prefix)
            return
        free.sort()
        bits += k
        for block, w in free:
            child = (prefix << k) | block
            if child > best >> (nedge - bits):
                break
            row = rows[w]
            descend([((b << 1) | ((row >> v) & 1), v) for b, v in free if v != w],
                    k + 1, child, bits)

    descend([(0, v) for v in range(n)], 0, 0, 0)
    return best


def canonical_form(g: Graph) -> CanonicalForm:
    """Minimum edge mask over all vertex permutations."""
    n = g.n
    if n > MAX_CANONICAL_N:
        raise ValueError(f"canonical_form supports n <= {MAX_CANONICAL_N}")
    return CanonicalForm(n, _canonical_dfs(n, g.rows))


# ---------------------------------------------------------------------------
# enumeration

def enumerate_graphs(n: int) -> Iterator[Graph]:
    """Every labelled n-vertex graph."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(
            f"exhaustive enumeration refused for n > {MAX_EXHAUSTIVE_N}; "
            "supply graphs from a file instead"
        )
    for mask in range(1 << edge_count(n)):
        yield Graph.from_mask(n, mask)


_SCAN = 4096  # visited entries inspected per step of the orbit pass


def _orbit_pass(n: int, canon: np.ndarray | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """(minimum mask, images) of every isomorphism class, in increasing
    order: `images` holds the minimum's image under each of the n!
    vertex permutations.

    Walks the masks upwards; the first mask not yet marked is always its
    orbit's minimum.  All n! images of it are computed at once, as the sum
    of one `_group_weights` row per nonzero group of its bits, and marked in
    a visited array of one byte per mask; when `canon` is given they are
    labelled with the minimum in ``canon[image]``.  The visited array has
    2^E entries (32 KB at n=6, 2 MB at n=7, 256 MB at n=8), and the pass
    commits its pages as it touches them.  The n=8 tables (36 MB) are built
    for the pass and freed with it; smaller ones stay cached.
    """
    tables = _group_weights(n) if n <= MAX_TABLE_N else _group_weights.__wrapped__(n)
    low = (1 << _GROUP_BITS) - 1
    total = 1 << edge_count(n)
    visited = np.zeros(total, dtype=bool)
    mask = 0
    while mask < total:
        window = visited[mask : mask + _SCAN]
        step = int(window.argmin())  # the first unvisited entry, if any
        if window[step]:
            mask += _SCAN
            continue
        mask += step
        images = tables[0][mask & low]
        rest, group = mask >> _GROUP_BITS, 1
        while rest:
            if rest & low:
                images = images + tables[group][rest & low]
            rest >>= _GROUP_BITS
            group += 1
        visited[images] = True
        if canon is not None:
            canon[images] = mask
        yield mask, images


def class_table(n: int) -> tuple[np.ndarray, list[int]]:
    """``canon[mask]``, the minimum mask of mask's isomorphism class for
    every n-vertex graph, plus the class minima in increasing order."""
    if not 1 <= n <= MAX_TABLE_N:
        raise ValueError(f"class table supported for 1 <= n <= {MAX_TABLE_N}")
    canon = np.empty(1 << edge_count(n), dtype=np.int32)
    return canon, [mask for mask, _images in _orbit_pass(n, canon)]


def _class_pass(n: int) -> Iterator[tuple[int, np.ndarray]]:
    """`_orbit_pass(n)`, refused at once outside 1 <= n <= MAX_EXHAUSTIVE_N."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"isomorphism classes supported for n <= {MAX_EXHAUSTIVE_N}")
    return _orbit_pass(n)


def isomorphism_class_minima(n: int) -> Iterator[int]:
    """The minimum mask of every isomorphism class, in increasing order."""
    return (mask for mask, _images in _class_pass(n))


def isomorphism_class_masks(n: int) -> Iterator[tuple[int, int]]:
    """(minimum mask, size) of every isomorphism class, in increasing order."""
    # orbit-stabiliser: the images repeat once per automorphism of the graph
    return (
        (mask, images.size // int(np.count_nonzero(images == mask)))
        for mask, images in _class_pass(n)
    )


def isomorphism_classes(n: int) -> Iterator[tuple[Graph, int]]:
    """One minimum-mask representative per isomorphism class, with class size."""
    for mask, size in isomorphism_class_masks(n):
        yield Graph.from_mask(n, mask), size


# ---------------------------------------------------------------------------
# local complementation and LC orbits

def local_complement(g: Graph, v: int) -> Graph:
    """Complement all edges among the neighbours of v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    nb = g.rows[v]
    rows = list(g.rows)
    t = nb
    while t:
        i = (t & -t).bit_length() - 1
        t &= t - 1
        rows[i] ^= nb & ~(1 << i)
    return Graph(g.n, tuple(rows))


@lru_cache(maxsize=16)
def _clique_masks(n: int) -> np.ndarray:
    """Read-only table of 2^n int64 edge masks: entry s has the bit of every
    edge (i, j) with both i and j in vertex set s.  Local complementation at
    v flips exactly the edges among v's neighbours, so it takes a graph's
    mask to ``mask ^ table[rows[v]]``."""
    sets = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(1 << n, dtype=np.int64)
    for bit, i, j in _edge_positions(n):
        table |= ((sets >> i) & (sets >> j) & 1) << bit
    table.flags.writeable = False
    return table


def _lc_closure(
    n: int, start: int, label: Callable[[np.ndarray], list[int]]
) -> list[int]:
    """Sorted class labels reachable from label `start` by local
    complementation; `label` maps an array of edge masks to their class
    labels.

    Works on masks, one frontier of new classes at a time: the local
    complements of every frontier mask at every vertex are one XOR with
    `_clique_masks` rows, labelled in one call, and no Graph is built."""
    table = _clique_masks(n)
    seen = {start}
    frontier = [start]
    while frontier:
        masks = np.array(frontier, dtype=np.int64)[:, None] ^ table[rows_table(n, frontier)]
        new = set(label(masks.ravel())) - seen
        seen |= new
        frontier = list(new)
    return sorted(seen)


def _dfs_labels(n: int, masks: np.ndarray) -> list[int]:
    """Canonical masks of n-vertex graphs given by their edge masks, each
    found by `_canonical_dfs` (n <= MAX_CANONICAL_N)."""
    return [_canonical_dfs(n, rows) for rows in rows_table(n, masks.tolist()).tolist()]


def lc_orbit(g: Graph) -> list[int]:
    """Sorted canonical masks of the isomorphism classes reachable from g by
    local complementation."""
    return _lc_closure(g.n, canonical_form(g).mask, partial(_dfs_labels, g.n))


def lc_orbit_masks(n: int) -> Iterator[tuple[int, ...]]:
    """The sorted isomorphism-class canonical masks of every LC+isomorphism
    orbit, orbits in increasing order of their smallest mask."""
    if n > MAX_EXHAUSTIVE_N:
        raise ValueError(f"LC orbit enumeration supported for n <= {MAX_EXHAUSTIVE_N}")
    if n <= MAX_TABLE_N:
        canon, reps = class_table(n)

        def label(masks: np.ndarray) -> list[int]:
            return canon[masks].tolist()

    else:
        reps, label = isomorphism_class_minima(n), partial(_dfs_labels, n)
    seen: set[int] = set()
    for rep in reps:
        if rep in seen:
            continue
        masks = tuple(_lc_closure(n, rep, label))
        seen.update(masks)
        yield masks


# ---------------------------------------------------------------------------
# graph states

def graph_state_amplitudes(g: Graph) -> np.ndarray:
    """Amplitudes of |G>: entry x is (-1)^q(x) / 2^(n/2) with
    q(x) = sum_{i<j} adj[i][j] x_i x_j."""
    if g.n > MAX_AMPLITUDE_N:
        raise ValueError(f"graph_state_amplitudes supports n <= {MAX_AMPLITUDE_N}")
    signs = kernels.graph_signs(g.rows_array(), g.n)
    return signs.astype(np.float64) / math.sqrt(2.0**g.n)
