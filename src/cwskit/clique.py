"""The CWS clique graph and exact clique search.

Vertices are the admissible codewords (all-zeros always included); two
vertices are joined when no induced error pattern maps one to the other.
Because every valid codeword set translates (by XOR with any member) to an
equally valid set containing the all-zeros word, the solvers only report
cliques through vertex 0, which is adjacent to everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from .errormap import ClArrays, ErrorSet, setup
from .gf2 import ClassicalCode
from .graphs import Graph

MAX_INDEX_SPACE_N = 20  # clique-graph vertex ids live in {0,1}^n
MAX_MATERIALIZED_VERTICES = 1 << 16
MAX_EXACT_VERTICES = 4096


@dataclass(frozen=True)
class Clique:
    """Vertex indices into a CliqueGraph, ascending."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class CliqueGraph:
    """rows[i] is the neighbour mask of vertex i, as a Python int, high bit
    first: vertex j of the m vertices is bit m-1-j (see `kernels`).  `size`
    is m, a plain attribute.

    The branch and bound colours with `bit_length`, which in this order finds
    the lowest vertex left by reading the top digit of an int; the search
    tree is the one the low-bit-first order gives, node for node.

    Built by `make_cws_clique_graph`, whose vertices ascend from 0^n and
    whose vertex 0 is adjacent to every other vertex."""

    def __init__(self, n: int, vertices: np.ndarray, rows: list[int]) -> None:
        self.n = n
        self.vertices = vertices
        self.rows = rows
        self.size = len(rows)
        self._tables: tuple[list, list] | None = None

    @property
    def bnb_tables(self) -> tuple[list, list]:
        """`kernels.bnb_tables` of this graph, built on first use and kept in
        a plain attribute, shared by every branch and bound run on it."""
        if self._tables is None:
            self._tables = kernels.bnb_tables(self.rows, self.size)
        return self._tables

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> (self.size - 1 - j)) & 1)

    def codewords(self, clique: Clique) -> tuple[int, ...]:
        """The member words of a clique, as ints."""
        return tuple(self.vertices.take(clique.members).tolist())

    def dump(self) -> str:
        """Each row as hex little-endian uint64 words, ceil(m/64) of them,
        vertex j at bit j."""
        m = self.size
        nbytes = 8 * ((m + 63) >> 6)
        lines = [f"vertices={m}"]
        for row in self.rows:
            low_first = int(format(row, f"0{m}b")[::-1], 2)
            lines.append(low_first.to_bytes(nbytes, "little").hex())
        return "\n".join(lines) + "\n"


def clique_graphs(n: int, cl: np.ndarray, d: np.ndarray) -> Iterator[CliqueGraph]:
    """The clique graphs of R setups, in row order, from their (R, 2^n) CL
    and D arrays (``errormap.setup_table``): admissible codewords plus
    compatibility edges.

    The vertices of every graph come from one stable argsort; the adjacency
    takes one ``kernels.clique_adjacency`` call per vertex count m.  Each
    CliqueGraph is made only when the iterator reaches it, so a caller that
    drops one before taking the next holds one graph's B&B tables at a time."""
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
    vertices: list = [None] * len(sizes)
    rows: list = [None] * len(sizes)
    for m in np.unique(sizes).tolist():
        group = np.flatnonzero(sizes == m)
        verts = order[group, :m]
        adjacency = kernels.clique_adjacency(verts, cl[group])
        for r, v, adj in zip(group.tolist(), verts, adjacency):
            vertices[r], rows[r] = v, adj
    return (CliqueGraph(n, v, adj) for v, adj in zip(vertices, rows))


def make_cws_clique_graph(arrays: ClArrays) -> CliqueGraph:
    """Admissible codewords plus compatibility edges, per the setup arrays."""
    return next(clique_graphs(arrays.n, arrays.cl[None], arrays.d[None]))


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


def _bnb_clique(
    cg: CliqueGraph, cand: int, stop_at: int, budget: int
) -> tuple[int, list, int, bool]:
    """`kernels.bnb_clique` on `cg` from the candidate set `cand`: every
    exact solve goes through here, behind the one vertex cap.  An empty
    set gets the kernel's own answer, and no colouring tables are built."""
    if not cand:
        return 0, [], 0, True
    if cg.size > MAX_EXACT_VERTICES:
        raise ValueError(f"exact solver capped at {MAX_EXACT_VERTICES} vertices")
    return kernels.bnb_clique(cg.rows, cg.bnb_tables, cg.size, cand, stop_at, budget)


def max_clique(cg: CliqueGraph, budget: int = -1) -> CliqueSearchResult:
    """A maximum clique containing vertex 0; exact unless the budget runs out.

    One branch and bound: the members are whichever maximum clique through 0
    it meets first, not a canonical choice (see `lex_min_clique`)."""
    _size, members, nodes, exhausted = _bnb_clique(cg, (1 << (cg.size - 1)) - 1, 0, budget)
    return CliqueSearchResult(Clique(tuple(sorted([0] + members))), exhausted, nodes)


def lex_min_clique(
    cg: CliqueGraph, res: CliqueSearchResult, budget: int = -1
) -> CliqueSearchResult:
    """The lexicographically smallest maximum clique, given `max_clique`'s
    exact answer `res` on the same graph and budget.

    Greedy: each next member is the smallest candidate that still extends
    to a maximum clique, which costs about one more branch and bound per
    member; its nodes count against `budget` on top of `res.nodes`.  `res`
    comes back unchanged when it is not exact, has one member, or the
    budget dies before the choice is settled."""
    if not res.exact or res.clique.size == 1:
        return res
    nodes = res.nodes
    chosen = [0]
    top = cg.size - 1
    p = (1 << top) - 1  # vertices adjacent to every chosen one
    remaining = res.clique.size - 1
    while remaining > 0:
        q = p
        while q:  # candidates in ascending order: the top bit first
            b = q.bit_length() - 1
            q ^= 1 << b
            v = top - b
            pv = p & cg.rows[v]
            if remaining > 1:
                sub_budget = -1 if budget < 0 else max(0, budget - nodes)
                size, _mem, used, exhausted = _bnb_clique(cg, pv, remaining - 1, sub_budget)
                nodes += used
                if size < remaining - 1:
                    if not exhausted:
                        return res  # budget died before the question was settled
                    continue
            chosen.append(v)
            p = pv
            remaining -= 1
            break
        else:
            return res
    return CliqueSearchResult(Clique(tuple(sorted(chosen))), True, nodes)


def find_clique_of_size(cg: CliqueGraph, k: int, budget: int = -1) -> FixedSizeResult:
    """A clique of size exactly k containing vertex 0, or proven absence.

    On absence with an exhausted search, best_size is the true maximum (a
    target above the vertex count simply exhausts without reaching it)."""
    if k < 1:
        raise ValueError("clique size must be at least 1")
    if k == 1:
        return FixedSizeResult(Clique((0,)), True, 0, 1)
    size, members, nodes, exhausted = _bnb_clique(cg, (1 << (cg.size - 1)) - 1, k - 1, budget)
    if size >= k - 1:
        picked = tuple(sorted([0] + sorted(members)[: k - 1]))
        return FixedSizeResult(Clique(picked), exhausted, nodes, k)
    return FixedSizeResult(None, exhausted, nodes, size + 1)


def cws_maxclique(errors: ErrorSet, g: Graph) -> ClassicalCode:
    """Setup -> clique graph -> exact max clique, returned as a classical code."""
    cg = make_cws_clique_graph(setup(errors, g))
    result = lex_min_clique(cg, max_clique(cg))
    return ClassicalCode.from_ints(g.n, cg.codewords(result.clique))
