"""The CWS clique graph and exact clique search.

Vertices are the admissible codewords (all-zeros always included); two
vertices are joined when no induced error pattern maps one to the other.
Because every valid codeword set translates (by XOR with any member) to an
equally valid set containing the all-zeros word, the solvers only report
cliques through vertex 0, which is adjacent to everything.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from . import kernels
from .errormap import ClArrays, ErrorSet, setup
from .gf2 import ClassicalCode
from .graphs import Graph

MAX_INDEX_SPACE_N = 20  # clique-graph vertex ids live in {0,1}^n
MAX_MATERIALIZED_VERTICES = 1 << 16
MAX_EXACT_VERTICES = 4096


class CliqueGraph:
    """The graph is its conflict masks, the one table the branch and bound
    colours and branches on (`kernels.clique_conflicts`): conflicts[m - i]
    holds every vertex but i and its neighbours, as a Python int, high bit
    first: vertex j of the m vertices is bit m-1-j (see `kernels`), and
    conflicts[0] is 0.  `size` is m, a plain attribute.

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
        for row in kernels.bit_rows(self.rows, self.size):
            lines.append(kernels.pack_bits(row).tobytes().hex())
        return "\n".join(lines) + "\n"


def clique_graphs(n: int, cl: np.ndarray, d: np.ndarray) -> Iterator[CliqueGraph]:
    """The clique graphs of R setups, in row order, from their (R, 2^n) CL
    and D arrays (``errormap.setup_table``): admissible codewords plus
    compatibility edges.

    The vertices of every graph come from one stable argsort; the conflict
    masks take one ``kernels.clique_conflicts`` call and the word lists one
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
        masks = kernels.clique_conflicts(verts, cl[group])
        for r, w, mask in zip(group.tolist(), verts.tolist(), masks):
            words[r], conflicts[r] = w, mask
    return (CliqueGraph(n, w, mask) for w, mask in zip(words, conflicts))


def make_cws_clique_graph(arrays: ClArrays) -> CliqueGraph:
    """Admissible codewords plus compatibility edges, per the setup arrays."""
    return next(clique_graphs(arrays.n, arrays.cl[None], arrays.d[None]))


def _bnb_clique(
    cg: CliqueGraph, cand: int, stop_at: int, budget: int
) -> tuple[int, list, int, bool]:
    """`kernels.bnb_clique` on `cg` from the candidate set `cand`: every
    exact solve goes through here, behind the one vertex cap.  An empty
    set gets the kernel's own answer."""
    if cg.size > MAX_EXACT_VERTICES:
        raise ValueError(f"exact solver capped at {MAX_EXACT_VERTICES} vertices")
    return kernels.bnb_clique(cg.conflicts, cg.size, cand, stop_at, budget)


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
    size, members, nodes, exhausted = _bnb_clique(cg, (1 << (cg.size - 1)) - 1, stop_at, budget)
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
                found, _mem, used, exhausted = _bnb_clique(cg, pv, remaining - 1, sub_budget)
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
