"""The CWS clique graph and exact/heuristic clique search.

Vertices are the admissible codewords (all-zeros always included); two
vertices are joined when no induced error pattern maps one to the other.
Because every valid codeword set translates (by XOR with any member) to an
equally valid set containing the all-zeros word, the solvers only report
cliques through vertex 0, which is adjacent to everything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errormap import ClArrays, ErrorSet, setup
from .gf2 import BitString, ClassicalCode
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
    """rows[i] is the neighbour mask of vertex i, as a Python int."""

    def __init__(self, n: int, vertices: np.ndarray, rows: list[int]) -> None:
        self.n = n
        self.vertices = vertices
        self.rows = rows
        m = vertices.shape[0]
        if m < 1 or vertices[0] != 0:
            raise ValueError("vertex 0^n must be present and first")
        if np.any(np.diff(vertices) <= 0):
            raise ValueError("vertices must be ascending")
        if rows[0] != (1 << m) - 2:
            raise ValueError("vertex 0^n must be universal")

    @property
    def size(self) -> int:
        return int(self.vertices.shape[0])

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.rows[i] >> j) & 1)

    def codewords(self, members: tuple[int, ...]) -> tuple[BitString, ...]:
        return tuple(BitString(self.n, int(self.vertices[i])) for i in members)

    def dump(self) -> str:
        """Each row as hex little-endian uint64 words, ceil(m/64) of them."""
        nbytes = 8 * ((self.size + 63) >> 6)
        lines = [f"vertices={self.size}"]
        lines.extend(row.to_bytes(nbytes, "little").hex() for row in self.rows)
        return "\n".join(lines) + "\n"


def parse_clique_graph_dump(text: str) -> tuple[int, list[int]]:
    """Adjacency-only reader for the dump format; returns (m, rows)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vertices="):
        raise ValueError("dump must start with 'vertices=<m>'")
    m = int(lines[0].split("=", 1)[1])
    if len(lines) != m + 1:
        raise ValueError("dump row count does not match header")
    return m, [int.from_bytes(bytes.fromhex(ln), "little") for ln in lines[1:]]


def make_cws_clique_graph(arrays: ClArrays) -> CliqueGraph:
    """Admissible codewords plus compatibility edges, per the setup arrays."""
    n = arrays.n
    if n > MAX_INDEX_SPACE_N:
        raise ValueError(
            f"clique graphs are materialised only up to n={MAX_INDEX_SPACE_N}"
        )
    ok = ~arrays.cl & ~arrays.d
    ok[0] = True  # the all-zeros word is always a vertex
    vertices = np.flatnonzero(ok).astype(np.int64)
    m = vertices.shape[0]
    if m > MAX_MATERIALIZED_VERTICES:
        raise ValueError(
            f"clique graph with {m} vertices exceeds the materialisation cap"
        )
    return CliqueGraph(n, vertices, kernels.clique_adjacency(vertices, arrays.cl))


@dataclass(frozen=True)
class CliqueSearchResult:
    clique: Clique
    exact: bool
    nodes: int


@dataclass(frozen=True)
class FixedSizeResult:
    clique: Clique | None
    exhausted: bool
    nodes: int
    best_size: int  # size of the largest clique seen (exact iff exhausted)

    @property
    def found(self) -> bool:
        return self.clique is not None


def max_clique(cg: CliqueGraph, budget: int = -1) -> CliqueSearchResult:
    """Maximum clique containing vertex 0; exact unless the budget runs out.

    Among maximum cliques the lexicographically smallest member set is
    returned (budget permitting)."""
    m = cg.size
    if m > MAX_EXACT_VERTICES:
        raise ValueError(f"exact solver capped at {MAX_EXACT_VERTICES} vertices")
    if m == 1:
        return CliqueSearchResult(Clique((0,)), True, 0)
    size, members, nodes, exhausted = kernels.bnb_clique(
        cg.rows, m, (1 << m) - 2, 0, budget
    )
    best = tuple(sorted([0] + members))
    if not exhausted:
        return CliqueSearchResult(Clique(best), False, nodes)
    target = size  # clique size within the neighbourhood of 0
    refined = _lex_min_clique(cg, target, budget, nodes)
    if refined is not None:
        best, nodes = refined
    return CliqueSearchResult(Clique(best), True, nodes)


def _lex_min_clique(cg: CliqueGraph, target: int, budget: int, nodes: int):
    """Greedy lexicographic refinement; returns None if the budget dies."""
    if target == 0:
        return (0,), nodes
    chosen = [0]
    p = (1 << cg.size) - 2  # vertices adjacent to every chosen one
    remaining = target
    while remaining > 0:
        q = p
        while q:  # candidates in ascending order
            v = (q & -q).bit_length() - 1
            q &= q - 1
            pv = p & cg.rows[v]
            if remaining > 1:
                sub_budget = -1 if budget < 0 else max(0, budget - nodes)
                size, _mem, used, exhausted = kernels.bnb_clique(
                    cg.rows, cg.size, pv, remaining - 1, sub_budget
                )
                nodes += used
                if size < remaining - 1:
                    if not exhausted:
                        return None  # budget died before the question was settled
                    continue
            chosen.append(v)
            p = pv
            remaining -= 1
            break
        else:
            return None
    return tuple(sorted(chosen)), nodes


def find_clique_of_size(cg: CliqueGraph, k: int, budget: int = -1) -> FixedSizeResult:
    """A clique of size exactly k containing vertex 0, or proven absence.

    On absence with an exhausted search, best_size is the true maximum (a
    target above the vertex count simply exhausts without reaching it)."""
    if k < 1:
        raise ValueError("clique size must be at least 1")
    m = cg.size
    if k == 1:
        return FixedSizeResult(Clique((0,)), True, 0, 1)
    if m > MAX_EXACT_VERTICES:
        raise ValueError(f"exact solver capped at {MAX_EXACT_VERTICES} vertices")
    if m == 1:
        return FixedSizeResult(None, True, 0, 1)
    size, members, nodes, exhausted = kernels.bnb_clique(
        cg.rows, m, (1 << m) - 2, k - 1, budget
    )
    if size >= k - 1:
        picked = tuple(sorted([0] + sorted(members)[: k - 1]))
        return FixedSizeResult(Clique(picked), exhausted, nodes, k)
    return FixedSizeResult(None, exhausted, nodes, size + 1)


def heuristic_clique(cg: CliqueGraph, seed: int, restarts: int = 200) -> Clique:
    """Randomised greedy restarts; a lower bound only, never a proof."""
    rng = random.Random(seed)
    m = cg.size
    rows = cg.rows
    best: tuple[int, ...] = (0,)
    order = list(range(1, m))
    for _ in range(restarts):
        rng.shuffle(order)
        members = [0]
        p = (1 << m) - 2  # all vertices except 0
        for v in order:
            if (p >> v) & 1:
                members.append(v)
                p &= rows[v]
        if len(members) > len(best):
            best = tuple(sorted(members))
    return Clique(best)


def cws_maxclique(errors: ErrorSet, g: Graph, budget: int = -1) -> ClassicalCode:
    """Setup -> clique graph -> max clique, returned as a classical code."""
    arrays = setup(errors, g)
    cg = make_cws_clique_graph(arrays)
    result = max_clique(cg, budget)
    words = sorted(int(cg.vertices[i]) for i in result.clique.members)
    return ClassicalCode.from_ints(g.n, words)
