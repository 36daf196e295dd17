"""Boolean-function codes and their conversion to standard-form CWS codes.

The input data is a Boolean function f plus an n x 2n binary matrix whose
rows are independent and pairwise symplectically orthogonal.  The rows,
read as X-half then Z-half, are Hermitian Pauli generators of a stabilizer
state; the complements of f's support strings form a classical code whose
bits record commutation sign patterns.  The chain to standard form is:

    rows -> stabilizer + code  ->  (single-qubit Cliffords) graph state
         ->  (generator change R) graph + code . R

Single-qubit Clifford moves leave the code untouched; only the generator
change transforms it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .gf2 import (
    BitString,
    ClassicalCode,
    GF2Matrix,
    PauliOp,
    insert_reduced,
    solve_linear,
)
from .graphs import Graph
from .verify import CWSCode

MAX_ANF_N = 16
MAX_SD_N = 16


@dataclass(frozen=True)
class BooleanFunction:
    """Boolean function given by its support (the strings where f = 1)."""

    n: int
    support: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(set(self.support)) != list(self.support):
            raise ValueError("support must be strictly ascending and distinct")
        if self.support and not 0 <= self.support[-1] < (1 << self.n):
            raise ValueError("support string out of range")

    @classmethod
    def from_anf(cls, n: int, expr: str) -> "BooleanFunction":
        """Parse an XOR of products of literals, e.g. "v1v2v3 + v3v4v5".

        A literal is v<i> or ~v<i> (the negated variable); variables are
        numbered from 1 and v1 is bit 0."""
        if n > MAX_ANF_N:
            raise ValueError(f"ANF evaluation supports n <= {MAX_ANF_N}")
        terms = []
        for raw in expr.split("+"):
            raw = raw.strip()
            if not raw:
                raise ValueError("empty term in ANF expression")
            lits = re.findall(r"~?v\d+", raw)
            if "".join(lits).replace(" ", "") != raw.replace(" ", ""):
                raise ValueError(f"cannot parse term {raw!r}")
            term = []
            for lit in lits:
                neg = lit.startswith("~")
                idx = int(lit.lstrip("~v")) - 1
                if not 0 <= idx < n:
                    raise ValueError(f"variable out of range in {lit!r}")
                term.append((idx, neg))
            terms.append(term)
        support = []
        for c in range(1 << n):
            val = 0
            for term in terms:
                prod = 1
                for idx, neg in term:
                    bit = (c >> idx) & 1
                    if neg:
                        bit ^= 1
                    prod &= bit
                val ^= prod
            if val:
                support.append(c)
        return cls(n, tuple(support))

    def support_strings(self) -> tuple[BitString, ...]:
        return tuple(BitString(self.n, s) for s in self.support)


def cset(f: BooleanFunction) -> tuple[BitString, ...]:
    """Shifts a with support(f) and support(f) XOR a disjoint: the classical
    errors detectable by the support code."""
    if not f.support:
        raise ValueError("cset of the zero function is undefined")
    sup = set(f.support)
    out = [
        a
        for a in range(1 << f.n)
        if all((s ^ a) not in sup for s in sup)
    ]
    return tuple(BitString(f.n, a) for a in out)


# ---------------------------------------------------------------------------

def _row_to_pauli(row: int, n: int) -> PauliOp:
    u = row & ((1 << n) - 1)
    v = row >> n
    return PauliOp(n, u, v, (u & v).bit_count() % 4)


def _pauli_to_row(p: PauliOp) -> int:
    return p.u | (p.v << p.n)


def _check_commuting_independent(gens, noun: str) -> None:
    """Refuse generators that anticommute or are linearly dependent."""
    for i, g in enumerate(gens):
        for j in range(i + 1, len(gens)):
            if g.symplectic(gens[j]):
                raise ValueError(f"{noun} {i} and {j} anticommute")
    rows = GF2Matrix(2 * gens[0].n, tuple(_pauli_to_row(g) for g in gens))
    if rows.rank() != len(gens):
        raise ValueError(f"{noun} are not independent")


@dataclass(frozen=True)
class StabilizerState:
    """n commuting, independent Hermitian Pauli generators with +1 signs."""

    generators: tuple[PauliOp, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("stabilizer state needs at least one generator")
        n = self.generators[0].n
        if len(self.generators) != n or any(g.n != n for g in self.generators):
            raise ValueError("a stabilizer state needs exactly n generators on n qubits")
        for i, g in enumerate(self.generators):
            if g.hermitian_sign() != 1:
                raise ValueError(f"generator {i} does not have sign +1")
        _check_commuting_independent(self.generators, "generators")

    @property
    def n(self) -> int:
        return self.generators[0].n


@dataclass(frozen=True)
class AC06Data:
    """A Boolean function plus its n x 2n generator matrix [X-half | Z-half]."""

    f: BooleanFunction
    a: GF2Matrix

    def __post_init__(self) -> None:
        n = self.f.n
        if self.a.nrows != n or self.a.ncols != 2 * n:
            raise ValueError("matrix must be n x 2n")
        _check_commuting_independent(
            [_row_to_pauli(r, n) for r in self.a.rows], "rows"
        )

    @property
    def n(self) -> int:
        return self.f.n

    def stabilizer(self) -> StabilizerState:
        return StabilizerState(tuple(_row_to_pauli(r, self.n) for r in self.a.rows))


@dataclass(frozen=True)
class AC06Conversion:
    stabilizer: StabilizerState
    code_unshifted: tuple[BitString, ...]
    shift: BitString
    code: ClassicalCode
    word_operators: tuple[PauliOp, ...]


def ac06_to_cws(data: AC06Data) -> AC06Conversion:
    """Stabilizer state, sign-pattern code, and word operators from (f, A).

    The code lists the complements of f's support strings, then is shifted
    by its minimum member so the all-zeros word is present.  Word operators
    are Paulis whose commutation pattern with the generators realises each
    codeword; they are found by solving the symplectic linear system."""
    if not data.f.support:
        raise ValueError("the zero function defines no code")
    n = data.n
    full = (1 << n) - 1
    stab = data.stabilizer()
    unshifted = [s ^ full for s in data.f.support]
    shift = min(unshifted)
    shifted = [c ^ shift for c in unshifted]
    code = ClassicalCode.from_ints(n, shifted)

    # sp(W, g_k) = c_k: unknown (a|b), row k of the system is (v_k | u_k).
    system = GF2Matrix(
        2 * n, tuple(g.v | (g.u << n) for g in stab.generators)
    )
    words = []
    for c in shifted:
        x = solve_linear(system, c)
        if x is None:
            raise RuntimeError("word-operator system is unexpectedly singular")
        words.append(_row_to_pauli(x, n))
    return AC06Conversion(
        stabilizer=stab,
        code_unshifted=tuple(BitString(n, c) for c in unshifted),
        shift=BitString(n, shift),
        code=code,
        word_operators=tuple(words),
    )


# ---------------------------------------------------------------------------
# reduction of a stabilizer state to graph form

@dataclass(frozen=True)
class LCRecord:
    """Per-qubit Clifford letters (applied left to right) plus the generator
    change matrix R; codes transform as c -> c . R."""

    letters: tuple[str, ...]
    generator_change: GF2Matrix


def _hadamard_set(gens) -> list[int]:
    """Qubits whose Hadamards make the X block invertible: the Z-half pivot
    columns of the reduced row-echelon form of [X | Z].

    The rows with an X pivot are [A | B]; the others are [0 | C], with C in
    RREF on its pivot set S.  Commutation gives A C^T = 0, and the ranks add
    up to n, so the row space of C is the null space of A.  A nonzero vector
    in C's row space is nonzero somewhere on S, hence A has no nonzero null
    vector supported outside S: A restricted to the columns outside S is
    invertible.  RREF also clears B on S and gives C = I on S, so after
    Hadamards on S the X block is [[A_notS, 0], [0, I]]."""
    n = gens[0].n
    reduced = GF2Matrix(2 * n, tuple(_pauli_to_row(g) for g in gens)).row_reduce()
    pivots = ((r & -r).bit_length() - 1 for r in reduced.rows)
    return [col - n for col in pivots if col >= n]


def _hadamard(p: PauliOp, j: int) -> PauliOp:
    """H p H on qubit j: swap the X and Z bits there; XZ becomes ZX = -XZ."""
    bu, bv = (p.u >> j) & 1, (p.v >> j) & 1
    flip = (bu ^ bv) << j
    return PauliOp(p.n, p.u ^ flip, p.v ^ flip, p.phase + 2 * (bu & bv))


def stabilizer_to_graph(s: StabilizerState) -> tuple[Graph, LCRecord]:
    """Reduce to graph-state generators X_l Z^(row l) with +1 signs.

    Hadamards make the X block M invertible, the generator change
    R = (M^-1)^T turns it into the identity, phase gates clear the
    adjacency diagonal, and a final Pauli-Z conjugation normalises the
    signs.  New generator i is the unique group element with X part e_i,
    so it does not depend on how the elimination is ordered.  The
    single-qubit moves leave any attached classical code alone; only R
    acts on it."""
    n = s.n
    gens = s.generators
    letters = [""] * n
    for j in _hadamard_set(gens):
        letters[j] += "H"
        gens = tuple(_hadamard(g, j) for g in gens)

    r_matrix = GF2Matrix(n, tuple(g.u for g in gens)).invert().transpose()
    rows = []
    for i, g in enumerate(regenerate_generators(gens, r_matrix)):
        # only generator i has X on qubit i, so S and Z there touch it alone
        phase = g.phase
        if (g.v >> i) & 1:
            letters[i] += "S"
            phase += 1
        if phase % 4 == 2:
            letters[i] += "Z"
        rows.append(g.v & ~(1 << i))
    return Graph(n, tuple(rows)), LCRecord(tuple(letters), r_matrix)


def change_generators(r: GF2Matrix, c: ClassicalCode) -> ClassicalCode:
    """Transform codewords as row vectors under an invertible generator change."""
    if r.invert() is None:
        raise ValueError("generator change matrix is singular")
    return c.mul_matrix(r)


def regenerate_generators(s, r: GF2Matrix) -> tuple[PauliOp, ...]:
    """New generator list g'_i = product_j g_j^(R_ji), phases tracked.

    Accepts a StabilizerState or a plain generator tuple, whose signs need
    not be +1."""
    gens = s.generators if isinstance(s, StabilizerState) else tuple(s)
    n = len(gens)
    out = []
    for i in range(n):
        acc = PauliOp.identity(gens[0].n)
        for j in range(n):
            if r.entry(j, i):
                acc = acc @ gens[j]
        out.append(acc)
    return tuple(out)


@dataclass(frozen=True)
class StandardFormResult:
    conversion: AC06Conversion
    graph: Graph
    cws: CWSCode


def ac06_to_standard_form(data: AC06Data) -> StandardFormResult:
    """Full chain: (f, A) to a standard-form CWS code (graph, code)."""
    conv = ac06_to_cws(data)
    graph, record = stabilizer_to_graph(conv.stabilizer)
    code = change_generators(record.generator_change, conv.code)
    cws = CWSCode(graph, code.sorted())
    return StandardFormResult(conv, graph, cws)


def cws_to_ac06(q: CWSCode) -> AC06Data:
    """Inverse direction: A = [I | adjacency], f supported on the codeword
    complements."""
    n = q.n
    full = (1 << n) - 1
    support = sorted(c ^ full for c in q.code.values)
    f = BooleanFunction(n, tuple(support))
    rows = tuple((1 << j) | (q.graph.rows[j] << n) for j in range(n))
    return AC06Data(f, GF2Matrix(2 * n, rows))


# ---------------------------------------------------------------------------
# degenerate-code constraint set

@dataclass(frozen=True)
class SdResult:
    elements: tuple[PauliOp, ...]
    rank: int
    generators: tuple[PauliOp, ...]


def compute_sd(s, d: int) -> SdResult:
    """All signed stabilizer elements of weight < d, their GF(2) rank r, and
    a generating set whose first r members span them (the rest lie outside).

    Accepts a StabilizerState or any commuting independent generator list
    (a code's stabilizer group).  Codewords of a degenerate code built on s
    must vanish on the first r sign coordinates."""
    gens = s.generators if isinstance(s, StabilizerState) else tuple(s)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    k = len(gens)
    if k > MAX_SD_N:
        raise ValueError(f"compute_sd enumerates 2^k elements; k <= {MAX_SD_N}")
    for i, g in enumerate(gens):
        if g.n != n or g.hermitian_sign() is None:
            raise ValueError(f"generator {i} is not a Hermitian n-qubit Pauli")
    _check_commuting_independent(gens, "generators")
    elems: list[PauliOp] = [PauliOp.identity(n)]
    for a in range(1, 1 << k):
        low = (a & -a).bit_length() - 1
        elems.append(elems[a & (a - 1)] @ gens[low])

    low_weight = [e for e in elems[1:] if e.weight() < d]
    by_top: dict[int, int] = {}
    chosen = [e for e in low_weight if insert_reduced(by_top, _pauli_to_row(e))]
    completed = chosen + [g for g in gens if insert_reduced(by_top, _pauli_to_row(g))]
    return SdResult(tuple(low_weight), len(chosen), tuple(completed))


# ---------------------------------------------------------------------------
# file format

def parse_ac06_file(text: str) -> AC06Data:
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("AC06 file must start with 'n=<n>'")
    n = int(lines[0].split("=", 1)[1])
    try:
        a_at = lines.index("A:")
        f_at = lines.index("f:")
    except ValueError as exc:
        raise ValueError("AC06 file needs 'A:' and 'f:' blocks") from exc
    if not a_at < f_at:
        raise ValueError("'A:' block must precede 'f:'")
    a_lines = lines[a_at + 1 : f_at]
    if len(a_lines) != n:
        raise ValueError(f"expected {n} matrix rows, got {len(a_lines)}")
    rows = []
    for ln in a_lines:
        bits = ln.replace(" ", "")
        if len(bits) != 2 * n or any(c not in "01" for c in bits):
            raise ValueError(f"bad matrix row: {ln!r}")
        rows.append(sum(1 << i for i, c in enumerate(bits) if c == "1"))
    f_lines = [ln.strip() for ln in lines[f_at + 1 :]]
    if not f_lines:
        raise ValueError("empty f block")
    if all(set(ln) <= {"0", "1"} for ln in f_lines):
        support = [BitString.from_text(ln).value for ln in f_lines]
        f = BooleanFunction(n, tuple(sorted(set(support))))
    elif len(f_lines) == 1:
        f = BooleanFunction.from_anf(n, f_lines[0])
    else:
        raise ValueError("f block must be support strings or one ANF line")
    return AC06Data(f, GF2Matrix(2 * n, tuple(rows)))


def write_ac06_file(data: AC06Data) -> str:
    n = data.n
    lines = [f"n={n}", "A:"]
    for r in data.a.rows:
        lines.append("".join("1" if (r >> i) & 1 else "0" for i in range(2 * n)))
    lines.append("f:")
    lines.extend(str(b) for b in data.f.support_strings())
    return "\n".join(lines) + "\n"
