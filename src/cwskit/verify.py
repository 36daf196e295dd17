"""Independent verification of CWS codes.

Two routes that must agree: a combinatorial detection check driven by the
induced error patterns, and a dense Knill-Laflamme oracle that builds the
basis states Z^c |G> explicitly and checks <b_i| E |b_j> = lambda_E
delta_ij.  The oracle takes graph-state signs from ``kernels.graph_signs``,
which evaluates the graph's quadratic form and is not pattern machinery: it
shares no code with the ``cl_patterns`` route of ``detection_check``, so the
two sides stay independent.

All amplitudes involved are +-2^(-n/2), so the oracle works on integer
scaled vectors and every comparison is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import kernels
from .errormap import ErrorSet, _weight_errors
from .gf2 import BitString, ClassicalCode, PauliOp, parity
from .graphs import Graph, parse_graph_file, rows_table, write_graph_file

MAX_ORACLE_N = 12


@dataclass(frozen=True)
class CWSCode:
    """Standard-form CWS code: a graph plus a classical code containing 0^n."""

    graph: Graph
    code: ClassicalCode

    def __post_init__(self) -> None:
        if self.code.n != self.graph.n:
            raise ValueError("codeword length does not match graph size")
        if not self.code.contains_zero():
            raise ValueError("standard form requires the all-zeros codeword")

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def dimension(self) -> int:
        return self.code.size


@dataclass(frozen=True)
class Witness:
    """A concrete violation: two codewords joined by an induced pattern, or a
    single codeword anticommuting with a trivially-mapping error."""

    error: PauliOp
    pair: tuple[BitString, ...]


@dataclass(frozen=True)
class VerificationReport:
    detects: bool
    degenerate: bool
    witness: Witness | None


def _first_violation(
    words: Sequence[int], patterns: Sequence[int], errors: ErrorSet
) -> int:
    """Index of the first error of ``errors`` that breaks the detection
    conditions of the codewords ``words``, or -1 when none does; ``patterns``
    are the errors' induced patterns, in the same order.

    An error breaks them when its pattern is the XOR of two codewords, or is
    zero while the error anticommutes with a codeword.  A code that detects
    every error (most codes checked are) is settled by one set test: no
    pattern is 0 or an XOR of two codewords.  Only a hit walks the errors."""
    hits = {a ^ b for a in words for b in words}  # with 0, as a ^ a
    if hits.isdisjoint(patterns):
        return -1
    paulis = errors.paulis
    for idx, p in enumerate(patterns):
        if p:
            if p in hits:
                return idx
        elif any(parity(c & paulis[idx].u) for c in words):
            return idx
    return -1


def detection_check(q: CWSCode, errors: ErrorSet) -> VerificationReport:
    """Combinatorial detection conditions on the induced error patterns.

    Detects iff no pattern equals the XOR of two codewords and every
    trivially-mapping error commutes with all codeword operators.  The
    witness of a failure is the first violating error in the order of
    ``errors``, with the first codeword pair (in code order) whose XOR is
    its pattern, or else the first codeword it anticommutes with."""
    if errors.n != q.n:
        raise ValueError("error set does not match code size")
    words = q.code.values
    table = q.graph.rows_array()[None]
    patterns = kernels.cl_patterns(errors.xcols, errors.v, table)[0].tolist()
    degenerate = 0 in patterns
    idx = _first_violation(words, patterns, errors)
    if idx < 0:
        return VerificationReport(True, degenerate, None)
    error, p = errors.paulis[idx], patterns[idx]
    if p:
        pair = next(
            (a, b) for i, a in enumerate(words) for b in words[i + 1 :] if a ^ b == p
        )
    else:
        pair = next((c,) for c in words if parity(c & error.u))
    witness = Witness(error, tuple(BitString(q.n, c) for c in pair))
    return VerificationReport(False, degenerate, witness)


VERIFY_CHUNK = 4096  # graphs per chunk: an (R, E) int64 pattern and (R, 2^n) bool table


def first_failing_code(
    masks: Sequence[int], codes: Sequence[Sequence[int]], errors: ErrorSet
) -> int:
    """Index of the first (graph edge mask, codewords) pair whose code fails
    ``detection_check``, or -1 when every code detects ``errors``.

    The check runs on arrays, with no Graph or ClassicalCode per pair: each
    chunk of up to VERIFY_CHUNK masks becomes one adjacency table
    (``graphs.rows_table``, which reads a mask's low n(n-1)/2 bits as
    ``Graph.from_mask`` does), one ``cl_patterns`` call maps every error
    through all of its graphs, and the chunk's codes are tested together
    (``_chunk_failure``).  The first failing code is then built as a
    ``CWSCode`` of its sorted words: bad words raise its ValueError, with
    its message, and a failing code is otherwise reported by index."""
    n = errors.n
    for lo in range(0, len(masks), VERIFY_CHUNK):
        hi = lo + VERIFY_CHUNK
        bad = _chunk_failure(masks[lo:hi], codes[lo:hi], errors)
        if bad >= 0:
            CWSCode(Graph.empty(n), ClassicalCode.from_ints(n, sorted(codes[lo + bad])))
            return lo + bad
    return -1


def _chunk_failure(
    masks: Sequence[int], codes: Sequence[Sequence[int]], errors: ErrorSet
) -> int:
    """Index of the first (mask, code) pair of one nonempty chunk whose code
    fails, or -1: a word outside 0..2^n-1, no all-zeros word, two equal
    words, a nonzero pattern that is the XOR of two words, or a zero pattern
    whose error anticommutes with a word.  The codes are flattened into one
    int64 array, in which a word beyond int64 reads as -1, out of range as
    it is.

    A code with a word out of range, or without 0, fails up front; its
    out-of-range words then read as 0, which only keeps them inside the
    table below, since pairs never cross codes.  Code r is tested against
    row r of one (R, 2^n) bool table ``bad``, true at 0, at every pattern of
    graph r, and at every word of code r that anticommutes with an error
    whose pattern through graph r is zero.  A code that holds 0 fails
    ``detection_check`` iff the XOR of two of its words hits its row:
    - XOR 0 is a repeated word;
    - a nonzero XOR that is a pattern is the pair ``detection_check``
      refuses;
    - a word c that anticommutes with a zero-pattern error is not 0, which
      commutes with every error, so the pair (0, c) has XOR c; and a word
      marked in the row is such a c.

    The pairs are taken by offset: step t pairs each word of the flat array
    with the word t places after it, where both belong to the same code, and
    looks their XOR up in ``bad`` by one flat index, so each step touches
    each word once and no temporary grows with K^2."""
    n = errors.n
    count = len(masks)
    lens = np.fromiter(map(len, codes), dtype=np.int64, count=count)
    total = int(lens.sum())
    chain = itertools.chain.from_iterable
    try:
        words = np.fromiter(chain(codes), dtype=np.int64, count=total)
    except OverflowError:  # c >> 63 is 0 or -1 exactly for the int64 words
        wide = (c if -1 <= c >> 63 <= 0 else -1 for c in chain(codes))
        words = np.fromiter(wide, dtype=np.int64, count=total)
    row = np.repeat(np.arange(count), lens)  # the code of each word

    # the words of each code: in range, with an all-zeros word
    fail = np.ones(count, dtype=bool)
    fail[row[words == 0]] = False
    out = (words >> n) != 0
    fail[row[out]] = True
    words[out] = 0

    patterns = kernels.cl_patterns(errors.xcols, errors.v, rows_table(n, masks))
    bad = np.zeros((count, 1 << n), dtype=bool)
    bad[:, 0] = True
    bad[np.arange(count)[:, None], patterns] = True
    zero = patterns == 0
    del patterns
    key = row << n | words  # the entry of each word in its row of bad
    flat = bad.ravel()
    for e in np.flatnonzero(zero.any(axis=0)):
        anti = zero[row, e] & kernels.parity_of_and(words, errors.u[e])
        flat[key[anti]] = True

    # key ^ w is the entry, in the row of key's code, of the XOR with w
    for t in range(1, int(lens.max())):
        hit = (row[:-t] == row[t:]) & flat[key[:-t] ^ words[t:]]
        fail[row[:-t][hit]] = True
    return int(fail.argmax()) if fail.any() else -1


# ---------------------------------------------------------------------------
# dense oracle

def _z_signs(x: np.ndarray, z: int) -> np.ndarray:
    """(-1)^(popcount(x & z)) for each basis string of ``x``, as int64: the
    sign Z^z puts on |x>."""
    return 1 - 2 * kernels.parity_of_and(x, z).astype(np.int64)


def _basis_matrix(q: CWSCode) -> np.ndarray:
    """Rows are the integer-scaled vectors of Z^c |G> over the codewords."""
    signs = kernels.graph_signs(q.graph.rows_array(), q.n)
    x = np.arange(1 << q.n, dtype=np.int64)
    return np.array([signs * _z_signs(x, c) for c in q.code.values], dtype=np.int64)


def _kl_distance(bras: np.ndarray, kets: np.ndarray, d: int) -> int:
    """Largest d' <= d such that every Pauli error E of weight < d' gives
    <b_i|E|b_j> = lambda_E delta_ij, with the rows of kets as the b_j and
    their conjugates as the rows of bras.

    The i^phase factor of E scales the whole matrix, so it changes neither
    condition and is left out.  On the integer-scaled basis every entry is
    an integer and the 1e-9 tolerance is an exact test."""
    dim = kets.shape[1]
    n = dim.bit_length() - 1
    x = np.arange(dim, dtype=np.int64)
    for w in range(1, d):
        for e in _weight_errors(n, w):
            m = bras @ (kets * _z_signs(x, e.v))[:, x ^ np.int64(e.u)].T
            diag = np.diag(m)
            if np.max(np.abs(m - np.diag(diag))) > 1e-9:
                return w
            if np.max(np.abs(diag - diag[0])) > 1e-9:
                return w
    return d


def kl_oracle(q: CWSCode, d: int) -> int:
    """Largest d' <= d such that every Pauli error of weight < d' passes the
    Knill-Laflamme detection condition on the explicit basis vectors."""
    if q.n > MAX_ORACLE_N:
        raise ValueError(f"kl_oracle supports n <= {MAX_ORACLE_N}")
    if not 1 <= d <= q.n + 1:
        raise ValueError(f"distance must be in 1..{q.n + 1}")
    basis = _basis_matrix(q)  # real, so it is its own conjugate
    return _kl_distance(basis, basis, d)


def code_distance(q: CWSCode) -> int:
    """Largest d such that all errors of weight < d pass detection_check.

    A one-dimensional code detects everything vacuously and reports n+1.
    For n <= MAX_ORACLE_N the result is re-derived from kl_oracle and a
    mismatch raises."""
    distance = q.n + 1
    for w in range(1, q.n + 1):
        errs = ErrorSet(q.n, tuple(_weight_errors(q.n, w)))
        if not detection_check(q, errs).detects:
            distance = w
            break
    if q.n <= MAX_ORACLE_N:
        oracle = kl_oracle(q, min(distance + 1, q.n + 1))
        if oracle != distance:
            raise RuntimeError(
                f"detection distance {distance} disagrees with oracle {oracle}"
            )
    return distance


# ---------------------------------------------------------------------------
# stabilizer-basis variant of the oracle (used by the conversion tests)

def stabilizer_state_vector(
    generators: Sequence[PauliOp], signs: int = 0
) -> np.ndarray:
    """State stabilized by <(-1)^(signs_i) g_i>, as a complex vector.

    Applies the commuting projectors 1 + (-1)^(signs_i) g_i, each twice the
    projector (1 +- g_i)/2, to the first computational basis state with
    nonzero image, and normalises.  The generator i^phase X^u Z^v maps |x>
    to i^phase (-1)^(v.x) |x ^ u>; every amplitude stays a small Gaussian
    integer until the final division, so the sums are exact."""
    size = 1 << generators[0].n
    x = np.arange(size, dtype=np.int64)
    for seed in range(size):
        vec = np.zeros(size, dtype=np.complex128)
        vec[seed] = 1
        for i, g in enumerate(generators):
            coeff = (1j ** g.phase) * (-1 if (signs >> i) & 1 else 1)
            image = np.empty_like(vec)
            image[x ^ np.int64(g.u)] = coeff * _z_signs(x, g.v) * vec
            vec = vec + image
        norm = np.linalg.norm(vec)
        if norm > 1e-9:
            return vec / norm
    raise RuntimeError("projector annihilated every basis state")


def kl_oracle_states(states: Sequence[np.ndarray], d: int) -> int:
    """Knill-Laflamme detection over explicit (complex) basis vectors."""
    kets = np.array(states)
    return _kl_distance(kets.conj(), kets, d)


# ---------------------------------------------------------------------------
# code file format and report rendering

def parse_code_file(path: Path) -> CWSCode:
    lines = [ln.strip() for ln in path.read_text().splitlines() if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("n=") or not lines[1].startswith("graph="):
        raise ValueError("code file needs 'n=', 'graph=', then codewords")
    n = int(lines[0].split("=", 1)[1])
    graph_ref = lines[1].split("=", 1)[1]
    graph_path = (path.parent / graph_ref).resolve()
    graph = parse_graph_file(graph_path.read_text())
    if graph.n != n:
        raise ValueError("graph file size does not match header")
    code = ClassicalCode.from_texts(lines[2:])
    return CWSCode(graph, code)


def write_code_file(path: Path, q: CWSCode, graph_filename: str) -> None:
    (path.parent / graph_filename).write_text(write_graph_file(q.graph))
    lines = [f"n={q.n}", f"graph={graph_filename}"]
    lines.extend(str(w) for w in q.code.sorted().words)
    path.write_text("\n".join(lines) + "\n")


def report_lines(
    report: VerificationReport, distance: int, oracle_distance: int | None
) -> str:
    lines = [
        f"detects={'true' if report.detects else 'false'}",
        f"degenerate={'true' if report.degenerate else 'false'}",
        f"distance={distance}",
    ]
    if oracle_distance is not None:
        lines.append(f"oracle_distance={oracle_distance}")
    if report.witness is not None:
        lines.append(f"witness_error={report.witness.error}")
        lines.append("witness_pair=" + ",".join(str(b) for b in report.witness.pair))
    return "\n".join(lines) + "\n"
