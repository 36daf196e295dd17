"""Structure results on CWS codes used as search-space filters.

Linear classical codes give additive (stabilizer) quantum codes, every
two-word code is linear, and any linear subcode doubles through an outside
codeword into a verified linear code.  A verified three-word code {0, a, b}
is the doubling of its subcode {0, a} through b, so it extends to the
verified four-word linear {0, a, b, a ^ b}.  The optimality filter turns
externally supplied optimal additive ((n,1,d)) and ((n,2,d)) facts, one rule
for both, into pruning verdicts for the search.

The search applies the three-word extension as a count, not through this
module: `errormap.triple_counts` gives each graph's number of codeword
triples {a, b, a ^ b}, and a graph with none has no three-word code, so a
target-K >= 3 search skips its branch and bound (`search._processed`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errormap import ErrorSet
from .gf2 import BitString, ClassicalCode, xor_basis
from .verify import CWSCode, detection_check


@dataclass(frozen=True)
class LinearityReport:
    is_linear: bool
    basis: tuple[BitString, ...] | None
    violating_pair: tuple[BitString, BitString] | None


def is_linear(c: ClassicalCode) -> LinearityReport:
    """Closure under XOR, with a GF(2) basis when it holds.

    A code containing 0^n is closed exactly when it has 2^rank words; only
    a nonlinear code is scanned, for its first pair whose XOR lies outside."""
    if not c.contains_zero():
        raise ValueError("linearity test requires the all-zeros word (standard form)")
    words = sorted(c.values)
    basis = xor_basis(words)
    if len(words) == 1 << len(basis):
        basis_words = tuple(BitString(c.n, b) for b in sorted(basis))
        return LinearityReport(True, basis_words, None)
    values = set(words)
    a, b = next(
        (a, b) for i, a in enumerate(words) for b in words[i + 1 :]
        if a ^ b not in values
    )
    return LinearityReport(False, None, (BitString(c.n, a), BitString(c.n, b)))


def additivity_label(c: ClassicalCode) -> str:
    """"additive" for linear codes.  A nonlinear code is "not manifestly
    additive": calling it nonadditive takes an exhaustive search argument
    that the code alone does not carry."""
    return "additive" if is_linear(c).is_linear else "not manifestly additive"


def extend_dim3_to_dim4(q: CWSCode, errors: ErrorSet) -> CWSCode:
    """Extend a verified three-word code {0, c2, c3} to the linear
    {0, c2, c3, c2 ^ c3}: the doubling of its subcode {0, c2} through c3,
    verified against the same error set."""
    if q.code.size != 3:
        raise ValueError(f"expected a K=3 code, got K={q.code.size}")
    c2, c3 = (w for w in q.code.values if w)
    return double_linear_subcode(
        q, ClassicalCode.from_ints(q.n, [0, c2]), BitString(q.n, c3), errors
    )


def double_linear_subcode(
    q: CWSCode, b: ClassicalCode, v: BitString, errors: ErrorSet
) -> CWSCode:
    """From a linear subcode B and a codeword v outside it, build the
    doubled linear code {B, v + B}; verified against the same error set."""
    if b.n != q.n or v.n != q.n:
        raise ValueError("component lengths disagree")
    report = is_linear(b)
    if not report.is_linear:
        raise ValueError("subcode is not linear")
    code_vals = set(q.code.values)
    if not set(b.values) <= code_vals:
        raise ValueError("subcode is not contained in the code")
    if v.value not in code_vals:
        raise ValueError("v is not a codeword")
    if v.value in set(b.values):
        raise ValueError("v must lie outside the subcode")
    if not detection_check(q, errors).detects:
        raise ValueError("input code fails detection for the given error set")
    doubled = sorted({w for w in b.values} | {w ^ v.value for w in b.values})
    out = CWSCode(q.graph, ClassicalCode.from_ints(q.n, doubled))
    if not detection_check(out, errors).detects:
        raise RuntimeError("doubled code unexpectedly fails detection")
    return out


# ---------------------------------------------------------------------------
# optimality registry

@dataclass(frozen=True)
class RegistryEntry:
    n: int
    k: int
    d: int
    optimal: bool
    source: str


def parse_registry(text: str) -> tuple[RegistryEntry, ...]:
    """Lines of "n=<n> K=<K> d=<d> optimal=<yes|no> source=<free text>"."""
    entries = []
    for lineno, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        fields: dict[str, str] = {}
        parts = ln.split(None, 4)
        for part in parts:
            if "=" not in part:
                raise ValueError(f"registry line {lineno}: bad field {part!r}")
            key, val = part.split("=", 1)
            fields[key] = val
        try:
            entries.append(
                RegistryEntry(
                    n=int(fields["n"]),
                    k=int(fields["K"]),
                    d=int(fields["d"]),
                    optimal={"yes": True, "no": False}[fields["optimal"]],
                    source=fields.get("source", ""),
                )
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"registry line {lineno}: {ln!r}") from exc
    return tuple(entries)


@dataclass(frozen=True)
class FilterVerdict:
    verdict: str  # "pruned" or "open"
    reason: str


def optimality_filter(
    n: int, k: int, d: int, registry: tuple[RegistryEntry, ...]
) -> FilterVerdict:
    """Prune (n, K, d) when a registry fact rules it out.

    An optimal additive ((n,k,d)) with k = 1 or 2 says no additive ((n,2k,d))
    exists, and so rules out every K > k: a code of K > k words holds k + 1
    words with 0 among them, which for k = 1 are a two-word code, additive,
    and for k = 2 a three-word code, which extends to an additive four-word
    code.  Nothing else prunes."""
    if n < 1 or k < 1:
        raise ValueError(f"n and K must be positive, got n={n}, K={k}")
    if not 1 <= d <= n + 1:
        raise ValueError(f"distance must be in 1..{n + 1}, got {d}")
    for entry in registry:
        if entry.n != n or entry.d != d or not entry.optimal:
            continue
        if entry.k in (1, 2) and k > entry.k:
            return FilterVerdict(
                "pruned",
                f"optimal additive (({n},{entry.k},{d})) forbids K>{entry.k} ({entry.source})",
            )
    return FilterVerdict("open", "no registry fact applies")
