"""Shared test oracles: dense matrix constructions independent of the library
internals, plus the acceptance-criteria summary printer."""

from __future__ import annotations

import re

import numpy as np
import pytest

from cwskit.gf2 import PauliOp
from cwskit.graphs import Graph

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


def dense_pauli(p: PauliOp) -> np.ndarray:
    """i^phase * X^u Z^v as an explicit matrix, built by kron products.

    Qubit i is bit i of the basis index, so the highest qubit is the first
    kron factor."""
    m = np.array([[1.0 + 0j]])
    for i in reversed(range(p.n)):
        f = np.eye(2, dtype=complex)
        if (p.u >> i) & 1:
            f = X2 @ f
        if (p.v >> i) & 1:
            f = f @ Z2
        m = np.kron(m, f)
    return (1j**p.phase) * m


def dense_from_letters(text: str) -> np.ndarray:
    return dense_pauli(PauliOp.from_text(text))


def random_graph(n: int, rng) -> Graph:
    from cwskit.graphs import edge_count

    mask = rng.randrange(1 << edge_count(n))
    return Graph.from_mask(n, mask)


def reversed_bits(x: int, m: int) -> int:
    """The m-bit int x with its bit order reversed: bit j moves to m-1-j.

    Turns a clique-layer set (vertex j at bit m-1-j) into the plain order
    (vertex j at bit j) and back."""
    return int(format(x, f"0{m}b")[::-1], 2)


_acceptance_results: list[tuple[int, bool, str]] = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    module = getattr(item, "module", None)
    if rep.when == "call" and module is not None and module.__name__ == "test_acceptance":
        m = re.match(r"test_criterion_(\d+)", item.name)
        if m:
            doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
            _acceptance_results.append((int(m.group(1)), rep.passed, doc))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num, passed, desc in sorted(_acceptance_results):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"  ACCEPTANCE {num:02d}: {status}  {desc}")
