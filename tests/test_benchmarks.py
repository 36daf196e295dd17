"""The kernel benchmark script still runs against the package: every case of
its list, once, and every case the perfbench kernel script loads by name."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_kernels():
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_case_runs_once(bench_kernels, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bench_kernels.py", "--repeat", "1"])
    bench_kernels.main()
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["kernel", "time"]
    assert len(lines) == len(bench_kernels.BENCHES) == 16
    assert all(line.split()[-1].endswith(("ms", "nodes/s")) for line in lines)


def test_cases_loaded_by_perfbench_exist(bench_kernels):
    # perfbench/kernels.py::load_cases reads the cases as attributes of the
    # loaded script, so a renamed case fails there only when it is run
    tree = ast.parse((ROOT / "perfbench" / "kernels.py").read_text())
    (load,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "load_cases"
    ]
    read = {
        node.attr for node in ast.walk(load)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name) and node.value.id == "module"
    }
    cases = sorted(name for name in read if name.startswith("bench_"))
    assert cases == [
        "bench_bnb", "bench_canon", "bench_cl_patterns",
        "bench_clique_adjacency", "bench_graph_signs",
    ]
    assert {getattr(bench_kernels, name) for name in cases} <= set(bench_kernels.BENCHES)
    assert "timeit" in read and callable(bench_kernels.timeit)
