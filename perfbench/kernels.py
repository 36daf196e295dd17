#!/usr/bin/env python3
"""Kernel microbenchmark; informational, never gating.

    python3 perfbench/kernels.py [--repeat N]

Times the kernel cases defined in benchmarks/bench_kernels.py.  Without
numba (not installed, or CWSKIT_NO_NUMBA=1) every `*_jit` twin is the
undecorated Python function, so a jit-versus-fallback ratio means nothing:
this script then names the lane and prints only the fallback column.  With
numba it prints both columns and their ratio.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys

from run import ROOT, import_package


def load_cases():
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = [
        module.bench_cl_patterns,
        module.bench_graph_signs,
        module.bench_clique_adjacency,
        module.bench_bnb,
        module.bench_canon,
    ]
    return module.timeit, cases


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    import_package()
    from cwskit import kernels

    timeit, cases = load_cases()
    lane = "numba" if kernels.HAVE_NUMBA else "numpy"
    print(f"kernel lane: {lane}")
    kernels.warmup()
    if kernels.HAVE_NUMBA:
        print(f"{'kernel':<50} {'numba':>10} {'fallback':>10} {'speedup':>8}")
    else:
        print(f"{'kernel':<50} {'fallback':>10}")
    for case in cases:
        name, jit_fn, py_fn = case(args.repeat)
        t_py = timeit(py_fn, args.repeat)
        if kernels.HAVE_NUMBA:
            jit_fn()  # compile before timing
            t_jit = timeit(jit_fn, args.repeat)
            ratio = t_py / t_jit if t_jit > 0 else float("inf")
            print(f"{name:<50} {t_jit * 1e3:>8.2f}ms {t_py * 1e3:>8.2f}ms {ratio:>7.1f}x")
        else:
            print(f"{name:<50} {t_py * 1e3:>8.2f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
