#!/usr/bin/env python3
"""Summarise benchmark result files, or compare two sets of them.

    python3 perfbench/compare.py BASE_DIR [NEW_DIR]

Each directory holds result files written by perfbench/run.py
(.bench_out/<workload>-seed<N>-trace<T>.json).  For every workload and
metric the script prints the median, the quartiles, the sample count and the
spread (quartile distance over median).  With NEW_DIR it also prints the
change of the median and flags end-to-end metrics that got worse by more
than their bound.  Results from different kernel lanes are never compared,
and exact counts (metrics.EXACT_COUNTS) must agree between every two traced
results of the same workload and seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from metrics import END_TO_END, EXACT_COUNTS


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*-trace[01].json"))]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def lanes(results: list[dict]) -> set[str]:
    return {r["environment"]["lane"] for r in results}


def count_mismatches(results: list[dict]) -> list[str]:
    seen: dict[tuple, tuple] = {}
    out = []
    for r in results:
        if not r["trace"]:
            continue
        key = (r["workload"], r["environment"]["seed"])
        counts = tuple(r["metrics"][name]["value"] for name in EXACT_COUNTS)
        if seen.setdefault(key, counts) != counts:
            out.append(f"{key[0]} seed {key[1]}: exact counts differ between runs")
    return out


def table(results: list[dict]) -> dict[tuple[str, int, str], list[float]]:
    values: dict[tuple[str, int, str], list[float]] = defaultdict(list)
    for r in results:
        for name, m in r["metrics"].items():
            values[(r["workload"], r["trace"], name)].append(m["value"])
    return values


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    everything = [r for s in sets for r in s]
    if len(lanes(everything)) > 1:
        print(f"refusing to compare kernel lanes {sorted(lanes(everything))}", file=sys.stderr)
        return 1
    problems = count_mismatches(everything)
    problems += [f"{r['workload']} seed {r['environment']['seed']}: correct=false"
                 for r in everything if not r["correct"]]
    bounds = {m["name"]: m for m in END_TO_END}
    base = table(sets[0])
    new = table(sets[1]) if len(sets) == 2 else {}
    for key in sorted(base):
        workload, trace, name = key
        med, q1, q3, sp = spread(base[key])
        line = f"{workload:<9} {name:<30} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} n {len(base[key])} spread {sp:.4f}"
        if key in new:
            med2, _q1, _q3, sp2 = spread(new[key])
            change = (med2 - med) / med if med else 0.0
            line += f" | new median {med2:.6g} spread {sp2:.4f} change {change:+.4f}"
            if not trace and name in bounds:
                worse = change if bounds[name]["better"] == "lower" else -change
                if worse > bounds[name]["bound"]:
                    problems.append(f"{workload} {name} worse by {worse:.4f} > bound {bounds[name]['bound']}")
        print(line)
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
