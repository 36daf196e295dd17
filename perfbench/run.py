#!/usr/bin/env python3
"""End-to-end benchmark of cwskit's search, with a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in perfbench/workloads.py.  One pass runs each of the
workload's searches once through `cwskit.search.run_search`, single process,
each started after the previous one returned.  After one untimed warm-up
pass the benchmark repeats passes for S seconds (at least MIN_PASSES) and
checks every output with perfbench/gate.py, outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 follows each untraced
search with a run of perfbench/pipeline.py, which drives the same pipeline
through the layers' public functions under spans, and reports per-layer
self times and counts.  Metric names and units are in perfbench/metrics.py.

Every reported time is rescaled to a fixed machine speed (see SpeedScaled);
the unscaled times are kept in the result file.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full result (environment, samples and, traced, the
spans) is written to .bench_out/<workload>-seed<N>-trace<T>.json.

The package is imported from src/ beside this directory, never from an
installed copy; without it the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 3
SETUP_REPEATS = 9
REFERENCE_S = 0.003  # reference() on an idle vCPU of the 2-vCPU baseline machine

# Run in a fresh interpreter: import the package and build the jobs.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import cwskit.search
for fields in json.loads(sys.argv[2]):
    cwskit.search.SearchJob(**fields)
"""


def import_package() -> None:
    sys.path.insert(0, str(SRC))
    import cwskit

    if not Path(cwskit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"cwskit resolved outside {SRC}: {cwskit.__file__}")


def reference() -> int:
    """Fixed pure-Python work (integer bit operations, dict and list stores)
    whose time tracks the speed the machine is giving this process now."""
    acc = 0
    table = {}
    kept = []
    for i in range(15000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x >> (i & 7)
        table[x & 255] = acc
        if i & 15 == 0:
            kept.append(x)
    return acc + len(kept)


def reference_time() -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_scale(before: float, after: float) -> float:
    """Factor that rescales a time measured between two reference_time()
    readings to the machine speed at which reference() takes REFERENCE_S.
    On a shared host the speed a process gets drifts by +-25% within
    seconds; rescaled times drift far less (README: Machine speed)."""
    return 2 * REFERENCE_S / (before + after)


class SpeedScaled:
    """Call times, as measured and rescaled."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, seconds: float, before: float, after: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * speed_scale(before, after))


class Run:
    """Operation counts and gate problems of one benchmark run."""

    def __init__(self) -> None:
        from gate import Gate

        self.gate = Gate()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(problems)
        for p in problems:
            print(f"FAILED: {p}", file=sys.stderr)

    def search(self, search):
        """One timed run_search call; returns (result, seconds) or (None, None)."""
        from cwskit.search import run_search

        self.attempted += 1
        if search.fresh_checkpoint:
            search.checkpoint.unlink(missing_ok=True)
        gc.collect()
        t0 = time.perf_counter()
        try:
            result = run_search(search.job, checkpoint=search.checkpoint)
        except Exception as exc:  # any failure of the program under test
            traceback.print_exc()
            self.fail([f"{search.label}: run_search raised {exc!r}"])
            return None, None
        seconds = time.perf_counter() - t0
        problems = self.gate.problems(search, result)
        if problems:
            self.fail(problems)
        return result, seconds


def environment(seed: int, searches) -> dict:
    import numpy

    from cwskit import kernels

    return {
        "lane": "numba" if kernels.HAVE_NUMBA else "numpy",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "searches": [
            {"label": s.label, **dataclasses.asdict(s.job), "graph_file": None}
            for s in searches
        ],
    }


def measure_setup(searches) -> SpeedScaled:
    """Wall time from a fresh interpreter to the jobs being built."""
    fields = json.dumps([dataclasses.asdict(s.job) for s in searches])
    times = SpeedScaled()
    for _ in range(SETUP_REPEATS):
        before = reference_time()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), fields],
            check=True,
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        seconds = time.perf_counter() - t0
        times.add(seconds, before, reference_time())
    return times


def _keep_going(start: float, seconds: float, passes: int) -> bool:
    return passes < MIN_PASSES or time.perf_counter() - start < seconds


def timed_run(run: Run, searches, seconds: float) -> dict:
    from compare import spread

    results = {}
    for s in searches:  # warm-up pass
        results[s.label], _ = run.search(s)
    times = {s.label: SpeedScaled() for s in searches}
    passes = 0
    start = time.perf_counter()
    while _keep_going(start, seconds, passes):
        for s in searches:
            before = reference_time()
            _result, dt = run.search(s)
            if dt is not None:
                times[s.label].add(dt, before, reference_time())
        passes += 1
    setup = measure_setup(searches)
    done = [r for r in results.values() if r is not None]
    metrics = {
        "wall_s": sum(statistics.median(t.scaled) for t in times.values() if t.scaled),
        "setup_s": statistics.median(setup.scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "best_k_sum": sum(r.summary_best_k for r in done),
        "exact_instances": sum(
            all(rec.status == "exact" for rec in r.records) for r in done
        ),
    }
    raw_wall = sum(statistics.median(t.raw) for t in times.values() if t.raw)
    print(f"{passes} passes; unscaled wall {raw_wall:.4f} s, "
          f"unscaled setup {statistics.median(setup.raw):.4f} s")
    for label, t in times.items():
        if t.scaled:
            med, q1, q3, _spread = spread(t.scaled)
            print(f"{label}: median {med:.4f} s, quartiles {q1:.4f}-{q3:.4f} s, {len(t.scaled)} calls")
    samples = {label: vars(t) for label, t in times.items()}
    samples["setup"] = vars(setup)
    return {"metrics": metrics, "samples": samples}


def traced_run(run: Run, searches, seconds: float) -> dict:
    """Each search runs untraced and then traced, back to back, so that the
    two see the same machine speed and their difference is the tracing
    overhead."""
    from collections import defaultdict

    from cwskit.graphs import edge_count

    from gate import code_problem
    from metrics import EXACT_COUNTS
    from pipeline import plain_exhaustive_nodes, traced_search
    from spans import Tracer, totals

    def traced_one(s, untraced, tr: Tracer):
        run.attempted += 1
        if s.fresh_checkpoint:
            s.checkpoint.unlink(missing_ok=True)
        gc.collect()
        try:
            result, counts = traced_search(s.job, s.checkpoint, tr)
        except Exception as exc:  # any failure of the program under test
            traceback.print_exc()
            run.fail([f"{s.label}: traced search raised {exc!r}"])
            return None
        problems = []
        if untraced is not None and (
            result.records != untraced.records
            or result.summary_best_k != untraced.summary_best_k
        ):
            problems.append("BENCHMARK ERROR: traced records differ from run_search's")
        if counts.classes and counts.class_size_sum != 1 << edge_count(s.job.n):
            problems.append("BENCHMARK ERROR: class sizes do not sum to 2^E")
        if result.witness is not None:
            with tr.span("bench.witness_check"):
                p = code_problem(result.witness, s.job.d, tr.span)
            if p:
                problems.append(p)
        if problems:
            run.fail([f"{s.label}: {p}" for p in problems])
        return result, counts

    for s in searches:  # warm-up
        traced_one(s, run.search(s)[0], Tracer())

    per_pass: list[dict] = []
    search_overheads, trace_overheads = [], []
    all_spans = []
    outcomes: list = []
    start = time.perf_counter()
    while _keep_going(start, seconds, len(per_pass)):
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        wall = traced = layers = 0.0
        outcomes = []
        for s in searches:
            r0 = reference_time()
            untraced, dt = run.search(s)
            r1 = reference_time()
            tr = Tracer()
            out = traced_one(s, untraced, tr)
            r2 = reference_time()
            all_spans.append({"pass": len(per_pass), "search": s.label, "spans": tr.spans})
            if dt is None or out is None:
                continue
            outcomes.append(out)
            scale = speed_scale(r1, r2)
            own, span_s, n_calls = totals(tr.spans)
            for name, t in own.items():
                self_s[name] += t * scale
            for name, c in n_calls.items():
                calls[name] += c
            root = span_s["search.run"] * scale
            wall += dt * speed_scale(r0, r1)
            traced += root
            layers += root - own["search.run"] * scale
        search_overheads.append(wall - layers)
        trace_overheads.append(traced - wall)
        ms = sorted(m for _r, c in outcomes for m in c.m)
        nodes = sum(sum(c.nodes.values()) for _r, c in outcomes)
        images = sum(c.orbit_images for _r, c in outcomes)
        solve_s = self_s["clique.solve"]
        per_pass.append({
            "graphs.iso_classes_s": self_s["graphs.iso_classes"],
            "graphs.orbit_useful_share": (
                sum(c.class_size_sum for _r, c in outcomes) / images if images else 0.0
            ),
            "graphs.canonical_form_calls": calls["graphs.canonical_form"],
            "graphs.canonical_form_s": self_s["graphs.canonical_form"],
            "graphs.graph_build_s": self_s["graphs.graph_build"],
            "errormap.setup_calls": calls["errormap.setup"],
            "errormap.setup_s": self_s["errormap.setup"],
            "clique.build_s": self_s["clique.build"],
            "clique.m_min": ms[0] if ms else 0,
            "clique.m_median": statistics.median_low(ms) if ms else 0,
            "clique.m_max": ms[-1] if ms else 0,
            "clique.solve_s": solve_s,
            "clique.bnb_nodes": nodes,
            "clique.bnb_nodes_per_s": nodes / solve_s if solve_s > 0 else 0.0,
            "clique.bound_instances": sum(
                rec.status == "bound" for r, _c in outcomes for rec in r.records
            ),
            "verify.detection_check_calls": calls["verify.detection_check"],
            "verify.detection_check_s": self_s["verify.detection_check"],
            "verify.kl_oracle_s": self_s["verify.kl_oracle"],
            "search.checkpoint_write_s": self_s["search.checkpoint_write"],
            "search.checkpoint_bytes": sum(c.checkpoint_bytes for _r, c in outcomes),
            "search.checkpoint_load_s": self_s["search.checkpoint_load"],
        })

    # Untimed: one bare exhaustive B&B per exactly solved graph.
    plain = solver = 0
    for result, counts in outcomes:
        p, s = plain_exhaustive_nodes(result, counts)
        plain += p
        solver += s

    metrics = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        if name not in EXACT_COUNTS:
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            run.fail([f"BENCHMARK ERROR: {name} differs between passes: {values}"])
            metrics[name] = statistics.median(values)
    metrics["clique.useful_node_share"] = plain / solver if solver else 0.0
    metrics["search.overhead_s"] = statistics.median(search_overheads)
    metrics["trace.overhead_s"] = statistics.median(trace_overheads)
    return {"metrics": metrics, "samples": per_pass, "spans": all_spans}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except ImportError as exc:
        print(f"cannot import cwskit from {SRC}: {exc}", file=sys.stderr)
        return 2

    import workloads
    from metrics import END_TO_END, PER_LAYER

    if args.workload not in workloads.WHY:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        searches = workloads.build(args.workload, args.seed, work)
        env = environment(args.seed, searches)
        print("environment: " + json.dumps(env))
        run = Run()
        if args.trace:
            body = traced_run(run, searches, args.seconds)
            defs = PER_LAYER
        else:
            body = timed_run(run, searches, args.seconds)
            defs = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {
        d["name"]: {"value": body["metrics"][d["name"]], "unit": d["unit"]} for d in defs
    }
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    summary = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (OUT / f"{tag}.json").write_text(
        json.dumps({"workload": args.workload, "trace": args.trace, "environment": env,
                    "problems": run.problems, **body, **summary})
    )
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
