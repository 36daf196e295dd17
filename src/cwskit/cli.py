"""Command-line front end.

Subcommands: map-errors, clique-graph, search, verify, convert, structure,
orbit.  Exit codes: 0 found/completed, 2 usage or input errors, 3 exhaustive
absence proven, 4 inconclusive (budget or partial results).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import ac06, search, structure
from .clique import make_cws_clique_graph
from .errormap import error_set, setup
from .gf2 import BitString, ClassicalCode
from .graphs import Graph, lc_orbit, mask_hex, parse_graph_file
from .search import SearchAborted, SearchJob, render_result, run_search
from .verify import (
    MAX_ORACLE_N,
    CWSCode,
    code_distance,
    detection_check,
    kl_oracle,
    parse_code_file,
    report_lines,
    write_code_file,
)

EXIT_USAGE = 2


def _read_graph(path: str) -> Graph:
    return parse_graph_file(Path(path).read_text())


def _cmd_map_errors(args) -> int:
    g = _read_graph(args.graph)
    arrays = setup(error_set(g.n, args.d), g)
    dump = arrays.dump()
    if args.out:
        Path(args.out).write_text(dump)
        print(f"cl_zero={int(arrays.cl[0])}")
        print(f"degenerate={'true' if arrays.degenerate else 'false'}")
    else:
        sys.stdout.write(dump)
    return 0


def _cmd_clique_graph(args) -> int:
    g = _read_graph(args.graph)
    cg = make_cws_clique_graph(setup(error_set(g.n, args.d), g))
    dump = cg.dump()
    if args.out:
        Path(args.out).write_text(dump)
        print(f"vertices={cg.size}")
    else:
        sys.stdout.write(dump)
    return 0


def _check_out_path(path: Path) -> None:
    """Refuse an --out the result cannot be written to, before any work."""
    if path.is_dir():
        raise ValueError(f"--out {path} is a directory")
    if not path.parent.is_dir():
        raise ValueError(f"--out {path}: no directory {path.parent}")


def _witness_problem(q: CWSCode, d: int) -> str | None:
    """Check the witness by both routes: the detection conditions, and the
    Knill-Laflamme oracle, which shares no code with them or the search."""
    if not detection_check(q, error_set(q.n, d)).detects:
        return "witness fails detection_check"
    if q.n <= MAX_ORACLE_N and kl_oracle(q, d) < d:
        return "witness fails kl_oracle"
    return None


def _cmd_search(args) -> int:
    job = SearchJob(
        n=args.n,
        d=args.d,
        target_k=args.k,
        graph_source=args.graphs,
        graph_file=args.graph,
        worker_count=args.jobs,
        budget=args.budget,
    )
    if args.out:
        _check_out_path(Path(args.out))
    try:
        result = run_search(
            job,
            checkpoint=Path(args.checkpoint) if args.checkpoint else None,
            progress=args.progress,
        )
    except SearchAborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return search.EXIT_INCONCLUSIVE
    if result.witness is not None:
        problem = _witness_problem(result.witness, job.d)
        if problem:
            print(f"aborted: {problem}", file=sys.stderr)
            return search.EXIT_INCONCLUSIVE
    if args.out:
        Path(args.out).write_text(render_result(result))
    print(f"graphs={result.total_graphs}")
    print(f"summary_bestK={result.summary_best_k}")
    if result.witness is not None:
        print("witness_graph=" + mask_hex(job.n, result.witness.graph.mask()))
        print(
            "witness_code="
            + ",".join(str(w) for w in result.witness.code.sorted().words)
        )
    print(f"elapsed={result.elapsed:.2f}s", file=sys.stderr)
    if result.inconclusive_reason is not None:
        print(f"inconclusive: {result.inconclusive_reason}", file=sys.stderr)
    return result.exit_code


def _cmd_verify(args) -> int:
    q = parse_code_file(Path(args.code))
    distance = code_distance(q)
    d = distance if args.d is None else args.d
    report = detection_check(q, error_set(q.n, d))
    # code_distance's one oracle run, kl_oracle(q, min(D+1, n+1)), raises
    # unless it returns D = distance; that pins the oracle's own distance to
    # D, so kl_oracle(q, d) = min(d, D) without a second run
    oracle_distance = min(d, distance) if q.n <= MAX_ORACLE_N else None
    print(f"n={q.n}")
    print(f"K={q.dimension}")
    sys.stdout.write(report_lines(report, distance, oracle_distance))
    linear = structure.is_linear(q.code)
    print(f"linear={'true' if linear.is_linear else 'false'}")
    return 0


def _cmd_convert(args) -> int:
    if bool(args.ac06) == bool(args.code):
        raise ValueError("convert needs exactly one of --ac06 or --code")
    if args.ac06:
        data = ac06.parse_ac06_file(Path(args.ac06).read_text())
        result = ac06.ac06_to_standard_form(data)
        for g in result.conversion.stabilizer.generators:
            print(f"stabilizer={g}")
        for c in result.conversion.code_unshifted:
            print(f"cprime={c}")
        print(f"shift={result.conversion.shift}")
        print(f"n={result.cws.n}")
        print(f"K={result.cws.dimension}")
        if args.out:
            base = Path(args.out)
            write_code_file(
                base.with_suffix(".code"), result.cws, base.with_suffix(".graph").name
            )
            print(f"graph_written={base.with_suffix('.graph')}")
            print(f"code_written={base.with_suffix('.code')}")
        return 0
    q = parse_code_file(Path(args.code))
    data = ac06.cws_to_ac06(q)
    text = ac06.write_ac06_file(data)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# the options each structure action cannot do without
_STRUCTURE_NEEDS = {
    "linear": ("code",),
    "extend-dim3": ("code",),
    "double": ("code", "subcode", "v"),
    "filter": ("registry", "n", "k"),
}


def _cmd_structure(args) -> int:
    missing = [
        f"--{name}" for name in _STRUCTURE_NEEDS[args.action]
        if getattr(args, name) is None
    ]
    if missing:
        raise ValueError(f"structure {args.action} needs {', '.join(missing)}")
    if args.action == "filter":
        registry = structure.parse_registry(Path(args.registry).read_text())
        verdict = structure.optimality_filter(args.n, args.k, args.d, registry)
        print(f"verdict={verdict.verdict}")
        print(f"reason={verdict.reason}")
        return 0

    q = parse_code_file(Path(args.code))
    if args.action == "linear":
        report = structure.is_linear(q.code)
        print(f"is_linear={'true' if report.is_linear else 'false'}")
        if report.basis is not None:
            for b in report.basis:
                print(f"basis={b}")
        if report.violating_pair is not None:
            a, b = report.violating_pair
            print(f"violating_pair={a},{b}")
        return 0

    errors = error_set(q.n, args.d)
    if args.action == "extend-dim3":
        out = structure.extend_dim3_to_dim4(q, errors)
    else:
        sub = ClassicalCode.from_texts(args.subcode.split(","))
        v = BitString.from_text(args.v)
        out = structure.double_linear_subcode(q, sub, v, errors)
    print(f"n={out.n}")
    print(f"K={out.dimension}")
    for w in out.code.sorted().words:
        print(f"codeword={w}")
    if out.n <= MAX_ORACLE_N:
        print(f"oracle_distance={kl_oracle(out, args.d)}")
    if args.out:
        base = Path(args.out)
        write_code_file(
            base.with_suffix(".code"), out, base.with_suffix(".graph").name
        )
    return 0


def _cmd_orbit(args) -> int:
    g = _read_graph(args.graph)
    closure = lc_orbit(g)
    print(f"orbit_size={len(closure)}")
    for mask in closure:
        print(mask_hex(g.n, mask))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwskit",
        description="Search and verification toolkit for codeword stabilized quantum codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map-errors", help="compute the CL/D arrays for a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_map_errors)

    p = sub.add_parser("clique-graph", help="build and dump the CWS clique graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_clique_graph)

    p = sub.add_parser("search", help="search graphs for codes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="target dimension")
    p.add_argument("--graphs", choices=["all", "iso", "lc", "file"], default="all")
    p.add_argument("--graph", help="graph file for --graphs file")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--budget", type=int, default=-1)
    p.add_argument("--out")
    p.add_argument("--checkpoint")
    p.add_argument("--progress", action="store_true")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="verify a code file")
    p.add_argument("--code", required=True)
    p.add_argument("--d", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("convert", help="convert between Boolean-function data and CWS form")
    p.add_argument("--ac06")
    p.add_argument("--code")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("structure", help="linearity tools and code constructions")
    p.add_argument("action", choices=["linear", "extend-dim3", "double", "filter"])
    p.add_argument("--code")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--registry")
    p.add_argument("--subcode", help="comma-separated subcode words for 'double'")
    p.add_argument("--v", help="codeword outside the subcode for 'double'")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_structure)

    p = sub.add_parser("orbit", help="list the LC orbit of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_orbit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
