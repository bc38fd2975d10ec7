"""Command-line interface.

One subcommand per computation, machine-readable output on request.
Exit codes: 0 success, 1 invalid input or certificate, 2 resource budget
exceeded, 3 internal inconsistency (two routes to the same number
disagreed -- a bug signal, not a user error).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys

from . import ai_complex as aic
from . import matching as mt
from . import morse as ms
from .errors import (
    BudgetExceeded,
    CertificateError,
    InternalCheckError,
    MaghomError,
    ParseError,
    ValidationError,
    basis_cap,
    budget_option,
    search_budget,
)
from .graph import (
    Graph,
    ahk_edge_cycle_check,
    is_pawful,
    parse_graph,
    parse_graph6,
)
from .homology import MHTable, is_diagonal_up_to, mh_table, pairwise_column
from .magnitude import magnitude_rational, magnitude_series


def _load_graph(path: str, fmt: str) -> Graph:
    with open(path) as fh:
        return parse_graph(fh.read(), fmt)


def _require_vertices(g: Graph, *vs: int) -> None:
    for v in vs:
        if not 1 <= v <= g.n:
            raise ValidationError(f"vertex {v} is outside 1..{g.n}")


def _graph_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("graph", help="path to a graph file")
    p.add_argument(
        "--format",
        choices=["auto", "edge-list", "graph6"],
        default="auto",
        help="input format (default: detect)",
    )


def _pair_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)


def _cmd_magnitude(args) -> int:
    g = _load_graph(args.graph, args.format)
    # the series first, as it checks its cap before any work: an order
    # over the cap is then refused without running the elimination
    series = None if args.series is None else magnitude_series(g, args.series)
    rat = magnitude_rational(g)
    if series is not None and series != rat.series(args.series):
        raise InternalCheckError("power-series inversion disagrees with the rational expansion")
    if args.json:
        payload = {"num": list(rat.num.coeffs), "den": list(rat.den.coeffs)}
        if series is not None:
            payload["series"] = series
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"magnitude = {rat}")
        if series is not None:
            print("series =", " ".join(f"{c:+d}*q^{k}" for k, c in enumerate(series)))
    return 0


def _table_json(table: MHTable) -> str:
    entries = {
        f"{k},{length}": {"rank": rank, "torsion": list(tors)}
        for (k, length), (rank, tors) in sorted(table.entries.items())
    }
    return json.dumps({"lmax": table.lmax, "entries": entries}, sort_keys=True)


def _require_lmax(lmax: int) -> None:
    if lmax < 0:
        raise ValidationError("--lmax must be >= 0")


def _cmd_mh_table(args) -> int:
    _require_lmax(args.lmax)
    g = _load_graph(args.graph, args.format)
    if args.ab:
        try:
            a, b = (int(x) for x in args.ab.split(","))
        except ValueError:
            raise ValidationError("--ab expects 'a,b' with integer ids") from None
        _require_vertices(g, a, b)
        if args.verify:
            raise ValidationError("--verify checks the whole table, not one summand")
        table = mh_table(g, args.lmax, {(a, b): 1})
    else:
        table = mh_table(g, args.lmax)
    if args.verify:
        for length in range(args.lmax + 1):
            column = [table.entries.get((k, length), (0, ())) for k in range(length + 1)]
            if column != pairwise_column(g, length):
                raise InternalCheckError(
                    f"length-{length} groups differ from the sum over all endpoint pairs"
                )
    if args.csv:
        sys.stdout.write(table.to_csv())
    elif args.json:
        print(_table_json(table))
    else:
        sys.stdout.write(table.to_csv().replace(",", "\t"))
    return 0


def _cmd_ai_complex(args) -> int:
    g = _load_graph(args.graph, args.format)
    _require_vertices(g, args.a, args.b)
    pair = aic.relative_complex(g, args.a, args.b, args.ell)
    full = aic.path_complex(g, args.a, args.b, args.ell)
    payload: dict = {
        "a": args.a,
        "b": args.b,
        "ell": args.ell,
        "f_vector": list(aic.f_vector(full)),
        "subcomplex_size": len(full) - len(pair.cells) - pair.isolated,
        "quotient_cells": len(pair.cells) + pair.isolated,
    }
    if args.homology:
        rel = aic.relative_homology(pair)
        payload["relative_homology"] = [
            {"degree": d, "rank": r, "torsion": list(t)} for d, (r, t) in enumerate(rel)
        ]
    if args.list_faces:
        payload["faces"] = [
            {
                "simplex": [list(p) for p in s],
                "in_subcomplex": aic.subsequence_length(g, args.a, args.b, s) < args.ell,
            }
            for s in sorted(full, key=lambda s: (len(s), s))
        ]
    if args.json:
        print(json.dumps(payload, sort_keys=True))
        return 0
    print(f"K_{args.ell}({args.a},{args.b}): f-vector {tuple(payload['f_vector'])}, "
          f"|K'| = {payload['subcomplex_size']}, cells outside K' = {payload['quotient_cells']}")
    if args.homology:
        for entry in payload["relative_homology"]:
            print(f"  H_{entry['degree']}(K, K') rank {entry['rank']} "
                  f"torsion {entry['torsion']}")
    if args.list_faces:
        for face in payload["faces"]:
            mark = "'" if face["in_subcomplex"] else " "
            print(f"  K{mark} {face['simplex']}")
    return 0


def _build_matching_from_args(
    g: Graph, args, s_path: str | None
) -> tuple[aic.RelativeComplex, mt.MatchingBuild]:
    _require_vertices(g, args.a, args.b)
    if s_path:
        with open(s_path) as fh:
            cert = mt.parse_s(fh.read(), g)
    else:
        cert = mt.build_pawful_S(g)
    mt.require_diameter_2(g)  # refused before the complex is built
    pair = aic.relative_complex(g, args.a, args.b, args.ell)
    return pair, mt.build_matching(pair, cert)


def _matching_report(
    pair: aic.RelativeComplex, build: mt.MatchingBuild
) -> tuple[bool, list[str]]:
    ok_match, why_match = ms.verify_matching(pair, build.matching)
    ok_acyclic, cycle = ms.is_acyclic(pair, build.matching)
    ok_ranks, detail = ms.morse_rank_check(pair, build.matching)
    lines = [
        f"cells outside the subcomplex: {len(pair.cells) + pair.isolated}",
        f"matched pairs: {len(build.matching)}",
        f"critical cells: {len(build.critical) + pair.isolated}",
        f"matching axioms: {'ok' if ok_match else why_match}",
        f"acyclic: {'yes' if ok_acyclic else f'no, cycle of length {len(cycle)}'}",
        f"homology model: {'ok, ' + detail if ok_ranks else detail}",
    ]
    return ok_match and ok_acyclic and ok_ranks, lines


def _cmd_morse(args) -> int:
    g = _load_graph(args.graph, args.format)
    s_path = None if args.matching == "pawful" else args.matching
    pair, build = _build_matching_from_args(g, args, s_path)
    ok, lines = _matching_report(pair, build)
    if args.report or not ok:
        for line in lines:
            print(line)
    else:
        print(lines[-1])
    return 0 if ok else 1


def _cmd_match(args) -> int:
    g = _load_graph(args.graph, args.format)
    pair, build = _build_matching_from_args(g, args, args.s)
    ok, lines = _matching_report(pair, build)
    for line in lines:
        print(line)
    for low, high in sorted(build.matching, key=lambda p: pair.cells[p[0]][1:-1]):
        print(f"pair: {list(pair.simplex(low))} -> {list(pair.simplex(high))}")
    return 0 if ok else 1


def _cmd_pawful(args) -> int:
    g = _load_graph(args.graph, args.format)
    w = is_pawful(g)
    print("pawful: true" if w.verdict else f"pawful: false ({w.reason()})")
    return 0


def _cmd_s_structure(args) -> int:
    g = _load_graph(args.graph, args.format)
    if args.verify:
        with open(args.verify) as fh:
            cert = mt.parse_s(fh.read(), g)
        ok, why = mt.verify_s_structure(g, cert.triples, cert.quads)
        print("valid: true" if ok else f"valid: false {why}")
        return 0
    found = mt.search_structure(g, budget=budget_option(args.budget))
    if found is None:
        print("exhausted: none")
        return 0
    print(f"found: {len(found.triples)} triples, {len(found.quads)} quadruples")
    sys.stdout.write(mt.serialize_s(found))
    return 0


def _cmd_ahk_check(args) -> int:
    g = _load_graph(args.graph, args.format)
    ok, edge = ahk_edge_cycle_check(g)
    if ok:
        print("every edge lies on a cycle of length <= 4: true")
    else:
        print(f"every edge lies on a cycle of length <= 4: false (edge {edge})")
    return 0


def _cmd_classify(args) -> int:
    _require_lmax(args.lmax)
    given = budget_option(args.budget)
    basis_cap()  # every limit is read before the first line: a bad one writes no record
    budget = search_budget(given)
    if args.stream == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(errors="replace")
        return _classify_lines(sys.stdin, args.lmax, budget)
    with open(args.stream, errors="replace") as fh:
        return _classify_lines(fh, args.lmax, budget)


def _classify_lines(lines, lmax: int, budget: int) -> int:
    """One JSON record per graph6 line, reading the lines one at a time.

    A graph over a budget gets "budget-exceeded" in the field that hit
    it, and the stream goes on.  Undecodable bytes are replaced, so such
    a line gets a warning like any other unparsable line.
    """
    for idx, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except (ParseError, ValidationError) as exc:
            print(f"warning: line {idx}: {exc}", file=sys.stderr)
            continue
        record: dict = {"index": idx, "n": g.n, "m": g.m}
        witness = is_pawful(g)
        small = witness.far_pair is None
        record["pawful"] = witness.verdict
        record["star"] = witness.verdict if small else None  # see is_pawful
        if small:
            try:
                record["s_found"] = mt.search_structure(g, budget=budget) is not None
            except BudgetExceeded:
                record["s_found"] = "budget-exceeded"
        else:
            record["s_found"] = None
        record["diagonal_up_to"] = lmax
        try:
            record["diagonal"] = is_diagonal_up_to(g, lmax)
        except BudgetExceeded:
            record["diagonal"] = "budget-exceeded"
        record["ahk"] = None if g.is_tree() else ahk_edge_cycle_check(g)[0]
        print(json.dumps(record, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maghom",
        description="Exact graph magnitude, magnitude homology, and the "
        "simplicial machinery that certifies diagonality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("magnitude", help="magnitude as a reduced rational function")
    _graph_arg(p)
    p.add_argument("--series", type=int, metavar="L", help="also expand through q^L")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_magnitude)

    p = sub.add_parser("mh-table", help="magnitude homology ranks and torsion")
    _graph_arg(p)
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--ab", metavar="A,B", help="restrict to one endpoint summand")
    p.add_argument(
        "--verify",
        action="store_true",
        help="recompute each length as the sum of all n^2 endpoint summands, "
        "without symmetry, and exit 3 on a mismatch",
    )
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_mh_table)

    p = sub.add_parser("ai-complex", help="the pair K_l(a,b), K'_l(a,b)")
    _graph_arg(p)
    _pair_args(p)
    p.add_argument("--list-faces", action="store_true")
    p.add_argument("--homology", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ai_complex)

    p = sub.add_parser("morse", help="run the discrete Morse checks on a matching")
    _graph_arg(p)
    _pair_args(p)
    p.add_argument(
        "--matching",
        default="pawful",
        metavar="pawful|PATH",
        help="'pawful' derives the certificate from pawfulness; anything "
        "else is read as a certificate file path",
    )
    p.add_argument("--report", action="store_true")
    p.set_defaults(func=_cmd_morse)

    p = sub.add_parser("match", help="build and print a certificate matching")
    _graph_arg(p)
    _pair_args(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--pawful", action="store_true",
                     help="derive the certificate from pawfulness")
    grp.add_argument("--s", metavar="FILE",
                     help="load the certificate from a file")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("pawful", help="pawfulness verdict with witness")
    _graph_arg(p)
    p.set_defaults(func=_cmd_pawful)

    p = sub.add_parser("s-structure", help="verify or search for a certificate")
    _graph_arg(p)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--verify", metavar="FILE")
    grp.add_argument("--search", action="store_true")
    p.add_argument("--budget", type=int, help="search node budget")
    p.set_defaults(func=_cmd_s_structure)

    p = sub.add_parser("ahk-check", help="is every edge on a short cycle")
    _graph_arg(p)
    p.set_defaults(func=_cmd_ahk_check)

    p = sub.add_parser("classify", help="census a stream of graph6 lines")
    p.add_argument("stream", help="file of graph6 lines, or - for stdin")
    p.add_argument("--lmax", type=int, default=4)
    p.add_argument("--budget", type=int, help="search node budget per graph")
    p.set_defaults(func=_cmd_classify)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # The library makes no reference cycles (tests/test_gc.py), so a pass
    # of the cyclic collector over its many small tables frees nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (
        ParseError, ValidationError, CertificateError, OSError, UnicodeDecodeError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except MaghomError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
