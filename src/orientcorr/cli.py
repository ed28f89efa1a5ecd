"""Command-line front end.

Exit codes: 0 success, 2 usage error, 3 graph parse error, 4 enumeration
cap exceeded, 5 a `bounds` check failed, 141 stdout closed early (a broken
pipe, as if killed by SIGPIPE).  All exact values are printed as
decimal-digit strings or NUM/2^EXP rationals; floats appear only in display
columns.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import nullcontext

from .dyadic import DyadicProb, SignedDyadic, TripleCorrelation, ratio_to_decimal
from .graphs import Graph, GraphFormatError, Triple, parse_edge_list, parse_graph6
from .enumeration import DEFAULT_CAP, OverCapError, check_cap, count_events, resolve_threads
from . import closed_form, complete
from .classify import CLASSES, classify, classify_stream, is_outerplanar
from .montecarlo import mc_estimate

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_OVER_CAP = 4
EXIT_CHECK_FAILED = 5
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _record(command: str, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, **fields}


def _dyadic_json(p: DyadicProb) -> dict:
    return {"exact": str(p), "float": float(p)}

def _signed_json(p: SignedDyadic) -> dict:
    return {"sign": p.sign, "magnitude": str(p.magnitude), "float": float(p)}

def _correlation_json(cor: TripleCorrelation) -> dict:
    return {
        "p_c": _dyadic_json(cor.p_c),
        "p_d": _dyadic_json(cor.p_d),
        "p_cd": _dyadic_json(cor.p_cd),
        "cov": _signed_json(cor.cov),
    }


def _usage_error(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _emit(args, record: dict, human: str) -> None:
    if args.json:
        print(json.dumps(record))
    else:
        print(human)


def _open_input(path: str):
    """The file at `path` for reading; `-` is stdin, which stays open afterwards."""
    return nullcontext(sys.stdin) if path == "-" else open(path)


def _load_graph_triple(args) -> tuple[Graph, Triple]:
    if args.graph6 is not None:
        g = parse_graph6(args.graph6)
    else:
        with _open_input(args.edges) as handle:
            g = parse_edge_list(handle.read())
    return g, Triple(args.a, args.s, args.b)


def _triple_fields(g: Graph, t: Triple) -> dict:
    return {"n": g.n, "m": g.m, **t._asdict()}


def _triple_header(g: Graph, t: Triple) -> str:
    return f"n = {g.n}, m = {g.m}, triple (a={t.a}, s={t.s}, b={t.b})"


def _correlation_lines(cor: TripleCorrelation) -> str:
    return (
        f"p_c   = {cor.p_c}  ({float(cor.p_c):.10g})\n"
        f"p_d   = {cor.p_d}  ({float(cor.p_d):.10g})\n"
        f"p_cd  = {cor.p_cd}  ({float(cor.p_cd):.10g})\n"
        f"cov   = {cor.cov}  ({float(cor.cov):.10g})"
    )


TABLE_HEADER = ("n", "scaled_single", "p_single", "scaled_joint", "p_joint", "rel_cov")


def _dyadic_decimal(p: DyadicProb, places: int) -> str:
    return ratio_to_decimal(p.num, 1 << p.exp, places)


def _table_cells(r: complete.KnRow) -> tuple:
    """One table row in TABLE_HEADER order; None where n is too small for a value."""
    rel_cov = r.rel_cov_ratio()
    return (
        r.n,
        str(r.scaled_single),
        _dyadic_decimal(r.p_single, 4),
        str(r.scaled_joint) if r.scaled_joint is not None else None,
        _dyadic_decimal(r.p_joint, 7) if r.p_joint else None,
        ratio_to_decimal(*rel_cov, 6) if rel_cov is not None else None,
    )


def cmd_kn(args) -> int:
    if args.n < 2:
        return _usage_error(f"kn: need --n >= 2, got {args.n}")
    row = complete.table_row(args.n)
    _, scaled_single, single, scaled_joint, joint, rel_cov = _table_cells(row)
    record = _record(
        "kn",
        n=row.n,
        p_single=_dyadic_json(row.p_single),
        scaled_single=scaled_single,
        p_joint=_dyadic_json(row.p_joint) if row.p_joint else None,
        scaled_joint=scaled_joint,
        rel_cov=rel_cov,
    )
    lines = [
        f"n             = {row.n}",
        f"p_single      = {row.p_single}  ({single})",
        f"scaled_single = {scaled_single}",
    ]
    if row.p_joint is not None:
        lines += [
            f"p_joint       = {row.p_joint}  ({joint})",
            f"scaled_joint  = {scaled_joint}",
            f"rel_cov       = {rel_cov}",
        ]
    _emit(args, record, "\n".join(lines))
    return EXIT_OK


def cmd_table(args) -> int:
    if args.max_n < 2:
        return _usage_error(f"table: need --max-n >= 2, got {args.max_n}")
    cells = [_table_cells(row) for row in complete.table_rows(args.max_n)]
    record = _record("table", max_n=args.max_n, rows=[dict(zip(TABLE_HEADER, row)) for row in cells])
    lines = [TABLE_HEADER] + [tuple("-" if c is None else str(c) for c in row) for row in cells]
    # Each column fits its header and cells; n and the last two decimal
    # columns also keep their fixed minimum widths.
    widths = [max(least, *map(len, column))
              for least, column in zip((3, 0, 0, 0, 10, 10), zip(*lines))]
    _emit(args, record, "\n".join("  ".join(c.rjust(w) for c, w in zip(line, widths)) for line in lines))
    return EXIT_OK


def cmd_exact(args) -> int:
    g, t = _load_graph_triple(args)
    counts = count_events(g, t, cap=args.cap, threads=args.threads)
    cor = TripleCorrelation.from_scaled(counts.n_c, counts.n_d, counts.n_cd, counts.m)
    record = _record("exact", **_triple_fields(g, t),
                     n_c=counts.n_c, n_d=counts.n_d, n_cd=counts.n_cd, **_correlation_json(cor))
    human = (
        f"{_triple_header(g, t)}\n"
        f"counts over 2^{counts.m}: n_c={counts.n_c} n_d={counts.n_d} n_cd={counts.n_cd}\n"
        + _correlation_lines(cor)
    )
    _emit(args, record, human)
    return EXIT_OK


def cmd_cycle(args) -> int:
    by_arcs = args.c is not None or args.d is not None
    by_labels = args.a is not None or args.s is not None or args.b is not None
    if by_arcs == by_labels:
        return _usage_error("cycle: give either --c/--d or --a/--s/--b")
    try:
        if by_arcs:
            if args.c is None or args.d is None:
                return _usage_error("cycle: both --c and --d are required")
            triple = closed_form.CycleTriple(args.n, args.c, args.d)
        else:
            if None in (args.a, args.s, args.b):
                return _usage_error("cycle: all of --a/--s/--b are required")
            triple = closed_form.cycle_triple_from_labels(args.n, args.a, args.s, args.b)
    except ValueError as exc:
        return _usage_error(f"cycle: {exc}")
    cor = closed_form.cycle_correlation(triple)
    record = _record("cycle", **triple._asdict(), **_correlation_json(cor))
    human = (
        f"cycle n = {triple.n}, arcs c = {triple.c}, d = {triple.d}\n"
        + _correlation_lines(cor)
    )
    _emit(args, record, human)
    return EXIT_OK


def cmd_forest(args) -> int:
    g, t = _load_graph_triple(args)
    verdict = closed_form.forest_correlation(g, t)
    record = _record("forest", **_triple_fields(g, t), kind=verdict.kind,
                     **_correlation_json(verdict.correlation))
    human = (
        f"{_triple_header(g, t)}\n"
        f"kind  = {verdict.kind}\n"
        + _correlation_lines(verdict.correlation)
    )
    _emit(args, record, human)
    return EXIT_OK


def _classify_record_human(rec: dict) -> str:
    kind = rec["type"]
    if kind == "graph":
        flags = ",".join(roman for roman, field in CLASSES if rec[field])
        extra = f" outerplanar={rec['outerplanar']}" if "outerplanar" in rec else ""
        return (f"#{rec['index']} {rec['graph6']}: n={rec['n']} m={rec['m']} "
                f"neg={rec['neg_triples']} zero={rec['zero_triples']} pos={rec['pos_triples']} "
                f"classes={flags or '-'}{extra}")
    if kind == "skipped":
        return f"#{rec['index']} {rec['graph6']}: skipped ({rec['reason']})"
    if kind == "error":
        return f"#{rec['index']} {rec['graph6']}: error ({rec['error']})"
    return (f"summary: graphs={rec['graphs']} errors={rec['errors']} skipped={rec['skipped']} "
            + " ".join(f"{field}={rec[field]}" for _, field in CLASSES))


def cmd_classify(args) -> int:
    if args.stream is not None:
        if args.allow_disconnected:
            return _usage_error("classify: --allow-disconnected applies to --graph6 only")
        with _open_input(args.stream) as handle:
            for rec in classify_stream(handle, cap=args.cap, threads=args.threads,
                                       outerplanar=args.outerplanar):
                record = rec if rec["type"] == "summary" else _record("classify", **rec)
                _emit(args, record, _classify_record_human(rec))
        return EXIT_OK
    g = parse_graph6(args.graph6)
    flags = classify(g, cap=args.cap, threads=args.threads,
                     allow_disconnected=args.allow_disconnected)
    record = _record("classify", graph6=args.graph6, n=g.n, m=g.m, **flags._asdict())
    lines = [
        f"n = {g.n}, m = {g.m}",
        f"triples: neg={flags.neg_triples} zero={flags.zero_triples} pos={flags.pos_triples}",
        *(f"class {roman:<4}: {getattr(flags, field)}" for roman, field in CLASSES),
    ]
    if flags.disconnected:
        lines.append("note: graph is disconnected; cross-component events have probability 0")
    if args.outerplanar:
        record["outerplanar"] = is_outerplanar(g)
        lines.append(f"outerplanar: {record['outerplanar']}")
    _emit(args, record, "\n".join(lines))
    return EXIT_OK


def cmd_mc(args) -> int:
    g, t = _load_graph_triple(args)
    if args.samples < 1:
        return _usage_error(f"mc: need --samples >= 1, got {args.samples}")
    est = mc_estimate(g, t, args.samples, args.seed, threads=args.threads)
    record = _record("mc", **_triple_fields(g, t), **est._asdict())
    human = (
        f"{_triple_header(g, t)}\n"
        f"samples = {est.samples}, seed = {est.seed}\n"
        f"counts: c={est.count_c} d={est.count_d} cd={est.count_cd} neither={est.count_neither}\n"
        f"p_c_hat  = {est.p_c_hat:.6f}\n"
        f"p_d_hat  = {est.p_d_hat:.6f}\n"
        f"p_cd_hat = {est.p_cd_hat:.6f}\n"
        f"cov_hat  = {est.cov_hat:.6e}\n"
        f"se_cov   = {est.se_cov:.6e}"
    )
    _emit(args, record, human)
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.max_n < 3:
        return _usage_error(f"bounds: need --max-n >= 3, got {args.max_n}")
    rows = complete.bound_report(args.max_n)
    all_ok = all(r.all_ok() for r in rows)
    record = _record("bounds", max_n=args.max_n, all_ok=all_ok, rows=[r._asdict() for r in rows])
    def mark(flag):
        return "-" if flag is None else ("ok" if flag else "FAIL")
    lines = ["  n  s_lo  s_hi  j_lo  j_hi  sum2a sum2b  sum3  mdec  m<5  2^(n-2)*p1    2^(2n-3)*p2"]
    for r in rows:
        # margin_below_5 is informational (it first holds at n = 8), so it
        # renders yes/no rather than ok/FAIL.
        below = "-" if r.margin_below_5 is None else ("yes" if r.margin_below_5 else "no")
        lines.append(f"{r.n:3d}  "
                     + "  ".join(mark(f).ljust(4) for f in r.checks())
                     + f"  {below.ljust(3)}"
                     + f"  {r.single_scaled_limit:<12.8f}"
                     + (f"  {r.joint_scaled_limit:<12.8f}" if r.joint_scaled_limit is not None else "  -"))
    _emit(args, record, "\n".join(lines))
    if not all_ok:
        print("bounds: at least one check failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared afterwards.

    Every main() call parses with this one object, so callers must not add
    arguments to it.
    """
    # Global flags live on a parent parser so they are accepted both before
    # and after the subcommand name.  Defaults are SUPPRESS because the
    # subparser copies its whole namespace over the root one; main() fills
    # in unset values afterwards.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--threads", type=int, default=argparse.SUPPRESS,
                        help="worker threads, 0 = all cores (default 1)")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit JSON records")
    common.add_argument("--cap", type=int, default=argparse.SUPPRESS,
                        help=f"max edges for exhaustive enumeration (default {DEFAULT_CAP})")
    parser = argparse.ArgumentParser(
        prog="orientcorr",
        description="Exact and Monte Carlo correlation of path events in randomly oriented graphs",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    def add_graph_triple(p: argparse.ArgumentParser) -> None:
        # Read by _load_graph_triple: the graph from exactly one source.
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--graph6", help="graph6 string")
        src.add_argument("--edges", help="edge list file, '-' for stdin")
        p.add_argument("--a", type=int, required=True)
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--b", type=int, required=True)

    p = add_parser("kn", "exact no-path probabilities on a complete graph")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_kn)

    p = add_parser("table", "table of complete-graph rows, n = 2..max")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_table)

    p = add_parser("exact", "exhaustive correlation of one triple")
    add_graph_triple(p)
    p.set_defaults(func=cmd_exact)

    p = add_parser("cycle", "closed-form correlation on a cycle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=int, help="arc length a -> s")
    p.add_argument("--d", type=int, help="arc length s -> b")
    p.add_argument("--a", type=int, help="labeled vertex a on the standard cycle")
    p.add_argument("--s", type=int, help="labeled vertex s")
    p.add_argument("--b", type=int, help="labeled vertex b")
    p.set_defaults(func=cmd_cycle)

    p = add_parser("forest", "forest dichotomy for one triple")
    add_graph_triple(p)
    p.set_defaults(func=cmd_forest)

    p = add_parser("classify", "triple-sign census and class flags")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--graph6", help="graph6 string")
    src.add_argument("--stream", help="file of graph6 lines, '-' for stdin")
    p.add_argument("--outerplanar", action="store_true", help="add the outerplanarity probe")
    p.add_argument("--allow-disconnected", action="store_true",
                   help="census a disconnected --graph6 graph instead of refusing")
    p.set_defaults(func=cmd_classify)

    p = add_parser("mc", "Monte Carlo estimate for one triple")
    add_graph_triple(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_mc)

    p = add_parser("bounds", "exact checks of the analytic bounds")
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, default in (("json", False), ("cap", DEFAULT_CAP), ("threads", 1)):
        vars(args).setdefault(name, default)
    # Exact integers print in full at any size: the interpreter's limit on
    # int-to-str digits (Python 3.10.7 on) is lifted while the command runs.
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        # Checked here so that no subcommand ignores a bad global flag.
        resolve_threads(args.threads)
        check_cap(args.cap)
        code = args.func(args)
        # Flushed here so that a reader gone early is caught below, not at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The Python docs' SIGPIPE recipe: send what is still buffered to
        # devnull, so the flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OverCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVER_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
