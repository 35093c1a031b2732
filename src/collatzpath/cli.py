"""Batch command-line front end.

Every analysis the library performs is reachable here, and everything is
emitted as CSV (or TSV) so downstream plotting is two columns away.  Exit
codes: 0 success, 1 verification mismatch, 2 usage or expression parse
error, 3 runtime failure (guard trips, checkpoint damage, I/O), 130
interrupted (Ctrl-C), reported in one line.

Every number typed here is read in the notation's decimal form
(expressions.parse_decimal): each integer option, the lucas-lehmer
exponent and both halves of --ranks.  A sign, whitespace or another
script's digits is a usage error.  Rank bounds are checked by the catalog
alone (catalog_entries), for --ranks and the stats bounds alike.
"""

from __future__ import annotations

import argparse
import os
import sys
from csv import QUOTE_MINIMAL, writer as csv_writer
from typing import TextIO

from .catalog import catalog_entries, lucas_lehmer
from .checkpoint import checkpoint_read, checkpoint_write
from .engine import (
    DEFAULT_CYCLE_GUARD,
    PathResult,
    advance,
    initial_state,
    path_length,
    trace,
)
from .errors import CollatzPathError, OriginMismatch, ParseError, RangeError
from .expressions import NumberExpression, decimal_text, parse_decimal, parse_expression
from .heuristics import fit_loglog, mersenne_heuristic
from .survey import (
    SetLabel,
    index_set,
    mersenne_path_lengths,
    ratio_stats,
    reference_d,
    scan_ratios,
)

DEFAULT_CHECKPOINT_INTERVAL = 10**7

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130

# Above this exponent a recomputation stops being an interactive wait:
# D(2**n - 1) takes about 6 s at n = 3M and 21 s at n = 7M on one core of
# a 2-vCPU x86_64 VM under Python 3.11.
_SLOW_EXPONENT = 4_000_000


class _UsageError(Exception):
    """Flag combinations argparse cannot catch on its own."""


def _int_at_least(minimum: int = 0):
    # The decimal form has no sign, so the default minimum checks nothing.
    def parse(text: str) -> int:
        value = parse_decimal(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return value

    # argparse names the type in its "invalid int value: ..." message,
    # which it prints for the ParseError (a ValueError) of a bad decimal.
    parse.__name__ = "int"
    return parse


def _available_cpus() -> int:
    # The CPUs this process may run on, which a container or taskset can
    # hold below the machine's count.
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bool_cell(flag: bool) -> str:
    return "true" if flag else "false"


def _make_writer(args: argparse.Namespace, out: TextIO):
    delimiter = "\t" if args.format == "tsv" else ","
    return csv_writer(out, delimiter=delimiter, lineterminator="\n", quoting=QUOTE_MINIMAL)


def parse_rank_range(text: str) -> tuple[int, int]:
    """Parse 'A..B' into an inclusive catalog rank range."""
    first, _, second = text.partition("..")
    try:
        low, high = parse_decimal(first), parse_decimal(second)
    except ParseError:
        raise _UsageError(f"--ranks expects A..B with decimal ranks, got {text!r}") from None
    try:
        catalog_entries(low, high)
    except RangeError as exc:
        raise _UsageError(str(exc)) from None
    return low, high


def _run_checkpointed(
    expr: NumberExpression, path: str, interval: int, guard: int
) -> PathResult:
    if os.path.exists(path):
        state = checkpoint_read(path).to_state()
        if state.origin != expr:
            raise OriginMismatch(
                f"checkpoint is for {state.origin.source_text!r}, "
                f"refusing to resume {expr.source_text!r}"
            )
    else:
        state = initial_state(expr.resolve(), origin=expr)
    while not state.halted:
        state = advance(state, interval, cycle_guard=guard)
        checkpoint_write(path, state)
    return PathResult(
        d=state.steps,
        odd_steps=state.odd_steps,
        even_steps=state.even_steps,
        peak_bit_length=state.peak_bit_length,
    )


def _cmd_pathlen(args: argparse.Namespace, out: TextIO) -> int:
    expr = parse_expression(args.expr)
    if args.checkpoint:
        result = _run_checkpointed(expr, args.checkpoint, args.checkpoint_interval, args.cycle_guard)
    else:
        result = path_length(expr.resolve(), cycle_guard=args.cycle_guard)
    exponent = expr.mersenne_exponent()
    header = ["expr", "n", "d", "odd_steps", "even_steps", "peak_bit_length"]
    row = [
        expr.source_text,
        "" if exponent is None else exponent,
        result.d,
        result.odd_steps,
        result.even_steps,
        result.peak_bit_length,
    ]
    if args.trace_limit is not None:
        entries = trace(expr.resolve(), args.trace_limit, cycle_guard=args.cycle_guard)
        header.append("trace")
        row.append(" ".join(decimal_text(v) for v in entries))
    w = _make_writer(args, out)
    w.writerow(header)
    w.writerow(row)
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace, out: TextIO) -> int:
    entries = catalog_entries()
    if args.csv:
        w = _make_writer(args, out)
        w.writerow(["rank", "exponent", "reference_d", "reference_ratio"])
        for e in entries:
            w.writerow([e.rank, e.exponent, e.reference_d, e.reference_ratio])
        return EXIT_OK
    print(f"{'rank':>4}  {'exponent':>10}  {'reference_d':>12}  {'reference_ratio':>15}", file=out)
    for e in entries:
        print(f"{e.rank:>4}  {e.exponent:>10}  {e.reference_d:>12}  {e.reference_ratio:>15}", file=out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, out: TextIO) -> int:
    rows = catalog_entries(*parse_rank_range(args.ranks))
    d_values = mersenne_path_lengths([e.exponent for e in rows], args.jobs, args.cycle_guard)
    w = _make_writer(args, out)
    w.writerow(["rank", "exponent", "reference_d", "computed_d", "match"])
    mismatched = False
    for entry, computed in zip(rows, d_values):
        ok = computed == entry.reference_d
        mismatched = mismatched or not ok
        w.writerow([entry.rank, entry.exponent, entry.reference_d, computed, _bool_cell(ok)])
    return EXIT_MISMATCH if mismatched else EXIT_OK


def _cmd_scan(args: argparse.Namespace, out: TextIO) -> int:
    records = scan_ratios(
        args.center,
        args.each_side,
        args.stride,
        args.primes_only,
        jobs=args.jobs,
        cycle_guard=args.cycle_guard,
    )
    w = _make_writer(args, out)
    w.writerow(["n", "is_prime", "d", "ratio"])
    for r in records:
        w.writerow([r.exponent, _bool_cell(r.is_prime_index), r.d, r.ratio])
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace, out: TextIO) -> int:
    try:
        rows = index_set(args.set_label, args.from_rank, args.to_rank)
    except RangeError as exc:
        raise _UsageError(str(exc)) from None
    if len(rows.indices) < 2:
        raise _UsageError(
            f"statistics need at least 2 indices, set {rows.label.value} has "
            f"{len(rows.indices)} over these ranks"
        )
    pairs = None if args.recompute else reference_d(rows)
    if pairs is None:
        top = max(rows.indices)
        if top > _SLOW_EXPONENT:
            print(
                f"warning: recomputing D up to n={top} runs for minutes to hours; "
                f"reference values cover the default ranges",
                file=sys.stderr,
            )
        d_values = mersenne_path_lengths(rows.indices, args.jobs, args.cycle_guard)
        pairs = list(zip(rows.indices, d_values))
    stats = ratio_stats(pairs)
    w = _make_writer(args, out)
    w.writerow(["label", "count", "mean", "sample_variance"])
    w.writerow([rows.label.value, stats.count, stats.mean, stats.sample_variance])
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace, out: TextIO) -> int:
    result = fit_loglog([(e.rank, e.exponent) for e in catalog_entries()])
    w = _make_writer(args, out)
    w.writerow(["intercept", "slope", "rms_residual"])
    w.writerow([result.intercept, result.slope, result.rms_residual])
    return EXIT_OK


def _cmd_heuristic(args: argparse.Namespace, out: TextIO) -> int:
    estimate = mersenne_heuristic(args.n)
    w = _make_writer(args, out)
    w.writerow(["n", "estimate"])
    w.writerow([args.n, estimate])
    return EXIT_OK


def _cmd_lucas_lehmer(args: argparse.Namespace, out: TextIO) -> int:
    verdict = _bool_cell(lucas_lehmer(args.p))
    w = _make_writer(args, out)
    w.writerow(["p", "mersenne_prime"])
    w.writerow([args.p, verdict])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "tsv"), default="csv",
        help="output delimiter family (default csv)",
    )
    common.add_argument(
        "--jobs", type=_int_at_least(1), default=_available_cpus(), metavar="J",
        help="processes that compute batch rows at once; above 1 they are forked "
        "children (default: available parallelism)",
    )
    common.add_argument(
        "--cycle-guard", type=_int_at_least(1), default=DEFAULT_CYCLE_GUARD, metavar="STEPS",
        help="step ceiling before an iteration fails loudly (default 10^12)",
    )

    parser = argparse.ArgumentParser(
        prog="collatzpath",
        description="Collatz path lengths, the Mersenne catalog, and survey statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pathlen", parents=[common], help="compute D(x) for one expression")
    p.add_argument("expr", help="e.g. 27, 2^20, M9689, Mp31")
    p.add_argument("--checkpoint", metavar="FILE", help="persist progress and resume from FILE")
    p.add_argument(
        "--checkpoint-interval", type=_int_at_least(1), default=DEFAULT_CHECKPOINT_INTERVAL,
        metavar="N", help="steps between checkpoint writes (default 10^7)",
    )
    p.add_argument(
        "--trace-limit", type=_int_at_least(), metavar="K",
        help="also emit the first K visited values",
    )
    p.set_defaults(handler=_cmd_pathlen)

    p = sub.add_parser("catalog", parents=[common], help="dump the 47-row reference table")
    p.add_argument("--csv", action="store_true", help="machine format instead of aligned text")
    p.set_defaults(handler=_cmd_catalog)

    p = sub.add_parser("verify", parents=[common], help="recompute catalog rows and compare")
    p.add_argument("--ranks", required=True, metavar="A..B", help="inclusive rank range, e.g. 1..17")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", parents=[common], help="D and D/n over a window of exponents")
    p.add_argument("--center", type=_int_at_least(2), required=True, metavar="N")
    p.add_argument("--each-side", type=_int_at_least(), default=25, metavar="C")
    p.add_argument("--stride", type=_int_at_least(1), default=5, metavar="S")
    p.add_argument("--primes-only", action="store_true")
    p.set_defaults(handler=_cmd_scan)

    p = sub.add_parser("stats", parents=[common], help="ratio statistics for a comparison set")
    p.add_argument("--set", required=True, choices=[label.value for label in SetLabel],
                   dest="set_label")
    p.add_argument("--from-rank", type=_int_at_least(), metavar="K")
    p.add_argument("--to-rank", type=_int_at_least(), metavar="L")
    p.add_argument(
        "--recompute", action="store_true",
        help="measure D with the engine instead of using reference values",
    )
    p.set_defaults(handler=_cmd_stats)

    p = sub.add_parser("fit", parents=[common], help="log-log least-squares line of the catalog")
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("heuristic", parents=[common], help="closed-form estimate of D(2^n - 1)")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.set_defaults(handler=_cmd_heuristic)

    p = sub.add_parser("lucas-lehmer", parents=[common], help="primality of 2^p - 1")
    p.add_argument("p", type=_int_at_least())
    p.set_defaults(handler=_cmd_lucas_lehmer)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.handler(args, sys.stdout)
    except KeyboardInterrupt:
        print("collatzpath: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ParseError as exc:
        print(f"collatzpath: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"collatzpath: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CollatzPathError as exc:
        print(f"collatzpath: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"collatzpath: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:
        # Anything unforeseen is a runtime failure, reported in one line
        # rather than a traceback.
        print(f"collatzpath: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
