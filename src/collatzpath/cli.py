"""Batch command-line front end.

Every analysis the library performs is reachable here, and every table is
emitted as CSV (or TSV) so downstream plotting is two columns away; only
catalog without --csv prints aligned text for reading.  Exit
codes: 0 success, 1 verification mismatch, 2 usage or expression parse
error, 3 runtime failure (guard trips, checkpoint damage, I/O, memory), 130
interrupted (Ctrl-C), each reported in one line, and 141 (128 + SIGPIPE,
as 130 is 128 + SIGINT) with nothing printed when the reader of stdout has
closed it.

Every number typed here is read in the notation's decimal form
(expressions.parse_decimal): each integer option, the lucas-lehmer
exponent and both halves of --ranks.  A sign, whitespace or another
script's digits is a usage error.  Rank bounds are checked by the catalog
alone (catalog_entries), for --ranks and the stats bounds alike.

Of the shared flags --format, --jobs and --cycle-guard, each subcommand
takes only those its handler reads: --jobs only verify, scan and stats,
--cycle-guard those and pathlen.  Any other is an unrecognized argument
(exit 2).  A flag that only means something beside another is a usage
error (exit 2) without it: catalog --format without --csv, whose aligned
text has no delimiter, and pathlen --checkpoint-interval without
--checkpoint.  Every table but catalog's aligned text is written by
_write_table.

Each handler imports the module it runs, so a command loads only what it
needs: verify, scan and stats import survey, fit and heuristic import
heuristics, and pathlen imports checkpoint only under --checkpoint.  The
modules the pathlen path and main's error handling need are imported at
the top.

pathlen has one run: it resumes the --checkpoint file when there is one
(else starts at the expression's value) and calls advance until the value
halts.  A plain run is one advance to the cycle guard; only a run that
writes a checkpoint takes checkpoint-interval budgets, writing the file
before the first and after each, so an unwritable file fails the run
before any stepping.  The state after B rule applications depends on B
alone, so a checkpointed run prints what a plain one prints.
"""

from __future__ import annotations

import argparse
import os
import sys
from csv import QUOTE_MINIMAL, writer as csv_writer

from .catalog import catalog_entries, lucas_lehmer
from .engine import DEFAULT_CYCLE_GUARD, advance, initial_state, trace
from .errors import CollatzPathError, OriginMismatch, ParseError, RangeError
from .expressions import decimal_text, parse_decimal, parse_expression

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Iterable

DEFAULT_CHECKPOINT_INTERVAL = 10**7

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141

# Above this exponent a recomputation stops being an interactive wait:
# D(2**n - 1) took about 10 s at n = 2,976,221 and 41 CPU-s at
# n = 6,972,607 on one core of a 2-vCPU x86_64 VM under Python 3.11.
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


def _write_table(args: argparse.Namespace, header: list, rows: Iterable[list]) -> None:
    # rows may be a generator: the rows before a failing one print before its error.
    delimiter = "\t" if args.format == "tsv" else ","
    w = csv_writer(sys.stdout, delimiter=delimiter, lineterminator="\n", quoting=QUOTE_MINIMAL)
    w.writerow(header)
    w.writerows(rows)


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


def _cmd_pathlen(args: argparse.Namespace) -> int:
    if args.checkpoint == "":
        raise _UsageError("--checkpoint needs a file name")
    if args.checkpoint is None and args.checkpoint_interval is not None:
        raise _UsageError("--checkpoint-interval needs --checkpoint")
    expr = parse_expression(args.expr)
    if args.checkpoint is None:
        # The budget path_length takes: a walk still running past it trips the guard.
        interval = args.cycle_guard + 1
    else:
        from .checkpoint import checkpoint_read, checkpoint_write

        interval = args.checkpoint_interval or DEFAULT_CHECKPOINT_INTERVAL
    if args.checkpoint is not None and os.path.exists(args.checkpoint):
        state = checkpoint_read(args.checkpoint).to_state()
        if state.origin != expr:
            raise OriginMismatch(
                f"checkpoint is for {state.origin.source_text!r}, "
                f"refusing to resume {expr.source_text!r}"
            )
    else:
        state = initial_state(expr.resolve(), origin=expr)
    # A checkpointed run writes its starting state first, so a file that
    # cannot be written fails the run before any stepping.
    while True:
        if args.checkpoint is not None:
            checkpoint_write(args.checkpoint, state)
        if state.halted:
            break
        state = advance(state, interval, cycle_guard=args.cycle_guard)
    exponent = expr.mersenne_exponent()
    header = ["expr", "n", "d", "odd_steps", "even_steps", "peak_bit_length"]
    row = [
        expr.source_text,
        "" if exponent is None else exponent,
        state.steps,
        state.odd_steps,
        state.even_steps,
        state.peak_bit_length,
    ]
    if args.trace_limit is not None:
        entries = trace(expr.resolve(), args.trace_limit, cycle_guard=args.cycle_guard)
        header.append("trace")
        row.append(" ".join(decimal_text(v) for v in entries))
    _write_table(args, header, [row])
    return EXIT_OK


def _cmd_catalog(args: argparse.Namespace) -> int:
    if args.format is not None and not args.csv:
        raise _UsageError(f"--format {args.format} needs --csv")
    entries = catalog_entries()
    if args.csv:
        _write_table(args, ["rank", "exponent", "reference_d", "reference_ratio"],
                     ([e.rank, e.exponent, e.reference_d, e.reference_ratio] for e in entries))
        return EXIT_OK
    print(f"{'rank':>4}  {'exponent':>10}  {'reference_d':>12}  {'reference_ratio':>15}")
    for e in entries:
        print(f"{e.rank:>4}  {e.exponent:>10}  {e.reference_d:>12}  {e.reference_ratio:>15}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .survey import mersenne_path_lengths

    entries = catalog_entries(*parse_rank_range(args.ranks))
    d_values = mersenne_path_lengths([e.exponent for e in entries], args.jobs, args.cycle_guard)
    matches = []

    def rows():
        for entry, computed in zip(entries, d_values):
            matches.append(computed == entry.reference_d)
            yield [entry.rank, entry.exponent, entry.reference_d, computed, _bool_cell(matches[-1])]

    _write_table(args, ["rank", "exponent", "reference_d", "computed_d", "match"], rows())
    return EXIT_OK if all(matches) else EXIT_MISMATCH


def _cmd_scan(args: argparse.Namespace) -> int:
    from .survey import scan_ratios

    records = scan_ratios(
        args.center,
        args.each_side,
        args.stride,
        args.primes_only,
        jobs=args.jobs,
        cycle_guard=args.cycle_guard,
    )
    _write_table(args, ["n", "is_prime", "d", "ratio"],
                 ([r.exponent, _bool_cell(r.is_prime_index), r.d, r.ratio] for r in records))
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    from .survey import index_set, mersenne_path_lengths, ratio_stats, reference_d

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
    _write_table(args, ["label", "count", "mean", "sample_variance"],
                 [[rows.label.value, stats.count, stats.mean, stats.sample_variance]])
    return EXIT_OK


def _cmd_fit(args: argparse.Namespace) -> int:
    from .heuristics import fit_loglog

    result = fit_loglog([(e.rank, e.exponent) for e in catalog_entries()])
    _write_table(args, ["intercept", "slope", "rms_residual"],
                 [[result.intercept, result.slope, result.rms_residual]])
    return EXIT_OK


def _cmd_heuristic(args: argparse.Namespace) -> int:
    from .heuristics import mersenne_heuristic

    _write_table(args, ["n", "estimate"], [[args.n, mersenne_heuristic(args.n)]])
    return EXIT_OK


def _cmd_lucas_lehmer(args: argparse.Namespace) -> int:
    _write_table(args, ["p", "mersenne_prime"], [[args.p, _bool_cell(lucas_lehmer(args.p))]])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # The flags several subcommands share; each subcommand takes only the
    # ones its handler reads, so any other is an unrecognized argument.
    # --format has no default, so catalog can tell a typed one from none;
    # _write_table writes commas for anything but tsv.
    shared = {
        "--format": dict(choices=("csv", "tsv"),
                         help="output delimiter family (default csv)"),
        "--jobs": dict(
            type=_int_at_least(1), default=_available_cpus(), metavar="J",
            help="processes that compute batch rows at once; above 1 they are forked "
            "children (default: available parallelism)"),
        "--cycle-guard": dict(
            type=_int_at_least(1), default=DEFAULT_CYCLE_GUARD, metavar="STEPS",
            help="step ceiling before an iteration fails loudly (default 10^12)"),
    }

    parser = argparse.ArgumentParser(
        prog="collatzpath",
        description="Collatz path lengths, the Mersenne catalog, and survey statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(handler=handler)
        return p

    p = command("pathlen", _cmd_pathlen, "compute D(x) for one expression",
                "--format", "--cycle-guard")
    p.add_argument("expr", help="e.g. 27, 2^20, M9689, Mp31")
    p.add_argument("--checkpoint", metavar="FILE", help="persist progress and resume from FILE")
    p.add_argument(
        "--checkpoint-interval", type=_int_at_least(1), metavar="N",
        help="steps between checkpoint writes (default 10^7)",
    )
    p.add_argument(
        "--trace-limit", type=_int_at_least(), metavar="K",
        help="also emit the first K visited values",
    )

    p = command("catalog", _cmd_catalog, "dump the 47-row reference table", "--format")
    p.add_argument("--csv", action="store_true", help="machine format instead of aligned text")

    p = command("verify", _cmd_verify, "recompute catalog rows and compare", *shared)
    p.add_argument("--ranks", required=True, metavar="A..B", help="inclusive rank range, e.g. 1..17")

    p = command("scan", _cmd_scan, "D and D/n over a window of exponents", *shared)
    p.add_argument("--center", type=_int_at_least(2), required=True, metavar="N")
    p.add_argument("--each-side", type=_int_at_least(), default=25, metavar="C")
    p.add_argument("--stride", type=_int_at_least(1), default=5, metavar="S")
    p.add_argument("--primes-only", action="store_true")

    p = command("stats", _cmd_stats, "ratio statistics for a comparison set", *shared)
    # survey.SetLabel's values, written out so that building the parser
    # does not import survey.
    p.add_argument("--set", required=True, choices=("mersenne", "A", "B", "C", "D"),
                   dest="set_label")
    p.add_argument("--from-rank", type=_int_at_least(), metavar="K")
    p.add_argument("--to-rank", type=_int_at_least(), metavar="L")
    p.add_argument(
        "--recompute", action="store_true",
        help="measure D with the engine instead of using reference values",
    )

    command("fit", _cmd_fit, "log-log least-squares line of the catalog", "--format")

    p = command("heuristic", _cmd_heuristic, "closed-form estimate of D(2^n - 1)", "--format")
    p.add_argument("--n", type=_int_at_least(1), required=True)

    p = command("lucas-lehmer", _cmd_lucas_lehmer, "primality of 2^p - 1", "--format")
    p.add_argument("p", type=_int_at_least())

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone, so there is no one to tell.  Exit
        # as a SIGPIPE would, and point stdout at devnull so the flush at
        # exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
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
    except MemoryError:
        # A MemoryError carries no message of its own.
        print("collatzpath: error: out of memory", file=sys.stderr)
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
