"""The one integer check every public entry point takes its arguments through."""

import pickle
from fractions import Fraction

import pytest

from collatzpath import (
    CollatzPathError,
    DomainError,
    ExpressionKind,
    FitResult,
    IndexSet,
    IterationState,
    NumberExpression,
    Provenance,
    RangeError,
    SetLabel,
    advance,
    catalog_entries,
    catalog_entry,
    collatz_next,
    fit_line_indices,
    fit_loglog,
    generate_set_B,
    heuristic_path_length,
    initial_state,
    is_prime,
    lucas_lehmer,
    mersenne_heuristic,
    mersenne_number,
    mersenne_set,
    next_prime,
    odd_step_accelerated,
    parse_expression,
    path_length,
    primes_from,
    ratio_stats,
    raw_advance,
    scan_ratios,
    trace,
    verify_transit_lemma,
)
from collatzpath import errors
from collatzpath.errors import checked_int

# Past Python's 4300-digit str() limit, so only int_text can name it.
HUGE = -(2**20000)

ENTRY_POINTS = {
    "path_length": path_length,
    "path_length.cycle_guard": lambda v: path_length(27, cycle_guard=v),
    "advance": lambda v: advance(initial_state(27), v),
    "raw_advance": lambda v: raw_advance(initial_state(27), v),
    "trace": trace,
    "trace.max_entries": lambda v: trace(27, v),
    "initial_state": initial_state,
    "collatz_next": collatz_next,
    "odd_step_accelerated": odd_step_accelerated,
    "IterationState": lambda v: IterationState(current=v),
    "mersenne_number": mersenne_number,
    "is_prime": is_prime,
    "next_prime": next_prime,
    "catalog_entry": catalog_entry,
    "catalog_entries.from_rank": lambda v: catalog_entries(v, 3),
    "catalog_entries.to_rank": lambda v: catalog_entries(1, v),
    "primes_from.start": lambda v: primes_from(v, 1, 1, 1),
    "primes_from.count": lambda v: primes_from(10, v, 1, 1),
    "primes_from.stride": lambda v: primes_from(10, 1, v, 1),
    "primes_from.step": lambda v: primes_from(10, 1, 1, v),
    "lucas_lehmer": lucas_lehmer,
    "mersenne_heuristic": mersenne_heuristic,
    "verify_transit_lemma": verify_transit_lemma,
    "fit_loglog": lambda v: fit_loglog([(1, 5), (2, v)]),
    "IndexSet": lambda v: IndexSet(SetLabel.A, (v,), Provenance.GENERATED),
    "mersenne_set": lambda v: mersenne_set(v, 3),
    "generate_set_B": lambda v: generate_set_B(1, v),
    "fit_line_indices": lambda v: fit_line_indices(FitResult(0.9, 0.55, 0.0), (v,)),
    "ratio_stats": lambda v: ratio_stats([(v, 5), (2, 4)]),
    "scan_ratios": scan_ratios,
    "NumberExpression": lambda v: NumberExpression(ExpressionKind.DECIMAL, v),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_bad_integers_raise_package_errors(call):
    with pytest.raises(CollatzPathError):
        call(1.5)
    with pytest.raises(CollatzPathError, match="20001-bit"):
        call(HUGE)


def test_checked_int_messages():
    assert checked_int(-5, "n") == -5
    with pytest.raises(DomainError, match="^n must be an integer, got float$"):
        checked_int(1.0, "n")
    with pytest.raises(DomainError, match="^n must be >= 1, got -5$"):
        checked_int(-5, "n", 1)
    with pytest.raises(DomainError, match=r"^n must be >= 1, got a 20001-bit value -0x8000"):
        checked_int(HUGE, "n", 1)


FLOAT_OVERFLOWS = {
    "heuristic_path_length": lambda: heuristic_path_length(2**20000),
    "heuristic_path_length.Fraction": lambda: heuristic_path_length(Fraction(2**20000)),
    "fit_loglog.rank": lambda: fit_loglog([(2**20000, 5), (1, 7)]),
    "fit_loglog.exponent": lambda: fit_loglog([(1, 2**20000), (2, 7)]),
    "fit_line_indices": lambda: fit_line_indices(FitResult(0.9, 0.55, 0.0), (10000,)),
    "fit_line_indices.huge": lambda: fit_line_indices(FitResult(0.9, 0.55, 0.0), (2**20000,)),
    "mersenne_heuristic": lambda: mersenne_heuristic(10**400),
}


@pytest.mark.parametrize("call", FLOAT_OVERFLOWS.values(), ids=FLOAT_OVERFLOWS.keys())
def test_float_overflow_is_a_range_error(call):
    with pytest.raises(RangeError):
        call()


# Exponents past what a shift can build: 1 << n raises OverflowError.
SHIFT_OVERFLOWS = {
    "mersenne_number": lambda: mersenne_number(10**30),
    "NumberExpression.power_of_two": lambda: parse_expression("2^" + "1" + "0" * 30).resolve(),
    "NumberExpression.mersenne": lambda: parse_expression("2^" + "1" + "0" * 30 + "-1").resolve(),
    "scan_ratios": lambda: scan_ratios(10**30, 1, 1, False),
}


@pytest.mark.parametrize("call", SHIFT_OVERFLOWS.values(), ids=SHIFT_OVERFLOWS.keys())
def test_shift_overflow_is_a_range_error_naming_the_exponent(call):
    with pytest.raises(RangeError, match=r"too large for 2\*\*n.* got a 100-bit value 0xc9f2c9cd"):
        call()


@pytest.mark.parametrize("bad", ["x", None, [1.0]])
def test_non_numbers_are_domain_errors(bad):
    with pytest.raises(DomainError, match="^ln_n must be a number, got "):
        heuristic_path_length(bad)


# float() would read these as 5.0.
@pytest.mark.parametrize("bad", ["5", b"5", bytearray(b"5")], ids=["str", "bytes", "bytearray"])
def test_numeric_text_is_not_a_number(bad):
    with pytest.raises(DomainError, match=f"^ln_n must be a number, got {type(bad).__name__}$"):
        heuristic_path_length(bad)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_numbers_are_domain_errors(bad):
    with pytest.raises(DomainError, match="^ln_n must be finite, got "):
        heuristic_path_length(bad)


# One instance of every exception class in errors.py, built the way the
# package raises it.
RAISED = [
    errors.CollatzPathError("base"),
    errors.DomainError("x must be >= 1, got 0"),
    errors.RangeError("rank must be in [1, 47], got 48"),
    errors.CycleGuardExceeded(2**20000 - 1, 10),
    errors.DegenerateFitError("need at least 2 points"),
    errors.DegenerateStatsError("need at least 2 pairs, got 1"),
    errors.ParseError("M1x", 2, "end of input"),
    errors.CheckpointError("checkpoint"),
    errors.VersionUnsupported("version 9"),
    errors.ChecksumMismatch("CRC-32 mismatch"),
    errors.MalformedField("steps"),
    errors.OriginMismatch("checkpoint is for 'M89'"),
]


def test_every_exception_class_is_covered():
    classes = {
        value for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, BaseException)
        and value.__module__ == errors.__name__
    }
    assert {type(exc) for exc in RAISED} == classes


@pytest.mark.parametrize("exc", RAISED, ids=lambda exc: type(exc).__name__)
def test_exceptions_survive_pickling(exc):
    # A forked share sends the exception a row raised through a pipe.
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)
