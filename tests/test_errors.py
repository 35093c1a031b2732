"""The one integer check and the one exponent ceiling that public entry points
take their arguments through."""

import pickle
import re
from fractions import Fraction

import pytest

from collatzpath import (
    CollatzPathError,
    DomainError,
    ExpressionKind,
    IndexSet,
    IterationState,
    NumberExpression,
    RangeError,
    SetLabel,
    advance,
    catalog_entries,
    catalog_entry,
    fit_loglog,
    heuristic_path_length,
    index_set,
    initial_state,
    is_prime,
    lucas_lehmer,
    mersenne_heuristic,
    mersenne_number,
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
from collatzpath.errors import MAX_EXPONENT, checked_exponent, checked_int, int_text

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
    "IndexSet": lambda v: IndexSet(SetLabel.A, (v,)),
    "mersenne_set": lambda v: index_set("mersenne", v, 3),
    "generate_set_B": lambda v: index_set("B", 1, v),
    "ratio_stats": lambda v: ratio_stats([(v, 5), (2, 4)]),
    "scan_ratios": scan_ratios,
    "NumberExpression": lambda v: NumberExpression(ExpressionKind.DECIMAL, v),
    "checked_exponent": lambda v: checked_exponent(v, "n"),
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
    "mersenne_heuristic": lambda: mersenne_heuristic(10**400),
    "ratio_stats.variance": lambda: ratio_stats([(1, 10**300), (1, 0)]),
    # Each fits a float, but its estimate is infinite.
    "heuristic_path_length.inf_estimate": lambda: heuristic_path_length(1e308),
    "mersenne_heuristic.inf_estimate": lambda: mersenne_heuristic(2**1023),
}


@pytest.mark.parametrize("call", FLOAT_OVERFLOWS.values(), ids=FLOAT_OVERFLOWS.keys())
def test_float_overflow_is_a_range_error(call):
    with pytest.raises(RangeError):
        call()


def test_a_ratio_too_large_for_a_float_names_its_pair():
    with pytest.raises(
        RangeError, match=r"^d / n must fit a float, got \(1, a 2001-bit value 0x8000000000000000\.\.\.\)$"
    ):
        ratio_stats([(1, 2**2000), (2, 3)])


# Each builder of 2**n from a caller's exponent n; a scan builds it for
# the top of a window of one exponent each side of n - 1.
EXPONENT_BUILDERS = {
    "mersenne_number": mersenne_number,
    "NumberExpression.power_of_two": lambda n: NumberExpression(ExpressionKind.POWER_OF_TWO, n).resolve(),
    "NumberExpression.mersenne": lambda n: NumberExpression(ExpressionKind.MERSENNE_BY_EXPONENT, n).resolve(),
    "verify_transit_lemma": verify_transit_lemma,
    "scan_ratios": lambda n: scan_ratios(n - 1, 1, 1, False),
    "scan_ratios.primes_only": lambda n: scan_ratios(n - 1, 1, 1, True),
}

# (call, the exponent its refusal names).  10**30 is past what a shift can
# build (OverflowError); 2**34 and 2**63 - 1 are shifts that would have
# allocated gigabytes or ended in MemoryError.
SHIFT_OVERFLOWS = {
    "mersenne_number": (lambda: mersenne_number(10**30), 10**30),
    "NumberExpression.power_of_two": (
        lambda: parse_expression("2^" + "1" + "0" * 30).resolve(), 10**30,
    ),
    "NumberExpression.mersenne": (
        lambda: parse_expression("2^" + "1" + "0" * 30 + "-1").resolve(), 10**30,
    ),
    "scan_ratios": (lambda: scan_ratios(10**30, 1, 1, False), 10**30 + 1),
    **{
        f"{name}.{label}": (lambda build=build, n=n: build(n), n)
        for name, build in EXPONENT_BUILDERS.items()
        for label, n in (("2**34", 2**34), ("2**63-1", 2**63 - 1))
    },
    # 2**61 - 1 is prime, so the test reaches its modulus.
    "lucas_lehmer.2**61-1": (lambda: lucas_lehmer(2**61 - 1), 2**61 - 1),
    # The lowest possible top of a window of 10**11 on each side.
    "scan_ratios.wide": (lambda: scan_ratios(100, 10**11, 1, False), 10**11 + 100),
    "scan_ratios.wide.primes_only": (lambda: scan_ratios(100, 10**11, 1, True), 10**11 + 100),
}


@pytest.mark.parametrize("call, n", SHIFT_OVERFLOWS.values(), ids=SHIFT_OVERFLOWS.keys())
def test_shift_overflow_is_a_range_error_naming_the_exponent(call, n):
    message = f"n is too large for 2**n (at most {MAX_EXPONENT}), got {int_text(n, 'value')}"
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        call()


def test_the_exponent_ceiling_is_inclusive():
    assert MAX_EXPONENT == 2**32
    assert checked_exponent(MAX_EXPONENT, "n") == MAX_EXPONENT
    with pytest.raises(RangeError, match="^n is too large for 2"):
        checked_exponent(MAX_EXPONENT + 1, "n")
    with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
        checked_exponent(0, "n", 1)


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
