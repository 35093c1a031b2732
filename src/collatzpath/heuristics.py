"""Closed-form path-length estimators and the catalog log-log fit.

A long path spends its time alternating one 3x+1 step with on average two
halvings; each such round multiplies the value by roughly 3/4, so a random
start N needs about ln N / ln(4/3) rounds of 3 steps each.  That gives the
drift constant c0 = 3 / ln(4/3).

A Mersenne start 2**n - 1 is special: it first climbs to 3**n - 1 in
exactly 2n steps (the test suite walks this one rule at a time for n up
to 200), and from there the random heuristic applies with
ln(3**n) = n ln 3.  Stacking the two regimes yields

    D(2**n - 1)  ~  2n + c0 * n * ln 3  =  (2 + c0 ln 3) * n  ~  13.45652 n

which the catalog ratios track to within half a percent from rank 13 up.
"""

from __future__ import annotations

import math

from .catalog import mersenne_number
from .engine import initial_state, raw_advance
from .errors import DegenerateFitError, DomainError, RangeError, Record, checked_int, int_text

#: Expected rule applications per unit of ln N for a random start.
C0 = 3.0 / math.log(4.0 / 3.0)

#: Expected D(2**n - 1) per unit of n: the climb plus the descent.
MERSENNE_SLOPE = 2.0 + C0 * math.log(3.0)


class FitResult(Record):
    """Least-squares line y = intercept + slope * k and its residual RMS."""

    __slots__ = ("intercept", "slope", "rms_residual")

    def __init__(self, intercept: float, slope: float, rms_residual: float) -> None:
        self._set_fields(intercept, slope, rms_residual)


def heuristic_path_length(ln_n: float) -> float:
    """Estimated D(N) for a random start, given ln N.

    The caller supplies the natural log of N so that huge values never need
    materializing; bit_length(N) * ln 2 is a fine summary for big N.
    Raises DomainError for a non-number (text included), infinity or NaN,
    and RangeError for an int too large to be a float or an ln_n whose
    estimate is not a finite float.
    """
    if isinstance(ln_n, (str, bytes, bytearray)):
        raise DomainError(f"ln_n must be a number, got {type(ln_n).__name__}")
    try:
        ln_n = float(ln_n)
    except OverflowError:
        raise RangeError(f"ln_n must fit a float, got {int_text(int(ln_n), 'value')}") from None
    except (TypeError, ValueError):
        raise DomainError(f"ln_n must be a number, got {type(ln_n).__name__}") from None
    if not math.isfinite(ln_n):
        raise DomainError(f"ln_n must be finite, got {ln_n}")
    if ln_n < 0.0:
        raise DomainError(f"ln_n must be >= 0, got {ln_n}")
    estimate = C0 * ln_n
    if math.isinf(estimate):
        raise RangeError(f"ln_n is too large for a finite estimate, got {ln_n}")
    return estimate


def mersenne_heuristic(n: int) -> float:
    """Estimated D(2**n - 1) = (2 + c0 ln 3) * n.

    Raises RangeError for an n too large to be a float, or whose estimate
    is not a finite float.
    """
    n = checked_int(n, "n", 1)
    try:
        estimate = MERSENNE_SLOPE * n
    except OverflowError:
        raise RangeError(f"n must fit a float, got {int_text(n, 'value')}") from None
    if math.isinf(estimate):
        raise RangeError(f"n is too large for a finite estimate, got {int_text(n, 'value')}")
    return estimate


def verify_transit_lemma(n: int) -> bool:
    """Check that the engine takes 2**n - 1 to 3**n - 1 in exactly 2n steps.

    Also checks the intermediate landmark: after the first two steps the
    value is 3 * 2**(n-1) - 1 (for n >= 2).  Uses the non-halting stepper,
    since for n = 1 the path runs through 1 itself.  That stepper takes a
    long run of trailing one bits by the closed form of this very lemma, so
    this checks the engine against the lemma, not the lemma itself; the
    test suite's one-rule-at-a-time walk is the independent check.
    """
    n = checked_int(n, "n", 1)
    state = initial_state(mersenne_number(n))
    after_two = raw_advance(state, 2)
    if n >= 2 and after_two.current != 3 * (1 << (n - 1)) - 1:
        return False
    final = raw_advance(after_two, 2 * n - 2)
    return final.current == 3**n - 1


def _double_log2_mersenne(n: int) -> float:
    # log2(log2(2**n - 1)) computed as log2(n + log2(1 - 2**-n)), finite
    # for n >= 2; the inner correction underflows to 0 for n beyond a few
    # hundred, never matters above double precision for n >= 53, and is
    # exact where it does matter.
    return math.log2(n + math.log2(1.0 - 2.0**-n))


def fit_loglog(entries: list[tuple[int, int]]) -> FitResult:
    """Ordinary least squares of log2(log2(2**n - 1)) against rank k.

    entries is a list of (rank, exponent) pairs; the fit over the full
    47-row catalog gives intercept 0.92757 and slope 0.55715 to five
    figures.  Invariant under permutation of the entries.  A rank or
    exponent too large to be a float raises RangeError.
    """
    points = []
    for rank, exponent in entries:
        rank = checked_int(rank, "rank", 1)
        exponent = checked_int(exponent, "exponent", 2)
        try:
            points.append((float(rank), _double_log2_mersenne(exponent)))
        except OverflowError:
            raise RangeError(
                "rank and exponent must fit a float, got "
                f"({int_text(rank, 'value')}, {int_text(exponent, 'value')})"
            ) from None
    if len(points) < 2:
        raise DegenerateFitError(f"need at least 2 points, got {len(points)}")
    k_mean = math.fsum(k for k, _ in points) / len(points)
    y_mean = math.fsum(y for _, y in points) / len(points)
    sxx = math.fsum((k - k_mean) ** 2 for k, _ in points)
    if sxx == 0.0:
        raise DegenerateFitError("all ranks are equal; the slope is undefined")
    sxy = math.fsum((k - k_mean) * (y - y_mean) for k, y in points)
    slope = sxy / sxx
    intercept = y_mean - slope * k_mean
    rms = math.sqrt(
        math.fsum((y - (intercept + slope * k)) ** 2 for k, y in points) / len(points)
    )
    return FitResult(intercept=intercept, slope=slope, rms_residual=rms)
