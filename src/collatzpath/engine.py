"""Arbitrary-precision Collatz iteration with exact step accounting.

The iteration rule: an odd value x maps to 3x+1, an even value maps to x/2.
The path length D(x) is the number of single rule applications needed to
reach 1 from x, so D(1) = 0, D(7) = 16, D(2**n) = n.

Every iterating entry point runs one private kernel, _walk, which never
applies rules one at a time.  While the value is wide it takes blocks of
_BLOCK steps of the shortcut map T(x) = x/2 or (3x+1)/2.  The parities of
the first k steps of T depend only on x mod 2**k (Terras 1976; Lagarias
1985), so writing x = 2**W * a + b with b < 2**W gives

    T**W(x) = 3**c * a + T**W(b),

where c counts the odd steps.  A pass over the small value b, eight steps
per lookup in a 256-entry table, yields c and T**W(b); one multiply-add on
the wide value then stands for W + c rule applications (c odd, W even).
Near 1 the kernel falls back to the fused step: for odd x it computes
y = 3x+1 and divides out all trailing zero bits of y at once.

Both modes keep every count exact.  A block a budget cannot afford is cut
short after the last step that fits, and a fused step is split after its
3x+1 half when only one rule application is left.  The peak bit length
over a block comes from a float estimate of each odd step's 3x+1 that is
exact unless it sits near an integer, in which case that value is built.

Values are plain Python ints throughout.  Termination of the iteration is
an open conjecture, so every iterating function takes a cycle_guard step
ceiling and raises CycleGuardExceeded rather than looping without bound.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CycleGuardExceeded, DomainError

if TYPE_CHECKING:
    from .expressions import NumberExpression

# The universe of values: arbitrary-precision non-negative integers.
Natural = int

DEFAULT_CYCLE_GUARD = 10**12

# Shortcut steps per block; a multiple of the table's 8.
_BLOCK = 512
_BLOCK_MASK = (1 << _BLOCK) - 1
# Blocks run only while the high part a = x >> _BLOCK has 64 bits or more,
# which keeps every value they produce above 1 and bounds the error of the
# peak estimate.
_BLOCK_MIN_BITS = _BLOCK + 64

_LOG2_3 = math.log2(3)
# A float estimate of a bit length this close to an integer is settled exactly.
_NEAR_INTEGER = 1e-7


def _eight_step_table() -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    # For r < 256: T**8(256*q + r) = 3**odd[r] * q + tail[r].
    mul, tail, odd = [], [], []
    for r in range(256):
        y, c = r, 0
        for _ in range(8):
            if y & 1:
                y = (3 * y + 1) >> 1
                c += 1
            else:
                y >>= 1
        mul.append(3**c)
        tail.append(y)
        odd.append(c)
    return tuple(mul), tuple(tail), tuple(odd)


_T8_MUL, _T8_TAIL, _T8_ODD = _eight_step_table()


@functools.cache
def _pow3(c: int) -> int:
    # c never exceeds _BLOCK, so the cache stays small.
    return 3**c


def _as_natural(value: object, minimum: int, name: str) -> int:
    """Coerce an integer-like to int and enforce a lower bound."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {type(value).__name__}") from None
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")
    return value


def _as_guard(cycle_guard: object) -> int:
    return _as_natural(cycle_guard, 1, "cycle_guard")


def _trailing_zeros(y: int) -> int:
    # 2-adic valuation of a positive even-or-odd integer (0 when odd).
    return (y & -y).bit_length() - 1


@dataclass(frozen=True)
class PathResult:
    """Outcome of a full run down to 1.

    d is the total number of rule applications; it always equals
    odd_steps + even_steps.  peak_bit_length is the largest bit length of
    any value visited, the start included.
    """

    d: int
    odd_steps: int
    even_steps: int
    peak_bit_length: int

    def __post_init__(self) -> None:
        if self.d != self.odd_steps + self.even_steps:
            raise DomainError("d must equal odd_steps + even_steps")
        if min(self.d, self.odd_steps, self.even_steps, self.peak_bit_length) < 0:
            raise DomainError("path result fields must be non-negative")


@dataclass(frozen=True)
class IterationState:
    """Resumable snapshot of a single iteration.

    current is the value reached so far; the step counters say how it got
    there.  origin optionally records the expression the run was started
    from, which checkpointing uses to refuse resumes against the wrong
    input.  States are immutable; advancing returns a new state.
    """

    current: Natural
    steps: int = 0
    odd_steps: int = 0
    even_steps: int = 0
    peak_bit_length: int = 0
    origin: NumberExpression | None = None

    def __post_init__(self) -> None:
        current = _as_natural(self.current, 1, "current")
        object.__setattr__(self, "current", current)
        if self.steps != self.odd_steps + self.even_steps:
            raise DomainError("steps must equal odd_steps + even_steps")
        if min(self.odd_steps, self.even_steps) < 0:
            raise DomainError("step counters must be non-negative")
        if self.peak_bit_length < current.bit_length():
            raise DomainError("peak_bit_length cannot be below bit_length(current)")

    @property
    def halted(self) -> bool:
        return self.current == 1


def initial_state(x: Natural, origin: NumberExpression | None = None) -> IterationState:
    """Fresh state at x with zeroed counters."""
    x = _as_natural(x, 1, "x")
    return IterationState(
        current=x,
        steps=0,
        odd_steps=0,
        even_steps=0,
        peak_bit_length=x.bit_length(),
        origin=origin,
    )


def collatz_next(x: Natural) -> Natural:
    """One rule application: 3x+1 for odd x, x/2 for even x.

    There is no halting special case; 1 maps to 4.
    """
    x = _as_natural(x, 1, "x")
    if x & 1:
        return 3 * x + 1
    return x >> 1


def odd_step_accelerated(x: Natural) -> tuple[Natural, int]:
    """Fused step from an odd value.

    Returns (y / 2**t, 1 + t) where y = 3x+1 and t is the number of
    trailing zero bits of y.  Equivalent to 1 + t applications of
    collatz_next; the returned value is odd (possibly 1).
    """
    x = _as_natural(x, 1, "x")
    if not x & 1:
        raise DomainError(f"x must be odd, got {x}")
    y = 3 * x + 1
    t = _trailing_zeros(y)
    return y >> t, 1 + t


def _block_peak(a: int, b: int, steps: int) -> int:
    """Largest bit length of 3x+1 over the odd steps of a block, or 0.

    The block runs steps shortcut steps from x = 2**_BLOCK * a + b.  Its
    step j starts from x_j = 3**c_j * 2**(_BLOCK - j) * a + T**j(b), so an
    odd step makes 3*x_j + 1 = 2 * (3**c * 2**(_BLOCK - j - 1) * a + T**(j+1)(b))
    with c = c_(j+1).  Because T**(j+1)(b) < 2 * 3**c * 2**(_BLOCK - j - 1)
    and a >= 2**63, its log2 is log2(a) + _BLOCK + c*log2(3) - j to within
    2**-61, and the bit length is one more than the floor of that.  Two
    steps of one block differ in c*log2(3) - j by at least 1.4e-3 (the
    closest approach of c*log2(3) to an integer for c <= 512), so only the
    largest can decide the floor, and it is built exactly when its estimate
    lies within _NEAR_INTEGER of an integer.
    """
    y = b
    c = 0
    best = -math.inf
    for j in range(steps):
        if y & 1:
            y = (3 * y + 1) >> 1
            c += 1
            excursion = c * _LOG2_3 - j
            if excursion > best:
                best, best_c, best_j, best_y = excursion, c, j, y
        else:
            y >>= 1
    if best == -math.inf:
        return 0
    shift = a.bit_length() - 64
    estimate = math.log2(a >> shift) + best
    whole = math.floor(estimate)
    if _NEAR_INTEGER < estimate - whole < 1 - _NEAR_INTEGER:
        return shift + _BLOCK + whole + 1
    halved = (_pow3(best_c) * a << (_BLOCK - best_j - 1)) + best_y
    return halved.bit_length() + 1


def _walk(
    x: int, odd: int, even: int, peak: int, budget: int, guard: int, start: int, halt: bool
) -> tuple[int, int, int, int]:
    """The stepping kernel: up to budget rule applications from x.

    odd, even and peak carry the counters of the run so far and come back
    updated with the new current value.  With halt set, the walk stops on
    reaching 1.  Raises CycleGuardExceeded, reporting start, as soon as
    odd + even passes guard.
    """
    remaining = budget
    while remaining and not (halt and x == 1):
        bits = x.bit_length()
        if bits >= _BLOCK_MIN_BITS and remaining >= 2:
            # A block of k <= _BLOCK shortcut steps on the low bits.  Eight
            # steps cost at most 16 rule applications, so each round takes
            # only as many table lookups as the budget surely affords; the
            # last few steps go one at a time.
            low = x & _BLOCK_MASK
            y = low
            c = k = 0
            while k < _BLOCK and remaining >= 16:
                lookups = min((_BLOCK - k) >> 3, remaining >> 4)
                before = c
                for _ in range(lookups):
                    r = y & 255
                    y = _T8_MUL[r] * (y >> 8) + _T8_TAIL[r]
                    c += _T8_ODD[r]
                k += lookups << 3
                remaining -= (lookups << 3) + c - before
            while k < _BLOCK:
                if y & 1:
                    if remaining < 2:
                        break
                    y = (3 * y + 1) >> 1
                    c += 1
                    remaining -= 2
                else:
                    if not remaining:
                        break
                    y >>= 1
                    remaining -= 1
                k += 1
            a = x >> _BLOCK
            # An odd step of the block makes 3x+1 of fewer than
            # bits + (log2(3) - 1) * c + 2 bits; scan the steps only when
            # that could beat the peak.
            if bits + 0.585 * c + 3 > peak:
                peak = max(peak, _block_peak(a, low, k))
            x = (_pow3(c) * a << (_BLOCK - k)) + y
            odd += c
            even += k
        elif x & 1:
            y = 3 * x + 1
            b = y.bit_length()
            if b > peak:
                peak = b
            t = _trailing_zeros(y)
            if t >= remaining:
                t = remaining - 1
            x = y >> t
            odd += 1
            even += t
            remaining -= t + 1
        else:
            t = _trailing_zeros(x)
            if t > remaining:
                t = remaining
            x >>= t
            even += t
            remaining -= t
        if odd + even > guard:
            raise CycleGuardExceeded(start, guard)
    return x, odd, even, peak


def path_length(x: Natural, *, cycle_guard: int = DEFAULT_CYCLE_GUARD) -> PathResult:
    """Exact D(x) with odd/even step split and the peak bit length.

    Raises DomainError for x < 1 and CycleGuardExceeded if the running step
    count passes cycle_guard before 1 is reached.
    """
    x = _as_natural(x, 1, "x")
    guard = _as_guard(cycle_guard)
    # A walk that has not halted after guard + 1 steps has tripped the guard.
    _, odd, even, peak = _walk(x, 0, 0, x.bit_length(), guard + 1, guard, x, True)
    return PathResult(d=odd + even, odd_steps=odd, even_steps=even, peak_bit_length=peak)


def advance(
    state: IterationState,
    max_steps: int,
    *,
    cycle_guard: int = DEFAULT_CYCLE_GUARD,
) -> IterationState:
    """Consume at most max_steps rule applications, halting at 1.

    The budget is exact even when it splits a fused step: the 3x+1 is
    applied first and only as many halvings as the budget still allows, so
    the returned current may be even.  A halted state (current = 1) is
    absorbing.  Never overshoots the first arrival at 1; when 3x+1 is a
    power of two the fused step consumes exactly the halvings needed to
    land on 1 and stops there.
    """
    max_steps = _as_natural(max_steps, 0, "max_steps")
    guard = _as_guard(cycle_guard)
    return _advanced(state, max_steps, guard, True)


def raw_advance(
    state: IterationState,
    exact_steps: int,
    *,
    cycle_guard: int = DEFAULT_CYCLE_GUARD,
) -> IterationState:
    """Apply exactly exact_steps rule applications with no halting at 1.

    The trivial cycle 1 -> 4 -> 2 -> 1 is permitted; this is the variant
    needed to follow a path through 1 or to step an algebraic identity a
    fixed number of times.
    """
    exact_steps = _as_natural(exact_steps, 0, "exact_steps")
    guard = _as_guard(cycle_guard)
    return _advanced(state, exact_steps, guard, False)


def _advanced(state: IterationState, budget: int, guard: int, halt: bool) -> IterationState:
    x = state.current
    x, odd, even, peak = _walk(
        x, state.odd_steps, state.even_steps, state.peak_bit_length, budget, guard, x, halt
    )
    return IterationState(
        current=x,
        steps=odd + even,
        odd_steps=odd,
        even_steps=even,
        peak_bit_length=peak,
        origin=state.origin,
    )


def trace(
    x: Natural,
    max_entries: int | None = None,
    *,
    cycle_guard: int = DEFAULT_CYCLE_GUARD,
) -> list[Natural]:
    """The visited sequence from x, inclusive, down to the first 1.

    Truncates after max_entries elements when given.  trace(x) has length
    D(x) + 1 when untruncated.  This materializes every value, so it steps
    one rule at a time; use path_length when only counts are needed.
    """
    x = _as_natural(x, 1, "x")
    guard = _as_guard(cycle_guard)
    if max_entries is not None:
        max_entries = _as_natural(max_entries, 0, "max_entries")
        if max_entries == 0:
            return []
    visited = [x]
    steps = 0
    while x != 1:
        if max_entries is not None and len(visited) >= max_entries:
            break
        if x & 1:
            x = 3 * x + 1
        else:
            x >>= 1
        steps += 1
        if steps > guard:
            raise CycleGuardExceeded(visited[0], guard)
        visited.append(x)
    return visited
