"""Arbitrary-precision Collatz iteration with exact step accounting.

The iteration rule: an odd value x maps to 3x+1, an even value maps to x/2.
The path length D(x) is the number of single rule applications needed to
reach 1 from x, so D(1) = 0, D(7) = 16, D(2**n) = n.

Every iterating entry point runs one private kernel, _walk, which never
applies rules one at a time.  It moves by the shortcut map T(x) = x/2 or
(3x+1)/2.  The parities of the first k steps of T depend only on
x mod 2**k (Terras 1976; Lagarias 1985), so writing x = 2**k * a + b with
b < 2**k gives

    T**k(x) = 3**c * a + T**k(b),

where c counts the odd steps; one multiply-add on the wide value then
stands for k + c rule applications (c odd, k even).

The kernel has three moves.  While x has 80 bits or more and the budget
affords 16 rule applications, it reads a window of its k low bits, k
about half the bit length (and at most half the budget) rounded down to a
multiple of 8.

When that window is all one bits, it takes the run move; every start
2**n - 1 opens with one.  A shortcut step from odd x maps x + 1 to
3(x + 1)/2, so writing x + 1 = 2**t * m,

    T**t(2**t * m - 1) = 3**t * m - 1,

t odd steps and t halvings in one power (for 2**n - 1, the transit
identity T**n(2**n - 1) = 3**n - 1 of Lagarias 1985).  t is the number of
trailing one bits of x, cut to half the remaining budget.
The run's values rise throughout and its last 3x+1 is twice the new x, so
the peak is the larger of the peak so far and one more than the new x's
bit length, with no estimate.

Otherwise it jumps k shortcut steps at once.  _jump finds c and T**k(b)
the way the binary recursive GCD finds its quotients (Stehle and
Zimmermann 2004): it decides the first half of the steps from the low half
of b, applies them to the rest of b with one multiply, and decides the
second half from the low bits of the result.  Its leaves are passes over
at most _BLOCK = 512 steps, eight steps per lookup in a 256-entry table,
so the cost is a few balanced multiplies per level instead of one
multiply of the whole value per 512 steps.

Near 1, or at the end of a budget, it takes the fused step: for odd x it
computes y = 3x+1 and divides out all trailing zero bits of y at once.

Every count stays exact.  A run or a jump takes at most half the
remaining budget in steps, so it never overshoots, and a fused step is
split after its 3x+1 half when only one rule application is left.

A jump's peak bit length comes from the excursion c*log2(3) - j of each
odd step j, c counting the odd steps up to and including it: that step's
3x+1 has log2(a) + k + the excursion as its log2, to within 2**-61.  Each table
entry carries the largest excursion of its eight steps, so a leaf finds
its largest with one comparison per lookup, and only leaves that could
climb above the peak so far track it at all.  Across leaves the largest is
carried as an integer with _FIX = 96 fractional bits, exact to within
c * 2**-96.  The bit length is read from a float estimate that errs by
less than 1e-12 in all; when that estimate lies within _NEAR_INTEGER =
1e-7 of an integer, the jump's k + c < 2k rule applications are replayed
by narrower moves, down to runs and fused steps, which settle it exactly.

Values are plain Python ints throughout.  Termination of the iteration is
an open conjecture, so every iterating function takes a cycle_guard step
ceiling and raises CycleGuardExceeded rather than looping without bound.
The kernel only steps: _advanced, behind every entry point but trace,
makes the guard the walk's budget and raises when the walk passed it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CycleGuardExceeded, DomainError, checked_int, int_text

if TYPE_CHECKING:
    from .expressions import NumberExpression

DEFAULT_CYCLE_GUARD = 10**12

# The most shortcut steps a leaf takes; a multiple of the table's 8.
_BLOCK = 512

_LOG2_3 = math.log2(3)
# floor(log2(3) * 2**_FIX): excursions are compared and summed in this fixed
# point, where one after c odd steps is low by less than c * 2**-_FIX.
_FIX = 96
_LOG2_3_FIX = 0x1_95C0_1A39_FBD6_879F_A00B_120A
_FIX_MASK = (1 << _FIX) - 1
# A float estimate of a bit length this close to an integer is settled exactly.
_NEAR_INTEGER = 1e-7
# Above log2(3) - 1, the most one shortcut step can add to log2(x).
_CLIMB = 0.585


def _eight_step_table() -> tuple[tuple, ...]:
    # For r < 256: T**8(256*q + r) = 3**odd[r] * q + tail[r].  Of the odd
    # steps among the eight, the one with the largest excursion
    # c*log2(3) - j (c counting odd steps up to and including step j) has
    # excursion exc[r], at_odd[r] = c and at_step[r] = j; r = 0 has none.
    mul, tail, odd, exc, at_odd, at_step = [], [], [], [], [], []
    for r in range(256):
        y, c = r, 0
        best, best_c, best_j = -math.inf, 0, 0
        for j in range(8):
            if y & 1:
                y = (3 * y + 1) >> 1
                c += 1
                if c * _LOG2_3 - j > best:
                    best, best_c, best_j = c * _LOG2_3 - j, c, j
            else:
                y >>= 1
        mul.append(3**c)
        tail.append(y)
        odd.append(c)
        exc.append(best)
        at_odd.append(best_c)
        at_step.append(best_j)
    return tuple(mul), tuple(tail), tuple(odd), tuple(exc), tuple(at_odd), tuple(at_step)


_T8_MUL, _T8_TAIL, _T8_ODD, _T8_EXC, _T8_AT_ODD, _T8_AT_STEP = _eight_step_table()


@functools.cache
def _pow3(c: int) -> int:
    # Leaves only: c never exceeds _BLOCK, so the cache stays small.
    return 3**c


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

    current: int
    steps: int = 0
    odd_steps: int = 0
    even_steps: int = 0
    peak_bit_length: int = 0
    origin: NumberExpression | None = None

    def __post_init__(self) -> None:
        current = checked_int(self.current, "current", 1)
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


def initial_state(x: int, origin: NumberExpression | None = None) -> IterationState:
    """Fresh state at x with zeroed counters."""
    x = checked_int(x, "x", 1)
    return IterationState(
        current=x,
        steps=0,
        odd_steps=0,
        even_steps=0,
        peak_bit_length=x.bit_length(),
        origin=origin,
    )


def odd_step_accelerated(x: int) -> tuple[int, int]:
    """Fused step from an odd value.

    Returns (y / 2**t, 1 + t) where y = 3x+1 and t is the number of
    trailing zero bits of y.  Equivalent to 1 + t rule applications;
    the returned value is odd (possibly 1).
    """
    x = checked_int(x, "x", 1)
    if not x & 1:
        raise DomainError(f"x must be odd, got {int_text(x, 'value')}")
    y = 3 * x + 1
    t = _trailing_zeros(y)
    return y >> t, 1 + t


def _climb(x: int, t: int) -> int:
    """T**t(x) for x with at least t trailing one bits: 3**t * ((x >> t) + 1) - 1."""
    return 3**t * ((x >> t) + 1) - 1


def _leaf(y: int, lookups: int, track: bool) -> tuple[int, int, int | None]:
    """8 * lookups shortcut steps of y by table: (c, T**(8 * lookups)(y), excursion).

    c counts the odd steps.  When track is set, the excursion is the largest
    c*log2(3) - j over the odd steps j, c counting the odd steps up to and
    including step j, in _FIX fixed point; it is None when untracked or
    when no step is odd.  A leaf has at most _BLOCK steps,
    where two excursions differ by at least 1.4e-3 (the closest approach of
    c*log2(3) to an integer for c <= 512), so the float comparison below
    picks the largest exactly.
    """
    c = 0
    best = -math.inf
    for j in range(0, lookups << 3, 8):
        r = y & 255
        y = _T8_MUL[r] * (y >> 8) + _T8_TAIL[r]
        if track:
            e = c * _LOG2_3 - j + _T8_EXC[r]
            if e > best:
                best, at_odd, at_step = e, c + _T8_AT_ODD[r], j + _T8_AT_STEP[r]
        c += _T8_ODD[r]
    if best == -math.inf:
        return c, y, None
    return c, y, at_odd * _LOG2_3_FIX - (at_step << _FIX)


def _later(first: int | None, second: int | None, c: int, k: int) -> int | None:
    # The excursion of two moves made in turn, the first taking k steps
    # with c odd ones: the second's excursion counts from where it starts.
    if second is None:
        return first
    second += c * _LOG2_3_FIX - (k << _FIX)
    return second if first is None or second > first else first


def _jump(low: int, k: int, room: float) -> tuple[int, int, int, int | None]:
    """k shortcut steps of low < 2**k, k a multiple of 8: (c, 3**c, T**k(low), excursion).

    Decides the first half of the steps recursively, applies them to the
    rest of low with one multiply, and decides the second half from the
    low bits of that.  room is how far the peak lies above the bit length
    the jump starts from; a leaf tracks its excursion only if it could
    climb that far.
    """
    if k <= _BLOCK:
        c, y, exc = _leaf(low, k >> 3, _CLIMB * k + 3 > room)
        return c, _pow3(c), y, exc
    half = k >> 4 << 3
    c1, p1, y1, e1 = _jump(low & ((1 << half) - 1), half, room)
    rest = k - half
    mid = p1 * (low >> half) + y1
    c2, p2, y2, e2 = _jump(mid & ((1 << rest) - 1), rest, room - (c1 * _LOG2_3 - half))
    return c1 + c2, p1 * p2, p2 * (mid >> rest) + y2, _later(e1, e2, c1, half)


def _peak_after(peak: int, a: int, k: int, exc: int) -> int | None:
    """max(peak, the bit length of the 3x+1 at a jump's largest excursion).

    The jump takes k shortcut steps from x = 2**k * a + b, b < 2**k.
    Its step j starts from x_j = 3**c_j * 2**(k - j) * a + T**j(b), so
    an odd step makes 3*x_j + 1 = 2 * (3**c * 2**(k - j - 1) * a + T**(j+1)(b))
    with c = c_(j+1).  Because T**(j+1)(b) < 2 * 3**c * 2**(k - j - 1)
    and a >= 2**63, its log2 is log2(a) + k + c*log2(3) - j plus less
    than 2**-61, and the bit length is one more than the floor of that.
    The estimate below errs by less than 1e-13 from the float log2 of a's
    top 64 bits, plus c * 2**-_FIX from the fixed-point excursion, plus as
    much again if a near-tie picked the wrong step as the largest: less
    than 1e-12 in all, for c below 2**50, far inside _NEAR_INTEGER.
    Returns None when the estimate lies that close to an integer and
    either reading would raise the peak.
    """
    shift = a.bit_length() - 64
    whole = shift + 63 + k + (exc >> _FIX)
    frac = math.log2(a >> shift) - 63 + (exc & _FIX_MASK) / (1 << _FIX)
    near = round(frac)
    if abs(frac - near) > _NEAR_INTEGER:
        return max(peak, whole + math.floor(frac) + 1)
    if whole + near + 1 <= peak:
        return peak
    return None


def _walk(
    x: int,
    odd: int,
    even: int,
    peak: int,
    budget: int,
    halt: bool,
) -> tuple[int, int, int, int]:
    """The stepping kernel: budget rule applications from x, fewer if it halts.

    odd, even and peak carry the counters of the walk so far and come back
    updated with the new current value.  Each move is a run over a window
    of one bits, a jump over any other window, or a fused step.  With halt
    set, the walk stops on reaching 1.  A replay narrows by itself: its
    budget k + c is below 2k, so every move in it is narrower than k.  It
    raises nothing: _advanced bounds it by the cycle guard through budget.
    """
    remaining = budget
    while remaining and not (halt and x == 1):
        bits = x.bit_length()
        # k shortcut steps cost at most 2k rule applications and leave
        # a = x >> k at least 64 bits wide.
        k = min(bits - 64, remaining) >> 1 & -8
        if k > 0:
            window = (1 << k) - 1
            low = x & window
            if low == window:
                # A run move: every step is odd and climbs, so the run's last
                # 3x+1, twice the new x, is its highest value.
                t = min(_trailing_zeros(x + 1), remaining >> 1)
                x = _climb(x, t)
                peak = max(peak, x.bit_length() + 1)
                odd += t
                even += t
                remaining -= 2 * t
            else:
                c, power, y, exc = _jump(low, k, peak - bits)
                a = x >> k
                top = peak if exc is None else _peak_after(peak, a, k, exc)
                if top is None:
                    # The window is not all one bits, so c < k: replaying the
                    # jump's k + c rule applications takes narrower moves.
                    x, odd, even, peak = _walk(x, odd, even, peak, k + c, halt)
                else:
                    x = power * a + y
                    odd += c
                    even += k
                    peak = top
                remaining -= k + c
        else:
            # A fused step: 3x+1 when x is odd, then the halvings the budget allows.
            if x & 1:
                x = 3 * x + 1
                b = x.bit_length()
                if b > peak:
                    peak = b
                odd += 1
                remaining -= 1
            t = _trailing_zeros(x)
            if t > remaining:
                t = remaining
            x >>= t
            even += t
            remaining -= t
    return x, odd, even, peak


def path_length(x: int, *, cycle_guard: int = DEFAULT_CYCLE_GUARD) -> PathResult:
    """Exact D(x) with odd/even step split and the peak bit length.

    Raises DomainError for x < 1 and CycleGuardExceeded if the running step
    count passes cycle_guard before 1 is reached.
    """
    start = initial_state(x)
    guard = checked_int(cycle_guard, "cycle_guard", 1)
    # A walk that has not halted after guard + 1 steps has tripped the guard.
    state = _advanced(start, guard + 1, guard, True)
    return PathResult(state.steps, state.odd_steps, state.even_steps, state.peak_bit_length)


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

    Raises CycleGuardExceeded once steps passes cycle_guard, naming the
    origin's value when the state has an origin, else its current value.
    """
    max_steps = checked_int(max_steps, "max_steps", 0)
    guard = checked_int(cycle_guard, "cycle_guard", 1)
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
    fixed number of times.  The cycle guard trips as in advance.
    """
    exact_steps = checked_int(exact_steps, "exact_steps", 0)
    guard = checked_int(cycle_guard, "cycle_guard", 1)
    return _advanced(state, exact_steps, guard, False)


def _advanced(state: IterationState, budget: int, guard: int, halt: bool) -> IterationState:
    # The one place the guard lives: the walk gets the steps left before it
    # passes guard, at least one, and trips when it moved past guard.
    budget = min(budget, max(guard + 1 - state.steps, 1))
    x, odd, even, peak = _walk(
        state.current, state.odd_steps, state.even_steps, state.peak_bit_length, budget, halt
    )
    if odd + even > max(guard, state.steps):
        start = state.current if state.origin is None else state.origin.resolve()
        raise CycleGuardExceeded(start, guard)
    return IterationState(
        current=x,
        steps=odd + even,
        odd_steps=odd,
        even_steps=even,
        peak_bit_length=peak,
        origin=state.origin,
    )


def trace(
    x: int,
    max_entries: int | None = None,
    *,
    cycle_guard: int = DEFAULT_CYCLE_GUARD,
) -> list[int]:
    """The visited sequence from x, inclusive, down to the first 1.

    Truncates after max_entries elements when given.  trace(x) has length
    D(x) + 1 when untruncated.  This materializes every value, so it steps
    one rule at a time; use path_length when only counts are needed.
    """
    x = checked_int(x, "x", 1)
    guard = checked_int(cycle_guard, "cycle_guard", 1)
    if max_entries is not None:
        max_entries = checked_int(max_entries, "max_entries", 0)
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
