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
about half the bit length (and at most the budget) rounded down to a
multiple of 8.

When that window is all one bits, it takes the run move; every start
2**n - 1 opens with one.  A shortcut step from odd x maps x + 1 to
3(x + 1)/2, so writing x + 1 = 2**t * m,

    T**t(2**t * m - 1) = 3**t * m - 1,

t odd steps and t halvings in one power (for 2**n - 1, the transit
identity T**n(2**n - 1) = 3**n - 1 of Lagarias 1985).  t is the number of
trailing one bits of x, cut to half the remaining budget; when 2k rule
applications overrun the budget, the window tested for the run is that
half.
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
multiply of the whole value per 512 steps.  The table is _steps, the one
loop of single shortcut steps, run for eight steps on every byte.

The jump knows no budget.  One loop below _walk reads it, _prefix, and
takes the longest prefix of the k steps whose j + c rule applications
fit; any prefix is exact, since the parities of the first j steps depend
only on x mod 2**j.  It jumps in rounds that must fit, each of n steps, n
the steps left or half the rule applications left, the fewer, rounded
down to a multiple of 8.  A round reads only the n bits of b it steps
through and carries T**j(b mod 2**j) to the next.  A move whose k steps
fit is one round and one jump.  When fewer than 16 rule applications are
left, _steps, the loop the table was built by, takes the last few.  A
budget far below the value's width is then one move and a fused step or
so, not a chain of ever narrower moves, each a multiply of the whole
value.

Near 1, or at the end of a budget, it takes the fused step: for odd x it
computes y = 3x+1 and divides out all trailing zero bits of y at once.

Every count stays exact.  A run takes at most half the remaining budget
in steps and a jump's steps fit it, so neither overshoots, and a fused
step is split after its 3x+1 half when only one rule application is left.

A jump's peak bit length comes from the excursion c*log2(3) - j of each
odd step j, c counting the odd steps up to and including it: that step's
3x+1 has log2(a) + k + the excursion as its log2, to within 2**-61.  The
largest excursion is one integer with _FIX = 96 fractional bits, exact to
within c * 2**-96, from _steps and the table up, and -inf when no step
is odd.  Of two moves made in turn, it is the larger of the first's and
the second's offset by the first's c*log2(3) - k.  Each table entry
carries the largest of its eight steps, so a leaf finds its largest with
one comparison per lookup, and only leaves that could climb above the
peak so far track it at all.  The bit length is read from a float
estimate that errs by less than 1e-12 in all; when that estimate lies
within _NEAR_INTEGER = 1e-7 of an integer, the jump's k + c rule
applications are replayed as two walks of half as many each; one walk
of all of them would take the same jump again.  Their moves narrow with
their budgets, down to runs and fused steps, which settle it exactly.

Values are plain Python ints throughout.  Termination of the iteration is
an open conjecture, so every iterating function takes a cycle_guard step
ceiling and raises CycleGuardExceeded rather than looping without bound.
The kernel only steps: _advanced, behind every entry point but trace,
makes the guard the walk's budget and raises when the walk passed it.
"""

from __future__ import annotations

import math

from .errors import CycleGuardExceeded, DomainError, Record, checked_int, int_text
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


def _steps(y: int, k: int, cap: int) -> tuple[int, int, int, int | float]:
    """Single shortcut steps of y while they fit: (T**j(y), c, j, e).

    Steps are taken while j < k and the next one keeps the j + c rule
    applications within cap, c counting the odd steps.  e is the largest
    excursion c'*log2(3) - i over the odd steps i, c' counting the odd
    steps up to and including step i, in _FIX fixed point; -inf with no
    odd step.
    """
    c = j = 0
    e = -math.inf
    while j < k and j + 1 + c + (y & 1) <= cap:
        if y & 1:
            y = (3 * y + 1) >> 1
            c += 1
            e = max(e, c * _LOG2_3_FIX - (j << _FIX))
        else:
            y >>= 1
        j += 1
    return y, c, j, e


# 3**c for the c <= _BLOCK odd steps a leaf can take.
_POW3 = [1]
while len(_POW3) <= _BLOCK:
    _POW3.append(3 * _POW3[-1])
_POW3 = tuple(_POW3)

# For r < 256: T**8(256*q + r) = 3**_T8_ODD[r] * q + _T8_TAIL[r].  Eight
# steps take at most 16 rule applications, so each row covers all eight.
_T8_TAIL, _T8_ODD, _, _T8_EXC = zip(*(_steps(r, 8, 16) for r in range(256)))
_T8_MUL = tuple(_POW3[c] for c in _T8_ODD)


def _trailing_zeros(y: int) -> int:
    # 2-adic valuation of a positive even-or-odd integer (0 when odd).
    return (y & -y).bit_length() - 1


class PathResult(Record):
    """Outcome of a full run down to 1.

    d is the total number of rule applications; it always equals
    odd_steps + even_steps.  peak_bit_length is the largest bit length of
    any value visited, the start included.
    """

    __slots__ = ("d", "odd_steps", "even_steps", "peak_bit_length")

    def __init__(self, d: int, odd_steps: int, even_steps: int, peak_bit_length: int) -> None:
        d = checked_int(d, "d", 0)
        odd_steps = checked_int(odd_steps, "odd_steps", 0)
        even_steps = checked_int(even_steps, "even_steps", 0)
        peak_bit_length = checked_int(peak_bit_length, "peak_bit_length", 0)
        self._set_fields(d, odd_steps, even_steps, peak_bit_length)
        if d != odd_steps + even_steps:
            raise DomainError("d must equal odd_steps + even_steps")


class IterationState(Record):
    """Resumable snapshot of a single iteration.

    current is the value reached so far; the step counters say how it got
    there.  origin is None or the NumberExpression the run was started
    from, which checkpointing uses to refuse resumes against the wrong
    input; any other origin raises DomainError.  peak_bit_length defaults
    to the bit length of current, so IterationState(x) is the fresh state
    at x.  States are immutable; advancing returns a new state.
    """

    __slots__ = ("current", "steps", "odd_steps", "even_steps", "peak_bit_length", "origin")

    def __init__(
        self,
        current: int,
        steps: int = 0,
        odd_steps: int = 0,
        even_steps: int = 0,
        peak_bit_length: int | None = None,
        origin: NumberExpression | None = None,
    ) -> None:
        current = checked_int(current, "current", 1)
        steps = checked_int(steps, "steps")
        odd_steps = checked_int(odd_steps, "odd_steps", 0)
        even_steps = checked_int(even_steps, "even_steps", 0)
        if peak_bit_length is None:
            peak_bit_length = current.bit_length()
        peak_bit_length = checked_int(peak_bit_length, "peak_bit_length")
        if origin is not None and not isinstance(origin, NumberExpression):
            raise DomainError(f"origin must be a NumberExpression, got {type(origin).__name__}")
        self._set_fields(current, steps, odd_steps, even_steps, peak_bit_length, origin)
        if steps != odd_steps + even_steps:
            raise DomainError("steps must equal odd_steps + even_steps")
        if peak_bit_length < current.bit_length():
            raise DomainError("peak_bit_length cannot be below bit_length(current)")

    @property
    def halted(self) -> bool:
        return self.current == 1


def initial_state(x: int, origin: NumberExpression | None = None) -> IterationState:
    """Fresh state at x with zeroed counters."""
    return IterationState(checked_int(x, "x", 1), origin=origin)


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


def _jump(low: int, k: int, room: float) -> tuple[int, int, int, int | float]:
    """k shortcut steps of low < 2**k: (c, 3**c, T**k(low), excursion).

    k is a multiple of 8 and c counts the odd steps.  Up to _BLOCK steps
    are a leaf, one lookup in the eight-step table per eight steps.  Wider
    jumps decide the first half of the steps recursively, apply them to the
    rest of low with one multiply, and decide the second half from the low
    bits of that.  room is how far the peak lies above the bit length the
    jump starts from; a leaf tracks its excursion only if it could climb
    that far.  The excursion is the largest c*log2(3) - i over the odd
    steps i that a leaf tracked, c counting the odd steps up to and
    including step i, in _FIX fixed point, and -inf when there are none.
    A -inf plus an offset c*log2(3) - i in fixed point, far below 2**1024,
    is -inf, never a float overflow.
    """
    if k <= _BLOCK:
        track = _CLIMB * k + 3 > room
        y, c = low, 0
        best = -math.inf
        for i in range(0, k, 8):
            r = y & 255
            y = _T8_MUL[r] * (y >> 8) + _T8_TAIL[r]
            if track and (e := c * _LOG2_3_FIX - (i << _FIX) + _T8_EXC[r]) > best:
                best = e
            c += _T8_ODD[r]
        return c, _POW3[c], y, best
    half = k >> 4 << 3
    c1, p1, y1, e1 = _jump(low & ((1 << half) - 1), half, room)
    mid = p1 * (low >> half) + y1
    rest = k - half
    c2, p2, y2, e2 = _jump(mid & ((1 << rest) - 1), rest, room - (c1 * _LOG2_3 - half))
    # The second half's excursion counts from where it starts.
    exc = max(e1, e2 + c1 * _LOG2_3_FIX - (half << _FIX))
    return c1 + c2, p1 * p2, p2 * (mid >> rest) + y2, exc


def _prefix(low: int, k: int, room: float, cap: int) -> tuple[int, int, int, int | float, int]:
    """Up to k shortcut steps of low < 2**k: (c, 3**c, T**j(low mod 2**j), excursion, j).

    j is k when the k steps take at most cap rule applications, else the
    longest prefix whose j + c do.  The steps go in rounds that must fit:
    a step takes at most 2 rule applications, so a round of n steps takes
    at most 2n.  One rule sizes every round: n is the steps left or half
    the rule applications left, the fewer, rounded down to a multiple of
    8.  A move whose k steps fit the cap is one round, one jump.  Each
    round reads only the n bits of low it steps through, since t is
    T**j(low mod 2**j).  When fewer than 8 steps or 16 rule applications
    are left, single steps follow while they fit, by _steps, on the next
    16 bits of low, tracked as a leaf of 16 steps would be.  room and the
    excursion are _jump's, over the j steps.
    """
    c = j = t = 0
    power = 1
    best = -math.inf
    while n := min(k - j, cap - j - c >> 1) & -8:
        mid = power * (low >> j & (1 << n) - 1) + t
        c2, p2, y2, e2 = _jump(mid & (1 << n) - 1, n, room - (c * _LOG2_3 - j))
        if e2 != -math.inf:
            best = max(best, e2 + c * _LOG2_3_FIX - (j << _FIX))
        t = p2 * (mid >> n) + y2
        power *= p2
        c += c2
        j += n
    if j < k:
        # At most 15 steps are left, so 16 bits of low decide them.
        high = low >> j & 0xFFFF
        y, c2, j2, e2 = _steps(power * high + t, k - j, cap - j - c)
        if _CLIMB * 16 + 3 > room - (c * _LOG2_3 - j):
            best = max(best, e2 + c * _LOG2_3_FIX - (j << _FIX))
        power *= _POW3[c2]
        c += c2
        j += j2
        # y carried the steps over all of high; the prefix reads its low j2 bits.
        t = y - power * (high >> j2)
    return c, power, t, best, j


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
    remaining: int,
    halt: bool,
) -> tuple[int, int, int, int]:
    """The stepping kernel: remaining rule applications from x, fewer if it halts.

    odd, even and peak carry the counters of the walk so far and come back
    updated with the new current value.  Each move is a run over low one
    bits, a jump over any other low bits, or a fused step.  With halt
    set, the walk stops on reaching 1.  A near-tie replay is two walks of
    half the jump's k + c rule applications each, so its moves narrow with
    its budget.  It raises nothing: _advanced bounds it by the cycle guard
    through remaining.
    """
    while remaining and not (halt and x == 1):
        bits = x.bit_length()
        # A jump of k shortcut steps leaves a = x >> k at least 64 bits
        # wide; _prefix stops it where the budget does.  A run takes at
        # most half the budget.
        k = min(bits - 64 >> 1, remaining) & -8
        w = min(k, remaining >> 1)
        if w >= 8:
            low = x & (1 << k) - 1
            # A run when the low w bits are all one bits.
            if _trailing_zeros(low + 1) >= w:
                # A run move: every step is odd and climbs, so the run's last
                # 3x+1, twice the new x, is its highest value.
                t = min(_trailing_zeros(x + 1), remaining >> 1)
                x = _climb(x, t)
                peak = max(peak, x.bit_length() + 1)
                odd += t
                even += t
                remaining -= 2 * t
            else:
                c, power, y, exc, k = _prefix(low, k, peak - bits, remaining)
                a = x >> k
                top = peak if exc == -math.inf else _peak_after(peak, a, k, exc)
                if top is None:
                    # Replaying the jump's k + c rule applications in one
                    # walk would take the same jump again; each of two walks
                    # of half as many caps its moves at its own budget.
                    half = k + c >> 1
                    x, odd, even, peak = _walk(x, odd, even, peak, half, halt)
                    x, odd, even, peak = _walk(x, odd, even, peak, k + c - half, halt)
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
    visited = [x][:max_entries]
    while x != 1 and (max_entries is None or len(visited) < max_entries):
        if x & 1:
            x = 3 * x + 1
        else:
            x >>= 1
        # len(visited) counts the steps taken, this one included.
        if len(visited) > guard:
            raise CycleGuardExceeded(visited[0], guard)
        visited.append(x)
    return visited
