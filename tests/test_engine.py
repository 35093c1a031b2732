"""Engine tests: the stepping kernel must agree with a naive stepper everywhere."""

import math
import random
from decimal import Decimal, localcontext
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import naive_path_length, naive_step

import collatzpath.engine as engine_module
from collatzpath import (
    CycleGuardExceeded,
    DomainError,
    IterationState,
    PathResult,
    advance,
    initial_state,
    odd_step_accelerated,
    parse_expression,
    path_length,
    raw_advance,
    trace,
)

SEVEN_TRACE = [7, 22, 11, 34, 17, 52, 26, 13, 40, 20, 10, 5, 16, 8, 4, 2, 1]


def naive_partial(x: int, budget: int, *, halt: bool = True) -> tuple[int, int, int, int, int]:
    """(value, steps, odd, even, peak) after at most budget single rules."""
    odd = 0
    even = 0
    peak = x.bit_length()
    for _ in range(budget):
        if halt and x == 1:
            break
        if x & 1:
            odd += 1
        else:
            even += 1
        x = naive_step(x)
        peak = max(peak, x.bit_length())
    return x, odd + even, odd, even, peak


def state_fields(state: IterationState) -> tuple[int, int, int, int, int]:
    return (
        state.current, state.steps, state.odd_steps, state.even_steps, state.peak_bit_length,
    )


def result_fields(result: PathResult) -> tuple[int, int, int, int]:
    return result.d, result.odd_steps, result.even_steps, result.peak_bit_length


BLOCK = engine_module._BLOCK

# The kernel jumps k = min((bits - 64) // 2, budget) shortcut steps, rounded
# down to a multiple of 8 and stopped where the budget is spent, whenever
# the window of min(k, budget // 2) low bits is 8 or more wide (or runs,
# when that window is all ones), and takes fused steps otherwise: starts of
# JUMP_MIN_BITS or more, with budgets of 16 or more, jump.  A jump of more
# than BLOCK steps recurses, from RECURSIVE_MIN_BITS.
JUMP_MIN_BITS = 64 + 16
RECURSIVE_MIN_BITS = 64 + 2 * (BLOCK + 8)


def starts_around(min_bits: int, max_bits: int, runs: list[int]):
    # A run of low one bits makes the path climb, which is where a jump's
    # steps set the peak.
    return st.builds(
        lambda x, ones: x | ((1 << ones) - 1),
        st.integers(min_bits, max_bits).flatmap(lambda n: st.integers(1 << (n - 1), (1 << n) - 1)),
        st.sampled_from(runs),
    )


# Starts whose bit lengths straddle the two widths where the kernel
# switches between fused steps and jumps, and between a jump that is one
# leaf and one that recurses.
block_sized_starts = st.one_of(
    starts_around(JUMP_MIN_BITS - 16, JUMP_MIN_BITS + 48, [0, 3, 16, 64]),
    starts_around(RECURSIVE_MIN_BITS - BLOCK, RECURSIVE_MIN_BITS + BLOCK,
                  [0, 3, BLOCK // 2, BLOCK, 2 * BLOCK]),
)
# Budgets around the least that jumps (16 rule applications), and around
# the cost of one leaf (BLOCK to 2 * BLOCK) and the least that recurses.
block_budgets = st.one_of(st.integers(0, 48), st.integers(0, 3 * BLOCK))


def wide_starts(max_bits: int):
    # From the narrowest start whose first move is a recursive jump.  A run
    # of low one bits over a share of the width makes the path climb
    # through the jumps.
    return st.builds(
        lambda x, share: x | ((1 << int(share * x.bit_length())) - 1),
        st.integers(RECURSIVE_MIN_BITS, max_bits)
        .flatmap(lambda n: st.integers(1 << (n - 1), (1 << n) - 1)),
        st.sampled_from([0, 0.25, 0.5, 1]),
    )


# Budgets from a single leaf to jumps of several recursion levels.
wide_budgets = st.integers(0, 32 * BLOCK)


@pytest.mark.parametrize(
    "x, expected",
    [(1, (1, 3)), (3, (5, 2)), (5, (1, 5)), (7, (11, 2)), (27, (41, 2)), (31, (47, 2))],
)
def test_odd_step_examples(x, expected):
    assert odd_step_accelerated(x) == expected


def test_odd_step_equals_repeated_single_rules():
    for x in range(1, 1000, 2):
        value, consumed = odd_step_accelerated(x)
        assert value & 1
        probe = x
        for _ in range(consumed):
            probe = naive_step(probe)
        assert probe == value


@pytest.mark.parametrize("bad", [2, 10, 0, -3])
def test_odd_step_rejects(bad):
    with pytest.raises(DomainError):
        odd_step_accelerated(bad)


@pytest.mark.parametrize(
    "x, expected",
    [
        (1, PathResult(0, 0, 0, 1)),
        (7, PathResult(16, 5, 11, 6)),
        (2**20, PathResult(20, 0, 20, 21)),
    ],
)
def test_path_length_examples(x, expected):
    assert path_length(x) == expected


def test_path_length_27():
    result = path_length(27)
    assert result.d == 111
    d, odd, even, peak = naive_path_length(27)
    assert (result.d, result.odd_steps, result.even_steps, result.peak_bit_length) == (
        d, odd, even, peak,
    )


def test_path_length_matches_naive_range():
    for x in range(1, 20001):
        result = path_length(x)
        assert (result.d, result.odd_steps, result.even_steps, result.peak_bit_length) == (
            naive_path_length(x)
        ), x


def test_path_length_matches_naive_random_large(rng):
    for _ in range(50):
        x = rng.getrandbits(40) + 1
        result = path_length(x)
        assert (result.d, result.odd_steps, result.even_steps, result.peak_bit_length) == (
            naive_path_length(x)
        ), x


def test_doubling_adds_one_even_step():
    for x in range(1, 10001):
        single = path_length(x)
        doubled = path_length(2 * x)
        assert doubled.d == single.d + 1
        assert doubled.odd_steps == single.odd_steps
        assert doubled.even_steps == single.even_steps + 1


def test_powers_of_two_descend_directly():
    for n in range(1, 1001):
        assert path_length(2**n) == PathResult(n, 0, n, n + 1)


def test_mersenne_peak_covers_the_climb():
    # The path from 2**n - 1 passes through 3**n - 1, so the recorded peak
    # can never be below that landmark's width.
    for n in range(2, 201):
        assert path_length(2**n - 1).peak_bit_length >= (3**n - 1).bit_length()


@pytest.mark.parametrize("bad", [0, -3, None, 1.5])
def test_path_length_rejects(bad):
    with pytest.raises(DomainError):
        path_length(bad)


@pytest.mark.parametrize(
    "call, bad",
    [
        (path_length, -(2**20000)),
        (odd_step_accelerated, 2**20000),
        (lambda x: advance(initial_state(3), x), -(10**5000)),
    ],
    ids=["path_length", "odd_step_accelerated", "advance"],
)
def test_domain_errors_name_huge_values_by_bit_length(call, bad):
    # The decimal form of these values is past Python's 4300-digit limit,
    # so the message must name them without str().
    bits = bad.bit_length()
    with pytest.raises(DomainError, match=f"got a {bits}-bit value -?0x"):
        call(bad)


def test_cycle_guard_boundary_is_exact():
    d = naive_path_length(27)[0]
    assert path_length(27, cycle_guard=d).d == d
    with pytest.raises(CycleGuardExceeded) as excinfo:
        path_length(27, cycle_guard=d - 1)
    assert excinfo.value.start == 27
    assert excinfo.value.limit == d - 1


@pytest.mark.parametrize("bad_guard", [0, -1, "many"])
def test_cycle_guard_must_be_positive(bad_guard):
    with pytest.raises(DomainError):
        path_length(27, cycle_guard=bad_guard)


def test_trace_examples():
    assert trace(1) == [1]
    assert trace(7) == SEVEN_TRACE
    assert trace(7, max_entries=5) == SEVEN_TRACE[:5]
    assert trace(7, max_entries=0) == []
    assert trace(7, max_entries=100) == SEVEN_TRACE


def test_trace_length_and_adjacency():
    for x in range(1, 301):
        entries = trace(x)
        assert entries[0] == x
        assert entries[-1] == 1
        assert len(entries) == naive_path_length(x)[0] + 1
        for a, b in zip(entries, entries[1:]):
            assert b == naive_step(a)


def test_trace_guard_trips():
    with pytest.raises(CycleGuardExceeded):
        trace(27, cycle_guard=50)
    # The boundary is exact.  D(7) = 16: a guard of 16 lets the whole trace
    # through, 15 trips on its last step, and a truncated trace trips only
    # if it takes a step past the guard.
    assert trace(7, cycle_guard=16) == SEVEN_TRACE
    with pytest.raises(CycleGuardExceeded) as excinfo:
        trace(7, cycle_guard=15)
    assert (excinfo.value.start, excinfo.value.limit) == (7, 15)
    assert trace(7, 4, cycle_guard=3) == SEVEN_TRACE[:4]
    with pytest.raises(CycleGuardExceeded):
        trace(7, 5, cycle_guard=3)


def test_initial_state_fields():
    origin = parse_expression("M7")
    state = initial_state(127, origin=origin)
    assert state.current == 127
    assert state.steps == state.odd_steps == state.even_steps == 0
    assert state.peak_bit_length == 7
    assert state.origin == origin
    assert not state.halted
    assert initial_state(1).halted
    with pytest.raises(DomainError):
        initial_state(0)


def test_a_state_defaults_to_the_fresh_state_at_its_value():
    for origin in (None, parse_expression("M20000")):
        for x in (1, 7, 2**20000 - 1):
            assert IterationState(x, origin=origin) == initial_state(x, origin)
    with pytest.raises(DomainError, match="x must be >= 1"):
        initial_state(0)


def test_advance_examples():
    s0 = initial_state(7)
    after = advance(s0, 3)
    assert (after.current, after.steps, after.odd_steps, after.even_steps) == (34, 3, 2, 1)

    # A budget of 1 splits the fused odd step after the 3x+1 half.
    assert advance(initial_state(3), 1).current == 10
    assert advance(initial_state(3), 2).current == 5

    even_run = advance(initial_state(2**10), 3)
    assert (even_run.current, even_run.even_steps) == (2**7, 3)

    landed = advance(initial_state(2**6), 64)
    assert landed.halted and landed.steps == 6

    done = advance(initial_state(7), 1000)
    assert done.halted and done.steps == 16
    assert advance(done, 5) == done
    assert advance(s0, 0) == s0


def test_advance_single_steps_replay_the_trace():
    state = initial_state(27)
    visited = [state.current]
    while not state.halted:
        state = advance(state, 1)
        visited.append(state.current)
    assert visited == trace(27)
    assert state.steps == 111


def test_advance_matches_naive_partial(rng):
    for _ in range(30):
        x = rng.randrange(1, 2**20)
        budget = rng.randrange(0, 250)
        got = advance(initial_state(x), budget)
        value, steps, odd, even, peak = naive_partial(x, budget)
        assert (got.current, got.steps, got.odd_steps, got.even_steps, got.peak_bit_length) == (
            value, steps, odd, even, peak,
        ), (x, budget)


def test_advance_concatenates(rng):
    for _ in range(30):
        x = rng.randrange(1, 2**16)
        a = rng.randrange(0, 120)
        b = rng.randrange(0, 120)
        assert advance(advance(initial_state(x), a), b) == advance(initial_state(x), a + b)


@pytest.mark.parametrize("rank", [20, 22, 24, 26, 27, 28])
def test_advance_to_halt_in_budgets_is_one_advance(rank):
    # The state after B rule applications depends on B alone.  These values
    # reach 136 kbit, wider than the two smaller budgets, so there the
    # budget's end, not the value, bounds the walk's jumps.
    origin = parse_expression(f"Mp{rank}")
    start = initial_state(origin.resolve(), origin=origin)
    whole = advance(start, 10**12)
    assert whole.halted
    for budget in (10**3, 10**5, 10**7):
        state = start
        while not state.halted:
            state = advance(state, budget)
        assert state == whole, budget


def test_advance_never_overshoots_one():
    for x in range(1, 501):
        d = naive_path_length(x)[0]
        full = advance(initial_state(x), 10**6)
        assert full.current == 1 and full.steps == d
        if d > 0:
            short = advance(initial_state(x), d - 1)
            assert short.current > 1 and short.steps == d - 1


def test_advance_guard_and_validation():
    with pytest.raises(CycleGuardExceeded):
        advance(initial_state(27), 200, cycle_guard=50)
    with pytest.raises(DomainError):
        advance(initial_state(27), -1)


def test_advance_keeps_origin():
    origin = parse_expression("M7")
    state = advance(initial_state(127, origin=origin), 10)
    assert state.origin == origin


def test_raw_advance_examples():
    assert raw_advance(initial_state(3), 4).current == 8
    assert raw_advance(initial_state(7), 6).current == 26
    s1 = initial_state(1)
    assert raw_advance(s1, 1).current == 4
    assert raw_advance(s1, 2).current == 2
    assert raw_advance(s1, 3).current == 1
    assert raw_advance(s1, 0) == s1
    for k in range(1, 8):
        cycled = raw_advance(s1, 3 * k)
        assert cycled.current == 1 and cycled.steps == 3 * k


def test_raw_advance_matches_naive(rng):
    for _ in range(40):
        x = rng.randrange(1, 2**14)
        k = rng.randrange(0, 400)
        got = raw_advance(initial_state(x), k)
        value, steps, odd, even, peak = naive_partial(x, k, halt=False)
        assert (got.current, got.steps, got.odd_steps, got.even_steps, got.peak_bit_length) == (
            value, steps, odd, even, peak,
        ), (x, k)


def test_raw_advance_guard_trips_in_the_trivial_cycle():
    with pytest.raises(CycleGuardExceeded):
        raw_advance(initial_state(27), 10**6, cycle_guard=100)


def test_a_halted_state_past_the_guard_is_absorbing():
    done = advance(initial_state(27), 10**6)
    assert done.halted and done.steps == 111
    assert advance(done, 5, cycle_guard=50) == done


def test_a_zero_budget_past_the_guard_changes_nothing():
    mid = advance(initial_state(27), 60)
    assert mid.steps == 60 and not mid.halted
    assert advance(mid, 0, cycle_guard=50) == mid
    assert raw_advance(mid, 0, cycle_guard=50) == mid


@pytest.mark.parametrize("call", [advance, raw_advance])
@pytest.mark.parametrize("budget", [1, 2, 10**6])
def test_a_state_past_the_guard_trips_on_any_positive_budget(call, budget):
    mid = advance(initial_state(27), 60)
    with pytest.raises(CycleGuardExceeded) as excinfo:
        call(mid, budget, cycle_guard=50)
    assert (excinfo.value.start, excinfo.value.limit) == (mid.current, 50)


def test_the_guard_trips_on_the_step_that_passes_it():
    at_guard = advance(initial_state(27), 50)
    assert advance(advance(initial_state(27), 49), 1, cycle_guard=50) == at_guard
    with pytest.raises(CycleGuardExceeded):
        advance(at_guard, 1, cycle_guard=50)


def test_raw_advance_from_one_past_the_guard_trips():
    done = advance(initial_state(27), 10**6)
    with pytest.raises(CycleGuardExceeded) as excinfo:
        raw_advance(done, 1, cycle_guard=50)
    assert (excinfo.value.start, excinfo.value.limit) == (1, 50)


@pytest.mark.parametrize("call", [advance, raw_advance])
def test_the_guard_names_the_origin_of_a_mid_path_state(call):
    origin = parse_expression("M7")
    mid = advance(initial_state(127, origin=origin), 10)
    assert mid.current != 127
    with pytest.raises(CycleGuardExceeded) as excinfo:
        call(mid, 100, cycle_guard=20)
    assert (excinfo.value.start, excinfo.value.limit) == (127, 20)


def test_state_and_result_validation():
    with pytest.raises(DomainError):
        IterationState(current=0)
    with pytest.raises(DomainError):
        IterationState(current=5, steps=3, odd_steps=1, even_steps=1, peak_bit_length=3)
    with pytest.raises(DomainError):
        IterationState(current=5, steps=0, odd_steps=1, even_steps=-1, peak_bit_length=3)
    with pytest.raises(DomainError):
        IterationState(current=5, peak_bit_length=2)
    with pytest.raises(DomainError):
        PathResult(d=3, odd_steps=1, even_steps=1, peak_bit_length=1)
    with pytest.raises(DomainError):
        PathResult(d=-1, odd_steps=-1, even_steps=0, peak_bit_length=1)


def test_path_length_matches_naive_wide_random(rng):
    for _ in range(3):
        x = rng.getrandbits(5000) | (1 << 5000) | 1
        assert result_fields(path_length(x)) == naive_path_length(x), x


def test_advance_to_halt_matches_naive_wide_random(rng):
    x = rng.getrandbits(4200) | (1 << 4200) | 1
    state = advance(initial_state(x), 10**9)
    assert state.halted
    assert state_fields(state)[1:] == naive_path_length(x)


def test_cycle_guard_boundary_on_a_block_sized_start():
    x = (1 << 2203) - 1
    d = 29821
    assert path_length(x, cycle_guard=d).d == d
    assert advance(initial_state(x), 10**6, cycle_guard=d).steps == d
    trips = [
        lambda guard: path_length(x, cycle_guard=guard),
        lambda guard: advance(initial_state(x), 10**6, cycle_guard=guard),
        lambda guard: raw_advance(initial_state(x), d, cycle_guard=guard),
    ]
    for trip in trips:
        for guard in (d - 1, 1000):
            with pytest.raises(CycleGuardExceeded) as excinfo:
                trip(guard)
            assert (excinfo.value.start, excinfo.value.limit) == (x, guard)


@pytest.mark.parametrize("above", [False, True])
def test_block_peak_on_a_power_of_two_boundary(above):
    # The first move is one jump of BLOCK steps, a single leaf, over low one
    # bits; it climbs all the way, and its last 3x+1 is
    # 2 * (3**BLOCK * (a + 1) - 1).  With 3**BLOCK * a just above or just
    # below 2**top, the float estimate of that bit length lies within
    # rounding of an integer, so the kernel must settle it exactly.
    top = 3 * BLOCK + 200
    a = -(-(1 << top) // 3**BLOCK) if above else (1 << top) // 3**BLOCK - 1
    x = (a << BLOCK) | ((1 << BLOCK) - 1)
    assert state_fields(advance(initial_state(x), 2 * BLOCK)) == naive_partial(x, 2 * BLOCK)
    assert result_fields(path_length(x)) == naive_path_length(x)


def test_block_peak_against_a_carried_peak():
    # The first move is one jump of BLOCK steps, a single leaf; climbing all
    # the way, it ends within a few bits of the bound that decides whether
    # the leaf tracks its excursion, so a carried peak just below its
    # highest 3x+1 must still be beaten.
    x = (((1 << (BLOCK + 300)) + 12345) << BLOCK) | ((1 << BLOCK) - 1)
    value, steps, odd, even, top = naive_partial(x, 2 * BLOCK)
    for carried in (top - 1, top, top + 1):
        state = IterationState(current=x, peak_bit_length=carried)
        got = advance(state, 2 * BLOCK)
        assert state_fields(got) == (value, steps, odd, even, max(carried, top))


@given(block_sized_starts)
def test_path_length_matches_naive_around_the_block_width(x):
    assert result_fields(path_length(x)) == naive_path_length(x)


def assert_budgets_match_naive(x: int, budgets: list[int]) -> None:
    state = initial_state(x)
    naive = (x, 0, 0, 0, x.bit_length())
    for budget in budgets:
        state = advance(state, budget)
        value, steps, odd, even, peak = naive_partial(naive[0], budget)
        naive = (value, naive[1] + steps, naive[2] + odd, naive[3] + even, max(naive[4], peak))
        assert state_fields(state) == naive


@given(block_sized_starts, st.lists(block_budgets, min_size=1, max_size=6))
def test_advance_budgets_that_split_blocks_match_naive(x, budgets):
    assert_budgets_match_naive(x, budgets)


@given(block_sized_starts, block_budgets, block_budgets)
def test_advance_concatenates_across_blocks(x, a, b):
    s0 = initial_state(x)
    assert advance(advance(s0, a), b) == advance(s0, a + b)


@given(block_sized_starts, st.integers(0, 40))
def test_raw_advance_runs_through_one(x, extra):
    steps = naive_path_length(x)[0] + extra
    assert state_fields(raw_advance(initial_state(x), steps)) == naive_partial(x, steps, halt=False)


def test_fixed_point_log2_3_is_the_floor():
    with localcontext() as ctx:
        ctx.prec = 60
        scaled = Decimal(3).ln() / Decimal(2).ln() * 2**engine_module._FIX
    assert engine_module._LOG2_3_FIX == int(scaled)


def shortcut_prefixes(y: int, k: int) -> list[tuple[int, int, tuple[int, int] | None]]:
    """(T**j(y), c, (c', i) of the largest excursion) for j = 0..k, rule by rule.

    A shortcut step is two naive rules from an odd value and one from an
    even value.  Of the odd steps so far, the largest excursion
    c'*log2(3) - i is picked by exact comparison: step a beats step b when
    3**c_a * 2**i_b > 3**c_b * 2**i_a.
    """
    prefixes = [(y, 0, None)]
    c = 0
    best = None
    for i in range(k):
        if y & 1:
            y = naive_step(naive_step(y))
            c += 1
            if best is None or 3**c * 2**best[1] > 3**best[0] * 2**i:
                best = (c, i)
        else:
            y = naive_step(y)
        prefixes.append((y, c, best))
    return prefixes


def fixed_excursion(best: tuple[int, int] | None) -> int | float:
    # The oracle's largest excursion in the engine's fixed point; -inf for none.
    if best is None:
        return -math.inf
    return best[0] * engine_module._LOG2_3_FIX - (best[1] << engine_module._FIX)


def test_the_eight_step_table_is_the_shortcut_map_rule_by_rule():
    e = engine_module
    for r in range(256):
        y, c, best = shortcut_prefixes(r, 8)[8]
        row = (e._T8_MUL[r], e._T8_TAIL[r], e._T8_ODD[r], e._T8_EXC[r])
        assert row == (3**c, y, c, fixed_excursion(best)), r
    assert e._POW3 == tuple(3**c for c in range(e._BLOCK + 1))


def assert_longest_prefix_that_fits(got: tuple, low: int, k: int, cap: int, track: bool) -> None:
    # got is (c, 3**c, T**j(low mod 2**j), excursion, j) for the longest
    # prefix j of low's k shortcut steps whose j + c rule applications fit
    # cap, the excursion -inf unless tracked.
    c, power, tail, exc, j = got
    fits = [i for i, (_, odd, _) in enumerate(shortcut_prefixes(low, k)) if i + odd <= cap]
    assert j == fits[-1]
    value, odd, best = shortcut_prefixes(low % 2**j, j)[j]
    assert (c, power, tail) == (odd, 3**odd, value)
    assert exc == (fixed_excursion(best) if track else -math.inf)


@settings(max_examples=300)
@given(st.data())
def test_a_leaf_takes_the_longest_prefix_that_fits_its_cap(data):
    # Caps up to 2k + 8 stop a leaf inside a round of lookups and inside
    # the single steps after the rounds, or not at all.
    k = data.draw(st.sampled_from([8, 64, 512]))
    low = data.draw(st.integers(0, 2**k - 1))
    cap = data.draw(st.integers(0, 2 * k + 8))
    track = data.draw(st.booleans())
    got = engine_module._leaf(low, k, track, cap)
    assert_longest_prefix_that_fits(got, low, k, cap, track)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_jump_carries_its_largest_excursion_across_leaves(data):
    # Wider than one leaf, so the excursion of a second half is offset by
    # the first half's and the larger kept.  With room 0.0 every leaf
    # tracks; caps up to 2k + 8 stop the jump in either half, or not at all.
    k = data.draw(st.sampled_from([BLOCK + 8, 2 * BLOCK, 4 * BLOCK]))
    low = data.draw(st.integers(0, 2**k - 1))
    cap = data.draw(st.one_of(st.just(2 * k), st.integers(0, 2 * k + 8)))
    got = engine_module._jump(low, k, 0.0, cap)
    assert_longest_prefix_that_fits(got, low, k, cap, True)


@pytest.mark.parametrize("above", [False, True])
def test_run_peak_on_a_power_of_two_boundary(above):
    # The first 2k rule applications are one run move of k steps over the low
    # one bits, and its last 3x+1 is 2 * (3**k * (a + 1) - 1).  With
    # 3**k * (a + 1) just above or just below 2**top, a float estimate of
    # that bit length would lie within rounding of an integer; the run reads
    # it exactly from the new value's bit length.
    k = 4 * BLOCK
    top = 3 * k + 200
    a = -(-(1 << top) // 3**k) - 1 if above else (1 << top) // 3**k - 1
    x = (a << k) | ((1 << k) - 1)
    with spying("_climb") as climb, spying("_jump") as jump:
        got = advance(initial_state(x), 2 * k)
    assert [call.args[1] for call in climb.call_args_list] == [k]
    assert not jump.called
    assert state_fields(got) == naive_partial(x, 2 * k)
    assert result_fields(path_length(x)) == naive_path_length(x)


def test_jump_peak_against_a_carried_peak():
    # A jump over low one bits climbs all the way, so its last leaf ends
    # within a few bits of the bound that decides whether a leaf tracks its
    # excursion; a carried peak just below its highest 3x+1 must still be
    # beaten.
    k = 4 * BLOCK
    x = (((1 << (k + 300)) + 12345) << k) | ((1 << k) - 1)
    value, steps, odd, even, top = naive_partial(x, 2 * k)
    for carried in (top - 1, top, top + 1):
        state = IterationState(current=x, peak_bit_length=carried)
        got = advance(state, 2 * k)
        assert state_fields(got) == (value, steps, odd, even, max(carried, top))


@settings(max_examples=10)
@given(wide_starts(10_000))
def test_path_length_matches_naive_on_wide_starts(x):
    assert result_fields(path_length(x)) == naive_path_length(x)


@settings(max_examples=10)
@given(wide_starts(40_000), st.lists(wide_budgets, min_size=1, max_size=3))
def test_advance_budgets_that_split_wide_jumps_match_naive(x, budgets):
    assert_budgets_match_naive(x, budgets)


@given(wide_starts(40_000), st.integers(0, 80_000), st.integers(0, 80_000))
def test_advance_concatenates_across_wide_jumps(x, a, b):
    s0 = initial_state(x)
    assert advance(advance(s0, a), b) == advance(s0, a + b)


# The run move: when the window the next jump would read is all one bits,
# the kernel takes the climb in one power, T**t(2**t * m - 1) = 3**t * m - 1.
# A start 2**t * m - 1 with m odd has exactly t trailing one bits.


def run_start(t: int, m: int) -> int:
    return ((m | 1) << t) - 1


def run_starts(widths: list[int]):
    # t around the width k of path_length's first window, and at 2 and 3
    # times it; with t near k, m makes the start 2k + 64 bits wide, so that
    # the first window is about k bits.
    def around(k: int, ratio: int, jitter: int):
        t = max(1, ratio * k + jitter)
        m_bits = max(1, 2 * k + 64 - t)
        return st.integers(1 << (m_bits - 1), (1 << m_bits) - 1).map(lambda m: run_start(t, m))

    return st.tuples(
        st.sampled_from(widths), st.sampled_from([1, 2, 3]), st.integers(-8, 8)
    ).flatmap(lambda drawn: around(*drawn))


run_sized_starts = run_starts([8, 16, 64, BLOCK, 2 * BLOCK])
# Odd and even budgets from below one window to a few times the longest run.
run_budgets = st.one_of(st.integers(0, 48), st.integers(0, 8 * BLOCK))


def spying(name: str):
    # Counts the calls of an engine function, recursive calls included.
    return mock.patch.object(engine_module, name, wraps=getattr(engine_module, name))


@given(run_sized_starts)
def test_path_length_matches_naive_on_run_starts(x):
    assert result_fields(path_length(x)) == naive_path_length(x)


@given(run_sized_starts, st.lists(run_budgets, min_size=1, max_size=5))
def test_advance_budgets_that_cut_runs_match_naive(x, budgets):
    assert_budgets_match_naive(x, budgets)


@given(run_sized_starts, st.integers(0, 40))
def test_raw_advance_through_one_from_run_starts(x, extra):
    steps = naive_path_length(x)[0] + extra
    assert state_fields(raw_advance(initial_state(x), steps)) == naive_partial(x, steps, halt=False)


@pytest.mark.parametrize("t", [BLOCK - 8, BLOCK, BLOCK + 8, 2 * BLOCK, 3 * BLOCK])
def test_budgets_cut_a_run_exactly(t):
    # The run takes at most half the budget in odd steps, so a budget below
    # 2t, or an odd one, ends inside the run or on its last 3x+1.
    x = run_start(t, (1 << 300) + 12345)
    for budget in (1, 16, t, t + 1, 2 * t - 1, 2 * t, 2 * t + 1, 3 * t):
        assert state_fields(advance(initial_state(x), budget)) == naive_partial(x, budget)
    assert_budgets_match_naive(x, [t | 1, t | 1, 2 * t - 1, 17, 10**9])
    with spying("_climb") as climb:
        advance(initial_state(x), 2 * t)
    assert [call.args[1] for call in climb.call_args_list] == [t]


@pytest.mark.parametrize("t", [BLOCK, 3 * BLOCK])
def test_run_peak_against_a_carried_peak(t):
    # One run move of t steps; its last 3x+1 is twice the value it ends on,
    # so a carried peak one below that bit length must still be beaten.
    x = run_start(t, (1 << 300) + 12345)
    value, steps, odd, even, top = naive_partial(x, 2 * t)
    assert top == value.bit_length() + 1
    for carried in (top - 1, top, top + 1):
        state = IterationState(current=x, peak_bit_length=carried)
        got = advance(state, 2 * t)
        assert state_fields(got) == (value, steps, odd, even, max(carried, top))


def test_cycle_guard_trips_inside_a_run():
    t = 2 * BLOCK
    x = run_start(t, (1 << 300) + 12345)
    d = naive_path_length(x)[0]
    assert path_length(x, cycle_guard=d).d == d
    trips = [
        lambda guard: path_length(x, cycle_guard=guard),
        lambda guard: advance(initial_state(x), 10**6, cycle_guard=guard),
        lambda guard: raw_advance(initial_state(x), d, cycle_guard=guard),
    ]
    for trip in trips:
        for guard in (1, t, 2 * t - 1):
            with pytest.raises(CycleGuardExceeded) as excinfo:
                trip(guard)
            assert (excinfo.value.start, excinfo.value.limit) == (x, guard)


def ones_then_halvings(ones: int, near: int) -> int:
    # The start (a << ones) | (2**ones - 1), with a + 1 near `near` and
    # 3**ones * (a + 1) = 1 mod 256: its climb ends on a multiple of 256, so
    # the 8 steps after it halve and the climb's last 3x+1 stays the highest
    # value of a jump of ones + 8 steps, whose window reaches into a.  a is
    # even, so that window is not all one bits.
    a1 = near - (near - pow(3, -ones, 256)) % 256
    return ((a1 - 1) << ones) | ((1 << ones) - 1)


def near_tie_start(ones: int, top: int, above: bool) -> int:
    # A start whose jump past the ones climbs to 2 * (3**ones * (a + 1) - 1)
    # and then halves, with 3**ones * (a + 1) just above or just below
    # 2**top: the estimate of that bit length lies within rounding of an
    # integer, so the kernel must replay the jump.
    if above:
        x = ones_then_halvings(ones, -(-(1 << top) // 3**ones) + 255)
    else:
        x = ones_then_halvings(ones, (1 << top) // 3**ones)
    assert (3**ones * ((x >> ones) + 1) > 1 << top) == above
    return x


def assert_capped_near_tie_replays(x: int, budget: int) -> None:
    # The budget binds, so the first jump is as wide as the value and the
    # budget allow and is capped at the budget.  Its near tie is replayed
    # as two walks of half its rule applications each, so every later
    # jump, recursive halves included, is narrower than the first.
    with spying("_walk") as walk, spying("_jump") as jump:
        got = advance(initial_state(x), budget)
    first, *later = jump.call_args_list
    width = min(x.bit_length() - 64 >> 1, budget) & -8
    assert first.args[1] == width and first.args[3] == budget < 2 * width
    assert walk.call_count >= 3
    assert all(call.args[1] < width for call in later)
    assert state_fields(got) == naive_partial(x, budget)


@pytest.mark.parametrize("ones", [BLOCK - 8, 4 * BLOCK])
@pytest.mark.parametrize("above", [False, True])
def test_jump_past_the_ones_replays_a_near_tie(ones, above):
    # A budget of 2 * (ones + 8) affords the climb and its eight halvings;
    # the capped jump takes them, and a few steps more, in one prefix.
    x = near_tie_start(ones, 3 * ones + 200, above)
    assert min(x.bit_length() - 64 >> 1, 2 * ones + 16) & -8 >= ones + 8
    assert_capped_near_tie_replays(x, 2 * (ones + 8))
    assert result_fields(path_length(x)) == naive_path_length(x)


@pytest.mark.parametrize("above", [False, True])
def test_a_near_tie_inside_a_capped_jump_replays_in_halves(above):
    # The same climb on a start about 41 kbit wide: the jump is as wide as
    # the budget, and the budget, not the window, ends it.
    ones = 2 * BLOCK
    x = near_tie_start(ones, 2 * ones + 40_000, above)
    assert x.bit_length() > 40_000
    assert_capped_near_tie_replays(x, 2 * (ones + 8))


@pytest.mark.parametrize("offset", [-(1 << 60), -1, 0, 1, 1 << 60])
def test_a_near_tie_below_the_peak_keeps_the_peak(offset):
    # With a = 2**63 the float log2 is exact, so the estimate's fraction is
    # the excursion's own: offset units of 2**-_FIX from the integer 37,
    # inside _NEAR_INTEGER.  Either reading gives the bit length
    # 63 + k + 37 + 1; a peak at or above it stays, one below it is replayed.
    e = engine_module
    assert abs(offset) / 2**e._FIX < e._NEAR_INTEGER
    k = 1000
    exc = (37 << e._FIX) + offset
    tie = 63 + k + 37 + 1
    assert e._peak_after(tie, 1 << 63, k, exc) == tie
    assert e._peak_after(tie + 5, 1 << 63, k, exc) == tie + 5
    assert e._peak_after(tie - 1, 1 << 63, k, exc) is None


def test_a_budget_over_a_wide_value_is_one_capped_jump(rng):
    # A budget far below the value's width is one jump that stops where the
    # budget does, not a chain of halving jumps: at most two rule
    # applications are left over for fused steps.
    budget = 2000
    top_level = []
    depth = 0
    real_jump = engine_module._jump

    def jump(low, k, room, cap):
        nonlocal depth
        depth += 1
        try:
            result = real_jump(low, k, room, cap)
        finally:
            depth -= 1
        if not depth:
            c, _, _, _, j = result
            top_level.append((k, cap, j + c))
        return result

    for bits in (40_000, 41_000, 80_000):
        x = rng.getrandbits(bits) | 1 << bits
        assert x & (1 << budget // 2) - 1 != (1 << budget // 2) - 1
        top_level.clear()
        with mock.patch.object(engine_module, "_jump", jump), spying("_climb") as climb:
            got = advance(initial_state(x), budget)
        assert not climb.called
        [(width, cap, taken)] = top_level
        assert (width, cap) == (budget, budget)
        assert budget - 2 <= taken <= budget
        assert state_fields(got) == naive_partial(x, budget)


def test_a_second_half_that_stops_short_ends_its_jump(rng):
    # A start whose capped jump leaves its second half, wider than BLOCK,
    # a cap just short of that width, with low bits of all ones for the
    # second half's own first half: that one stops short, so the second
    # half returns its prefix without deciding the rest.
    def shortcut(b: int, steps: int) -> tuple[int, int]:
        c = 0
        for _ in range(steps):
            if b & 1:
                b, c = (3 * b + 1) >> 1, c + 1
            else:
                b >>= 1
        return c, b

    bits = 40_000
    pool = rng.getrandbits(bits)
    for budget in range(4 * BLOCK + 256, 6 * BLOCK):
        half = (budget & -8) >> 4 << 3
        b = pool & (1 << half) - 1
        c1, y1 = shortcut(b, half)
        cap = budget - half - c1
        rest = cap + 7 & -8
        if rest > BLOCK and rest % 16 == 0 and cap % 8:
            break
    else:
        raise AssertionError("no budget in the range leaves such a cap")
    # The second half's first rest / 2 steps are all odd: 3**c1 * high + y1
    # has its low rest / 2 bits all ones.
    ones = rest >> 1
    high = (-1 - y1) * pow(3**c1, -1, 1 << ones) % (1 << ones)
    x = ((pool >> half + ones | 1 << bits) << ones | high) << half | b

    short = []
    real_jump = engine_module._jump

    def jump(low, k, room, cap):
        result = real_jump(low, k, room, cap)
        if k > BLOCK and result[4] < k >> 4 << 3:
            short.append(k)
        return result

    with mock.patch.object(engine_module, "_jump", jump):
        got = advance(initial_state(x), budget)
    assert short == [rest]
    assert state_fields(got) == naive_partial(x, budget)


@pytest.mark.parametrize("ones", [BLOCK - 8, 4 * BLOCK])
def test_jump_past_the_ones_against_a_carried_peak(ones):
    # The jump's climb ends within a few bits of the bound that decides
    # whether a leaf tracks its excursion, so a carried peak just below its
    # highest 3x+1 must still be beaten.
    k = ones + 8
    x = ones_then_halvings(ones, (1 << (k + 300)) + 12345)
    value, steps, odd, even, top = naive_partial(x, 2 * k)
    with spying("_jump") as jump:
        for carried in (top - 1, top, top + 1):
            state = IterationState(current=x, peak_bit_length=carried)
            got = advance(state, 2 * k)
            assert state_fields(got) == (value, steps, odd, even, max(carried, top))
    assert jump.called


# The staircase: for odd n >= 3, 2**n - 1 climbs to 3**n - 1 = 2 (mod 8),
# which halve, 3x+1, halve take to X = (3**(n+1) - 1) / 4, and 2**(n+1) - 1
# climbs to 3**(n+1) - 1 = 0 (mod 8), which two halvings take to X.  So
# D(2**(n+1) - 1) = D(2**n - 1) + 1, with the same odd count and one more
# even step.  The two sides reach X by different moves and take different
# jump widths from there, so the identity checks the kernel at sizes the
# naive stepper cannot reach.  n = 1 is left out: 1 halts at once.
# From n = 701 the climbed values are wide enough that the first jump
# after the climb is wider than BLOCK.
staircase_n = st.integers(350, 4000).map(lambda h: 2 * h + 1)


def assert_one_step_up_the_staircase(low: tuple, high: tuple) -> None:
    # (d, odd, even, peak) of 2**n - 1 and of 2**(n+1) - 1.
    d, odd, even, _ = low
    assert high[:3] == (d + 1, odd, even + 1)


@settings(max_examples=40)
@given(staircase_n)
def test_the_staircase_at_odd_n(n):
    assert (3**n).bit_length() - 64 >> 1 & -8 > BLOCK
    assert_one_step_up_the_staircase(
        result_fields(path_length(2**n - 1)), result_fields(path_length(2 ** (n + 1) - 1))
    )


def advance_to_one(x: int, seed: int) -> tuple[int, int, int, int]:
    # Seeded budgets, below the 16 that a jump needs or up to a few leaves
    # wide, so moves are cut anywhere; (steps, odd, even, peak) at 1.
    budgets = random.Random(seed)
    state = initial_state(x)
    while not state.halted:
        wide = budgets.random() < 0.8
        state = advance(state, budgets.randrange(*((16, 4 * BLOCK) if wide else (1, 16))))
    return state_fields(state)[1:]


@settings(max_examples=10)
@given(staircase_n, st.integers(0, 2**32))
def test_the_staircase_through_advance_in_budgets(n, seed):
    low = advance_to_one(2**n - 1, seed)
    high = advance_to_one(2 ** (n + 1) - 1, seed)
    assert low == result_fields(path_length(2**n - 1))
    assert high == result_fields(path_length(2 ** (n + 1) - 1))
    assert_one_step_up_the_staircase(low, high)
