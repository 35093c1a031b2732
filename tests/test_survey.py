"""Index-set construction, ratio statistics, and the scan window logic."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from conftest import naive_path_length, sieve_flags, trial_division_is_prime

from collatzpath import (
    DegenerateStatsError,
    DomainError,
    IndexSet,
    RangeError,
    RatioStats,
    SetLabel,
    catalog_entries,
    catalog_entry,
    fit_loglog,
    index_set,
    mersenne_number,
    path_length,
    ratio_stats,
    reference_d,
    scan_ratios,
)
from collatzpath.catalog import primes_from
from collatzpath.survey import _scan_exponents

MID_RANGE_EXPONENTS = (
    23209, 44497, 86243, 110503, 132049, 216091, 756839,
    859433, 1257787, 1398269, 2976221, 3021377, 6972593,
)

NEXT_PRIME_ROW = (
    23227, 44501, 86249, 110527, 132059, 216103, 756853,
    859447, 1257827, 1398281, 2976229, 3021407, 6972607,
)

MIDPOINT_ROW = (
    22455, 33853, 65370, 98373, 121276, 174070, 486465,
    808136, 1058610, 1328028, 2187245, 2998799, 4996985,
)


# The fixture rows rebuilt from their selection rules: C doubles the
# catalog exponents at SET_C_SOURCE_RANKS, D sits on the full-catalog
# log-log fit line at SET_D_FIT_RANKS.
SET_C_SOURCE_RANKS = (23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36)
SET_D_FIT_RANKS = (24, 26, 27, 28, 29, 30, 32, 33, 34, 35, 36, 37, 38)
FIT = fit_loglog([(e.rank, e.exponent) for e in catalog_entries()])
DOUBLED_ROW = tuple(2 * catalog_entry(k).exponent for k in SET_C_SOURCE_RANKS)
FIT_LINE_ROW = tuple(round(2 ** (FIT.intercept + FIT.slope * k)) for k in SET_D_FIT_RANKS)


def test_mersenne_set_default():
    s = index_set("mersenne")
    assert s.label is SetLabel.MERSENNE
    assert s.indices == MID_RANGE_EXPONENTS


def test_mersenne_set_ranges():
    assert index_set("mersenne", 1, 3).indices == (2, 3, 5)
    assert index_set("mersenne", 26, 26).indices == (23209,)
    for bad in ((0, 5), (5, 48), (10, 9)):
        with pytest.raises(RangeError):
            index_set("mersenne", *bad)


def test_index_set_validation():
    with pytest.raises(DomainError):
        IndexSet(label=SetLabel.A, indices=())
    with pytest.raises(DomainError):
        IndexSet(label=SetLabel.A, indices=(0, 5))
    with pytest.raises(DomainError):
        IndexSet(label=SetLabel.A, indices=(5, 5))
    with pytest.raises(DomainError):
        IndexSet(label=SetLabel.A, indices=(7, 3))
    with pytest.raises(DomainError, match="got 'Z'"):
        IndexSet(label="Z", indices=(3,))
    assert IndexSet(label="A", indices=(3,)).label is SetLabel.A


def test_set_a_is_the_next_prime_row():
    s = index_set("A")
    assert s.label is SetLabel.A
    assert s.indices == NEXT_PRIME_ROW
    for base, lifted in zip(MID_RANGE_EXPONENTS, s.indices):
        assert lifted > base


def test_set_b_is_the_midpoint_row():
    s = index_set("B")
    assert s.label is SetLabel.B
    assert s.indices == MIDPOINT_ROW
    # Successive catalog exponents in this range are both odd, so the sums
    # are even and the midpoints are exact, not floored.
    exponents = [catalog_entry(k).exponent for k in range(25, 39)]
    for mid, (a, b) in zip(s.indices, zip(exponents, exponents[1:])):
        assert 2 * mid == a + b


def test_set_b_edges():
    assert index_set("B", 2, 3).indices == (4,)
    with pytest.raises(RangeError):
        index_set("B", 5, 5)
    with pytest.raises(RangeError):
        index_set("B", 0, 3)


def test_set_b_range_errors():
    # Bounds are catalog_entries' check; only the two-rank rule is set B's.
    with pytest.raises(RangeError, match=r"^ranks must satisfy 1 <= from <= to <= 47, got 10\.\.9$"):
        index_set("B", 10, 9)
    with pytest.raises(RangeError, match=r"^ranks must satisfy 1 <= from <= to <= 47, got 40\.\.48$"):
        index_set("B", 40, 48)
    with pytest.raises(RangeError, match="^need at least two ranks, got only rank 5$"):
        index_set("B", 5, 5)


def test_fixture_set_c_doubles_catalog_exponents():
    s = index_set("C")
    assert s.indices[:3] == (22426, 43402, 46418)
    assert len(s.indices) == 13
    assert s.indices == DOUBLED_ROW


def test_fixture_set_d_sits_on_the_fit_line():
    s = index_set("D")
    assert s.indices[1] == 43644
    assert len(s.indices) == 13
    assert s.indices == FIT_LINE_ROW
    assert len(SET_D_FIT_RANKS) == 13


def test_ratio_stats_trivial():
    stats = ratio_stats([(1, 2), (2, 2)])
    assert stats == RatioStats(count=2, mean=1.5, sample_variance=0.5)


def test_ratio_stats_permutation_and_scale_invariance():
    pairs = [(n, d) for n, d in zip(MID_RANGE_EXPONENTS, range(100, 113))]
    forward = ratio_stats(pairs)
    assert ratio_stats(list(reversed(pairs))) == forward
    scaled = [(2 * n, 2 * d) for n, d in pairs]
    assert ratio_stats(scaled) == forward


def test_ratio_stats_uses_the_sample_divisor():
    pairs = list(reference_d(index_set(SetLabel.MERSENNE)))
    stats = ratio_stats(pairs)
    # Divisor count-1 reproduces the published 0.0002977; divisor count
    # would give 0.000275 and miss by three orders of tolerance.
    assert abs(stats.sample_variance - 0.0002977) < 5e-8
    population_variance = stats.sample_variance * (stats.count - 1) / stats.count
    assert abs(population_variance - 0.0002977) > 5e-8


def test_ratio_stats_validation():
    with pytest.raises(DegenerateStatsError):
        ratio_stats([])
    with pytest.raises(DegenerateStatsError):
        ratio_stats([(3, 5)])
    with pytest.raises(DomainError):
        ratio_stats([(0, 5), (2, 4)])
    with pytest.raises(DomainError):
        ratio_stats([(2, -1), (3, 4)])


PUBLISHED_STATS = {
    SetLabel.MERSENNE: (13.4473, 0.0002977),
    SetLabel.A: (13.4460, 0.0003194),
    SetLabel.B: (13.4485, 0.0017853),
    SetLabel.C: (13.4618, 0.00132591),
    SetLabel.D: (13.4515, 0.000502943),
}

ROW_INDICES = {
    SetLabel.MERSENNE: MID_RANGE_EXPONENTS,
    SetLabel.A: NEXT_PRIME_ROW,
    SetLabel.B: MIDPOINT_ROW,
    SetLabel.C: DOUBLED_ROW,
    SetLabel.D: FIT_LINE_ROW,
}


@pytest.mark.parametrize("label", list(SetLabel))
def test_reference_pairs_reproduce_published_statistics(label):
    pairs = reference_d(index_set(label))
    assert len(pairs) == 13
    assert tuple(n for n, _ in pairs) == ROW_INDICES[label]
    stats = ratio_stats(list(pairs))
    mean, variance = PUBLISHED_STATS[label]
    assert abs(stats.mean - mean) < 5e-5
    assert abs(stats.sample_variance - variance) < 5e-8


def test_index_set_default_rows():
    assert [index_set(label) for label in ROW_INDICES] == [
        IndexSet(label, indices) for label, indices in ROW_INDICES.items()
    ]
    assert index_set(SetLabel.A) == index_set("A")


def test_index_set_rank_bounds():
    assert index_set("mersenne", 13, 17).indices == (521, 607, 1279, 2203, 2281)
    assert index_set("mersenne", from_rank=30).indices == MID_RANGE_EXPONENTS[4:]
    assert index_set("mersenne", to_rank=27).indices == MID_RANGE_EXPONENTS[:2]
    assert index_set("A", 16, 17).indices == (2207, 2287)
    assert index_set("A", to_rank=30).indices == NEXT_PRIME_ROW[:5]
    assert index_set("B", 10, 14).indices == (98, 117, 324, 564)
    assert index_set("B", from_rank=30).indices == MIDPOINT_ROW[5:]
    assert index_set("B", to_rank=30).indices == MIDPOINT_ROW[:5]
    for label, bounds in (("mersenne", (40, 50)), ("A", (5, 4)), ("B", (14, 14))):
        with pytest.raises(RangeError):
            index_set(label, *bounds)


@pytest.mark.parametrize("label", ["C", "D"])
@pytest.mark.parametrize("bounds", [(3, None), (None, 5), (1, 2)])
def test_fixture_rows_take_no_rank_range(label, bounds):
    with pytest.raises(RangeError, match=f"^set {label} is a fixture; it takes no rank range$"):
        index_set(label, *bounds)


def test_index_set_rejects_an_unknown_label():
    with pytest.raises(DomainError, match="'mersenne', 'A', 'B', 'C', 'D', got 'Z'"):
        index_set("Z")


def test_reference_d_covers_the_default_rows_and_catalog_ranges():
    for label in SetLabel:
        pairs = reference_d(index_set(label))
        assert tuple(n for n, _ in pairs) == ROW_INDICES[label]
    catalog = {e.exponent: e.reference_d for e in catalog_entries()}
    assert reference_d(index_set("mersenne", 1, 5)) == tuple((n, catalog[n]) for n in (2, 3, 5, 7, 13))


def test_reference_d_is_none_when_an_index_is_missing():
    assert reference_d(index_set("A", 16, 17)) is None
    assert reference_d(index_set("B", 10, 14)) is None
    # One embedded index and one foreign one.
    mixed = IndexSet(label=SetLabel.C, indices=(22426, 22427))
    assert reference_d(mixed) is None



# Rows below 150,000 recompute in about a second together; those up to
# 1,500,000 take about half a minute, so they run under -m long.  The
# 14 rows above that stand as reference data.
@pytest.mark.parametrize(
    "low, high",
    [(1, 149_999), pytest.param(150_000, 1_500_000, marks=pytest.mark.long)],
    ids=["below-150k", "150k-1500k"],
)
def test_reference_rows_recompute(low, high):
    rows = [
        (label, n, d)
        for label in (SetLabel.A, SetLabel.B, SetLabel.C, SetLabel.D)
        for n, d in reference_d(index_set(label))
        if low <= n <= high
    ]
    assert len(rows) == 19
    for label, n, d in rows:
        assert path_length(mersenne_number(n)).d == d, (label.value, n)


def test_scan_integer_window():
    records = scan_ratios(16, 1, 1, False)
    assert [r.exponent for r in records] == [15, 16, 17]
    assert [r.is_prime_index for r in records] == [False, False, True]
    for r in records:
        assert r.d == naive_path_length(2**r.exponent - 1)[0]
        assert r.ratio == r.d / r.exponent


def test_scan_integer_window_clips_at_two():
    records = scan_ratios(3, 3, 2, False)
    assert [r.exponent for r in records] == [3, 5, 7, 9]


def test_scan_prime_window_around_a_catalog_exponent():
    records = scan_ratios(23209, 2, 1, True)
    exponents = [r.exponent for r in records]
    assert len(exponents) == 5 and exponents[2] == 23209
    assert exponents == sorted(exponents)
    for r in records:
        assert trial_division_is_prime(r.exponent)
        assert r.is_prime_index
    assert records[2].d == 312164
    assert records[2].ratio == 312164 / 23209


def test_scan_prime_window_small():
    records = scan_ratios(127, 2, 1, True, jobs=2)
    assert [r.exponent for r in records] == [109, 113, 127, 131, 137]
    assert records[2].d == 1660
    serial = scan_ratios(127, 2, 1, True, jobs=1)
    assert records == serial


def test_scan_prime_stride_skips():
    # Walking out from 100: below 97, 89, 83, 79 keeps every 2nd (89, 79);
    # above 101, 103, 107, 109 keeps every 2nd (103, 109).
    records = scan_ratios(100, 2, 2, True)
    assert [r.exponent for r in records] == [79, 89, 103, 109]


def test_scan_prime_window_truncates_at_the_bottom():
    records = scan_ratios(5, 10, 1, True)
    assert [r.exponent for r in records] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


_SIEVE_LIMIT = 8000
_SIEVE = sieve_flags(_SIEVE_LIMIT)
_PRIMES = [n for n in range(_SIEVE_LIMIT) if _SIEVE[n]]


@given(
    center=st.integers(2, 5000),
    count=st.integers(0, 8),
    stride=st.integers(1, 4),
)
def test_prime_window_matches_a_sieve(center, count, stride):
    below = [p for p in reversed(_PRIMES) if p < center][stride - 1 :: stride][:count]
    above = [p for p in _PRIMES if p > center][stride - 1 :: stride][:count]
    assert len(above) == count  # the sieve reaches past the window
    middle = [center] if _SIEVE[center] else []
    assert primes_from(center, count, stride, -1) == below
    assert primes_from(center, count, stride, 1) == above
    assert _scan_exponents(center, count, stride, True) == below[::-1] + middle + above


def test_prime_window_strides_and_truncates_near_two():
    assert _scan_exponents(2, 3, 2, True) == [2, 5, 11, 17]
    assert _scan_exponents(4, 3, 1, True) == [2, 3, 5, 7, 11]
    assert _scan_exponents(8, 3, 2, True) == [2, 5, 13, 19, 29]


def _integer_window(center, count, stride):
    # The integer-mode window spelled out term by term: the reference the
    # lazy range is checked against.
    below = [center - j * stride for j in range(count, 0, -1)]
    above = [center + j * stride for j in range(1, count + 1)]
    return [n for n in below if n >= 2] + [center] + above


@given(
    center=st.integers(2, 10**6),
    count=st.integers(0, 40),
    stride=st.integers(1, 50),
)
def test_integer_window_matches_the_term_by_term_list(center, count, stride):
    window = _scan_exponents(center, count, stride, False)
    assert list(window) == _integer_window(center, count, stride)


def test_a_wide_integer_window_costs_no_memory_to_build():
    # The narrower window first: a window listed in full fails there, at a
    # few MB, before the 10**9 one could exhaust memory.
    for each_side in (10**5, 10**9):
        tracemalloc.start()
        try:
            window = _scan_exponents(100, each_side, 1, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, each_side
        assert (window[0], window[-1], len(window)) == (2, each_side + 100, each_side + 99)


def test_scan_count_zero_is_empty():
    assert scan_ratios(100, 0, 5, True) == []
    assert scan_ratios(100, 0, 5, False) == []


def test_scan_validation():
    with pytest.raises(DomainError):
        scan_ratios(1, 2, 1, True)
    with pytest.raises(DomainError):
        scan_ratios(100, -1, 1, True)
    with pytest.raises(DomainError):
        scan_ratios(100, 2, 0, True)
    with pytest.raises(DomainError):
        scan_ratios(100, 2, 1, True, jobs=0)


@pytest.mark.long
def test_staircase_window_structure():
    # A wide stride-1 window across rank 26.  Structural checks only; the
    # band behaviour is reported, not asserted, since nearby non-catalog
    # primes have no published reference values.
    records = scan_ratios(23209, 25, 1, True, jobs=4)
    assert len(records) == 51
    exponents = [r.exponent for r in records]
    assert exponents == sorted(exponents)
    assert exponents[25] == 23209
    assert records[25].d == 312164
    ratios = [r.ratio for r in records]
    spread = max(ratios) - min(ratios)
    print(f"staircase window: {len(records)} primes, ratio spread {spread:.4f}")
