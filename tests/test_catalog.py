"""Catalog fixture integrity plus the primality machinery built on it."""

import pytest

from conftest import sieve_flags, trial_division_is_prime

from collatzpath import (
    CATALOG_SIZE,
    RANK_45_EXPONENT_MISPRINT,
    CatalogEntry,
    DomainError,
    RangeError,
    catalog_entries,
    catalog_entry,
    is_prime,
    lucas_lehmer,
    mersenne_number,
    next_prime,
    path_length,
    primes_from,
)


def test_catalog_corner_rows():
    assert catalog_entry(1) == CatalogEntry(1, 2, 7, 3.5)
    assert catalog_entry(31) == CatalogEntry(31, 216091, 2906179, 13.4489)
    assert catalog_entry(47) == CatalogEntry(47, 43112609, 580260946, 13.4592)


def test_rank_45_carries_the_corrected_exponent():
    entry = catalog_entry(45)
    assert entry.exponent == 37156667
    assert entry.exponent != RANK_45_EXPONENT_MISPRINT
    # The published ratio picks the corrected value, not the misprint.
    assert abs(entry.reference_d / entry.exponent - entry.reference_ratio) < 1e-3
    assert abs(entry.reference_d / RANK_45_EXPONENT_MISPRINT - entry.reference_ratio) > 10
    # And only the corrected value keeps the exponent column monotone.
    assert catalog_entry(44).exponent < entry.exponent < catalog_entry(46).exponent


@pytest.mark.parametrize("bad_rank", [0, 48, -3, 1000])
def test_catalog_entry_range(bad_rank):
    with pytest.raises(RangeError):
        catalog_entry(bad_rank)


def test_catalog_entry_requires_integer_rank():
    with pytest.raises(DomainError):
        catalog_entry(1.5)


def test_catalog_shape():
    entries = catalog_entries()
    assert len(entries) == CATALOG_SIZE == 47
    assert [e.rank for e in entries] == list(range(1, 48))
    for a, b in zip(entries, entries[1:]):
        assert a.exponent < b.exponent
    for e in entries:
        assert abs(e.reference_d / e.exponent - e.reference_ratio) < 1e-3


def test_catalog_entries_slices_every_valid_range():
    for a in range(1, 48):
        for b in range(a, 48):
            assert list(catalog_entries(a, b)) == [catalog_entry(k) for k in range(a, b + 1)]
    assert catalog_entries() == catalog_entries(1, 47)


@pytest.mark.parametrize(
    "bounds",
    [(0, 3), (0, 47), (1, 48), (47, 48), (0, 0), (48, 48), (-1, 5),
     (7, 5), (2, 1), (47, 46), (47, 1), (48, 47)],
)
def test_catalog_entries_range_errors(bounds):
    with pytest.raises(RangeError, match=r"^ranks must satisfy 1 <= from <= to <= 47, got "):
        catalog_entries(*bounds)


def test_catalog_exponents_are_prime():
    # Trial division is slow but independent; 43112609 has a 6566-step loop.
    for e in catalog_entries():
        assert trial_division_is_prime(e.exponent), e.exponent


@pytest.mark.parametrize("n, expected", [(1, 1), (2, 3), (3, 7), (5, 31), (13, 8191)])
def test_mersenne_number_examples(n, expected):
    assert mersenne_number(n) == expected


def test_mersenne_number_bit_length():
    for n in range(1, 2001):
        assert mersenne_number(n).bit_length() == n


@pytest.mark.parametrize("bad", [0, -1, "13"])
def test_mersenne_number_rejects(bad):
    with pytest.raises(DomainError):
        mersenne_number(bad)


def test_mersenne_plus_one_path_is_the_exponent():
    for n in range(1, 301):
        assert path_length(mersenne_number(n) + 1).d == n


@pytest.mark.parametrize(
    "n, expected",
    [
        (0, False), (1, False), (2, True), (3, True), (4, False), (5, True),
        (25, False), (91, False), (97, True),
        (561, False), (1105, False), (41041, False),  # Carmichael numbers
        (2**31 - 1, True), (2**61 - 1, True), (2**61 + 1, False),
        (2**64 - 59, True),  # the largest prime below the supported limit
        (2**64 - 1, False),
    ],
)
def test_is_prime_examples(n, expected):
    assert is_prime(n) is expected


def test_is_prime_agrees_with_sieve():
    flags = sieve_flags(20000)
    for n in range(20000):
        assert is_prime(n) is bool(flags[n]), n


def test_is_prime_agrees_with_trial_division(rng):
    for _ in range(2000):
        n = rng.randrange(0, 10**6)
        assert is_prime(n) is trial_division_is_prime(n), n


@pytest.mark.long
def test_is_prime_agrees_with_sieve_to_a_million():
    flags = sieve_flags(1_000_000)
    for n in range(1_000_000):
        assert is_prime(n) is bool(flags[n]), n


def test_is_prime_agrees_with_gmp(rng):
    gmpy2 = pytest.importorskip("gmpy2")
    for _ in range(500):
        n = rng.getrandbits(64)
        assert is_prime(n) is bool(gmpy2.is_prime(n)), n


def test_is_prime_bounds():
    with pytest.raises(RangeError):
        is_prime(2**64)
    with pytest.raises(RangeError):
        is_prime(2**64 + 1)
    with pytest.raises(DomainError):
        is_prime(-1)
    with pytest.raises(DomainError):
        is_prime("97")


@pytest.mark.parametrize(
    "n, expected",
    [(1, 2), (2, 3), (3, 5), (13, 17), (23209, 23227), (44497, 44501), (2203, 2207)],
)
def test_next_prime_examples(n, expected):
    assert next_prime(n) == expected


def test_next_prime_gaps_are_empty(rng):
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        p = next_prime(n)
        assert p > n and trial_division_is_prime(p)
        for q in range(n + 1, p):
            assert not trial_division_is_prime(q)


def _next_prime_by_odd_candidates(n):
    # The walk next_prime made before it went through primes_from.
    candidate = n + 1
    if candidate <= 2:
        return 2
    candidate |= 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def test_next_prime_matches_the_odd_candidate_walk(rng):
    starts = [rng.randrange(1, 10**6) for _ in range(300)]
    starts += [rng.randrange(1, 2**63) for _ in range(100)]
    starts += [rng.randrange(2**64 - 10**4, 2**64 - 59) for _ in range(20)]
    for n in [1, 2, 3, 4] + starts:
        assert next_prime(n) == _next_prime_by_odd_candidates(n), n


@pytest.mark.parametrize("step", [0, 2, -2])
def test_primes_from_walks_by_one(step):
    with pytest.raises(DomainError, match=f"^step must be 1 or -1, got {step}$"):
        primes_from(10, 1, 1, step)


def test_primes_from_stops_at_the_ends():
    assert primes_from(20, 10, 1, -1) == [19, 17, 13, 11, 7, 5, 3, 2]
    assert primes_from(2, 3, 1, -1) == []
    assert primes_from(1, 3, 1, 1) == [2, 3, 5]
    assert primes_from(100, 0, 1, 1) == []
    with pytest.raises(RangeError):
        primes_from(2**64 - 59, 1, 1, 1)


def test_next_prime_limits():
    with pytest.raises(DomainError):
        next_prime(0)
    # 2**64 - 59 is the last prime below the limit; above it the walk runs out.
    with pytest.raises(RangeError):
        next_prime(2**64 - 59)
    with pytest.raises(RangeError):
        next_prime(2**64 - 2)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521])
def test_lucas_lehmer_accepts_catalog_exponents(p):
    assert lucas_lehmer(p) is True


@pytest.mark.parametrize("p", [11, 23, 29, 37, 41, 43, 47, 53, 59, 67, 71, 101, 257])
def test_lucas_lehmer_rejects_composite_mersennes(p):
    assert lucas_lehmer(p) is False


@pytest.mark.parametrize("p", [2, 1, 0, -7, 4, 9, 15, 1001, -3])
def test_lucas_lehmer_domain(p):
    # p = 2 is excluded on purpose: the recurrence runs p - 2 rounds, and
    # zero rounds would report s = 4 != 0 even though 3 is prime.
    with pytest.raises(DomainError, match=f"^p must be an odd prime, got {p}$"):
        lucas_lehmer(p)


def test_lucas_lehmer_matches_catalog_below_1300():
    catalog_exponents = {e.exponent for e in catalog_entries()}
    flags = sieve_flags(1300)
    for p in range(3, 1300, 2):
        if flags[p]:
            assert lucas_lehmer(p) is (p in catalog_exponents), p
