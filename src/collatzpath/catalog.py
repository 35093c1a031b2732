"""The 47 known Mersenne prime exponents with reference path lengths.

Each row carries the measured Collatz path length D(2**n - 1) and the
rounded ratio D/n as published alongside the exponent list this package
reproduces.  The default test tier recomputes ranks 1..31, in about two
seconds together, -m long adds ranks 32..35 (about 15 s) and -m huge
ranks 36..38.  Ranks 39..47 take from a minute and a half to a quarter
of an hour each, and are recomputed twice, offline: both routes of each,
a plain and a checkpointed pathlen, are recorded in
data/catalog_recomputed.csv, which a tier-1 test checks against the rows
here.  So no row of the catalog is unverified.

The catalog's rules live here alone: catalog_entries(from_rank, to_rank)
is the package's one check of a rank range, and primes_from its one walk
to nearby primes (next_prime, set A and the prime windows of a scan).
Both rest on a deterministic Miller-Rabin below 2**64; the Lucas-Lehmer
test checks the Mersenne numbers themselves.
"""

from __future__ import annotations

from .errors import DomainError, RangeError, Record, checked_exponent, checked_int, int_text

CATALOG_SIZE = 47

# Rank 45 is misprinted as 371566673 in some circulations of this table.
# The correct exponent is 37156667: the published ratio 13.4539 matches
# 499902411 / 37156667, and 371566673 would break the strict monotonic
# growth against ranks 44 and 46.  The corrected value is authoritative;
# the misprint is kept available for reference.
RANK_45_EXPONENT_MISPRINT = 371566673

# (rank, exponent, reference_d, reference_ratio)
_ROWS = (
    (1, 2, 7, 3.5),
    (2, 3, 16, 5.33333),
    (3, 5, 106, 21.2),
    (4, 7, 46, 6.57143),
    (5, 13, 158, 12.1538),
    (6, 17, 224, 13.1765),
    (7, 19, 177, 9.31579),
    (8, 31, 450, 14.5161),
    (9, 61, 860, 14.0984),
    (10, 89, 1454, 16.3371),
    (11, 107, 1441, 13.4673),
    (12, 127, 1660, 13.0709),
    (13, 521, 6769, 12.9923),
    (14, 607, 8494, 13.9934),
    (15, 1279, 17094, 13.3651),
    (16, 2203, 29821, 13.5365),
    (17, 2281, 30734, 13.4739),
    (18, 3217, 43478, 13.5151),
    (19, 4253, 55906, 13.1451),
    (20, 4423, 60716, 13.7273),
    (21, 9689, 129608, 13.3768),
    (22, 9941, 134345, 13.5142),
    (23, 11213, 153505, 13.6899),
    (24, 19937, 265860, 13.335),
    (25, 21701, 293161, 13.5091),
    (26, 23209, 312164, 13.4501),
    (27, 44497, 598067, 13.4406),
    (28, 86243, 1158876, 13.4373),
    (29, 110503, 1482529, 13.4162),
    (30, 132049, 1771117, 13.4126),
    (31, 216091, 2906179, 13.4489),
    (32, 756839, 10197081, 13.4732),
    (33, 859433, 11568589, 13.4607),
    (34, 1257787, 16927967, 13.4585),
    (35, 1398269, 18807193, 13.4503),
    (36, 2976221, 40055567, 13.4585),
    (37, 3021377, 40663017, 13.4584),
    (38, 6972593, 93778449, 13.4496),
    (39, 13466917, 181209792, 13.4559),
    (40, 20996011, 282515044, 13.4557),
    (41, 24036583, 323346876, 13.4523),
    (42, 25964951, 349304386, 13.4529),
    (43, 30402457, 409093991, 13.456),
    (44, 32582657, 438465334, 13.457),
    (45, 37156667, 499902411, 13.4539),
    (46, 42643801, 573966881, 13.4596),
    (47, 43112609, 580260946, 13.4592),
)


class CatalogEntry(Record):
    """One catalog row: the k-th Mersenne prime and its reference data."""

    __slots__ = ("rank", "exponent", "reference_d", "reference_ratio")

    def __init__(self, rank: int, exponent: int, reference_d: int, reference_ratio: float) -> None:
        self._set_fields(rank, exponent, reference_d, reference_ratio)


_ENTRIES = tuple(CatalogEntry(*row) for row in _ROWS)


def mersenne_number(n: int) -> int:
    """2**n - 1; the result has bit length exactly n.

    Raises RangeError for n above errors.MAX_EXPONENT, before building it.
    """
    return (1 << checked_exponent(n, "n", 1)) - 1


def catalog_entry(k: int) -> CatalogEntry:
    """The fixture row at rank k, 1-based."""
    k = checked_int(k, "k")
    if not 1 <= k <= CATALOG_SIZE:
        raise RangeError(f"rank must be in [1, {CATALOG_SIZE}], got {int_text(k, 'value')}")
    return _ENTRIES[k - 1]


def catalog_entries(from_rank: int = 1, to_rank: int = CATALOG_SIZE) -> tuple[CatalogEntry, ...]:
    """The rows of ranks from_rank..to_rank inclusive, in rank order; all 47 by default.

    Raises RangeError unless 1 <= from_rank <= to_rank <= 47.
    """
    from_rank = checked_int(from_rank, "from_rank")
    to_rank = checked_int(to_rank, "to_rank")
    if not 1 <= from_rank <= to_rank <= CATALOG_SIZE:
        raise RangeError(
            f"ranks must satisfy 1 <= from <= to <= {CATALOG_SIZE}, "
            f"got {int_text(from_rank, 'rank')}..{int_text(to_rank, 'rank')}"
        )
    return _ENTRIES[from_rank - 1 : to_rank]


_U64_LIMIT = 1 << 64

# Witness set proven deterministic for every n < 3.3e24, far past 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality for 0 <= n < 2**64.

    Miller-Rabin over the first twelve prime bases, which is a proven
    deterministic witness set for the full 64-bit range.  Larger inputs
    raise RangeError rather than silently degrading to a probable-prime
    answer.
    """
    n = checked_int(n, "n", 0)
    if n >= _U64_LIMIT:
        raise RangeError("is_prime is only deterministic below 2**64")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_from(start: int, count: int, stride: int, step: int) -> list[int]:
    """The first count of every stride-th prime met walking from start
    (excluded) by step, +1 or -1; the walk down stops at 2, and a walk
    reaching 2**64 raises RangeError (is_prime's limit)."""
    start = checked_int(start, "start", 1)
    count = checked_int(count, "count", 0)
    stride = checked_int(stride, "stride", 1)
    step = checked_int(step, "step")
    if step not in (1, -1):
        raise DomainError(f"step must be 1 or -1, got {int_text(step, 'value')}")
    found: list[int] = []
    position = 0
    n = start + step
    while len(found) < count and n >= 2:
        if is_prime(n):
            position += 1
            if position % stride == 0:
                found.append(n)
        n += step
    return found


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    return primes_from(checked_int(n, "n", 1), 1, 1, 1)[0]


def lucas_lehmer(p: int) -> bool:
    """Whether 2**p - 1 is prime, for an odd prime p.

    Runs the classic s -> s**2 - 2 recurrence from s = 4 for p - 2 rounds
    modulo 2**p - 1; the Mersenne number is prime exactly when the final
    value is 0.  Reduction never divides: (s & m) + (s >> p) folds the high
    half back in, using 2**p = 1 (mod m).  A p above errors.MAX_EXPONENT
    raises RangeError before m is built.
    """
    p = checked_int(p, "p")
    if p < 3 or not p & 1 or not is_prime(p):
        raise DomainError(f"p must be an odd prime, got {int_text(p, 'value')}")
    m = mersenne_number(p)
    s = 4
    for _ in range(p - 2):
        # m > 2 keeps s * s + m - 2 non-negative; it is s * s - 2 (mod m).
        s = s * s + m - 2
        s = (s & m) + (s >> p)
        while s >= m:
            s -= m
    return s == 0
