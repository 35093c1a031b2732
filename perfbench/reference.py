"""Independent expected values for the benchmark's correctness gate.

Every D the benchmark accepts comes from here, never from the package
under test.  The stepper applies one rule at a time (3x+1 for odd x, x/2
for even x) and shares no code with ``collatzpath.engine``; primality is
plain trial division, so it shares nothing with ``collatzpath.catalog``.

The frozen table ``perfbench/expected.py`` holds the stepper's results for
every exponent a seeded workload can draw.  Regenerate it with

    python3 perfbench/reference.py > perfbench/expected.py

which takes a few minutes on one core.
"""

from __future__ import annotations

import sys
from typing import NamedTuple


class Walk(NamedTuple):
    """Exact counts of the path from 2**n - 1 down to 1."""

    d: int
    odd: int
    peak: int


def walk(x: int) -> Walk:
    """Walk x to 1 one rule at a time.

    odd counts 3x+1 applications, which equals the engine's fused steps for
    an odd start.  peak is the largest bit length of any value visited.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    d = odd = 0
    peak = x.bit_length()
    while x != 1:
        if x & 1:
            x = 3 * x + 1
            odd += 1
            b = x.bit_length()
            if b > peak:
                peak = b
        else:
            x >>= 1
        d += 1
    return Walk(d, odd, peak)


def walk_mersenne(n: int) -> Walk:
    return walk((1 << n) - 1)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_between(low: int, high: int) -> list[int]:
    """Primes p with low <= p <= high, ascending."""
    return [p for p in range(max(low, 2), high + 1) if is_prime(p)]


def scan_window(center: int, each_side: int) -> list[int]:
    """The exponents of ``scan --primes-only --stride 1``: each_side primes
    below center, center itself when prime, each_side primes above."""
    below = []
    p = center - 1
    while len(below) < each_side and p >= 2:
        if is_prime(p):
            below.append(p)
        p -= 1
    above = []
    q = center + 1
    while len(above) < each_side:
        if is_prime(q):
            above.append(q)
        q += 1
    middle = [center] if is_prime(center) else []
    return sorted(below) + middle + above


# Catalog exponents of ranks 1..28, the rows catalog-verify and
# mersenne-big can reach; kept here so the gate does not read the catalog.
CATALOG_EXPONENTS = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203,
    2281, 3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497,
    86243,
)

# Seeded inputs are drawn from these bands, narrow enough that every draw
# costs within a few per cent of the default input.
MERSENNE_BIG_BAND = (86243 - 150, 86243 + 150)
CHECKPOINT_BAND = (44497 - 100, 44497 + 100)
SCAN_CENTER_BAND = (19937 - 50, 19937 + 50)
SCAN_EACH_SIDE = 6


def table_exponents() -> list[int]:
    wanted = set(CATALOG_EXPONENTS)
    wanted.update(primes_between(*MERSENNE_BIG_BAND))
    wanted.update(primes_between(*CHECKPOINT_BAND))
    for center in primes_between(*SCAN_CENTER_BAND):
        wanted.update(scan_window(center, SCAN_EACH_SIDE))
    return sorted(wanted)


def main() -> None:
    print('"""Frozen one-rule-at-a-time results: exponent n -> (D, odd steps, peak bits)')
    print("of 2**n - 1.  Generated by ``python3 perfbench/reference.py``; do not edit.")
    print('"""')
    print()
    print("EXPECTED = {")
    for n in table_exponents():
        w = walk_mersenne(n)
        print(f"    {n}: ({w.d}, {w.odd}, {w.peak}),", flush=True)
    print("}")


if __name__ == "__main__":
    sys.exit(main())
