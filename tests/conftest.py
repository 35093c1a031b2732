"""Shared test helpers: independent reference implementations.

The references here deliberately take the slowest, most obvious route so
they share no code (and no cleverness) with the package under test.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and machine, so the
# default tier stays reproducible and its running time fixed.
settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=25
)
settings.load_profile("deterministic")


def naive_path_length(x: int) -> tuple[int, int, int, int]:
    """(d, odd_steps, even_steps, peak_bit_length) one rule at a time."""
    if x < 1:
        raise ValueError("defined for x >= 1 only")
    odd = 0
    even = 0
    peak = x.bit_length()
    while x != 1:
        if x & 1:
            x = 3 * x + 1
            odd += 1
        else:
            x >>= 1
            even += 1
        b = x.bit_length()
        if b > peak:
            peak = b
    return odd + even, odd, even, peak


def naive_step(x: int) -> int:
    return 3 * x + 1 if x & 1 else x >> 1


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def sieve_flags(limit: int) -> bytearray:
    """flags[i] nonzero iff i is prime, for 0 <= i < limit."""
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i < limit:
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
        i += 1
    return flags


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0117A72)
