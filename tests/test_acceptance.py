"""Acceptance checklist, one test per numbered criterion.

Each test prints a [criterion NN] PASS/FAIL line directly to the terminal
(bypassing capture) so a full run reads as a checklist.  Expected values
are frozen literals in this file, deliberately duplicated from the package
fixtures so a fixture edit cannot silently re-baseline the gate.
"""

import math
import random

import pytest

from conftest import naive_path_length, naive_step

from collatzpath import (
    MERSENNE_SLOPE,
    advance,
    catalog_entry,
    checkpoint_read,
    checkpoint_write,
    fit_loglog,
    index_set,
    initial_state,
    mersenne_number,
    parse_expression,
    path_length,
    ratio_stats,
    raw_advance,
    serialize_checkpoint,
    trace,
    verify_transit_lemma,
)
from collatzpath.cli import build_parser, parse_rank_range


@pytest.fixture
def criterion(capsys):
    def run(number: int, label: str, fn):
        try:
            extra = fn()
        except BaseException as exc:
            with capsys.disabled():
                print(f"[criterion {number:02d}] FAIL {label}: {type(exc).__name__}: {exc}")
            raise
        note = f" ({extra})" if extra else ""
        with capsys.disabled():
            print(f"[criterion {number:02d}] PASS {label}{note}")

    return run


FAST_TIER = (
    (1, 2, 7), (2, 3, 16), (3, 5, 106), (4, 7, 46), (5, 13, 158),
    (6, 17, 224), (7, 19, 177), (8, 31, 450), (9, 61, 860), (10, 89, 1454),
    (11, 107, 1441), (12, 127, 1660), (13, 521, 6769), (14, 607, 8494),
    (15, 1279, 17094), (16, 2203, 29821), (17, 2281, 30734),
)

MEDIUM_TIER = (
    (18, 3217, 43478), (19, 4253, 55906), (20, 4423, 60716),
    (21, 9689, 129608), (22, 9941, 134345), (23, 11213, 153505),
    (24, 19937, 265860), (25, 21701, 293161), (26, 23209, 312164),
    (27, 44497, 598067), (28, 86243, 1158876), (29, 110503, 1482529),
    (30, 132049, 1771117), (31, 216091, 2906179),
)

LARGE_TIER = (
    (32, 756839, 10197081), (33, 859433, 11568589),
    (34, 1257787, 16927967), (35, 1398269, 18807193),
)

SEVEN_TRACE = [7, 22, 11, 34, 17, 52, 26, 13, 40, 20, 10, 5, 16, 8, 4, 2, 1]

SET_A_ROW = (
    23227, 44501, 86249, 110527, 132059, 216103, 756853,
    859447, 1257827, 1398281, 2976229, 3021407, 6972607,
)
SET_B_ROW = (
    22455, 33853, 65370, 98373, 121276, 174070, 486465,
    808136, 1058610, 1328028, 2187245, 2998799, 4996985,
)
SET_C_ROW = (
    22426, 43402, 46418, 88994, 172486, 221006, 264098,
    432182, 1513678, 1718866, 2515574, 2796538, 5952442,
)
SET_D_ROW = (
    20160, 43644, 64216, 94484, 139021, 204550, 442830,
    651562, 958682, 1410567, 2075452, 3053739, 4493150,
)

MERSENNE_PAIRS = (
    (23209, 312164), (44497, 598067), (86243, 1158876), (110503, 1482529),
    (132049, 1771117), (216091, 2906179), (756839, 10197081),
    (859433, 11568589), (1257787, 16927967), (1398269, 18807193),
    (2976221, 40055567), (3021377, 40663017), (6972593, 93778449),
)
B_PAIRS = (
    (22455, 299801), (33853, 457438), (65370, 875438), (98373, 1327329),
    (121276, 1633743), (174070, 2344640), (486465, 6524449),
    (808136, 10868120), (1058610, 14246657), (1328028, 17876449),
    (2187245, 29428265), (2998799, 40364153), (4996985, 67195624),
)
C_PAIRS = (
    (22426, 299772), (43402, 584422), (46418, 627877), (88994, 1201650),
    (172486, 2320161), (221006, 2974984), (264098, 3556035),
    (432182, 5828307), (1513678, 20384499), (1718866, 23124964),
    (2515574, 33827530), (2796538, 37632788), (5952442, 80085173),
)


def test_criterion_01_fast_tier_exact(criterion):
    def check():
        for rank, exponent, expected_d in FAST_TIER:
            entry = catalog_entry(rank)
            assert (entry.exponent, entry.reference_d) == (exponent, expected_d)
            assert path_length(mersenne_number(exponent)).d == expected_d, exponent
        return "ranks 1..17"

    criterion(1, "fast-tier path lengths recomputed exactly", check)


def test_criterion_02_medium_tier_exact(criterion):
    def check():
        for rank, exponent, expected_d in MEDIUM_TIER:
            entry = catalog_entry(rank)
            assert (entry.exponent, entry.reference_d) == (exponent, expected_d)
            assert path_length(mersenne_number(exponent)).d == expected_d, exponent
        return "ranks 18..31"

    criterion(2, "medium-tier path lengths recomputed exactly", check)


def test_criterion_03_large_tier_stays_reachable(criterion):
    def check():
        assert parse_rank_range("32..47") == (32, 47)
        assert parse_rank_range("47..47") == (47, 47)
        parser = build_parser()
        args = parser.parse_args(["verify", "--ranks", "40..47"])
        assert args.handler.__name__ == "_cmd_verify"
        assert parse_rank_range(args.ranks) == (40, 47)
        return "verify accepts ranks 32..47 for opt-in runs"

    criterion(3, "large tier delegated to checkpointing plus oracle equivalence", check)


@pytest.mark.long
def test_criterion_03_large_tier_recomputed_exactly(criterion):
    def check():
        for rank, exponent, expected_d in LARGE_TIER:
            entry = catalog_entry(rank)
            assert (entry.exponent, entry.reference_d) == (exponent, expected_d)
            assert path_length(mersenne_number(exponent)).d == expected_d, exponent
        return "ranks 32..35"

    criterion(3, "large-tier path lengths recomputed exactly", check)


def test_criterion_04_identity_suite(criterion):
    def check():
        assert path_length(1).d == 0
        assert path_length(7).d == 16
        assert trace(7) == SEVEN_TRACE
        for n in range(1, 1001):
            assert path_length(2**n).d == n, n
        return "D(2^n)=n for n in 1..1000, 17-entry trace of 7"

    criterion(4, "power-of-two and small-start identities", check)


def test_criterion_05_oracle_equivalence(criterion):
    def check():
        for x in range(1, 100001):
            got = path_length(x)
            d, odd, even, peak = naive_path_length(x)
            assert (got.d, got.odd_steps, got.even_steps) == (d, odd, even), x
            assert got.peak_bit_length == peak, x
        return "x in 1..100000, field by field"

    criterion(5, "accelerated engine equals the single-rule reference", check)


def test_criterion_06_transit_lemma(criterion):
    def check():
        for n in range(1, 201):
            state = initial_state((1 << n) - 1)
            if n >= 2:
                landmark = raw_advance(state, 2)
                assert landmark.current == 3 * (1 << (n - 1)) - 1, n
            assert raw_advance(state, 2 * n).current == 3**n - 1, n
            assert verify_transit_lemma(n), n
            # The engine takes the climb by this very closed form; one rule
            # at a time is the independent check.
            x = (1 << n) - 1
            for step in range(1, 2 * n + 1):
                x = naive_step(x)
                if step == 2:
                    assert x == 3 * (1 << (n - 1)) - 1, n
            assert x == 3**n - 1, n
        return "n in 1..200, by the engine and one rule at a time"

    criterion(6, "2^n-1 reaches 3^n-1 after exactly 2n steps", check)


def test_criterion_07_heuristic_constant(criterion):
    def check():
        fresh = 2.0 + 3.0 * math.log(3.0) / math.log(4.0 / 3.0)
        assert abs(fresh - 13.45652) < 1e-4
        assert fresh == MERSENNE_SLOPE
        return f"2 + 3 ln3/ln(4/3) = {fresh:.6f}"

    criterion(7, "slope constant matches 13.45652 within 1e-4", check)


def test_criterion_08_loglog_fit(criterion):
    def check():
        entries = [(k, catalog_entry(k).exponent) for k in range(1, 48)]
        fit = fit_loglog(entries)
        assert abs(fit.intercept - 0.92757) < 0.02
        assert abs(fit.slope - 0.55715) < 0.02
        return f"intercept {fit.intercept:.5f}, slope {fit.slope:.5f}"

    criterion(8, "47-entry log-log fit reproduces the published line", check)


def test_criterion_09_checkpoint_determinism(criterion, tmp_path):
    def check():
        expr = parse_expression("M2203")
        straight = path_length(expr.resolve())
        assert straight.d == 29821

        rng = random.Random(2203)
        for trial in range(3):
            path = tmp_path / f"trial{trial}.ckpt"
            stops = sorted(rng.sample(range(1, 29821), 3))
            state = initial_state(expr.resolve(), origin=expr)
            consumed = 0
            for stop in stops:
                state = advance(state, stop - consumed)
                consumed = stop
                written = checkpoint_write(path, state)
                data = path.read_bytes()
                assert data == serialize_checkpoint(written)
                reread = checkpoint_read(path)
                assert serialize_checkpoint(reread) == data
                state = reread.to_state()  # resume as if freshly restarted
            state = advance(state, 10**9)
            assert state.halted
            assert (state.steps, state.odd_steps, state.even_steps, state.peak_bit_length) == (
                straight.d, straight.odd_steps, straight.even_steps, straight.peak_bit_length,
            ), stops
        return "3 random interrupt patterns, byte-identical files"

    criterion(9, "interrupted M2203 runs reproduce d = 29821", check)


def test_criterion_10_comparison_sets(criterion):
    def check():
        assert index_set("A", 26, 38).indices == SET_A_ROW
        assert index_set("B", 25, 38).indices == SET_B_ROW
        assert index_set("C").indices == SET_C_ROW
        assert index_set("D").indices == SET_D_ROW
        return "sets A, B generated; C, D verbatim"

    criterion(10, "all four 13-element comparison rows reproduced", check)


def test_criterion_11_reference_statistics(criterion):
    def check():
        mersenne = ratio_stats(list(MERSENNE_PAIRS))
        assert abs(mersenne.mean - 13.4473) < 5e-5
        assert abs(mersenne.sample_variance - 0.0002977) < 5e-8

        row_b = ratio_stats(list(B_PAIRS))
        assert abs(row_b.mean - 13.4485) < 5e-5
        assert abs(row_b.sample_variance - 0.0017853) < 5e-8

        row_c = ratio_stats(list(C_PAIRS))
        assert abs(row_c.mean - 13.4618) < 5e-5
        assert abs(row_c.sample_variance - 0.00132591) < 5e-8
        return "mersenne, B, C rows within 5e-5 / 5e-8"

    criterion(11, "ratio statistics match the published mean and variance", check)


def test_criterion_12_variance_ordering(criterion):
    def check():
        mersenne_exponents = index_set("mersenne", 13, 26).indices
        midpoints = index_set("B", 13, 26).indices
        mersenne_var = ratio_stats(
            [(n, path_length(mersenne_number(n)).d) for n in mersenne_exponents]
        ).sample_variance
        midpoint_var = ratio_stats(
            [(n, path_length(mersenne_number(n)).d) for n in midpoints]
        ).sample_variance
        assert mersenne_var < midpoint_var, (
            f"expected Var[mersenne] < Var[midpoints], got {mersenne_var:.6f} "
            f">= {midpoint_var:.6f}"
        )
        return f"Var[mersenne] {mersenne_var:.6f} < Var[midpoints] {midpoint_var:.6f}"

    criterion(12, "Mersenne ratios vary less than midpoint ratios at desk scale", check)
