"""Drift constants, the transit identity, and the catalog log-log fit."""

import math

import pytest

from collatzpath import (
    C0,
    MERSENNE_SLOPE,
    DegenerateFitError,
    DomainError,
    FitResult,
    catalog_entries,
    fit_loglog,
    heuristic_path_length,
    initial_state,
    mersenne_heuristic,
    raw_advance,
    verify_transit_lemma,
)


def test_constants_recompute_from_scratch():
    c0 = 3.0 / math.log(4.0 / 3.0)
    assert C0 == c0
    assert MERSENNE_SLOPE == 2.0 + c0 * math.log(3.0)
    assert abs(MERSENNE_SLOPE - 13.45652) < 1e-4
    assert abs(C0 - 10.42818) < 1e-5


def test_heuristic_path_length_values():
    assert heuristic_path_length(0.0) == 0.0
    assert heuristic_path_length(1.0) == C0
    assert heuristic_path_length(math.log(10**6)) == pytest.approx(C0 * math.log(10**6))


@pytest.mark.parametrize("bad", [-1.0, -1e-9, float("nan")])
def test_heuristic_path_length_domain(bad):
    with pytest.raises(DomainError):
        heuristic_path_length(bad)


def test_mersenne_heuristic_decomposes():
    assert mersenne_heuristic(1) == MERSENNE_SLOPE
    for n in range(1, 201):
        climb_plus_drift = 2.0 * n + heuristic_path_length(n * math.log(3.0))
        assert mersenne_heuristic(n) == pytest.approx(climb_plus_drift, rel=1e-12)


def test_mersenne_heuristic_tracks_the_reference_measurement():
    # Catalog rank 31: n = 216091 measured D = 2906179.
    estimate = mersenne_heuristic(216091)
    assert abs(estimate - 2906179) / 2906179 < 1e-3


@pytest.mark.parametrize("bad", [0, -2, 1.5])
def test_mersenne_heuristic_domain(bad):
    with pytest.raises(DomainError):
        mersenne_heuristic(bad)


def test_transit_lemma_explicit_small_cases():
    # n = 2: 3 -> 10 -> 5 (= 3*2 - 1) -> 16 -> 8 = 3**2 - 1 after 4 steps.
    state = raw_advance(initial_state(3), 2)
    assert state.current == 5
    assert raw_advance(state, 2).current == 8
    # n = 1 runs straight through 1: 1 -> 4 -> 2 = 3**1 - 1.
    assert raw_advance(initial_state(1), 2).current == 2


def test_transit_lemma_range():
    for n in range(1, 61):
        assert verify_transit_lemma(n), n


def test_transit_lemma_domain():
    with pytest.raises(DomainError):
        verify_transit_lemma(0)


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateFitError):
        fit_loglog([])
    with pytest.raises(DegenerateFitError):
        fit_loglog([(1, 2)])
    with pytest.raises(DegenerateFitError):
        fit_loglog([(2, 8), (2, 16)])
    with pytest.raises(DomainError):
        fit_loglog([(1, 1), (2, 4)])
    with pytest.raises(DomainError):
        fit_loglog([(1, 0), (2, 4)])


def test_fit_two_points_is_exact_interpolation():
    result = fit_loglog([(1, 2), (2, 4)])
    assert result.intercept == pytest.approx(-0.6371234414883982, abs=1e-12)
    assert result.slope == pytest.approx(1.3015721489422876, abs=1e-12)
    assert result.rms_residual < 1e-12


def test_fit_constant_rows_give_zero_slope():
    result = fit_loglog([(1, 8), (2, 8), (3, 8)])
    assert result.slope == 0.0
    assert result.rms_residual == 0.0
    assert result.intercept == pytest.approx(2.9989813568879313, abs=1e-12)


def test_fit_is_permutation_invariant():
    entries = [(e.rank, e.exponent) for e in catalog_entries()]
    forward = fit_loglog(entries)
    assert fit_loglog(list(reversed(entries))) == forward
    rotated = entries[17:] + entries[:17]
    assert fit_loglog(rotated) == forward


def test_fit_full_catalog():
    result = fit_loglog([(e.rank, e.exponent) for e in catalog_entries()])
    assert isinstance(result, FitResult)
    assert abs(result.intercept - 0.92757) < 1e-5
    assert abs(result.slope - 0.55715) < 1e-5
    assert abs(result.rms_residual - 0.64911) < 1e-3


def test_catalog_ratios_track_the_slope():
    entries = catalog_entries()
    # From rank 13 up the published ratios sit within half a unit of the
    # heuristic slope, and from rank 32 up within 0.02.
    for e in entries[12:]:
        assert abs(e.reference_d / e.exponent - MERSENNE_SLOPE) < 0.55, e.rank
    for e in entries[31:]:
        assert abs(e.reference_d / e.exponent - MERSENNE_SLOPE) < 0.02, e.rank
    # The tight band genuinely starts that late: ranks 29 and 30 exceed it.
    for rank in (29, 30):
        e = entries[rank - 1]
        assert abs(e.reference_d / e.exponent - MERSENNE_SLOPE) > 0.02
