"""Tests of the benchmark itself: frozen values, seeded inputs, tiny runs and the gate.

Run with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

import reference
import run
import tracing
import workloads
from expected import EXPECTED

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _restore_affinity():
    """Calibration pins this process to the measured CPUs; undo it."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)


def test_frozen_table_matches_the_stepper_below_5000_bits():
    small = [n for n in EXPECTED if n < 5000]
    assert len(small) >= 19
    for n in small:
        assert tuple(reference.walk_mersenne(n)) == EXPECTED[n], n


def test_frozen_table_agrees_with_the_catalog():
    from collatzpath.catalog import catalog_entry

    for rank, n in enumerate(reference.CATALOG_EXPONENTS, start=1):
        assert catalog_entry(rank).exponent == n
        assert catalog_entry(rank).reference_d == EXPECTED[n][0], rank


def test_scan_window_matches_the_package():
    from collatzpath.survey import _scan_exponents

    for center in (127, 19937, 19936):
        assert reference.scan_window(center, 6) == _scan_exponents(center, 6, 1, True)


def test_seed_zero_gives_the_reference_inputs():
    argvs = {
        name: [cmd.argv for cmd in workloads.from_seed(name, 0, "F").commands]
        for name in workloads.NAMES
    }
    assert argvs["mersenne-big"] == [("pathlen", "M86243")]
    assert argvs["catalog-verify"] == [("verify", "--ranks", "1..27", "--jobs", "2")]
    resume = ("pathlen", "M44497", "--checkpoint", "F", "--checkpoint-interval", "2000")
    assert argvs["checkpoint-resume"] == [resume, resume]
    assert argvs["survey-scan"] == [
        ("scan", "--center", "19937", "--each-side", "6", "--stride", "1",
         "--primes-only", "--jobs", "2"),
    ]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seeds_are_repeatable_and_stay_in_their_band(name):
    base = workloads.from_seed(name, 0, "F")
    for seed in range(1, 40):
        wl = workloads.from_seed(name, seed, "F")
        assert wl == workloads.from_seed(name, seed, "F")
        assert wl.ops_per_rep == base.ops_per_rep
        cost = sum(w.d * n for n, w in wl.expected.items())
        base_cost = sum(w.d * n for n, w in base.expected.items())
        assert abs(cost / base_cost - 1) < 0.02


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_measures_clean(name, tmp_path):
    wl = workloads.tiny(name, str(tmp_path / "run.ckpt"))
    tally = workloads.Tally()
    values = run.measure(wl, tmp_path, 0, tally)
    assert tally.messages == []
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["ok_share"] == 1
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_traces_clean(name, tmp_path):
    wl = workloads.tiny(name, str(tmp_path / "run.ckpt"))
    tally = workloads.Tally()
    _, fixture = run.set_up(wl, tmp_path, 1, tally, None)
    values, passes = tracing.run(wl, fixture, str(tmp_path), 0, tally)
    assert tally.messages == []
    assert passes == 1
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    layers = [f"{layer}.self_s" for layer in tracing.LAYERS] + ["unattributed_s"]
    assert sum(values[k] for k in layers) == pytest.approx(values["trace.wall_s"], rel=1e-9)
    assert all(values[f"{layer}.self_s"] > 0 for layer in tracing.LAYERS)
    assert values["engine.rule_apps"] == sum(w.d for w in wl.expected.values())


def _one_rep(wl, tmp_path):
    tally = workloads.Tally()
    _, fixture = run.set_up(wl, tmp_path, 1, tally, None)
    run.run_rep(wl, fixture, tmp_path, tally, run.Calibration(sorted(os.sched_getaffinity(0))[:1]))
    return tally


def test_a_wrong_d_is_counted_as_failed(tmp_path):
    wl = workloads.tiny("mersenne-big", str(tmp_path / "run.ckpt"))
    (n,) = wl.starts
    wrong = dataclasses.replace(wl, expected={n: wl.expected[n]._replace(d=wl.expected[n].d + 1)})
    assert _one_rep(wl, tmp_path).failed == 0
    tally = _one_rep(wrong, tmp_path)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0


def test_a_wrong_exit_code_is_counted_as_failed(tmp_path):
    wl = workloads.tiny("catalog-verify", str(tmp_path / "run.ckpt"))
    commands = tuple(dataclasses.replace(c, expected_exit=3) for c in wl.commands)
    tally = _one_rep(dataclasses.replace(wl, commands=commands), tmp_path)
    assert tally.failed == 1 and tally.failed / tally.attempted > 0
