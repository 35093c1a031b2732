"""Traced run: where a workload's time goes, layer by layer.

Spans are recorded from the benchmark's own code.  While tracing, each
public function in TARGETS is replaced, in every collatzpath module that
bound it, by a wrapper that keeps a span (name, parent, start, end) in
memory; nothing in the package is edited.  The traced section runs, in
this process:

1. replay: the workload's CLI commands through ``collatzpath.cli.main``.
   Pool workers are forked and their spans stay in the worker, which is
   why step 3 replays fanned-out tasks serially;
2. fan-out probes: a workload whose commands reach neither fan-out helper
   drives the one it misses on a fixed tiny input (verify of ranks 1..12,
   a scan around 127), so pool start-up and shutdown are watched on every
   workload;
3. serial tasks: each fanned-out start, ``path_length(mersenne_number(n))``,
   alone, for per-task busy time;
4. engine probes on the workload's starts: ``advance`` to halt in budgets
   (giving the first states under 4096 and 64 bits, the mid-path state and
   a bit-length profile), ``path_length`` from those states, one fused step
   at the largest operand width, and ``verify_transit_lemma``;
5. one checkpoint write and read of the largest start's mid-path state,
   and ``ratio_stats`` over every (n, D) the section produced.

A span's self time is its duration minus its child spans.  Per-layer self
times plus unattributed_s (time no span covers) equal trace.wall_s, the
section's wall time.  trace.overhead_s is the traced replay minus the same
replay run just before with tracing off.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import io
import os
import statistics
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

import workloads
from reference import CATALOG_EXPONENTS, scan_window, walk_mersenne

LAYERS = ("engine", "catalog", "heuristics", "survey", "expressions", "checkpoint", "cli")

TARGETS = {
    "cli": ("main", "parse_rank_range"),
    "engine": ("path_length", "advance", "initial_state", "raw_advance", "odd_step_accelerated"),
    "checkpoint": (
        "checkpoint_read", "checkpoint_write", "checkpoint_from_state", "serialize_checkpoint",
    ),
    "expressions": ("parse_expression",),
    "catalog": ("mersenne_number", "catalog_entry", "is_prime", "next_prime"),
    "survey": ("scan_ratios", "ratio_stats"),
    "heuristics": ("verify_transit_lemma",),
}

# Operand-sized passes of one fused step in engine._path_length_int:
# 3*x and +1 (read and write each), -y (read, write), y & -y (two reads,
# one write) and y >> t (read, write).  engine.computed_mb multiplies this
# by the operand bytes; it is computed from bit lengths, not measured.
PASSES_PER_FUSED_STEP = 11

BAND_WIDTHS = (4096, 64)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    nbytes: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans in memory, nested by call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, self._open[-1] if self._open else None, perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if isinstance(result, bytes):
                    record.nbytes = len(result)
                return result

        return traced

    def total(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def first_after(self, index: int, name: str) -> Span:
        return next(s for s in self.spans[index:] if s.name == name)

    def self_times(self, wall: float) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.seconds
        times = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for s, children in zip(self.spans, covered):
            times[s.name.split(".")[0]] += s.seconds - children
            if s.parent is None:
                roots += s.seconds
        times["unattributed"] = wall - roots
        return times


@contextmanager
def interposed(tracer: Tracer):
    """Route every TARGETS function through tracer.wrap while the block runs."""
    from collatzpath.expressions import NumberExpression

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "collatzpath"]
    patched = [(NumberExpression, "resolve", NumberExpression.resolve)]
    NumberExpression.resolve = tracer.wrap("expressions.resolve", NumberExpression.resolve)
    for layer, names in TARGETS.items():
        home = importlib.import_module(f"collatzpath.{layer}")
        for name in names:
            fn = getattr(home, name)
            wrapper = tracer.wrap(f"{layer}.{name}", fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def call_cli(argv) -> tuple[int | None, str, str, float]:
    """Run one CLI command in this process; a raised exception is a failure."""
    from collatzpath import cli

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue(), perf_counter() - start


def replay(wl: workloads.Workload, fixture: bytes, tally, tracer: Tracer) -> list[tuple]:
    """Run and gate wl's commands; returns (command, wall, first span index)."""
    done = []
    for cmd in wl.commands:
        workloads.stage_checkpoint(wl, cmd, fixture)
        first_span = len(tracer.spans)
        code, out, err, wall = call_cli(cmd.argv)
        workloads.check(cmd, wl.expected, code, out, err, tally)
        done.append((cmd, wall, first_span))
    return done


def _timed(fn, *args):
    start = perf_counter()
    result = fn(*args)
    return result, perf_counter() - start


def _median_time(repeats: int, fn, *args):
    times = []
    for _ in range(repeats):
        result, seconds = _timed(fn, *args)
        times.append(seconds)
    return result, statistics.median(times)


def _fanout(wall: float, tasks: list[float], jobs: int) -> tuple[float, float, float]:
    busy = sum(tasks)
    return busy, busy / (wall * jobs), wall - max(max(tasks), busy / jobs)


def _probe_start(n: int, walk, tally, engine, expressions, heuristics) -> dict:
    """Engine and heuristics probes on one start 2**n - 1."""
    expr = expressions.parse_expression(f"M{n}")
    x = expr.resolve()
    result, busy = _timed(engine.path_length, x)
    tally.record(
        (result.d, result.odd_steps, result.peak_bit_length) == tuple(walk),
        f"path_length(M{n}) = {result}, want {walk}",
    )
    state = engine.initial_state(x, origin=expr)
    below: dict[int, object] = {}
    mid = None
    advance_s = 0.0
    touched = 0.0
    while not state.halted:
        bits = state.current.bit_length()
        for width in BAND_WIDTHS:
            if bits < width and width not in below:
                below[width] = state
        if mid is None and state.steps >= walk.d // 2:
            mid = state
        budget = 4096 if bits >= 8192 else 256 if bits >= 128 else 16
        after, seconds = _timed(engine.advance, state, budget)
        advance_s += seconds
        touched += (
            (after.odd_steps - state.odd_steps) * PASSES_PER_FUSED_STEP
            * (bits + after.current.bit_length()) / 16
        )
        state = after
    tally.record(
        (state.steps, state.odd_steps, state.peak_bit_length) == tuple(walk),
        f"advance(M{n}) to halt gave {state}, want {walk}",
    )
    band = {}
    for width in BAND_WIDTHS:
        if n < width:
            band[width] = busy
            continue
        tail, band[width] = _median_time(3, engine.path_length, below[width].current)
        tally.record(
            below[width].steps + tail.d == walk.d,
            f"M{n}: path_length from the first state under {width} bits disagrees with D",
        )
    lemma, lemma_s = _timed(heuristics.verify_transit_lemma, n)
    tally.record(lemma, f"verify_transit_lemma({n}) is False")
    return {
        "n": n, "result": result, "busy": busy, "advance": advance_s, "band": band,
        "bytes": touched, "mid": mid, "lemma": lemma_s,
    }


def _fused_step_us(tracer: Tracer, engine, catalog, n: int) -> float:
    """Median time of one odd_step_accelerated call on 2**n - 1, untraced."""
    step = inspect.unwrap(engine.odd_step_accelerated)
    x = catalog.mersenne_number(n)
    per_call = []
    with tracer.span("engine.odd_step_accelerated"):
        for _ in range(5):
            start = perf_counter()
            for _ in range(50):
                step(x)
            per_call.append((perf_counter() - start) / 50)
    return statistics.median(per_call) * 1e6


def traced_pass(wl: workloads.Workload, fixture: bytes, workdir: str, tally) -> dict[str, float]:
    """One untraced replay, then the traced section; returns per-layer metrics."""
    from collatzpath import catalog, checkpoint, engine, expressions, heuristics, survey

    untraced = sum(wall for _, wall, _ in replay(wl, fixture, tally, Tracer()))
    tracer = Tracer()
    with interposed(tracer):
        section_start = perf_counter()
        done = replay(wl, fixture, tally, tracer)
        traced = sum(wall for _, wall, _ in done)
        expected = dict(wl.expected)
        kinds = {cmd.kind for cmd in wl.commands}
        probes = []
        if "verify" not in kinds:
            probes.append(workloads.catalog_verify(1, 12, _walks(CATALOG_EXPONENTS[:12])))
        if "scan" not in kinds:
            probes.append(workloads.survey_scan(127, 6, _walks(scan_window(127, 6))))
        for probe in probes:
            done += replay(probe, fixture, tally, tracer)
            expected.update(probe.expected)

        task_s = {}
        for cmd, _, _ in done:
            if cmd.kind != "pathlen":
                for n in cmd.exponents:
                    x, make = _timed(catalog.mersenne_number, n)
                    _, run = _timed(engine.path_length, x)
                    task_s[n] = make + run
        starts = [
            _probe_start(n, wl.expected[n], tally, engine, expressions, heuristics)
            for n in wl.starts
        ]
        largest = max(starts, key=lambda p: p["n"])
        fused_us = _fused_step_us(tracer, engine, catalog, largest["n"])
        probe_path = os.path.join(workdir, "probe.ckpt")
        checkpoint.checkpoint_write(probe_path, largest["mid"])
        back = checkpoint.checkpoint_read(probe_path).to_state()
        tally.record(back == largest["mid"], "checkpoint round trip changed the state")
        pairs = [(n, walk.d) for n, walk in sorted(expected.items())]
        stats = survey.ratio_stats(pairs)
        tally.record(stats.count == len(pairs), "ratio_stats lost pairs")
        wall = perf_counter() - section_start

    metrics = {}
    busy = sum(p["busy"] for p in starts)
    below_4096 = sum(p["band"][4096] for p in starts)
    metrics["engine.path_length.busy_s"] = busy
    metrics["engine.ns_per_step_kbit"] = busy * 1e9 / sum(
        p["result"].d * p["n"] / 1000 for p in starts
    )
    metrics["engine.fused_steps"] = sum(p["result"].odd_steps for p in starts)
    metrics["engine.rule_apps"] = sum(p["result"].d for p in starts)
    metrics["engine.peak_bits"] = max(p["result"].peak_bit_length for p in starts)
    metrics["engine.fused_step_us"] = fused_us
    metrics["engine.computed_mb"] = sum(p["bytes"] for p in starts) / 1e6
    metrics["engine.above_4096b_s"] = busy - below_4096
    metrics["engine.below_4096b_s"] = below_4096
    metrics["engine.below_64b_s"] = sum(p["band"][64] for p in starts)
    advance_s = sum(p["advance"] for p in starts)
    metrics["engine.advance.busy_s"] = advance_s
    metrics["engine.advance_over_path_length"] = advance_s / busy
    metrics["heuristics.transit_lemma_s"] = sum(p["lemma"] for p in starts)

    serialize = tracer.total("checkpoint.checkpoint_from_state", "checkpoint.serialize_checkpoint")
    write = tracer.total("checkpoint.checkpoint_write")
    read = tracer.total("checkpoint.checkpoint_read")
    metrics["checkpoint.writes"] = tracer.count("checkpoint.checkpoint_write")
    metrics["checkpoint.bytes_written"] = sum(
        s.nbytes for s in tracer.spans if s.name == "checkpoint.serialize_checkpoint"
    )
    metrics["checkpoint.serialize_s"] = serialize
    metrics["checkpoint.write_s"] = write
    metrics["checkpoint.sync_rename_s"] = write - serialize
    metrics["checkpoint.read_s"] = read
    metrics["checkpoint.share"] = (write + read) / wall

    for cmd, _, first_span in done:
        if cmd.kind == "verify":
            helper, span = "cli", tracer.first_after(first_span, "cli.main")
        elif cmd.kind == "scan":
            helper, span = "survey", tracer.first_after(first_span, "survey.scan_ratios")
        else:
            continue
        fan = _fanout(span.seconds, [task_s[n] for n in cmd.exponents], workloads.JOBS)
        for key, value in zip(("busy_s", "efficiency", "straggler_s"), fan):
            metrics[f"{helper}.fanout.{key}"] = value
    metrics["survey.ratio_stats_s"] = tracer.total("survey.ratio_stats")
    metrics["catalog.is_prime.calls"] = tracer.count("catalog.is_prime")
    metrics["catalog.next_prime_s"] = tracer.total("catalog.next_prime")
    metrics["catalog.mersenne_number_s"] = tracer.total("catalog.mersenne_number")
    metrics["expressions.parse_resolve_s"] = tracer.total(
        "expressions.parse_expression", "expressions.resolve"
    )
    for layer, seconds in tracer.self_times(wall).items():
        metrics[f"{layer}.self_s" if layer in LAYERS else f"{layer}_s"] = seconds
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = traced - untraced
    return metrics


def _walks(exponents) -> dict:
    return {n: walk_mersenne(n) for n in exponents}


# Counts that must repeat exactly from pass to pass.
EXACT = (
    "engine.fused_steps", "engine.rule_apps", "engine.peak_bits", "engine.computed_mb",
    "checkpoint.writes", "checkpoint.bytes_written", "catalog.is_prime.calls",
)


def run(wl: workloads.Workload, fixture: bytes, workdir: str, seconds: float, tally):
    """Traced passes until seconds have passed; reports the median-wall pass.

    All metrics come from that one pass, so its self times and
    unattributed_s still add up to its trace.wall_s.
    """
    start = perf_counter()
    passes = [traced_pass(wl, fixture, workdir, tally)]
    while perf_counter() - start < seconds:
        passes.append(traced_pass(wl, fixture, workdir, tally))
    for key in EXACT:
        tally.record(len({p[key] for p in passes}) == 1, f"{key} differs between passes")
    passes.sort(key=lambda p: p["trace.wall_s"])
    return passes[(len(passes) - 1) // 2], len(passes)
