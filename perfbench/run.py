"""Run one benchmark workload through the collatzpath CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

The checkout is the parent of this directory; the package is taken from
its ``src``.  With --trace 0 every CLI command runs in a fresh interpreter
and the end-to-end metrics of BENCHMARK.json are reported; with --trace 1
the workload is replayed in this process under tracing.py and the
per-layer metrics are reported.  Every computed D and exit code is gated
against ``reference`` values.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  NOTES.md explains
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_SOURCE = SRC / "collatzpath" / "cli.py"
LAUNCHER = "import sys; from collatzpath.cli import main; sys.exit(main(sys.argv[1:]))"

SETUP_REPEATS = 5
MIN_REPS = 3

# Other tenants of a shared host can slow each core by up to 1.8x,
# in stretches from under a second to minutes, and raw timings of the same
# code then differ by that much from run to run.  So every run also times a
# fixed walk of 2**4423 - 1 by reference.walk for CALIBRATION_SECONDS
# before each command, and reports its timings scaled by the walk's quiet
# time over its time in that run: seconds on the quiet machine.  The raw
# timings are printed too.  CALIBRATION_WALK_S is the walk's median time
# on an idle 2-vCPU Xeon VM under Python 3.11; NOTES.md has the
# measurements.
CALIBRATION_EXPONENT = 4423
CALIBRATION_WALK_S = 0.0197
CALIBRATION_SECONDS = 1.5


class SetupError(Exception):
    """The package could not be imported or prepared; no result is printed."""


@dataclass(frozen=True)
class Finished:
    exit_code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    rss_mb: float


def spawn(argv: list[str], workdir: Path) -> Finished:
    """Run argv to completion; cpu and peak RSS include its waited-for children."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Finished(
            proc.returncode,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
            wall,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024,
        )


class Calibration:
    """Time spent on a fixed big-integer walk, between measured commands.

    Other tenants slow each core on its own, so the walk runs on the same
    CPUs as the commands: the process pins itself to each CPU in turn and
    then to all of them, and the commands it starts inherit that affinity.
    """

    def __init__(self, cpus: list[int]) -> None:
        self.cpus = cpus
        self.seconds = 0.0
        self.walks = 0

    def run(self, seconds: float) -> None:
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            start = perf_counter()
            while perf_counter() - start < seconds / len(self.cpus):
                reference.walk_mersenne(CALIBRATION_EXPONENT)
                self.walks += 1
            self.seconds += perf_counter() - start
        os.sched_setaffinity(0, set(self.cpus))

    @property
    def scale(self) -> float:
        """Factor from this run's seconds to quiet-machine seconds."""
        return CALIBRATION_WALK_S * self.walks / self.seconds


def set_up(
    wl: workloads.Workload, workdir: Path, repeats: int, tally, calibration: Calibration | None
) -> tuple[list[float], bytes]:
    """Run prepare.py repeats times; returns its wall times and the fixture."""
    fixture_path = workdir / "fixture.ckpt"
    argv = [sys.executable, str(HERE / "prepare.py"), *wl.resolve_exprs]
    if wl.resume_at:
        argv += ["--fixture", str(fixture_path), "--resume-at", str(wl.resume_at)]
    times = []
    fixture = b""
    for i in range(repeats):
        if calibration:
            calibration.run(CALIBRATION_SECONDS / 5)
        done = spawn(argv, workdir)
        if done.exit_code != 0:
            raise SetupError(f"set-up exited {done.exit_code}: {done.stderr[-2000:]}")
        if Path(done.stdout.strip()).resolve() != CLI_SOURCE.resolve():
            raise SetupError(f"set-up imported {done.stdout.strip()!r}, not {CLI_SOURCE}")
        times.append(done.wall)
        if wl.resume_at:
            data = fixture_path.read_bytes()
            fixture = fixture or data
            tally.record(data == fixture, f"set-up {i} wrote a different mid-path checkpoint")
    return times, fixture


def run_rep(wl: workloads.Workload, fixture: bytes, workdir: Path, tally, calibration) -> dict:
    """One pass over the workload's commands, each in a fresh interpreter."""
    rep = {"wall": 0.0, "cpu": 0.0, "rss": 0.0, "steps": 0, "failed": 0}
    for cmd in wl.commands:
        calibration.run(CALIBRATION_SECONDS)
        workloads.stage_checkpoint(wl, cmd, fixture)
        done = spawn([sys.executable, "-c", LAUNCHER, *cmd.argv], workdir)
        failed = workloads.check(cmd, wl.expected, done.exit_code, done.stdout, done.stderr, tally)
        rep["wall"] += done.wall
        rep["cpu"] += done.cpu
        rep["rss"] = max(rep["rss"], done.rss_mb)
        rep["steps"] += 0 if failed else cmd.steps
        rep["failed"] += failed
    return rep


def measure(wl: workloads.Workload, workdir: Path, seconds: float, tally) -> dict[str, float]:
    """End-to-end metrics: means over the run's passes, in quiet-machine seconds."""
    cpus = sorted(os.sched_getaffinity(0))
    calibration = Calibration(cpus[-wl.processes :])
    setups, fixture = set_up(wl, workdir, SETUP_REPEATS, tally, calibration)
    reps = []
    start = perf_counter()
    while len(reps) < MIN_REPS or perf_counter() - start < seconds:
        rep = run_rep(wl, fixture, workdir, tally, calibration)
        reps.append(rep)
        print(
            f"rep {len(reps)}: raw wall {rep['wall']:.4f} s, raw cpu {rep['cpu']:.4f} s, "
            f"rss {rep['rss']:.1f} MB, steps {rep['steps']}, failed {rep['failed']}"
        )
    calibration.run(CALIBRATION_SECONDS)
    os.sched_setaffinity(0, cpus)
    scale = calibration.scale
    raw_wall = statistics.fmean(r["wall"] for r in reps)
    print(f"raw set-up runs: {', '.join(f'{t:.4f}' for t in setups)} s")
    print(
        f"calibration: {calibration.walks} walks in {calibration.seconds:.3f} s; "
        f"raw mean wall {raw_wall:.4f} s; timings below are raw means x {scale:.4f}"
    )
    return {
        "wall_s": raw_wall * scale,
        "steps_per_s": sum(r["steps"] for r in reps) / sum(r["wall"] for r in reps) / scale,
        "cpu_s": statistics.fmean(r["cpu"] for r in reps) * scale,
        "setup_s": statistics.fmean(setups) * scale,
        "peak_rss_mb": max(r["rss"] for r in reps),
        "ops": wl.ops_per_rep,
        "ok_share": 1 - tally.failed / tally.attempted,
    }


def trace(wl: workloads.Workload, workdir: Path, seconds: float, tally) -> dict[str, float]:
    _, fixture = set_up(wl, workdir, 1, tally, None)
    sys.path.insert(0, str(SRC))
    import collatzpath
    import tracing

    if Path(collatzpath.__file__).resolve().parent != CLI_SOURCE.parent.resolve():
        raise SetupError(f"imported {collatzpath.__file__}, not the checkout's package")
    metrics, passes = tracing.run(wl, fixture, str(workdir), seconds, tally)
    print(f"traced passes: {passes}; reported: the one with the median trace.wall_s")
    return metrics


def machine() -> dict:
    gmpy2 = importlib.util.find_spec("gmpy2") is not None
    record = {
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)),
        "gmpy2": gmpy2,
    }
    if not gmpy2:
        record["note"] = "gmpy2 absent: the engine's mpz branches (>= 4096 bits) are unmeasured"
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not CLI_SOURCE.is_file():
        print(f"perfbench: no package source at {CLI_SOURCE}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tally = workloads.Tally()
    try:
        wl = workloads.from_seed(args.workload, args.seed, str(workdir / "run.ckpt"))
        print(f"machine: {json.dumps(machine())}")
        print(f"workload {wl.name} (seed {args.seed}): {workloads.WHY[wl.name]}")
        for cmd in wl.commands:
            print(f"  collatzpath {' '.join(cmd.argv)}")
        run = trace if args.trace else measure
        values = run(wl, workdir, args.seconds, tally)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()
    if set(values) != set(units):
        mismatch = sorted(set(values) ^ set(units))
        raise RuntimeError(f"metrics {mismatch} disagree with BENCHMARK.json")

    for message in tally.messages[:20]:
        print(f"FAILED: {message}")
    print(f"fail_share: {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted})")
    for name, value in values.items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
