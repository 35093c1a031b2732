"""The benchmark's workloads: seeded inputs, CLI commands and the output gate.

Each workload is a short list of ``collatzpath`` CLI commands plus the
exact rows they must print.  Expected values come from ``reference`` (an
independent one-rule-at-a-time stepper, frozen in ``expected.py``), never
from the package under test.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from pathlib import Path

import reference
from reference import Walk

JOBS = 2

WHY = {
    "mersenne-big": (
        "one 86 kbit start in one process: the engine's quadratic multiply-and-shift "
        "curve, with no fan-out and no checkpoint"
    ),
    "catalog-verify": (
        "27 catalog rows of 2 bits to 44 kbit over cli's process fan-out: pool "
        "overhead, the straggler row, per-call cost and the tail near 1"
    ),
    "checkpoint-resume": (
        "a 44 kbit start checkpointed every 2000 steps, run fresh then resumed "
        "from mid-path: the budgeted advance loop, fsync'd writes and a read"
    ),
    "survey-scan": (
        "13 balanced 20 kbit starts through survey's own process pool plus "
        "is_prime/next_prime: the second fan-out helper and the primality layer"
    ),
}
NAMES = tuple(WHY)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what it must print.

    exponents lists the starts 2**n - 1 of the expected CSV rows, in order.
    steps is the number of rule applications the command performs, for
    throughput.  checkpoint_from names the file state the command needs
    before it starts: "" (no checkpoint), "absent" or "mid-path".
    """

    argv: tuple[str, ...]
    kind: str
    exponents: tuple[int, ...]
    steps: int
    expected_exit: int = 0
    checkpoint_from: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    expected: dict[int, Walk]
    # Expressions set-up resolves in a fresh interpreter.
    resolve_exprs: tuple[str, ...]
    checkpoint_path: str = ""
    # Rule applications the mid-path fixture is advanced by (0: no fixture).
    resume_at: int = 0

    @property
    def starts(self) -> tuple[int, ...]:
        """Distinct exponents the workload computes, in first-seen order."""
        return tuple(dict.fromkeys(n for c in self.commands for n in c.exponents))

    @property
    def processes(self) -> int:
        """Processes that compute at once: JOBS if any command fans out."""
        return JOBS if any(c.kind != "pathlen" for c in self.commands) else 1

    @property
    def ops_per_rep(self) -> int:
        return sum(1 + len(c.exponents) for c in self.commands)


def _table(exponents) -> dict[int, Walk]:
    from expected import EXPECTED

    return {n: Walk(*EXPECTED[n]) for n in exponents}


def _computed(exponents) -> dict[int, Walk]:
    return {n: reference.walk_mersenne(n) for n in exponents}


def mersenne_big(n: int, expected=None) -> Workload:
    expected = expected or _table([n])
    cmd = Command(("pathlen", f"M{n}"), "pathlen", (n,), expected[n].d)
    return Workload("mersenne-big", (cmd,), expected, (f"M{n}",))


def catalog_verify(low: int, high: int, expected=None) -> Workload:
    exponents = reference.CATALOG_EXPONENTS[low - 1 : high]
    expected = expected or _table(exponents)
    cmd = Command(
        ("verify", "--ranks", f"{low}..{high}", "--jobs", str(JOBS)),
        "verify",
        tuple(exponents),
        sum(expected[n].d for n in exponents),
    )
    return Workload(
        "catalog-verify", (cmd,), expected, tuple(f"Mp{k}" for k in range(low, high + 1))
    )


def checkpoint_resume(n: int, interval: int, checkpoint_path: str, expected=None) -> Workload:
    expected = expected or _table([n])
    d = expected[n].d
    resume_at = d // 2
    argv = (
        "pathlen", f"M{n}", "--checkpoint", checkpoint_path,
        "--checkpoint-interval", str(interval),
    )
    commands = (
        Command(argv, "pathlen", (n,), d, checkpoint_from="absent"),
        Command(argv, "pathlen", (n,), d - resume_at, checkpoint_from="mid-path"),
    )
    return Workload(
        "checkpoint-resume", commands, expected, (f"M{n}",),
        checkpoint_path=checkpoint_path, resume_at=resume_at,
    )


def survey_scan(center: int, each_side: int, expected=None) -> Workload:
    exponents = reference.scan_window(center, each_side)
    expected = expected or _table(exponents)
    cmd = Command(
        (
            "scan", "--center", str(center), "--each-side", str(each_side),
            "--stride", "1", "--primes-only", "--jobs", str(JOBS),
        ),
        "scan",
        tuple(exponents),
        sum(expected[n].d for n in exponents),
    )
    return Workload("survey-scan", (cmd,), expected, tuple(f"M{n}" for n in exponents))


def from_seed(name: str, seed: int, checkpoint_path: str) -> Workload:
    """The workload's inputs for a seed.

    Seed 0 gives the reference inputs: M86243 (catalog rank 28), ranks
    1..27, M44497 and a scan around 19937.  Other seeds draw a nearby prime
    exponent or scan centre from the bands in ``reference``, so every draw
    stays within a few per cent of the reference cost.  catalog-verify is
    the same for every seed: the catalog fixes its rows, and any other rank
    range would leave the 2 bit to 44 kbit band.
    """
    rng = random.Random(f"{name}:{seed}")

    def pick(default: int, band: tuple[int, int]) -> int:
        return default if seed == 0 else rng.choice(reference.primes_between(*band))

    if name == "mersenne-big":
        return mersenne_big(pick(86243, reference.MERSENNE_BIG_BAND))
    if name == "catalog-verify":
        return catalog_verify(1, 27)
    if name == "checkpoint-resume":
        return checkpoint_resume(pick(44497, reference.CHECKPOINT_BAND), 2000, checkpoint_path)
    if name == "survey-scan":
        return survey_scan(pick(19937, reference.SCAN_CENTER_BAND), reference.SCAN_EACH_SIDE)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def tiny(name: str, checkpoint_path: str) -> Workload:
    """Small versions of each workload for the benchmark's own tests."""
    if name == "mersenne-big":
        return mersenne_big(521, _computed([521]))
    if name == "catalog-verify":
        return catalog_verify(1, 13, _computed(reference.CATALOG_EXPONENTS[:13]))
    if name == "checkpoint-resume":
        return checkpoint_resume(2203, 200, checkpoint_path, _computed([2203]))
    if name == "survey-scan":
        return survey_scan(127, 3, _computed(reference.scan_window(127, 3)))
    raise ValueError(f"unknown workload {name!r}")


def stage_checkpoint(wl: Workload, cmd: Command, fixture: bytes) -> None:
    """Put the checkpoint file in the state cmd starts from."""
    if cmd.checkpoint_from == "absent":
        Path(wl.checkpoint_path).unlink(missing_ok=True)
    elif cmd.checkpoint_from == "mid-path":
        Path(wl.checkpoint_path).write_bytes(fixture)


class Tally:
    """Operations attempted and failed; a failure is recorded, never retried."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


def _expected_cells(kind: str, n: int, w: Walk) -> dict[int, str]:
    """Column index -> exact text the CLI must print for start 2**n - 1."""
    if kind == "pathlen":
        return {1: str(n), 2: str(w.d), 3: str(w.odd), 4: str(w.d - w.odd), 5: str(w.peak)}
    if kind == "verify":
        return {1: str(n), 2: str(w.d), 3: str(w.d), 4: "true"}
    if kind == "scan":
        return {0: str(n), 1: "true", 2: str(w.d)}
    raise ValueError(f"unknown command kind {kind!r}")


def check(
    cmd: Command, expected: dict[int, Walk], exit_code, stdout: str, stderr: str, tally: Tally
) -> int:
    """Gate one command's output; returns the number of failed operations.

    The command itself is one operation (right exit code, no traceback, no
    extra rows) and each expected row is one more (every cell exact).
    """
    before = tally.failed
    rows = list(csv.reader(io.StringIO(stdout)))[1:]
    clean = exit_code == cmd.expected_exit and "Traceback" not in stderr
    tally.record(
        clean and len(rows) <= len(cmd.exponents),
        f"{' '.join(cmd.argv)}: exit {exit_code} (want {cmd.expected_exit}), "
        f"{len(rows)} rows (want {len(cmd.exponents)}), stderr {stderr[-300:]!r}",
    )
    for i, n in enumerate(cmd.exponents):
        row = rows[i] if i < len(rows) else []
        want = _expected_cells(cmd.kind, n, expected[n])
        ok = all(col < len(row) and row[col] == text for col, text in want.items())
        tally.record(ok, f"{' '.join(cmd.argv)}: row {i} is {row}, want {want}")
    return tally.failed - before
