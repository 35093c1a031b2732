"""The fan-out behind --jobs: survey.mersenne_path_lengths over forked shares."""

import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

import collatzpath
from collatzpath import CollatzPathError, CycleGuardExceeded, mersenne_number, path_length
from collatzpath import survey
from collatzpath.survey import mersenne_path_lengths

GUARD = 10**12


def serial(exponents):
    return [path_length(mersenne_number(n)).d for n in exponents]


def assert_no_children():
    # Raises ChildProcessError only when this process has no child at all,
    # running or unreaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@st.composite
def rows_and_jobs(draw):
    exponents = draw(st.lists(st.integers(2, 3000), max_size=8))
    jobs = draw(st.integers(1, max(1, min(4, len(exponents)))))
    return exponents, jobs


@given(rows_and_jobs())
def test_fan_out_equals_the_serial_map(case):
    exponents, jobs = case
    assert list(mersenne_path_lengths(exponents, jobs, GUARD)) == serial(exponents)
    assert_no_children()


def outcome(exponents, jobs, guard):
    """The rows yielded before the first failure, and that failure."""
    done = []
    try:
        for d in mersenne_path_lengths(exponents, jobs, guard):
            done.append(d)
    except CycleGuardExceeded as exc:
        return done, type(exc), str(exc), exc.start, exc.limit
    return done, None


# D(2**n - 1) is at most 1000 for 31, 61 and 19 and above it for 1279,
# 2203 and 607, so a guard of 1000 trips first at index 1, which is in
# share 1 at every jobs value.  At jobs 3 and 4, 2203 fails in a share of
# its own too, possibly earlier in time, and must not be the one reported.
TRIPPING = [31, 1279, 61, 2203, 19, 607]


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_a_guard_trip_gives_the_serial_prefix_and_exception(jobs):
    expected = outcome(TRIPPING, 1, 1000)
    assert expected[0] == serial(TRIPPING[:1])
    assert expected[1] is CycleGuardExceeded and expected[3] == mersenne_number(1279)
    assert outcome(TRIPPING, jobs, 1000) == expected
    assert_no_children()


def test_a_guard_trip_on_the_first_row():
    rows = [2203, 31, 1279]
    expected = outcome(rows, 1, 1000)
    assert expected[0] == [] and expected[3] == mersenne_number(2203)
    assert outcome(rows, 2, 1000) == expected
    assert_no_children()


def test_no_child_outlives_an_early_close():
    rows = [2203, 2281, 3217, 4253]
    generator = mersenne_path_lengths(rows, 2, GUARD)
    assert next(generator) == serial(rows[:1])[0]
    generator.close()
    assert_no_children()


def test_an_interrupt_kills_a_running_child(monkeypatch):
    real = survey._mersenne_d

    def slow(n, guard):
        if n == 2281:
            time.sleep(60)
        return real(n, guard)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(survey, "_mersenne_d", slow)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        started = time.monotonic()
        # Interval timers are not inherited by fork, so only this process,
        # blocked on the pipe of the share computing 2281, is interrupted.
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            list(mersenne_path_lengths([2203, 2281, 3217], 2, GUARD))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 30
    assert_no_children()


# Runs two shares whose rows never finish, each child logging its pid.
SLEEPING_FAN_OUT = """
import os, sys, time
from collatzpath import survey

def sleeping(n, guard):
    with open(sys.argv[1], "a") as log:
        log.write(f"{os.getpid()}\\n")
    time.sleep(60)
    return n

survey._mersenne_d = sleeping
list(survey.mersenne_path_lengths([2, 3], 2, 10))
"""


def running(pid):
    """Whether pid is a process that has not ended; a zombie has."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="reads process states in /proc")
@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_no_child_outlives_a_killed_parent(tmp_path, signum):
    # Neither signal runs the generator's cleanup in the killed process.
    log = tmp_path / "pids"
    log.touch()
    package_root = os.path.dirname(os.path.dirname(collatzpath.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    parent = subprocess.Popen([sys.executable, "-c", SLEEPING_FAN_OUT, str(log)], env=env)
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            pids = [int(line) for line in log.read_text().splitlines(keepends=True)
                    if line.endswith("\n")]
        assert len(pids) == 2
        parent.send_signal(signum)
        parent.wait(timeout=10)
        deadline = time.monotonic() + 10
        while any(map(running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in pids if running(pid)]
    finally:
        parent.kill()
        parent.wait()
        for pid in pids:
            if running(pid):
                os.kill(pid, signal.SIGKILL)
    assert survivors == []


def test_a_child_that_dies_without_a_result_is_an_error(monkeypatch):
    real = survey._mersenne_d

    def dying(n, guard):
        if n == 50:
            os._exit(7)
        return real(n, guard)

    monkeypatch.setattr(survey, "_mersenne_d", dying)
    generator = mersenne_path_lengths([100, 50, 40], 2, GUARD)
    assert next(generator) == serial([100])[0]
    with pytest.raises(CollatzPathError, match=r"^the process computing n=50 .*exit status 7\)$"):
        next(generator)
    assert_no_children()


def test_without_fork_there_is_one_share(monkeypatch):
    monkeypatch.delattr(os, "fork")
    rows = [89, 107, 127, 521]
    assert list(mersenne_path_lengths(rows, 4, GUARD)) == serial(rows)


def test_every_share_starts_at_once(monkeypatch, tmp_path):
    # Row 2 returns only once row 7 has started.  Row 7 is the last row of
    # the second share, so this holds only if no share waits for rows of
    # another share to be read; otherwise row 2 gives up and returns -1.
    log = tmp_path / "started"
    log.touch()

    def recorded(n, guard):
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {n}\n")
        if n == 2:
            deadline = time.monotonic() + 10
            while " 7\n" not in log.read_text():
                if time.monotonic() > deadline:
                    return -1
                time.sleep(0.01)
        return n

    monkeypatch.setattr(survey, "_mersenne_d", recorded)
    assert list(mersenne_path_lengths([2, 3, 5, 7], 2, GUARD)) == [2, 3, 5, 7]
    assert_no_children()
    rows_by_pid = {}
    for line in log.read_text().splitlines():
        pid, n = map(int, line.split())
        rows_by_pid.setdefault(pid, []).append(n)
    # Two children, each computing its share in input order; this process
    # computes nothing.
    assert sorted(rows_by_pid.values()) == [[2, 5], [3, 7]]
    assert os.getpid() not in rows_by_pid
