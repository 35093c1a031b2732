"""Comparison index sets and ratio statistics for the Mersenne survey.

The question under study: do Mersenne prime exponents n stand out from
other indices when scored by the ratio D(2**n - 1) / n?  The apparatus
here builds five 13-element index sets and compares their ratio spread:

  mersenne  catalog ranks 26..38, the computable mid-range
  A         for each of those exponents, the next larger prime
  B         floor midpoints of successive catalog exponents, ranks 25..38
  C         doubles of selected catalog exponents (composite indices)
  D         indices sitting on the catalog's own log-log fit line

index_set(label, from_rank, to_rank) is the one place a label and its rank
bounds become a row, and reference_d(rows) the one place a row finds its
reference path lengths, so statistics on the default rows are instant.
The catalog's rules stay in catalog: rank bounds are checked by
catalog_entries alone, and set A and the prime windows of scan_ratios
walk to their primes with primes_from.
Sets C and D were hand-selected, so they ship as verbatim fixtures, the
n column of _REFERENCE_D; tests/test_survey.py holds their rank lists and
rebuilds both rows from them.  The test suite also recomputes the rows of
sets A to D with n below 150,000 in the default tier, those up to
1,500,000 under -m long, and the 14 rows above that, with catalog ranks
36..38 of the mersenne row, under -m huge.
"""

from __future__ import annotations

import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from enum import Enum

from .catalog import catalog_entries, is_prime, mersenne_number, next_prime, primes_from
from .engine import DEFAULT_CYCLE_GUARD, path_length
from .errors import (
    CollatzPathError,
    DegenerateStatsError,
    DomainError,
    RangeError,
    checked_exponent,
    checked_int,
    int_text,
)


class SetLabel(str, Enum):
    MERSENNE = "mersenne"
    A = "A"
    B = "B"
    C = "C"
    D = "D"


def _set_label(label: object) -> SetLabel:
    try:
        return SetLabel(label)
    except ValueError:
        valid = ", ".join(repr(member.value) for member in SetLabel)
        raise DomainError(f"label must be one of {valid}, got {label!r}") from None


@dataclass(frozen=True)
class IndexSet:
    """A labeled, strictly increasing list of exponents."""

    label: SetLabel
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", _set_label(self.label))
        indices = tuple(checked_int(i, "indices", 1) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        if not indices:
            raise DomainError("an index set cannot be empty")
        for a, b in zip(indices, indices[1:]):
            if b <= a:
                raise DomainError(
                    f"indices must strictly increase, got {int_text(a, 'value')} "
                    f"before {int_text(b, 'value')}"
                )


@dataclass(frozen=True)
class RatioStats:
    """Mean and sample variance of D/n over an index set."""

    count: int
    mean: float
    sample_variance: float


@dataclass(frozen=True)
class ScanRecord:
    """One scanned exponent: primality flag, D, and the ratio D/n."""

    exponent: int
    is_prime_index: bool
    d: int
    ratio: float


def ratio_stats(pairs: list[tuple[int, int]]) -> RatioStats:
    """Mean and sample variance of d/n over (n, d) pairs.

    The variance divisor is count - 1.  That choice is pinned by the
    reference statistics this package reproduces: the 13 mersenne-row
    ratios give 0.0002977 with divisor 12 and 0.000275 with divisor 13,
    and only the former matches the published value.  The test suite
    re-derives this discrimination rather than trusting the comment.
    A ratio, mean or variance too large for a float raises RangeError.
    """
    import statistics

    ratios = []
    for n, d in pairs:
        n = checked_int(n, "exponent", 1)
        d = checked_int(d, "d", 0)
        try:
            ratios.append(d / n)
        except OverflowError:
            raise RangeError(
                f"d / n must fit a float, got ({int_text(n, 'value')}, {int_text(d, 'value')})"
            ) from None
    if len(ratios) < 2:
        raise DegenerateStatsError(f"need at least 2 pairs, got {len(ratios)}")
    try:
        mean = statistics.fmean(ratios)
        variance = statistics.variance(ratios)
    except OverflowError:
        raise RangeError("the mean and variance of d / n must fit a float") from None
    return RatioStats(count=len(ratios), mean=mean, sample_variance=variance)


# Reference path lengths for the four embedded default rows, as (n, D).
# The n column of rows C and D is also their verbatim hand-selected index
# list: set C doubles the exponents of thirteen catalog ranks, and set D
# sits on the catalog log-log fit line at thirteen ranks
# (round(2**(intercept + slope * k))); tests/test_survey.py holds both
# rank lists and rebuilds the two rows from them.  The test suite
# recomputes every row with n up to 1,500,000 (those from 150,000 up
# under -m long), and the 14 rows above that under -m huge, with catalog
# ranks 36..38.
_REFERENCE_D = {
    SetLabel.A: (
        (23227, 312182), (44501, 598071), (86249, 1158882), (110527, 1482553),
        (132059, 1771127), (216103, 2906191), (756853, 10197095),
        (859447, 11568603), (1257827, 16928007), (1398281, 18807205),
        (2976229, 40055575), (3021407, 40663047), (6972607, 93778463),
    ),
    SetLabel.B: (
        (22455, 299801), (33853, 457438), (65370, 875438), (98373, 1327329),
        (121276, 1633743), (174070, 2344640), (486465, 6524449),
        (808136, 10868120), (1058610, 14246657), (1328028, 17876449),
        (2187245, 29428265), (2998799, 40364153), (4996985, 67195624),
    ),
    SetLabel.C: (
        (22426, 299772), (43402, 584422), (46418, 627877), (88994, 1201650),
        (172486, 2320161), (221006, 2974984), (264098, 3556035),
        (432182, 5828307), (1513678, 20384499), (1718866, 23124964),
        (2515574, 33827530), (2796538, 37632788), (5952442, 80085173),
    ),
    SetLabel.D: (
        (20160, 270868), (43644, 587280), (64216, 866299), (94484, 1265873),
        (139021, 1871202), (204550, 2748585), (442830, 5947053),
        (651562, 8769774), (958682, 12911249), (1410567, 18991590),
        (2075452, 27939124), (3053739, 41095221), (4493150, 60441877),
    ),
}


# The default catalog ranks of the rows built from the catalog.  Rows C
# and D are fixtures with no rank range: their indices are the n column
# of _REFERENCE_D.
_DEFAULT_RANKS = {SetLabel.MERSENNE: (26, 38), SetLabel.A: (26, 38), SetLabel.B: (25, 38)}


def index_set(label: SetLabel, from_rank: int | None = None, to_rank: int | None = None) -> IndexSet:
    """The row a label names over catalog ranks from_rank..to_rank.

    The mersenne row is the catalog exponents of those ranks, row A the
    next prime strictly above each, and row B the floor midpoints of
    successive ones, so B needs at least two ranks (every default
    midpoint is exact, which the test suite asserts rather than assumes).
    A bound left as None takes the row's own default.  Rows C and D are
    fixtures: a bound for them raises RangeError, as does a rank range
    another row cannot take.  An unknown label raises DomainError.
    """
    label = _set_label(label)
    if label not in _DEFAULT_RANKS:
        if from_rank is not None or to_rank is not None:
            raise RangeError(f"set {label.value} is a fixture; it takes no rank range")
        return IndexSet(label, tuple(n for n, _ in _REFERENCE_D[label]))
    default_from, default_to = _DEFAULT_RANKS[label]
    rows = catalog_entries(
        default_from if from_rank is None else from_rank,
        default_to if to_rank is None else to_rank,
    )
    exponents = tuple(e.exponent for e in rows)
    if label is SetLabel.A:
        exponents = tuple(next_prime(n) for n in exponents)
    elif label is SetLabel.B:
        if len(rows) < 2:
            raise RangeError(f"need at least two ranks, got only rank {rows[0].rank}")
        exponents = tuple((a + b) // 2 for a, b in zip(exponents, exponents[1:]))
    return IndexSet(label, exponents)


def reference_d(rows: IndexSet) -> tuple[tuple[int, int], ...] | None:
    """(n, D) for every index of rows from the catalog (mersenne row) or the
    embedded measurements (other rows); None when some index has no value.
    """
    if rows.label is SetLabel.MERSENNE:
        known = {e.exponent: e.reference_d for e in catalog_entries()}
    else:
        known = dict(_REFERENCE_D[rows.label])
    if not all(n in known for n in rows.indices):
        return None
    return tuple((n, known[n]) for n in rows.indices)


def _scan_exponents(center: int, count_each_side: int, stride: int, primes_only: bool) -> Sequence[int]:
    if primes_only:
        below = primes_from(center, count_each_side, stride, -1)
        middle = [center] if is_prime(center) else []
        return below[::-1] + middle + primes_from(center, count_each_side, stride, 1)
    low = center - stride * min(count_each_side, (center - 2) // stride)
    return range(low, center + count_each_side * stride + 1, stride)


def _mersenne_d(n: int, cycle_guard: int) -> int:
    return path_length(mersenne_number(n), cycle_guard=cycle_guard).d


def _exit_at_eof(fd: int) -> None:
    # Nothing is ever written to the lifeline, so the read returns only at
    # EOF: when the parent's write end closes, however the parent ended.
    os.read(fd, 1)
    os._exit(1)


def _compute_share(
    exponents: Sequence[int], cycle_guard: int, fd: int, lifeline: int, inherited: Sequence[int]
) -> None:
    """The body of a forked child: one pickled (ok, value) record to the
    pipe fd for each of exponents, in order.  A row that raises sends the
    exception as its record and ends the share.  The child first closes
    the inherited descriptors it does not use, then leaves as soon as the
    lifeline reads EOF, even in the middle of a row, so it never outlives
    its parent.  The child always leaves by os._exit, so it never flushes
    stdio buffers copied from its parent and never returns into the caller.
    """
    status = 1
    try:
        import pickle
        import threading

        for unused in inherited:
            os.close(unused)
        threading.Thread(target=_exit_at_eof, args=(lifeline,), daemon=True).start()
        with os.fdopen(fd, "wb") as pipe:
            for n in exponents:
                try:
                    record = (True, _mersenne_d(n, cycle_guard))
                except Exception as exc:
                    record = (False, exc)
                pipe.write(pickle.dumps(record))
                pipe.flush()
                if not record[0]:
                    break
        status = 0
    finally:
        os._exit(status)


def mersenne_path_lengths(exponents: Sequence[int], jobs: int, cycle_guard: int) -> Iterator[int]:
    """Yield D(2**n - 1) for each n in exponents, in input order.

    jobs is the number of processes that compute at once.  With jobs > 1
    and more than one exponent, row i goes to share i % shares of
    shares = min(jobs, len(exponents)), and one forked child computes each
    share in input order from the start; this process only reads the
    children's pipes, each when its row is due, so rows stream out as they
    finish.  An exception raised by any row is raised here after every
    earlier row has been yielded, as with jobs = 1.  A child that ends
    without sending its row raises CollatzPathError.  When the generator
    finishes, fails or is closed, every child still running is killed and
    every child is reaped.  When this process ends without that cleanup
    (SIGKILL, SIGTERM), the write end of a lifeline pipe that only it
    holds closes, and each child exits on reading EOF there.  Where
    os.fork is missing, or with one share, this process computes the rows
    itself.
    """
    jobs = checked_int(jobs, "jobs", 1)
    shares = min(jobs, len(exponents)) if hasattr(os, "fork") else 1
    if shares <= 1:
        yield from (_mersenne_d(n, cycle_guard) for n in exponents)
        return
    import pickle
    import signal

    children = {}  # share -> (pid, read end of its pipe)
    lifeline, lifeline_write = os.pipe()
    try:
        for share in range(shares):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                inherited = [lifeline_write, read_fd]
                inherited += [pipe.fileno() for _, pipe in children.values()]
                _compute_share(exponents[share::shares], cycle_guard, write_fd, lifeline, inherited)
            os.close(write_fd)
            children[share] = (pid, os.fdopen(read_fd, "rb"))
        for i, n in enumerate(exponents):
            pid, pipe = children[i % shares]
            try:
                ok, value = pickle.load(pipe)
            except EOFError:
                pipe.close()
                del children[i % shares]
                _, status = os.waitpid(pid, 0)
                raise CollatzPathError(
                    f"the process computing n={int_text(n, 'exponent')} ended without "
                    f"a result (exit status {os.waitstatus_to_exitcode(status)})"
                ) from None
            if not ok:
                raise value
            yield value
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(lifeline)
        os.close(lifeline_write)


def scan_ratios(
    center: int,
    count_each_side: int = 25,
    stride: int = 5,
    primes_only: bool = True,
    *,
    jobs: int = 1,
    cycle_guard: int = DEFAULT_CYCLE_GUARD,
) -> list[ScanRecord]:
    """D and D/n for a window of exponents around center, ordered by n.

    In primes_only mode the window is every stride-th prime walking out
    from center, count_each_side in each direction, with center itself
    included when prime; the enumeration below center truncates quietly at
    the bottom of the prime sequence.  In integer mode the window is
    center +- j*stride clipped to n >= 2.  count_each_side = 0 yields [].
    Before any window is built or walked, center + count_each_side * stride
    goes through checked_exponent: that is the lowest the window's top can
    be in either mode (the k-th prime above center is at least center + k),
    so a window reaching past errors.MAX_EXPONENT is a RangeError at once.

    jobs > 1 computes the rows in that many forked processes (see
    mersenne_path_lengths); output order is by exponent either way.
    """
    center = checked_int(center, "center", 2)
    count_each_side = checked_int(count_each_side, "count_each_side", 0)
    stride = checked_int(stride, "stride", 1)
    jobs = checked_int(jobs, "jobs", 1)
    if count_each_side == 0:
        return []
    checked_exponent(center + count_each_side * stride, "n")
    exponents = _scan_exponents(center, count_each_side, stride, primes_only)
    return [
        ScanRecord(exponent=n, is_prime_index=is_prime(n), d=d, ratio=d / n)
        for n, d in zip(exponents, mersenne_path_lengths(exponents, jobs, cycle_guard))
    ]
