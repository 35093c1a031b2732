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
Sets C and D were hand-selected rather than generated by a fixed rule, so
they ship as verbatim fixtures; best-effort generators for their selection
idea are provided alongside.  The test suite recomputes the rows of sets A
to D with n below 150,000 in the default tier and those up to 1,500,000
under -m long; the 14 rows above that stand as unverified reference data,
as do catalog ranks 36 and up in the mersenne row.
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
    checked_int,
    int_text,
)
from .heuristics import FitResult


class SetLabel(str, Enum):
    MERSENNE = "mersenne"
    A = "A"
    B = "B"
    C = "C"
    D = "D"


class Provenance(str, Enum):
    GENERATED = "generated"
    FIXTURE = "fixture"


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
    provenance: Provenance

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


def mersenne_set(from_rank: int = 26, to_rank: int = 38) -> IndexSet:
    """Catalog exponents for ranks from_rank..to_rank inclusive."""
    indices = tuple(e.exponent for e in catalog_entries(from_rank, to_rank))
    return IndexSet(label=SetLabel.MERSENNE, indices=indices, provenance=Provenance.FIXTURE)


def generate_set_A(base: IndexSet) -> IndexSet:
    """The next prime strictly above each base index."""
    indices = tuple(next_prime(n) for n in base.indices)
    return IndexSet(label=SetLabel.A, indices=indices, provenance=Provenance.GENERATED)


def generate_set_B(from_rank: int = 25, to_rank: int = 38) -> IndexSet:
    """Floor midpoints of successive catalog exponents.

    Emits (n_k + n_{k+1}) // 2 for each consecutive rank pair in
    from_rank..to_rank; the default range yields the 13 midpoints between
    ranks 25 and 38.  Every midpoint in that range is exact (the sums are
    all even), which the test suite asserts rather than assumes.
    """
    rows = catalog_entries(from_rank, to_rank)
    if len(rows) < 2:
        raise RangeError(f"need at least two ranks, got only rank {rows[0].rank}")
    indices = tuple((a.exponent + b.exponent) // 2 for a, b in zip(rows, rows[1:]))
    return IndexSet(label=SetLabel.B, indices=indices, provenance=Provenance.GENERATED)


SET_C_SOURCE_RANKS = (23, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36)
SET_D_FIT_RANKS = (24, 26, 27, 28, 29, 30, 32, 33, 34, 35, 36, 37, 38)


def fixture_set_C() -> IndexSet:
    """The verbatim doubled-exponent comparison row."""
    indices = tuple(n for n, _ in _REFERENCE_D[SetLabel.C])
    return IndexSet(label=SetLabel.C, indices=indices, provenance=Provenance.FIXTURE)


def fixture_set_D() -> IndexSet:
    """The verbatim fit-line comparison row."""
    indices = tuple(n for n, _ in _REFERENCE_D[SetLabel.D])
    return IndexSet(label=SetLabel.D, indices=indices, provenance=Provenance.FIXTURE)


def double_exponents(base: IndexSet) -> IndexSet:
    """Companion generator for set C: twice each base index."""
    indices = tuple(2 * n for n in base.indices)
    return IndexSet(label=SetLabel.C, indices=indices, provenance=Provenance.GENERATED)


def fit_line_indices(fit: FitResult, ranks: tuple[int, ...] = SET_D_FIT_RANKS) -> IndexSet:
    """Companion generator for set D: round(2**(intercept + slope * k)).

    With the full-catalog fit and the default ranks this reproduces the
    fixture row exactly; it is still documented as an approximation of a
    hand-made selection, not as the selection rule itself.  A rank whose
    index would overflow a float raises RangeError.
    """
    indices = []
    for k in ranks:
        k = checked_int(k, "rank", 1)
        try:
            indices.append(round(2.0 ** (fit.intercept + fit.slope * k)))
        except OverflowError:
            raise RangeError(
                f"rank must keep the index within float range, got {int_text(k, 'value')}"
            ) from None
    return IndexSet(label=SetLabel.D, indices=tuple(indices), provenance=Provenance.GENERATED)


def ratio_stats(pairs: list[tuple[int, int]]) -> RatioStats:
    """Mean and sample variance of d/n over (n, d) pairs.

    The variance divisor is count - 1.  That choice is pinned by the
    reference statistics this package reproduces: the 13 mersenne-row
    ratios give 0.0002977 with divisor 12 and 0.000275 with divisor 13,
    and only the former matches the published value.  The test suite
    re-derives this discrimination rather than trusting the comment.
    """
    import statistics

    ratios = []
    for n, d in pairs:
        n = checked_int(n, "exponent", 1)
        ratios.append(checked_int(d, "d", 0) / n)
    if len(ratios) < 2:
        raise DegenerateStatsError(f"need at least 2 pairs, got {len(ratios)}")
    mean = statistics.fmean(ratios)
    variance = statistics.variance(ratios)
    return RatioStats(count=len(ratios), mean=mean, sample_variance=variance)


# Reference path lengths for the four embedded default rows, as (n, D).
# The n column of rows C and D is also their verbatim hand-selected index
# list: set C doubles the catalog exponents of the ranks in
# SET_C_SOURCE_RANKS, and set D sits on the catalog log-log fit line at the
# ranks in SET_D_FIT_RANKS (round(2**(intercept + slope * k))).  The test
# suite recomputes every row with n up to 1,500,000 (those from 150,000 up
# under -m long); the 14 rows above that are unverified reference data on
# the same footing as catalog ranks 36 and up.
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


def index_set(label: SetLabel, from_rank: int | None = None, to_rank: int | None = None) -> IndexSet:
    """The row a label names over catalog ranks from_rank..to_rank.

    A bound left as None takes the row's own default.  Rows C and D are
    fixtures: a bound for them raises RangeError, as does a rank range
    another row cannot take.  An unknown label raises DomainError.
    """
    label = _set_label(label)
    given = {"from_rank": from_rank, "to_rank": to_rank}
    bounds = {name: rank for name, rank in given.items() if rank is not None}
    if label is SetLabel.C or label is SetLabel.D:
        if bounds:
            raise RangeError(f"set {label.value} is a fixture; it takes no rank range")
        return fixture_set_C() if label is SetLabel.C else fixture_set_D()
    if label is SetLabel.MERSENNE:
        return mersenne_set(**bounds)
    if label is SetLabel.A:
        return generate_set_A(mersenne_set(**bounds))
    return generate_set_B(**bounds)


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


def reference_pairs(label: SetLabel) -> tuple[tuple[int, int], ...]:
    """(n, D) reference pairs for a default 13-element row."""
    return reference_d(index_set(label))


def _scan_exponents(center: int, count_each_side: int, stride: int, primes_only: bool) -> list[int]:
    if primes_only:
        below = primes_from(center, count_each_side, stride, -1)
        middle = [center] if is_prime(center) else []
        return below[::-1] + middle + primes_from(center, count_each_side, stride, 1)
    below = [center - j * stride for j in range(count_each_side, 0, -1)]
    above = [center + j * stride for j in range(1, count_each_side + 1)]
    return [n for n in below if n >= 2] + [center] + above


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

    jobs > 1 computes the rows in that many forked processes (see
    mersenne_path_lengths); output order is by exponent either way.
    """
    center = checked_int(center, "center", 2)
    count_each_side = checked_int(count_each_side, "count_each_side", 0)
    stride = checked_int(stride, "stride", 1)
    jobs = checked_int(jobs, "jobs", 1)
    if count_each_side == 0:
        return []
    exponents = _scan_exponents(center, count_each_side, stride, primes_only)
    return [
        ScanRecord(exponent=n, is_prime_index=is_prime(n), d=d, ratio=d / n)
        for n, d in zip(exponents, mersenne_path_lengths(exponents, jobs, cycle_guard))
    ]
