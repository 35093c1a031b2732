"""Collatz path lengths at arbitrary precision, with the Mersenne catalog,
closed-form estimators, survey statistics, and checkpointed long runs.

Quick taste::

    >>> import collatzpath as cp
    >>> cp.path_length(7).d
    16
    >>> cp.path_length(cp.mersenne_number(2203)).d
    29821
    >>> round(cp.mersenne_heuristic(2203))
    29647
"""

from .catalog import (
    CATALOG_SIZE,
    RANK_45_EXPONENT_MISPRINT,
    CatalogEntry,
    catalog_entries,
    catalog_entry,
    is_prime,
    lucas_lehmer,
    mersenne_number,
    next_prime,
    primes_from,
)
from .checkpoint import (
    Checkpoint,
    checkpoint_from_state,
    checkpoint_read,
    checkpoint_write,
    serialize_checkpoint,
)
from .engine import (
    DEFAULT_CYCLE_GUARD,
    IterationState,
    PathResult,
    advance,
    initial_state,
    odd_step_accelerated,
    path_length,
    raw_advance,
    trace,
)
from .errors import (
    ChecksumMismatch,
    CollatzPathError,
    CycleGuardExceeded,
    DegenerateFitError,
    DegenerateStatsError,
    DomainError,
    MalformedField,
    OriginMismatch,
    ParseError,
    RangeError,
    VersionUnsupported,
)
from .expressions import ExpressionKind, NumberExpression, parse_expression
from .heuristics import (
    C0,
    MERSENNE_SLOPE,
    FitResult,
    fit_loglog,
    heuristic_path_length,
    mersenne_heuristic,
    verify_transit_lemma,
)
from .survey import (
    IndexSet,
    RatioStats,
    ScanRecord,
    SetLabel,
    index_set,
    ratio_stats,
    reference_d,
    scan_ratios,
)

__version__ = "0.1.0"

__all__ = [
    "C0",
    "CATALOG_SIZE",
    "DEFAULT_CYCLE_GUARD",
    "MERSENNE_SLOPE",
    "RANK_45_EXPONENT_MISPRINT",
    "CatalogEntry",
    "Checkpoint",
    "ChecksumMismatch",
    "CollatzPathError",
    "CycleGuardExceeded",
    "DegenerateFitError",
    "DegenerateStatsError",
    "DomainError",
    "ExpressionKind",
    "FitResult",
    "IndexSet",
    "IterationState",
    "MalformedField",
    "NumberExpression",
    "OriginMismatch",
    "ParseError",
    "PathResult",
    "RangeError",
    "RatioStats",
    "ScanRecord",
    "SetLabel",
    "VersionUnsupported",
    "advance",
    "catalog_entries",
    "catalog_entry",
    "checkpoint_from_state",
    "checkpoint_read",
    "checkpoint_write",
    "fit_loglog",
    "heuristic_path_length",
    "index_set",
    "initial_state",
    "is_prime",
    "lucas_lehmer",
    "mersenne_heuristic",
    "mersenne_number",
    "next_prime",
    "odd_step_accelerated",
    "parse_expression",
    "path_length",
    "primes_from",
    "ratio_stats",
    "raw_advance",
    "reference_d",
    "scan_ratios",
    "serialize_checkpoint",
    "trace",
    "verify_transit_lemma",
]
