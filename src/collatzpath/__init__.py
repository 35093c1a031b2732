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

Each exported name is loaded from its home module (_HOME) when it is
first used, so importing the package, or one command of the CLI, loads
only the modules that run.
"""

import importlib

__version__ = "0.1.0"

# Every exported name and the module it lives in; __all__ is its keys.
_HOME = {
    "C0": "heuristics",
    "CATALOG_SIZE": "catalog",
    "DEFAULT_CYCLE_GUARD": "engine",
    "MERSENNE_SLOPE": "heuristics",
    "RANK_45_EXPONENT_MISPRINT": "catalog",
    "CatalogEntry": "catalog",
    "Checkpoint": "checkpoint",
    "ChecksumMismatch": "errors",
    "CollatzPathError": "errors",
    "CycleGuardExceeded": "errors",
    "DegenerateFitError": "errors",
    "DegenerateStatsError": "errors",
    "DomainError": "errors",
    "ExpressionKind": "expressions",
    "FitResult": "heuristics",
    "IndexSet": "survey",
    "IterationState": "engine",
    "MalformedField": "errors",
    "NumberExpression": "expressions",
    "OriginMismatch": "errors",
    "ParseError": "errors",
    "PathResult": "engine",
    "RangeError": "errors",
    "RatioStats": "survey",
    "ScanRecord": "survey",
    "SetLabel": "survey",
    "VersionUnsupported": "errors",
    "advance": "engine",
    "catalog_entries": "catalog",
    "catalog_entry": "catalog",
    "checkpoint_from_state": "checkpoint",
    "checkpoint_read": "checkpoint",
    "checkpoint_write": "checkpoint",
    "fit_loglog": "heuristics",
    "heuristic_path_length": "heuristics",
    "index_set": "survey",
    "initial_state": "engine",
    "is_prime": "catalog",
    "lucas_lehmer": "catalog",
    "mersenne_heuristic": "heuristics",
    "mersenne_number": "catalog",
    "next_prime": "catalog",
    "odd_step_accelerated": "engine",
    "parse_expression": "expressions",
    "path_length": "engine",
    "primes_from": "catalog",
    "ratio_stats": "survey",
    "raw_advance": "engine",
    "reference_d": "survey",
    "scan_ratios": "survey",
    "serialize_checkpoint": "checkpoint",
    "trace": "engine",
    "verify_transit_lemma": "heuristics",
}

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
