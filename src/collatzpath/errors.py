"""Exception types shared across the package, its one integer check, its
one exponent ceiling and the base class of its records.

Everything raised on purpose derives from CollatzPathError so callers can
catch one type at the boundary.  Domain/range violations also subclass
ValueError to stay friendly to generic handling.

Every public function takes its integer arguments through checked_int, so
a non-integer or a value below the bound is a DomainError, never a bare
TypeError.  Messages name integers of 64 bits or more by bit length and
leading hex digits (int_text): the paper's values run to 43 million bits,
far past the 4300 digits at which str() refuses an int.

Every 2**n the package builds from a caller's exponent n takes n through
checked_exponent first, so an n above MAX_EXPONENT is a RangeError before
any shift or power runs, never a MemoryError or an allocation of
gigabytes.

Every immutable record the package returns (PathResult, IterationState,
CatalogEntry, NumberExpression, Checkpoint, FitResult, IndexSet, RatioStats
and ScanRecord) derives from Record, which lives here because every other
module imports this one.
"""

from __future__ import annotations

import operator


def int_text(value: int, noun: str) -> str:
    """value in decimal, or from 64 bits on as "a {bits}-bit {noun} 0x...".

    The hex digits are the value's leading 64 bits.  The decimal form of a
    huge value is unreadable, and past 4300 digits refuses to render at all.
    """
    bits = value.bit_length()
    if bits < 64:
        return str(value)
    sign = "-" if value < 0 else ""
    return f"a {bits}-bit {noun} {sign}{abs(value) >> (bits - 64):#x}..."


def checked_int(value: object, name: str, minimum: int | None = None) -> int:
    """value as an int by operator.index, at least minimum when one is given.

    Raises DomainError when value is not an integer or lies below minimum.
    """
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {type(value).__name__}") from None
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {int_text(value, 'value')}")
    return value


# 2**32 is a 512 MiB int, about 100 times the catalog's largest exponent.
MAX_EXPONENT = 2**32


def checked_exponent(value: object, name: str, minimum: int = 0) -> int:
    """value through checked_int, then at most MAX_EXPONENT.

    Raises RangeError above the ceiling, so 2**value is never built for it.
    """
    value = checked_int(value, name, minimum)
    if value > MAX_EXPONENT:
        raise RangeError(
            f"{name} is too large for 2**n (at most {MAX_EXPONENT}), "
            f"got {int_text(value, 'value')}"
        )
    return value


class Record:
    """An immutable record whose fields are its class's __slots__, in order.

    A subclass's __init__ takes the fields in that order, checks them and
    stores them with _set_fields; afterwards a field can be neither assigned
    nor deleted.  Records compare and hash by _key(), every field unless a
    subclass narrows it, and another type compares unequal.  They print as
    Name(field=value, ...), and pickle and copy by calling the class on the
    fields again, so each copy passes the same checks.
    """

    __slots__ = ()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _key(self) -> tuple:
        return self._fields()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class CollatzPathError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CollatzPathError, ValueError):
    """An argument is outside the domain an operation is defined on."""


class RangeError(CollatzPathError, ValueError):
    """An argument or result falls outside a supported finite range."""


class CycleGuardExceeded(CollatzPathError, RuntimeError):
    """An iteration ran past the configured step ceiling.

    The 3x+1 iteration is not known to terminate for every start, so every
    iterating operation takes a step ceiling and fails loudly instead of
    spinning forever.  Hitting the guard means either an astronomically long
    path or a genuinely divergent orbit; the exception reports the start and
    the ceiling so the run can be retried with a higher limit.  Starts of
    64 bits or more are named by bit length and leading hex digits
    (int_text).
    """

    def __init__(self, start: int, limit: int):
        self.start = start
        self.limit = limit
        super().__init__(
            f"step count exceeded the cycle guard ({limit}) iterating from "
            f"{int_text(start, 'start')}"
        )

    def __reduce__(self):
        # Exception pickles its message alone; rebuild from the arguments.
        return type(self), (self.start, self.limit), vars(self)


class DegenerateFitError(CollatzPathError, ValueError):
    """A least-squares fit was requested on degenerate input."""


class DegenerateStatsError(CollatzPathError, ValueError):
    """Statistics were requested on too few observations."""


class ParseError(CollatzPathError, ValueError):
    """A number expression failed to parse.

    Carries the byte offset of the failure and a short description of what
    was expected there.
    """

    def __init__(self, text: str, offset: int, expected: str):
        self.text = text
        self.offset = offset
        self.expected = expected
        super().__init__(f"offset {offset}: expected {expected} in {text!r}")

    def __reduce__(self):
        return type(self), (self.text, self.offset, self.expected), vars(self)


class CheckpointError(CollatzPathError):
    """Base class for checkpoint serialization problems."""


class VersionUnsupported(CheckpointError):
    """The checkpoint file declares a format version this code cannot read."""


class ChecksumMismatch(CheckpointError):
    """The checkpoint payload does not match its recorded CRC-32."""


class MalformedField(CheckpointError):
    """A checkpoint line is missing, duplicated, or fails to parse."""


class OriginMismatch(CheckpointError):
    """A checkpoint was written for a different origin expression."""
