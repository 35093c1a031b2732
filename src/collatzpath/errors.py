"""Exception types shared across the package, and its one integer check.

Everything raised on purpose derives from CollatzPathError so callers can
catch one type at the boundary.  Domain/range violations also subclass
ValueError to stay friendly to generic handling.

Every public function takes its integer arguments through checked_int, so
a non-integer or a value below the bound is a DomainError, never a bare
TypeError.  Messages name integers of 64 bits or more by bit length and
leading hex digits (int_text): the paper's values run to 43 million bits,
far past the 4300 digits at which str() refuses an int.
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
