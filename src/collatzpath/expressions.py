"""Compact command-line notation for large inputs.

Users name a start value without materializing its digits:

    123            plain decimal (underscore separators allowed: 1_000_000)
    2^607          a power of two
    2^607-1        the Mersenne number with that exponent
    M607           same Mersenne number, shorter
    Mp13           the 13th known Mersenne prime (catalog rank)

No whitespace, no signs, ASCII digits only.  Parse failures carry the
offset of the first offending character and what was expected there.
Each kind's spelling is written once, in _PREFIX: the parser, canonical()
and the default source_text all read it from there.

The decimal form is the package's one grammar for a number typed as
text: parse_decimal reads a whole string in it, and the command line reads
every integer option, and both halves of a rank range, through it.
"""

from __future__ import annotations

import re
from enum import Enum

from .catalog import catalog_entry, mersenne_number
from .errors import DomainError, ParseError, Record, checked_exponent, checked_int


# Python refuses str(int) and int(str) past a digit limit (4300 by default,
# settable down to 640), so longer decimals are converted in pieces of at
# most this many digits.
_DIGIT_PIECE = 600


def decimal_text(value: int) -> str:
    """The decimal digits of a non-negative int, at any length."""
    if value < 10**_DIGIT_PIECE:
        return str(value)
    # A split at half the digit count keeps both pieces' lengths balanced.
    half = value.bit_length() * 3 // 20
    high, low = divmod(value, 10**half)
    return decimal_text(high) + decimal_text(low).zfill(half)


def _decimal_value(digits: str) -> int:
    if len(digits) <= _DIGIT_PIECE:
        return int(digits)
    half = len(digits) // 2
    return _decimal_value(digits[:-half]) * 10**half + _decimal_value(digits[-half:])


class ExpressionKind(str, Enum):
    DECIMAL = "decimal"
    POWER_OF_TWO = "power_of_two"
    MERSENNE_BY_EXPONENT = "mersenne_by_exponent"
    MERSENNE_BY_RANK = "mersenne_by_rank"


# Longest first, so the parser tries "Mp" before "M"; "" matches any text.
_PREFIX = {
    ExpressionKind.MERSENNE_BY_RANK: "Mp",
    ExpressionKind.MERSENNE_BY_EXPONENT: "M",
    ExpressionKind.POWER_OF_TWO: "2^",
    ExpressionKind.DECIMAL: "",
}


class NumberExpression(Record):
    """A parsed input expression.

    Equality and hashing use (kind, parameter) only, so "2^13-1" and "M13"
    compare equal; source_text preserves what was actually written.
    """

    __slots__ = ("kind", "parameter", "source_text")

    def __init__(self, kind: ExpressionKind, parameter: int, source_text: str = "") -> None:
        if not isinstance(kind, ExpressionKind):
            raise DomainError(f"kind must be an ExpressionKind, got {kind!r}")
        parameter = checked_int(parameter, "parameter", 0)
        self._set_fields(kind, parameter, source_text or _PREFIX[kind] + decimal_text(parameter))

    def _key(self) -> tuple:
        return self.kind, self.parameter

    def canonical(self) -> str:
        """The shortest spelling; re-parsing it yields an equal expression."""
        return _PREFIX[self.kind] + decimal_text(self.parameter)

    def mersenne_exponent(self) -> int | None:
        """The exponent n when this names 2**n - 1, else None."""
        if self.kind is ExpressionKind.MERSENNE_BY_EXPONENT:
            return self.parameter
        if self.kind is ExpressionKind.MERSENNE_BY_RANK:
            return catalog_entry(self.parameter).exponent
        return None

    def resolve(self) -> int:
        """The integer value this expression names.

        Raises DomainError for M0, and RangeError for a rank outside the
        catalog or an exponent above errors.MAX_EXPONENT (checked before
        2**n is built); parsing alone never validates those, so an
        expression can be inspected without being resolvable.
        """
        if self.kind is ExpressionKind.DECIMAL:
            return self.parameter
        if self.kind is ExpressionKind.POWER_OF_TWO:
            return 1 << checked_exponent(self.parameter, "n")
        return mersenne_number(self.mersenne_exponent())


_DECIMAL = re.compile("[0-9](?:_?[0-9])*")


def _scan_decimal(text: str, start: int) -> tuple[int, int]:
    """Scan a decimal literal with optional '_' separators between digits.

    Returns (value, end offset).
    """
    match = _DECIMAL.match(text, start)
    if match is None:
        raise ParseError(text, start, "a decimal digit")
    end = match.end()
    if text[end : end + 1] == "_":
        raise ParseError(text, end + 1, "a decimal digit after '_'")
    return _decimal_value(match[0].replace("_", "")), end


def parse_decimal(text: str) -> int:
    """The value of a whole string in the decimal form, at any length.

    ASCII digits with '_' only between two of them; anything else (a sign,
    whitespace, another script's digits, empty text) raises ParseError
    with the offset of the first offending character.
    """
    if not isinstance(text, str):
        raise DomainError(f"text must be a string, got {type(text).__name__}")
    value, end = _scan_decimal(text, 0)
    if end != len(text):
        raise ParseError(text, end, "end of input")
    return value


def parse_expression(text: str) -> NumberExpression:
    """Parse one expression; the whole string must be consumed.

    Grammar: DEC | "2^" DEC | "2^" DEC "-1" | "M" DEC | "Mp" DEC.
    """
    if not isinstance(text, str):
        raise DomainError(f"text must be a string, got {type(text).__name__}")
    if not text:
        raise ParseError(text, 0, "a number expression")
    kind = next(kind for kind, prefix in _PREFIX.items() if text.startswith(prefix))
    if kind is ExpressionKind.DECIMAL and not "0" <= text[0] <= "9":
        raise ParseError(text, 0, "a digit, 'M', 'Mp', or '2^'")
    value, end = _scan_decimal(text, len(_PREFIX[kind]))
    if kind is ExpressionKind.POWER_OF_TWO and text[end : end + 2] == "-1":
        kind, end = ExpressionKind.MERSENNE_BY_EXPONENT, end + 2
    if end != len(text):
        expected = "'-1' or end of input" if kind is ExpressionKind.POWER_OF_TWO else "end of input"
        raise ParseError(text, end, expected)
    return NumberExpression(kind=kind, parameter=value, source_text=text)
