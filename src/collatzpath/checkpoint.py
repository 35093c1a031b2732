"""Crash-safe persistence for long runs.

A checkpoint is a small line-oriented text file:

    CKMP 1
    origin=M2203
    steps=12000
    odd_steps=3608
    even_steps=8392
    peak_bit_length=3493
    current=6f...be1
    crc32=9f3c2a11
    END

The crc32 line holds the CRC-32 (the everyday reflected polynomial
0x04C11DB7 with 0xFFFFFFFF init and final xor, i.e. binascii.crc32) of
every byte above it, newlines included.  Field order is fixed; a valid
file re-serializes byte-identically, and the origin is stored exactly as
the user wrote it.  Writes go to a temporary sibling and are renamed into
place, so a reader never observes a partial file.
"""

from __future__ import annotations

import binascii
import os
from dataclasses import dataclass

from .engine import IterationState
from .errors import (
    ChecksumMismatch,
    DomainError,
    MalformedField,
    ParseError,
    VersionUnsupported,
)
from .expressions import NumberExpression, parse_expression

CHECKPOINT_VERSION = 1

_MAGIC_PREFIX = "CKMP "
_FIELD_ORDER = ("origin", "steps", "odd_steps", "even_steps", "peak_bit_length", "current")


@dataclass(frozen=True)
class Checkpoint:
    """Parsed checkpoint contents; a faithful image of one file."""

    format_version: int
    origin: NumberExpression
    steps: int
    odd_steps: int
    even_steps: int
    peak_bit_length: int
    current_value_hex: str
    payload_crc32: int

    def to_state(self) -> IterationState:
        """Rebuild the engine state this checkpoint froze."""
        return IterationState(
            current=int(self.current_value_hex, 16),
            steps=self.steps,
            odd_steps=self.odd_steps,
            even_steps=self.even_steps,
            peak_bit_length=self.peak_bit_length,
            origin=self.origin,
        )


def _payload_bytes(origin_text: str, steps: int, odd: int, even: int, peak: int, hex_value: str) -> bytes:
    lines = (
        f"{_MAGIC_PREFIX}{CHECKPOINT_VERSION}",
        f"origin={origin_text}",
        f"steps={steps}",
        f"odd_steps={odd}",
        f"even_steps={even}",
        f"peak_bit_length={peak}",
        f"current={hex_value}",
    )
    return ("\n".join(lines) + "\n").encode("ascii")


def checkpoint_from_state(state: IterationState) -> Checkpoint:
    """Freeze an engine state.  The state must carry an origin expression."""
    if not isinstance(state.origin, NumberExpression):
        raise DomainError("checkpointing requires a state with an origin expression")
    hex_value = format(state.current, "x")
    payload = _payload_bytes(
        state.origin.source_text,
        state.steps,
        state.odd_steps,
        state.even_steps,
        state.peak_bit_length,
        hex_value,
    )
    return Checkpoint(
        format_version=CHECKPOINT_VERSION,
        origin=state.origin,
        steps=state.steps,
        odd_steps=state.odd_steps,
        even_steps=state.even_steps,
        peak_bit_length=state.peak_bit_length,
        current_value_hex=hex_value,
        payload_crc32=binascii.crc32(payload),
    )


def serialize_checkpoint(cp: Checkpoint) -> bytes:
    """Canonical file image for a checkpoint."""
    payload = _payload_bytes(
        cp.origin.source_text,
        cp.steps,
        cp.odd_steps,
        cp.even_steps,
        cp.peak_bit_length,
        cp.current_value_hex,
    )
    return payload + f"crc32={cp.payload_crc32:08x}\nEND\n".encode("ascii")


def checkpoint_write(path: str | os.PathLike, state: IterationState) -> Checkpoint:
    """Atomically persist a state; returns the checkpoint written."""
    import tempfile

    cp = checkpoint_from_state(state)
    data = serialize_checkpoint(cp)
    directory = os.path.dirname(os.path.abspath(os.fspath(path))) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return cp


def _parse_count(key: str, value: str) -> int:
    if not value or not all("0" <= c <= "9" for c in value):
        raise MalformedField(f"field {key!r} must be a decimal count, got {value!r}")
    return int(value)


def checkpoint_read(path: str | os.PathLike) -> Checkpoint:
    """Load and validate a checkpoint file.

    Raises VersionUnsupported for a foreign format version,
    ChecksumMismatch when the payload fails its CRC, and MalformedField
    for structural damage.  A returned checkpoint is always resumable and
    re-serializes to the exact bytes on disk.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    # magic, six fields, crc line, END, plus the empty tail of the final newline
    if len(lines) != 10 or lines[-1] != b"" or lines[-2] != b"END":
        raise MalformedField("checkpoint does not have the expected line structure")
    try:
        magic = lines[0].decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedField(f"undecodable header line: {exc}") from None
    if not magic.startswith(_MAGIC_PREFIX):
        raise MalformedField(f"missing {_MAGIC_PREFIX.strip()!r} header, got {magic!r}")
    version_text = magic[len(_MAGIC_PREFIX):]
    if version_text != str(CHECKPOINT_VERSION):
        raise VersionUnsupported(f"unsupported checkpoint version {version_text!r}")
    crc_line = lines[7]
    if not crc_line.startswith(b"crc32="):
        raise MalformedField(f"expected crc32 line, got {crc_line!r}")
    crc_text = crc_line[len(b"crc32="):].decode("ascii", errors="replace")
    if len(crc_text) != 8 or not all(c in "0123456789abcdef" for c in crc_text):
        raise MalformedField(f"crc32 must be 8 lowercase hex digits, got {crc_text!r}")
    recorded_crc = int(crc_text, 16)
    payload = b"\n".join(lines[:7]) + b"\n"
    actual_crc = binascii.crc32(payload)
    if actual_crc != recorded_crc:
        raise ChecksumMismatch(
            f"payload CRC {actual_crc:08x} does not match recorded {recorded_crc:08x}"
        )
    fields: dict[str, str] = {}
    for raw, expected_key in zip(lines[1:7], _FIELD_ORDER):
        try:
            line = raw.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedField(f"undecodable field line: {exc}") from None
        key, sep, value = line.partition("=")
        if not sep or key != expected_key:
            raise MalformedField(f"expected field {expected_key!r}, got line {line!r}")
        fields[key] = value
    try:
        origin = parse_expression(fields["origin"])
    except ParseError as exc:
        raise MalformedField(f"origin does not parse: {exc}") from None
    steps = _parse_count("steps", fields["steps"])
    odd = _parse_count("odd_steps", fields["odd_steps"])
    even = _parse_count("even_steps", fields["even_steps"])
    peak = _parse_count("peak_bit_length", fields["peak_bit_length"])
    hex_value = fields["current"]
    if not hex_value or not all(c in "0123456789abcdef" for c in hex_value):
        raise MalformedField(f"current must be lowercase hex, got {hex_value!r}")
    if steps != odd + even:
        raise MalformedField("steps does not equal odd_steps + even_steps")
    current = int(hex_value, 16)
    if current < 1:
        raise MalformedField("current must be >= 1")
    if peak < current.bit_length():
        raise MalformedField("peak_bit_length is below the current value's bit length")
    return Checkpoint(
        format_version=CHECKPOINT_VERSION,
        origin=origin,
        steps=steps,
        odd_steps=odd,
        even_steps=even,
        peak_bit_length=peak,
        current_value_hex=hex_value,
        payload_crc32=recorded_crc,
    )
