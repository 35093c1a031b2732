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
every byte above it, newlines included.  The writer alone defines the
format: the reader rebuilds the state from the fields and accepts the
file only when writing that state again gives back its exact bytes, so
every file read re-serializes byte-identically.  The origin is stored
exactly as the user wrote it.  Writes go to a temporary sibling and are
renamed into place, so a reader never observes a partial file.
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


@dataclass(frozen=True)
class Checkpoint:
    """The engine state one checkpoint file froze; it carries an origin."""

    state: IterationState

    def __post_init__(self) -> None:
        origin = self.state.origin
        if not isinstance(origin, NumberExpression):
            raise DomainError("checkpointing requires a state with an origin expression")
        # The file stores source_text, and the reader re-parses it.
        try:
            same = parse_expression(origin.source_text) == origin
        except ParseError:
            same = False
        if not same:
            raise DomainError(
                f"origin text {origin.source_text!r} does not parse back to {origin.canonical()}"
            )

    def to_state(self) -> IterationState:
        """Rebuild the engine state this checkpoint froze."""
        return self.state


def _payload(state: IterationState) -> bytes:
    """Every line of the file above the crc32 line."""
    lines = (
        f"{_MAGIC_PREFIX}{CHECKPOINT_VERSION}",
        f"origin={state.origin.source_text}",
        f"steps={state.steps}",
        f"odd_steps={state.odd_steps}",
        f"even_steps={state.even_steps}",
        f"peak_bit_length={state.peak_bit_length}",
        f"current={state.current:x}",
    )
    return ("\n".join(lines) + "\n").encode("ascii")


def checkpoint_from_state(state: IterationState) -> Checkpoint:
    """Freeze an engine state.  The state must carry an origin expression."""
    return Checkpoint(state)


def serialize_checkpoint(cp: Checkpoint) -> bytes:
    """Canonical file image for a checkpoint."""
    payload = _payload(cp.state)
    return payload + f"crc32={binascii.crc32(payload):08x}\nEND\n".encode("ascii")


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


def checkpoint_read(path: str | os.PathLike) -> Checkpoint:
    """Load and validate a checkpoint file.

    Raises VersionUnsupported for a foreign format version,
    ChecksumMismatch when the payload fails its CRC, and MalformedField
    for structural damage or any payload other than the one the writer
    produces for the state it names.  A returned checkpoint is always
    resumable and re-serializes to the exact bytes on disk.
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
    # ValueError covers UnicodeDecodeError, ParseError and DomainError.  Keys,
    # order and spelling of the fields are checked by re-encoding below.
    try:
        origin, steps, odd, even, peak, current = (
            raw.decode("ascii").partition("=")[2] for raw in lines[1:7]
        )
        state = IterationState(
            current=int(current, 16),
            steps=int(steps),
            odd_steps=int(odd),
            even_steps=int(even),
            peak_bit_length=int(peak),
            origin=parse_expression(origin),
        )
    except ValueError as exc:
        raise MalformedField(f"checkpoint fields do not form a state: {exc}") from None
    if _payload(state) != payload:
        raise MalformedField("checkpoint fields are not in the form the writer produces")
    return Checkpoint(state)
