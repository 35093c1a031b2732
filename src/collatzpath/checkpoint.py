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
exactly as the user wrote it; a NumberExpression's spelling always parses
back to it, so the one origin rule left here is that a checkpointed state
has an origin.  Writes go to a temporary sibling and are renamed into
place, so a reader never observes a partial file.
"""

from __future__ import annotations

import binascii
import os

from .engine import IterationState
from .errors import ChecksumMismatch, DomainError, MalformedField, Record, VersionUnsupported
from .expressions import parse_expression

CHECKPOINT_VERSION = 1

_MAGIC_PREFIX = "CKMP "
# Every file ends in these lines, with the payload's CRC-32 in place of %08x.
_TRAILER = b"crc32=%08x\nEND\n"


class Checkpoint(Record):
    """The engine state one checkpoint file froze.

    Raises DomainError for a state without an origin.  Every origin's
    spelling parses back to it, so the reader resumes the same run.
    """

    __slots__ = ("state",)

    def __init__(self, state: IterationState) -> None:
        self._set_fields(state)
        if state.origin is None:
            raise DomainError("checkpointing requires a state with an origin expression")

    def to_state(self) -> IterationState:
        """Rebuild the engine state this checkpoint froze."""
        return self.state


def _payload(state: IterationState) -> bytes:
    """Every line of the file above the crc32 line."""
    x = state.current
    # The big-endian bytes in hex are f"{x:x}" with at most one leading 0
    # nibble, and cheaper to make: 10 against 14 us at 41 kbit, 0.28
    # against 1.5 ms at 1.2 Mbit.
    digits = x.to_bytes((x.bit_length() + 7) >> 3, "big").hex().removeprefix("0")
    lines = (
        f"{_MAGIC_PREFIX}{CHECKPOINT_VERSION}",
        f"origin={state.origin.source_text}",
        f"steps={state.steps}",
        f"odd_steps={state.odd_steps}",
        f"even_steps={state.even_steps}",
        f"peak_bit_length={state.peak_bit_length}",
        f"current={digits}",
    )
    return ("\n".join(lines) + "\n").encode("ascii")


def _trailer(payload: bytes) -> bytes:
    """The crc32 and END lines below a payload."""
    return _TRAILER % binascii.crc32(payload)


def checkpoint_from_state(state: IterationState) -> Checkpoint:
    """Freeze an engine state.  The state must carry an origin expression."""
    return Checkpoint(state)


def serialize_checkpoint(cp: Checkpoint) -> bytes:
    """Canonical file image for a checkpoint."""
    payload = _payload(cp.state)
    return payload + _trailer(payload)


def checkpoint_write(path: str | os.PathLike, state: IterationState) -> Checkpoint:
    """Atomically persist a state; returns the checkpoint written."""
    import tempfile

    cp = checkpoint_from_state(state)
    data = serialize_checkpoint(cp)
    # The temporary sibling is named after the target, so an error names it.
    directory, name = os.path.split(os.path.abspath(os.fspath(path)))
    # mkstemp creates it exclusively, never through a link, with mode 0600.
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=f"{name}.", suffix=".tmp")
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
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

    A file is accepted exactly when it equals the bytes the writer produces
    for the state its fields name, so a returned checkpoint is always
    resumable and re-serializes to the exact bytes on disk.  Refusals:
    VersionUnsupported for a first line "CKMP <v>" with another version,
    whatever follows it; ChecksumMismatch for a file that is the writer's
    image of its first seven lines but for the CRC its crc32 line records;
    and MalformedField for any other file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    # The header comes first: another version may lay its lines out differently.
    try:
        magic = lines[0].decode("ascii")
    except UnicodeDecodeError as exc:
        raise MalformedField(f"undecodable header line: {exc}") from None
    if not magic.startswith(_MAGIC_PREFIX):
        raise MalformedField(f"missing {_MAGIC_PREFIX.strip()!r} header, got {magic!r}")
    version_text = magic[len(_MAGIC_PREFIX):]
    if version_text != str(CHECKPOINT_VERSION):
        raise VersionUnsupported(f"unsupported checkpoint version {version_text!r}")
    payload = b"\n".join(lines[:7]) + b"\n"
    actual_crc = binascii.crc32(payload)
    # Where a trailer of the writer's form holds the CRC's eight digits.
    at = len(payload) + _TRAILER.index(b"%")
    # ValueError covers UnicodeDecodeError, ParseError and DomainError; any
    # file that raises one is not the writer's.  The comparison at the end
    # checks the keys, order and spelling of the fields and the trailer.
    try:
        # After "0x" int() refuses a sign, which %08x would write back.
        recorded_crc = int(b"0x" + data[at:at + 8], 16)
        if recorded_crc != actual_crc and data == payload + _TRAILER % recorded_crc:
            raise ChecksumMismatch(
                f"payload CRC {actual_crc:08x} does not match recorded {recorded_crc:08x}"
            )
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
        raise MalformedField(f"checkpoint is not a file the writer produces: {exc}") from None
    if _payload(state) + _trailer(payload) != data:
        raise MalformedField("checkpoint is not the file the writer produces for its fields")
    return Checkpoint(state)
