"""Checkpoint format: byte-identical round trips and loud failure modes."""

import binascii
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import collatzpath.checkpoint as checkpoint_module
from collatzpath import (
    Checkpoint,
    ChecksumMismatch,
    DomainError,
    ExpressionKind,
    IterationState,
    MalformedField,
    NumberExpression,
    ParseError,
    VersionUnsupported,
    advance,
    checkpoint_from_state,
    checkpoint_read,
    checkpoint_write,
    initial_state,
    parse_expression,
    serialize_checkpoint,
)
from collatzpath.checkpoint import _payload

GOLDEN = Path(__file__).parent / "data" / "m89_after_1000.ckpt"


def make_state(expr_text="M89", steps=1000):
    expr = parse_expression(expr_text)
    return advance(initial_state(expr.resolve(), origin=expr), steps)


def rebuild(lines):
    """Reassemble a checkpoint file from its seven payload lines, fixing the CRC."""
    payload = b"\n".join(lines) + b"\n"
    return payload + b"crc32=%08x\nEND\n" % binascii.crc32(payload)


@pytest.fixture
def valid_file(tmp_path):
    path = tmp_path / "run.ckpt"
    state = make_state()
    checkpoint_write(path, state)
    return path, state


def test_round_trip_restores_the_state(valid_file):
    path, state = valid_file
    cp = checkpoint_read(path)
    assert isinstance(cp, Checkpoint)
    assert cp.to_state() == state
    assert path.read_bytes() == serialize_checkpoint(cp)


def test_write_returns_what_read_sees(valid_file):
    path, state = valid_file
    written = checkpoint_write(path, state)
    assert checkpoint_read(path) == written


def test_no_temp_files_left_behind(valid_file):
    path, _ = valid_file
    leftovers = [p for p in path.parent.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_failed_write_cleans_up_its_temp_file(tmp_path):
    target = tmp_path / "blocked"
    target.mkdir()  # os.replace onto a non-empty directory fails
    (target / "occupant").write_text("x")
    with pytest.raises(OSError):
        checkpoint_write(target, make_state())
    leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_a_checkpoint_is_durable_before_it_is_visible(tmp_path, monkeypatch):
    # The temporary file is synced, every byte written, before it is renamed
    # over the target; until then the target still holds the last checkpoint.
    path = tmp_path / "run.ckpt"
    checkpoint_write(path, make_state(steps=500))
    before = path.read_bytes()
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        synced = os.fstat(fd)
        calls.append(("fsync", synced.st_ino, synced.st_size))
        assert path.read_bytes() == before
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.stat(src).st_ino, os.fspath(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(checkpoint_module.os, "fsync", fsync)
    monkeypatch.setattr(checkpoint_module.os, "replace", replace)
    data = serialize_checkpoint(checkpoint_write(path, make_state()))
    [(first, synced, size), (second, renamed, target)] = calls
    assert (first, second) == ("fsync", "replace")
    assert (synced, size) == (renamed, len(data))
    assert target == os.fspath(path)
    assert path.read_bytes() == data


def test_an_interrupted_sync_keeps_the_last_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "run.ckpt"
    checkpoint_write(path, make_state(steps=500))
    before = path.read_bytes()

    def fsync(fd):
        raise KeyboardInterrupt

    monkeypatch.setattr(checkpoint_module.os, "fsync", fsync)
    with pytest.raises(KeyboardInterrupt):
        checkpoint_write(path, make_state())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt"]


def test_a_failed_sync_whose_cleanup_fails_raises_the_sync_error(tmp_path, monkeypatch):
    path = tmp_path / "run.ckpt"
    checkpoint_write(path, make_state(steps=500))
    before = path.read_bytes()

    def fsync(fd):
        raise OSError("fsync failed")

    def unlink(name):
        raise OSError("unlink failed")

    monkeypatch.setattr(checkpoint_module.os, "fsync", fsync)
    monkeypatch.setattr(checkpoint_module.os, "unlink", unlink)
    with pytest.raises(OSError, match="fsync failed"):
        checkpoint_write(path, make_state())
    assert path.read_bytes() == before
    # The temporary sibling that could not be removed stays beside it.
    [tmp] = tmp_path.glob("run.ckpt.*.tmp")
    assert sorted(tmp_path.iterdir()) == sorted([path, tmp])


def test_a_stale_temp_sibling_is_left_alone(tmp_path):
    # A temporary file an earlier, killed write left behind does not stop
    # the next write, which creates its own with mode 0600.
    stale = tmp_path / "run.ckpt.stale.tmp"
    stale.write_bytes(b"partial")
    path = tmp_path / "run.ckpt"
    state = make_state()
    checkpoint_write(path, state)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt", "run.ckpt.stale.tmp"]
    assert stale.read_bytes() == b"partial"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    assert checkpoint_read(path).to_state() == state


def test_the_file_for_m89_after_1000_steps_is_frozen(tmp_path):
    path = tmp_path / "run.ckpt"
    checkpoint_write(path, make_state())
    assert path.read_bytes() == GOLDEN.read_bytes()
    assert checkpoint_read(GOLDEN).to_state() == make_state()


def current_line(x: int) -> bytes:
    state = IterationState(current=x, peak_bit_length=x.bit_length(), origin=parse_expression("M89"))
    return _payload(state).split(b"\n")[6]


@pytest.mark.parametrize("x", [1, 15, 16, 255, 256, 2**4096 - 1, 2**4096, 2**4096 + 1])
def test_current_is_written_as_plain_lowercase_hex(x):
    assert current_line(x) == b"current=" + format(x, "x").encode("ascii")


@given(st.integers(1, 4096), st.sampled_from([-1, 0, 1]))
def test_current_around_a_power_of_two_is_plain_lowercase_hex(k, offset):
    x = 2**k + offset
    assert current_line(x) == b"current=" + format(x, "x").encode("ascii")


def test_origin_spelling_is_preserved_verbatim(tmp_path):
    path = tmp_path / "verbatim.ckpt"
    expr = parse_expression("2^89-1")
    state = advance(initial_state(expr.resolve(), origin=expr), 100)
    checkpoint_write(path, state)
    data = path.read_bytes()
    assert b"\norigin=2^89-1\n" in data
    cp = checkpoint_read(path)
    assert cp.to_state().origin == parse_expression("M89")
    assert cp.to_state().origin.source_text == "2^89-1"
    assert serialize_checkpoint(cp) == data


class Index:
    """An integer only through __index__, as a numpy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_a_state_built_from_index_counters_reads_back_unchanged(tmp_path):
    # A counter kept as given would be written as something other than its
    # digits, in a file the reader refuses.
    origin = parse_expression("27")
    expected = advance(initial_state(27, origin=origin), 10)
    state = IterationState(
        expected.current,
        steps=Index(expected.steps),
        odd_steps=Index(expected.odd_steps),
        even_steps=Index(expected.even_steps),
        peak_bit_length=Index(expected.peak_bit_length),
        origin=origin,
    )
    assert state == expected
    path = tmp_path / "index.ckpt"
    checkpoint_write(path, state)
    assert checkpoint_read(path).to_state() == expected


def test_checkpoint_requires_an_origin():
    anonymous = advance(initial_state(127), 5)
    with pytest.raises(DomainError):
        checkpoint_from_state(anonymous)
    with pytest.raises(DomainError):
        checkpoint_write("unused", anonymous)


@pytest.mark.parametrize("spelling", ["2^89 - 1", "M89\norigin=M90", "M90"])
def test_an_origin_whose_text_does_not_parse_back_is_refused(spelling):
    # The file stores source_text and the reader re-parses it, so a text
    # that fails to parse, breaks the line structure, or names another
    # number would make a file that is refused or resumes the wrong run.
    # No such expression is built, so no state or file can carry one.
    error = DomainError if spelling == "M90" else ParseError
    with pytest.raises(error):
        NumberExpression(ExpressionKind.MERSENNE_BY_EXPONENT, 89, source_text=spelling)


def test_crc_convention_is_the_everyday_one():
    # Pins the polynomial: the classic check value for "123456789".
    assert binascii.crc32(b"123456789") == 0xCBF43926


def test_corrupted_payload_digit_fails_the_checksum(valid_file):
    path, _ = valid_file
    data = bytearray(path.read_bytes())
    at = data.index(b"\nsteps=") + len(b"\nsteps=")
    original = data[at]
    data[at] = ord("0") if original != ord("0") else ord("9")
    path.write_bytes(bytes(data))
    with pytest.raises(ChecksumMismatch):
        checkpoint_read(path)


def test_a_well_formed_crc_line_with_another_crc_is_a_checksum_mismatch(valid_file):
    # The payload is intact; only the digits its crc32 line records differ.
    path, _ = valid_file
    good = path.read_bytes()
    payload = good[: good.index(b"crc32=")]
    actual = binascii.crc32(payload)
    for recorded in (0, 0xFFFFFFFF, actual ^ 1):
        path.write_bytes(payload + b"crc32=%08x\nEND\n" % recorded)
        message = f"^payload CRC {actual:08x} does not match recorded {recorded:08x}$"
        with pytest.raises(ChecksumMismatch, match=message):
            checkpoint_read(path)


def test_foreign_version_is_refused_before_anything_else(valid_file):
    # The header is read first, so a foreign layout is never called malformed.
    path, _ = valid_file
    data = path.read_bytes().replace(b"CKMP 1\n", b"CKMP 2\n", 1)
    for foreign in (data, data + b"extra\n", b"CKMP 2\n", b"CKMP 2"):
        path.write_bytes(foreign)
        with pytest.raises(VersionUnsupported, match="'2'"):
            checkpoint_read(path)


def payload_lines(path):
    return path.read_bytes().split(b"\n")[:7]


def test_reordered_fields_are_malformed(valid_file):
    path, _ = valid_file
    lines = payload_lines(path)
    lines[2], lines[3] = lines[3], lines[2]
    path.write_bytes(rebuild(lines))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_uppercase_hex_is_malformed(valid_file):
    path, _ = valid_file
    lines = payload_lines(path)
    assert lines[6].startswith(b"current=")
    lines[6] = b"current=AB"
    path.write_bytes(rebuild(lines))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_inconsistent_step_counts_are_malformed(valid_file):
    path, _ = valid_file
    lines = payload_lines(path)
    lines[1] = b"steps=5"
    lines[2] = b"odd_steps=1"
    lines[3] = b"even_steps=1"
    path.write_bytes(rebuild(lines))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_non_decimal_count_is_malformed(valid_file):
    path, _ = valid_file
    lines = payload_lines(path)
    lines[1] = b"steps=12x3"
    path.write_bytes(rebuild(lines))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


@pytest.mark.parametrize("key", [b"steps", b"peak_bit_length", b"current"])
def test_leading_zeros_are_malformed(valid_file, key):
    # int() reads "01000" as 1000, but the writer never produces that file.
    path, _ = valid_file
    lines = payload_lines(path)
    at = [line.split(b"=")[0] for line in lines].index(key)
    lines[at] = lines[at].replace(b"=", b"=0", 1)
    path.write_bytes(rebuild(lines))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_unparseable_origin_is_malformed(valid_file):
    path, _ = valid_file
    lines = payload_lines(path)
    lines[0] = b"CKMP 1"
    lines[1] = b"origin=xyz"
    rest = [b"steps=0", b"odd_steps=0", b"even_steps=0", b"peak_bit_length=3", b"current=7"]
    path.write_bytes(rebuild(lines[:2] + rest))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_zero_current_is_malformed(tmp_path):
    path = tmp_path / "zero.ckpt"
    lines = [
        b"CKMP 1", b"origin=M7", b"steps=0", b"odd_steps=0",
        b"even_steps=0", b"peak_bit_length=7", b"current=0",
    ]
    path.write_bytes(rebuild(lines))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_peak_below_current_width_is_malformed(tmp_path):
    path = tmp_path / "peak.ckpt"
    lines = [
        b"CKMP 1", b"origin=M7", b"steps=0", b"odd_steps=0",
        b"even_steps=0", b"peak_bit_length=3", b"current=7f",
    ]
    path.write_bytes(rebuild(lines))
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_bad_crc_formats_are_malformed(valid_file):
    path, _ = valid_file
    payload = b"\n".join(payload_lines(path)) + b"\n"
    # int() reads "-abc1234" in base 16, but the writer never writes a sign.
    bad = (b"crc32=XYZ", b"crc32=ABCDEF12", b"crc32=1234567", b"checksum=00000000", b"crc32=-abc1234")
    for crc_line in bad:
        path.write_bytes(payload + crc_line + b"\nEND\n")
        with pytest.raises(MalformedField):
            checkpoint_read(path)


def test_structural_damage_is_malformed(valid_file):
    path, _ = valid_file
    good = path.read_bytes()

    path.write_bytes(good.replace(b"END\n", b"", 1))  # no END line
    with pytest.raises(MalformedField):
        checkpoint_read(path)

    path.write_bytes(good[:-1])  # no trailing newline
    with pytest.raises(MalformedField):
        checkpoint_read(path)

    path.write_bytes(good + b"extra\n")
    with pytest.raises(MalformedField):
        checkpoint_read(path)

    path.write_bytes(b"KCMP 1\n" + good.split(b"\n", 1)[1])
    with pytest.raises(MalformedField):
        checkpoint_read(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        checkpoint_read(tmp_path / "absent.ckpt")


def test_halted_state_round_trips(tmp_path):
    path = tmp_path / "done.ckpt"
    expr = parse_expression("M7")
    final = advance(initial_state(expr.resolve(), origin=expr), 10**6)
    assert final.halted
    checkpoint_write(path, final)
    cp = checkpoint_read(path)
    assert cp.to_state() == final
    assert cp.to_state().current == 1


origin_spellings = st.one_of(
    st.integers(1, 2**200).map(str),
    st.integers(1, 2**40).map(lambda v: f"{v:_}"),
    st.integers(1, 400).flatmap(
        lambda n: st.sampled_from([f"M{n}", f"2^{n}-1", f"2^{n}", f"0{n}"])
    ),
    st.integers(1, 20).map(lambda rank: f"Mp{rank}"),
)


@given(origin_spellings, st.integers(0, 3000))
def test_every_read_file_re_serializes_to_its_bytes(tmp_path_factory, text, budget):
    path = tmp_path_factory.mktemp("prop") / "run.ckpt"
    expr = parse_expression(text)
    state = advance(initial_state(expr.resolve(), origin=expr), budget)
    written = checkpoint_write(path, state)
    assert path.read_bytes() == serialize_checkpoint(written)
    cp = checkpoint_read(path)
    assert cp.to_state() == state
    assert cp.to_state().origin.source_text == text
    assert serialize_checkpoint(cp) == path.read_bytes()


@given(
    st.integers(1, 6),
    st.integers(0, 40),
    st.text("0123456789abcdefABCDEF+-_ x=M^p", min_size=1, max_size=3),
)
def test_an_edited_field_is_refused_or_round_trips(tmp_path_factory, line, at, insert):
    path = tmp_path_factory.mktemp("edit") / "run.ckpt"
    checkpoint_write(path, make_state())
    lines = payload_lines(path)
    key, _, value = lines[line].partition(b"=")
    at = min(at, len(value))
    lines[line] = key + b"=" + value[:at] + insert.encode("ascii") + value[at:]
    path.write_bytes(rebuild(lines))
    try:
        cp = checkpoint_read(path)
    except MalformedField:
        return
    assert serialize_checkpoint(cp) == path.read_bytes()


@given(
    st.sampled_from(["replace", "insert", "delete"]),
    st.integers(0, GOLDEN.stat().st_size),
    st.one_of(st.sampled_from(b"0123456789abcdefABCDEF=\n -+_xMCKPEND"), st.integers(0, 255)),
)
def test_a_one_byte_change_anywhere_is_refused_or_round_trips(tmp_path_factory, kind, at, byte):
    # Header, fields, crc line, END and tail alike: a file either loads and
    # re-serializes to its exact bytes or is refused with a checkpoint error.
    good = GOLDEN.read_bytes()
    at = min(at, len(good) - (kind != "insert"))
    changed = good[:at] + bytes([byte]) * (kind != "delete") + good[at + (kind != "insert"):]
    path = tmp_path_factory.mktemp("byte") / "run.ckpt"
    path.write_bytes(changed)
    try:
        cp = checkpoint_read(path)
    except (VersionUnsupported, ChecksumMismatch, MalformedField):
        return
    assert serialize_checkpoint(cp) == changed
