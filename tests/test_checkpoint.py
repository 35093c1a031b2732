"""Checkpoint format: byte-identical round trips and loud failure modes."""

import binascii

import pytest
from hypothesis import given, strategies as st

from collatzpath import (
    Checkpoint,
    ChecksumMismatch,
    DomainError,
    ExpressionKind,
    MalformedField,
    NumberExpression,
    VersionUnsupported,
    advance,
    checkpoint_from_state,
    checkpoint_read,
    checkpoint_write,
    initial_state,
    parse_expression,
    serialize_checkpoint,
)


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


def test_checkpoint_requires_an_origin():
    anonymous = advance(initial_state(127), 5)
    with pytest.raises(DomainError):
        checkpoint_from_state(anonymous)
    with pytest.raises(DomainError):
        checkpoint_write("unused", anonymous)


@pytest.mark.parametrize("spelling", ["2^89 - 1", "M89\norigin=M90", "M90"])
def test_an_origin_whose_text_does_not_parse_back_is_refused(tmp_path, spelling):
    # The file stores source_text and the reader re-parses it, so a text
    # that fails to parse, breaks the line structure, or names another
    # number would make a file that is refused or resumes the wrong run.
    origin = NumberExpression(ExpressionKind.MERSENNE_BY_EXPONENT, 89, source_text=spelling)
    state = advance(initial_state(origin.resolve(), origin=origin), 100)
    with pytest.raises(DomainError):
        checkpoint_from_state(state)
    with pytest.raises(DomainError):
        checkpoint_write(tmp_path / "run.ckpt", state)
    assert list(tmp_path.iterdir()) == []


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


def test_foreign_version_is_refused_before_anything_else(valid_file):
    path, _ = valid_file
    data = path.read_bytes().replace(b"CKMP 1\n", b"CKMP 2\n", 1)
    path.write_bytes(data)
    with pytest.raises(VersionUnsupported):
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
    for crc_line in (b"crc32=XYZ", b"crc32=ABCDEF12", b"crc32=1234567", b"checksum=00000000"):
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
