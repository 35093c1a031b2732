"""Expression grammar tests, including exact failure offsets."""

import pytest
from hypothesis import given, strategies as st

from collatzpath import (
    DomainError,
    ExpressionKind,
    NumberExpression,
    ParseError,
    RangeError,
    mersenne_number,
    parse_expression,
)
from collatzpath.expressions import decimal_text, parse_decimal

VALID = [
    ("0", ExpressionKind.DECIMAL, 0, "0"),
    ("7", ExpressionKind.DECIMAL, 7, "7"),
    ("123", ExpressionKind.DECIMAL, 123, "123"),
    ("007", ExpressionKind.DECIMAL, 7, "7"),
    ("1_000_000", ExpressionKind.DECIMAL, 1000000, "1000000"),
    ("2^0", ExpressionKind.POWER_OF_TWO, 0, "2^0"),
    ("2^13", ExpressionKind.POWER_OF_TWO, 13, "2^13"),
    ("2^1_0", ExpressionKind.POWER_OF_TWO, 10, "2^10"),
    ("2^13-1", ExpressionKind.MERSENNE_BY_EXPONENT, 13, "M13"),
    ("M13", ExpressionKind.MERSENNE_BY_EXPONENT, 13, "M13"),
    ("M607", ExpressionKind.MERSENNE_BY_EXPONENT, 607, "M607"),
    ("M0", ExpressionKind.MERSENNE_BY_EXPONENT, 0, "M0"),
    ("Mp13", ExpressionKind.MERSENNE_BY_RANK, 13, "Mp13"),
    ("Mp1", ExpressionKind.MERSENNE_BY_RANK, 1, "Mp1"),
]


@pytest.mark.parametrize("text, kind, parameter, canonical", VALID)
def test_valid_expressions(text, kind, parameter, canonical):
    expr = parse_expression(text)
    assert expr.kind is kind
    assert expr.parameter == parameter
    assert expr.source_text == text
    assert expr.canonical() == canonical
    assert parse_expression(expr.canonical()) == expr


INVALID = [
    ("", 0, "a number expression"),
    (" 7", 0, "a digit, 'M', 'Mp', or '2^'"),
    ("_10", 0, "a digit, 'M', 'Mp', or '2^'"),
    ("m7", 0, "a digit, 'M', 'Mp', or '2^'"),
    ("x", 0, "a digit, 'M', 'Mp', or '2^'"),
    ("-5", 0, "a digit, 'M', 'Mp', or '2^'"),
    ("7 ", 1, "end of input"),
    ("7x", 1, "end of input"),
    ("Mp31x", 4, "end of input"),
    ("M", 1, "a decimal digit"),
    ("M-3", 1, "a decimal digit"),
    ("M_7", 1, "a decimal digit"),
    ("Mp", 2, "a decimal digit"),
    ("2^", 2, "a decimal digit"),
    ("2^-1", 2, "a decimal digit"),
    ("1__0", 2, "a decimal digit after '_'"),
    ("10_", 3, "a decimal digit after '_'"),
    ("2^1_-1", 4, "a decimal digit after '_'"),
    ("M1_", 3, "a decimal digit after '_'"),
    ("2^20-2", 4, "'-1' or end of input"),
    ("2^20-", 4, "'-1' or end of input"),
    ("2^20+1", 4, "'-1' or end of input"),
]


@pytest.mark.parametrize("text, offset, expected", INVALID)
def test_invalid_expressions_report_offsets(text, offset, expected):
    with pytest.raises(ParseError) as excinfo:
        parse_expression(text)
    err = excinfo.value
    assert err.text == text
    assert err.offset == offset
    assert err.expected == expected
    assert f"offset {offset}" in str(err)


DIGIT_GROUPS = st.lists(st.text("0123456789", min_size=1, max_size=8), min_size=1, max_size=4)


@given(DIGIT_GROUPS)
def test_parse_decimal_reads_what_int_reads(groups):
    text = "_".join(groups)
    assert parse_decimal(text) == int(text)


# Each kind's spelling, written here apart from the module's own table.
SPELLINGS = {
    ExpressionKind.DECIMAL: "",
    ExpressionKind.POWER_OF_TWO: "2^",
    ExpressionKind.MERSENNE_BY_EXPONENT: "M",
    ExpressionKind.MERSENNE_BY_RANK: "Mp",
}


@given(st.sampled_from(list(SPELLINGS)), DIGIT_GROUPS, st.booleans())
def test_every_spelling_parses_and_round_trips(kind, groups, minus_one):
    digits = "_".join(groups)
    text = SPELLINGS[kind] + digits
    if kind is ExpressionKind.POWER_OF_TWO and minus_one:
        text += "-1"
        kind = ExpressionKind.MERSENNE_BY_EXPONENT
    expr = parse_expression(text)
    assert (expr.kind, expr.parameter, expr.source_text) == (kind, int(digits), text)
    canonical = SPELLINGS[kind] + str(int(digits))
    assert expr.canonical() == canonical
    assert NumberExpression(kind, int(digits)).source_text == canonical
    given_text = NumberExpression(kind, int(digits), text)
    assert (given_text, given_text.source_text) == (expr, text)
    again = parse_expression(canonical)
    assert (again, again.source_text) == (expr, canonical)


# Spellings that parse but name another expression: another number, another
# kind, and a parameter past str()'s 4300-digit limit, which the message
# names by canonical() all the same.
ANOTHER = [
    (ExpressionKind.MERSENNE_BY_EXPONENT, 89, "M90"),
    (ExpressionKind.MERSENNE_BY_EXPONENT, 13, "Mp13"),
    (ExpressionKind.POWER_OF_TWO, 13, "2^13-1"),
    (ExpressionKind.DECIMAL, 10**5000, "1" + "0" * 4999),
]


@pytest.mark.parametrize("kind, parameter, spelling", ANOTHER, ids=["M90", "Mp13", "2^13-1", "10^4999"])
def test_a_spelling_of_another_expression_is_refused(kind, parameter, spelling):
    with pytest.raises(DomainError) as excinfo:
        NumberExpression(kind, parameter, spelling)
    canonical = SPELLINGS[kind] + decimal_text(parameter)
    assert str(excinfo.value).endswith(f"does not parse back to {canonical}")


# Falsy ones too: only the empty string stands for the canonical spelling.
@pytest.mark.parametrize(
    "spelling", [13, b"M13", ["M13"], None, 0, b""],
    ids=["int", "bytes", "list", "None", "zero", "empty-bytes"],
)
def test_a_spelling_that_is_not_a_string_is_refused(spelling):
    with pytest.raises(DomainError, match="must be a string"):
        NumberExpression(ExpressionKind.MERSENNE_BY_EXPONENT, 13, spelling)


@given(st.characters().filter(lambda c: c not in "0123456789M"), st.text(max_size=8))
def test_a_text_opening_with_no_spelling_fails_at_offset_0(first, rest):
    with pytest.raises(ParseError) as excinfo:
        parse_expression(first + rest)
    assert (excinfo.value.offset, excinfo.value.expected) == (0, "a digit, 'M', 'Mp', or '2^'")


# int() reads all of these but the superscript two.
NOT_DECIMAL = ["²", "١", "５", " ", "\t", "\n", "+", "-"]


@given(st.text("0123456789", max_size=4), st.sampled_from(NOT_DECIMAL), DIGIT_GROUPS)
def test_parse_decimal_refuses_other_characters(before, bad, groups):
    text = before + bad + "_".join(groups)
    with pytest.raises(ParseError) as excinfo:
        parse_decimal(text)
    assert excinfo.value.offset == len(before)


@pytest.mark.parametrize(
    "text, offset",
    [("", 0), ("_1", 0), ("1_", 2), ("1__0", 2), ("1_0_", 4), ("_", 0)],
)
def test_parse_decimal_refuses_misplaced_underscores_and_empty_text(text, offset):
    with pytest.raises(ParseError) as excinfo:
        parse_decimal(text)
    assert excinfo.value.offset == offset


def test_parse_decimal_rejects_non_strings():
    with pytest.raises(DomainError):
        parse_decimal(7)


def test_parse_rejects_non_strings():
    with pytest.raises(DomainError):
        parse_expression(7)
    with pytest.raises(DomainError):
        parse_expression(None)


def test_equality_ignores_spelling():
    assert parse_expression("2^13-1") == parse_expression("M13")
    assert hash(parse_expression("2^13-1")) == hash(parse_expression("M13"))
    assert parse_expression("007") == parse_expression("7")
    # Same parameter, different kind: the 13th rank is not the exponent 13.
    assert parse_expression("M13") != parse_expression("Mp13")
    assert parse_expression("8191") != parse_expression("M13")


@pytest.mark.parametrize(
    "text, value",
    [
        ("0", 0),
        ("42", 42),
        ("2^0", 1),
        ("2^13", 8192),
        ("M1", 1),
        ("M13", 8191),
        ("2^13-1", 8191),
        ("Mp1", 3),
        ("Mp4", 127),
    ],
)
def test_resolve_values(text, value):
    assert parse_expression(text).resolve() == value


def test_resolve_large_rank_by_width():
    assert parse_expression("Mp13").resolve().bit_length() == 521
    assert parse_expression("M607").resolve() == mersenne_number(607)


def test_resolve_failures_happen_late():
    # Parsing accepts these; only resolution rejects them.
    m0 = parse_expression("M0")
    with pytest.raises(DomainError):
        m0.resolve()
    for text in ("Mp0", "Mp48", "Mp999"):
        expr = parse_expression(text)
        with pytest.raises(RangeError):
            expr.resolve()


def test_mersenne_exponent():
    assert parse_expression("M607").mersenne_exponent() == 607
    assert parse_expression("2^607-1").mersenne_exponent() == 607
    assert parse_expression("Mp31").mersenne_exponent() == 216091
    assert parse_expression("2^31").mersenne_exponent() is None
    assert parse_expression("8191").mersenne_exponent() is None


def test_direct_construction_validates():
    expr = NumberExpression(kind=ExpressionKind.DECIMAL, parameter=5)
    assert expr.source_text == "5"
    with pytest.raises(DomainError):
        NumberExpression(kind="decimal", parameter=5)
    with pytest.raises(DomainError):
        NumberExpression(kind=ExpressionKind.DECIMAL, parameter=-1)


def test_decimal_text_matches_str_below_the_digit_limit(rng):
    for bits in (1, 64, 1993, 1994, 1995, 4000, 8000, 14000):
        value = rng.getrandbits(bits)
        assert decimal_text(value) == str(value)


@pytest.mark.parametrize("digits", [599, 600, 601, 4300, 4301, 12345])
def test_decimals_past_the_digit_limit_round_trip(digits):
    assert decimal_text(10**digits - 1) == "9" * digits
    assert decimal_text(10**digits) == "1" + "0" * digits
    text = ("1234567890" * 1235)[:digits]
    expr = parse_expression(text)
    assert expr.parameter % 10**9 == int(text[-9:])
    assert expr.parameter // 10 ** (digits - 9) == int(text[:9])
    assert expr.canonical() == text
    assert decimal_text(expr.parameter) == text
    spaced = parse_expression("_".join(text[i : i + 3] for i in range(0, digits, 3)))
    assert spaced == expr


@pytest.mark.parametrize("kind", list(ExpressionKind), ids=lambda kind: kind.value)
def test_every_kind_spells_a_parameter_past_the_digit_limit(kind):
    expr = NumberExpression(kind, 10**5000)
    assert expr.source_text == expr.canonical()
    assert expr.canonical().endswith("1" + "0" * 5000)
    assert parse_expression(expr.canonical()) == expr


def test_a_parsed_power_past_the_digit_limit_spells_itself():
    text = "2^" + "1" * 5000
    assert parse_expression(text).canonical() == text
