"""The contract every record of the package keeps: frozen fields, equality
and hashing by value, pickling and copying, and its repr."""

import argparse
import copy
import pickle

import pytest

from collatzpath import (
    FitResult,
    IterationState,
    NumberExpression,
    ScanRecord,
    SetLabel,
    advance,
    catalog_entry,
    checkpoint_from_state,
    index_set,
    initial_state,
    parse_expression,
    path_length,
    ratio_stats,
)
from collatzpath.cli import build_parser

M7 = ("NumberExpression(kind=<ExpressionKind.MERSENNE_BY_EXPONENT: 'mersenne_by_exponent'>, "
      "parameter=7, source_text='M7')")
STATE = ("IterationState(current=205, steps=20, odd_steps=8, even_steps=12, "
         f"peak_bit_length=13, origin={M7})")


def m7_after_20_steps() -> IterationState:
    return advance(initial_state(127, origin=parse_expression("M7")), 20)


# Each record, built the way the package builds it, and its repr.
RECORDS = {
    "PathResult": (
        lambda: path_length(127),
        "PathResult(d=46, odd_steps=15, even_steps=31, peak_bit_length=13)",
    ),
    "IterationState": (m7_after_20_steps, STATE),
    "CatalogEntry": (
        lambda: catalog_entry(4),
        "CatalogEntry(rank=4, exponent=7, reference_d=46, reference_ratio=6.57143)",
    ),
    "NumberExpression": (
        lambda: parse_expression("2^13-1"),
        "NumberExpression(kind=<ExpressionKind.MERSENNE_BY_EXPONENT: 'mersenne_by_exponent'>, "
        "parameter=13, source_text='2^13-1')",
    ),
    "Checkpoint": (
        lambda: checkpoint_from_state(m7_after_20_steps()), f"Checkpoint(state={STATE})",
    ),
    "FitResult": (
        lambda: FitResult(0.5, 0.25, 0.125),
        "FitResult(intercept=0.5, slope=0.25, rms_residual=0.125)",
    ),
    "IndexSet": (
        lambda: index_set("A", 26, 28),
        "IndexSet(label=<SetLabel.A: 'A'>, indices=(23227, 44501, 86249))",
    ),
    "RatioStats": (
        lambda: ratio_stats([(3, 7), (5, 11), (7, 46)]),
        "RatioStats(count=3, mean=3.7015873015873013, sample_variance=6.181436130007557)",
    ),
    "ScanRecord": (
        lambda: ScanRecord(7, True, 46, 46 / 7),
        "ScanRecord(exponent=7, is_prime_index=True, d=46, ratio=6.571428571428571)",
    ),
}

records = pytest.mark.parametrize("make, text", RECORDS.values(), ids=RECORDS.keys())


def fields(record) -> list[str]:
    return list(type(record).__slots__)


@records
def test_a_field_can_be_neither_assigned_nor_deleted(make, text):
    record = make()
    for name in fields(record):
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@records
def test_equal_fields_give_equal_records_with_equal_hashes(make, text):
    record = make()
    twin = type(record)(*(getattr(record, name) for name in fields(record)))
    assert twin is not record
    assert twin == record and hash(twin) == hash(record)
    values = tuple(getattr(record, name) for name in fields(record))
    assert record != values and record != object()


@records
def test_pickle_and_deepcopy_give_an_equal_record(make, text):
    record = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


@records
def test_repr_names_every_field_in_order(make, text):
    assert repr(make()) == text


def test_an_expression_compares_by_kind_and_parameter_and_keeps_its_spelling():
    written, named = parse_expression("2^13-1"), parse_expression("M13")
    assert written == named and hash(written) == hash(named)
    assert written != NumberExpression(named.kind, 17)
    for expr in (written, named):
        assert pickle.loads(pickle.dumps(expr)).source_text == expr.source_text


def test_the_stats_set_choices_are_the_set_labels():
    (subcommands,) = [
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    (action,) = [a for a in subcommands["stats"]._actions if a.dest == "set_label"]
    assert list(action.choices) == [label.value for label in SetLabel]
