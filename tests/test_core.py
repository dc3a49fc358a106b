from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from lasched import (
    EmptyInstance,
    NonPositiveTime,
    ParseError,
    format_instance_text,
    format_rational,
    make_instance,
    parse_instance_text,
    parse_rational,
)

positive_fractions = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
instances = st.lists(positive_fractions, min_size=1, max_size=8).map(make_instance)


def test_make_instance_indices_in_order():
    instance = make_instance([1, 1, 2])
    assert len(instance) == 3
    assert instance.processing_times == (F(1), F(1), F(2))
    assert instance.total_time == F(4)
    assert instance.max_time == F(2)


def test_make_instance_empty():
    with pytest.raises(EmptyInstance):
        make_instance([])


def test_make_instance_zero_time_is_a_model_violation():
    with pytest.raises(NonPositiveTime) as excinfo:
        make_instance([1, 0, 2])
    assert excinfo.value.index == 2


def test_make_instance_rejects_floats():
    with pytest.raises(TypeError):
        make_instance([1.5, 2])


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1\n1\n2\n", (F(1), F(1), F(2))),
        ("7/2\n# comment\n3\n", (F(7, 2), F(3))),
        ("  5 \n\n  # note\n1/3\n", (F(5), F(1, 3))),
    ],
)
def test_parse_instance_text(text, expected):
    assert parse_instance_text(text).processing_times == expected


def test_parse_instance_text_reports_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_instance_text("abc\n")
    assert excinfo.value.line == 1
    with pytest.raises(ParseError) as excinfo:
        parse_instance_text("1\n# ok\n2.5\n")
    assert excinfo.value.line == 3


def test_parse_instance_text_propagates_validation():
    with pytest.raises(NonPositiveTime):
        parse_instance_text("1\n-2\n")
    with pytest.raises(EmptyInstance):
        parse_instance_text("# only comments\n")


@pytest.mark.parametrize("bad", ["abc", "1.5", "3/0", "1e3", ""])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(st.fractions(max_denominator=10**6))
def test_rational_round_trip(value):
    assert parse_rational(format_rational(value)) == value


@given(instances)
def test_instance_text_round_trip(instance):
    assert parse_instance_text(format_instance_text(instance)) == instance
