"""Exact data model for semi-online makespan scheduling.

Every processing time, machine load, and ratio in this package is a
`fractions.Fraction`.  The admission inequalities of the lookahead policies
are tight at equality on their worst-case inputs, so no scoring path may
ever touch floating point; decimals appear only in display columns.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

_RATIONAL_TOKEN = re.compile(r"[+-]?\d+(/\d+)?")


class SchedulingError(Exception):
    """Base class for every error raised by this package."""


class EmptyInstance(SchedulingError):
    """An instance must contain at least one job."""


class NonPositiveTime(SchedulingError):
    """A job's processing time must be strictly positive."""

    def __init__(self, index: int, value: Rational):
        self.index = index
        self.value = value
        super().__init__(f"job {index} has non-positive processing time {value}")


class ParseError(SchedulingError):
    """Malformed token in instance text."""

    def __init__(self, line: int, token: str):
        self.line = line
        self.token = token
        super().__init__(f"line {line}: cannot parse {token!r} as a rational")


class InvalidParam(SchedulingError):
    """A parameter violates its documented precondition."""


def parse_rational(text: str) -> Rational:
    """Parse "3" or "7/2" into an exact rational.

    Decimal and exponent forms are rejected on purpose: they would smuggle
    binary floating point into exact comparisons.
    """
    token = text.strip()
    if not _RATIONAL_TOKEN.fullmatch(token):
        raise ValueError(f"not an integer or fraction: {token!r}")
    if "/" in token:
        num, den = token.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def format_rational(value: Rational) -> str:
    """Inverse of :func:`parse_rational`; "3" for integers, "7/2" otherwise."""
    return str(value)


@dataclass(frozen=True)
class Instance:
    """An ordered, non-empty job sequence; job i takes processing_times[i - 1]."""

    processing_times: tuple[Rational, ...]

    def __len__(self) -> int:
        return len(self.processing_times)

    @property
    def total_time(self) -> Rational:
        return sum(self.processing_times, Fraction(0))

    @property
    def max_time(self) -> Rational:
        return max(self.processing_times)


@dataclass(frozen=True)
class LookaheadWindow:
    """What a policy sees when a job arrives: its own time plus the next few."""

    current: Rational
    future: tuple[Rational, ...]


def reject_float(value, name: str) -> None:
    """Raise TypeError naming the parameter if value is a float: no float reaches exact arithmetic."""
    if isinstance(value, float):
        raise TypeError(f"{name} is a float; pass Fraction or int")


def _coerce_time(value, position: int) -> Rational:
    reject_float(value, f"processing time {position}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"processing time {position} has unsupported type {type(value)!r}")


def make_instance(processing_times: Iterable) -> Instance:
    """Validate a sequence of positive rationals into an Instance.

    Raises EmptyInstance for an empty sequence and NonPositiveTime(i) for the
    first p_i <= 0; zero-length jobs are a model violation, not a degenerate
    input.
    """
    times = [_coerce_time(value, position) for position, value in enumerate(processing_times, 1)]
    if not times:
        raise EmptyInstance("instance must contain at least one job")
    for position, value in enumerate(times, 1):
        if value <= 0:
            raise NonPositiveTime(position, value)
    return Instance(tuple(times))


def parse_instance_text(text: str) -> Instance:
    """Parse the instance file format: one rational per line, '#' comments.

    Job order is line order.  Raises ParseError with the offending line
    number, then applies the same validation as :func:`make_instance`.
    """
    values: list[Rational] = []
    for line_number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values.append(parse_rational(line))
        except ValueError:
            raise ParseError(line_number, line) from None
    return make_instance(values)


def format_instance_text(instance: Instance) -> str:
    """Render an instance in the file format parsed by parse_instance_text."""
    return "".join(f"{format_rational(p)}\n" for p in instance.processing_times)


def scaled_ints(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Scale rationals to integers by their denominators' lcm, integer-only; returns (ints, scale).

    Every homogeneous comparison between the values keeps its truth value,
    ties included, when made on the ints instead.
    """
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def check_machine_count(machine_count: int) -> None:
    """Every schedule, policy run and oracle call needs at least two machines."""
    if machine_count < 2:
        raise InvalidParam(f"machine count must be >= 2, got {machine_count}")
