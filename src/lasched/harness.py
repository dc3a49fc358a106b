"""Experiment execution: single runs, exhaustive verification, CSV output.

verify_bound enumerates every instance over a bounded space, scores each one
against the exact oracle (or against a lower bound on OPT, where that alone
shows the instance is neither a violation nor the report's argmax, or where
ALG meets it), and reports the maximum ratio plus every instance exceeding
the target bound.  Violations are findings, not failures: the run always
completes and the report carries the evidence.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, product
from collections.abc import Iterable, Iterator, Sequence

from .algorithms import (
    DecisionTrace, OnlinePolicy, SchedulerId, _chooser, _drive, check_policy, policy_for,
    policy_name, run_policy,
)
from .core import Instance, InvalidParam, Rational, make_instance, reject_float, scaled_ints
from .oracle import CapacityExceeded, _lower_bound, competitive_ratio, optimal_makespan_value

CSV_HEADER = ("scheduler", "instance", "m", "k", "alg_makespan", "opt_makespan", "ratio", "ratio_decimal")


@dataclass(frozen=True)
class ExperimentRow:
    """One scored run: the policy, its trace on the instance, OPT and the ratio."""

    policy: OnlinePolicy
    instance_label: str
    m: int
    k: int
    trace: DecisionTrace
    opt_makespan: Rational
    ratio: Rational

    @property
    def alg_makespan(self) -> Rational:
        return self.trace.makespan


@dataclass(frozen=True)
class VerificationReport:
    policy: OnlinePolicy
    m: int
    k: int
    n_max: int
    values: tuple[Rational, ...]
    instances_checked: int
    max_ratio: Rational
    argmax_instance: Instance
    violations: tuple[tuple[Instance, Rational], ...]
    target_bound: Rational


def inline_label(values: Iterable[Rational]) -> str:
    return ",".join(str(v) for v in values)


def run_one(
    policy: SchedulerId | OnlinePolicy, instance: Instance, m: int, k: int, label: str | None = None
) -> ExperimentRow:
    """Run a policy once on one instance and score it against the oracle."""
    policy = policy_for(policy)
    trace = run_policy(instance, policy, m, k)
    opt = optimal_makespan_value(instance, m)
    return ExperimentRow(
        policy=policy,
        instance_label=label if label is not None else inline_label(instance.processing_times),
        m=m,
        k=k,
        trace=trace,
        opt_makespan=opt,
        ratio=competitive_ratio(trace.makespan, opt),
    )


def _check_values(values: Sequence[Rational]) -> tuple[Rational, ...]:
    """The value grid, validated and made Fractions by one make_instance."""
    values = tuple(values)
    if not values:
        raise InvalidParam("value set must be non-empty")
    if any(v <= 0 for v in values):
        raise InvalidParam("all values must be positive")
    if len(set(values)) < len(values):
        raise InvalidParam(f"values must be distinct, got {inline_label(values)}")
    return make_instance(values).processing_times


def _grid(n: int, values: Sequence, start: int, stop: int | None) -> Iterator[tuple]:
    """The length-n tuples over values in lexicographic order of value
    indices, restricted to the index range [start, stop)."""
    return islice(product(values, repeat=n), start, stop)


def enumerate_instances(
    n: int, values: Sequence[Rational], start: int = 0, stop: int | None = None
) -> Iterator[Instance]:
    """All len(values)^n instances of length n, in lexicographic order of
    value indices; [start, stop) restricts to an index range so enumeration
    can be chunked and restarted."""
    if n < 1:
        raise InvalidParam(f"instance length must be >= 1, got {n}")
    # the grid is checked Fractions, so its tuples become Instances without
    # validating each one
    for times in _grid(n, _check_values(values), start, stop):
        yield Instance(times)


def _scan_chunk(
    policy: OnlinePolicy,
    m: int,
    k: int,
    values: tuple[Rational, ...],
    ranges: Sequence[tuple[int, int, int]],
    bound: Rational,
):
    """Score one worker's share: the index range [start, stop) of the
    length-n enumeration for each (n, start, stop) in ranges.

    The share scales verify_bound's checked Fractions once to integers over
    the lcm of their denominators and iterates that one integer grid,
    driving the policy through ``_chooser`` and ``_drive`` as ``run_policy``
    does, with one move table for the whole share: ``choose`` is asked at
    most once per distinct (loads, window), whatever the length.  Within a
    range the share keeps the loads after each step of the previous
    instance.  Decision i depends only on the first i + k values, and in
    lexicographic order an instance shares all but its last t + 1 values
    with the one before, where t counts the trailing zero base-|values|
    digits of its index; so ``_drive`` resumes each instance at step
    max(0, n - t - 1 - k).  The first instance of a range runs from step 0
    through the table, so the result is the same for any split.  The policy
    was checked once by verify_bound; the scan makes no per-instance check
    or scaling.  ALG is the largest final load, in grid units.

    OPT depends only on the multiset of processing times, so the share keys
    one table on sorted integer tuples.  A multiset's entry is -LB, its
    lower bound ``_lower_bound`` (the oracle's first probe) negated, until
    OPT is known, and OPT from then on.  The skip test is the exact negation
    of the report's own order under the entry's value E: an instance is
    scored exactly only if bound * E < ALG (a violation under E) or it would
    replace the share's best under E, that is ALG/E is larger, or equal and
    the instance lexicographically smaller; the replace test and the merge
    of the shares use that same order.  E <= OPT, so ALG/OPT <= ALG/E: an
    instance that neither violates nor wins under E cannot under OPT, and
    skipping changes nothing.  Otherwise LB <= OPT <= ALG, so ALG = LB makes
    LB the OPT, and only ALG > LB asks the oracle.  The oracle runs once per
    multiset at most, always on the sorted order: it divides by the gcd, so
    a capacity error depends on the multiset alone, never on which ordering
    the share met first, and it is raised only for a multiset the scan had
    to ask for.  Ratios are compared with each other and with the bound by
    cross-multiplying integers, and ordering integer tuples orders the
    instances by value, as scaling keeps order.

    Returns (best, violations), where best is the least (-ratio, times)
    pair: the largest ratio, ties broken towards the lexicographically
    smallest instance; each violation is ((n, index), times, ratio), so the
    shares merge in enumeration order.
    A value dict maps integers back to the checked Fractions only for these,
    the oracle's instance and a capacity error's label.
    Picklable arguments only (a BudgetCascade pickles), so verification can
    fan out across processes.
    """
    ints, scale = scaled_ints(values)
    value_of = dict(zip(ints, values)).__getitem__
    choose, base, moves = _chooser(policy, scale), len(values), {}
    over, under = bound.numerator, bound.denominator
    # 0/1 is below every ratio, so the first instance always replaces it
    best_alg, best_opt, best_units = 0, 1, None
    violations: list[tuple[tuple[int, int], tuple[Rational, ...], Rational]] = []
    opts: dict[tuple[int, ...], int] = {}
    for n, start, stop in ranges:
        states = [(0,) * m]
        for index, units in enumerate(_grid(n, ints, start, stop), start):
            shared = 0  # leading values shared with the previous instance
            if index > start:
                shared, wrapped = n - 1, index
                while wrapped % base == 0:
                    wrapped //= base
                    shared -= 1
            _drive(choose, moves, units, k, states, max(0, shared - k))
            alg = max(states[-1])
            key = tuple(sorted(units))
            entry = opts.get(key)
            if entry is None:
                entry = opts[key] = -_lower_bound(key, m)
            opt = abs(entry)  # OPT, or LB <= OPT while the entry is negative
            # the report's order: the larger ratio (alg/opt and best_alg/best_opt,
            # both times opt * best_opt), then the smaller instance; skip unless,
            # under the entry, the instance violates or would replace the best
            this, best = alg * best_opt, best_alg * opt
            if under * alg <= over * opt and (this < best or this == best and units > best_units):
                continue
            # LB <= OPT <= ALG, so ALG = LB makes LB the OPT
            if entry < 0 and alg > opt:
                try:
                    value = optimal_makespan_value(Instance(tuple(map(value_of, key))), m)
                except CapacityExceeded as exc:
                    raise CapacityExceeded(f"{exc} (instance {inline_label(map(value_of, units))})") from exc
                opt = value.numerator * (scale // value.denominator)
                best = best_alg * opt
            opts[key] = opt
            # the same order, under OPT
            if this > best or this == best and units < best_units:
                best_alg, best_opt, best_units = alg, opt, units
            if under * alg > over * opt:
                violations.append(((n, index), tuple(map(value_of, units)), Fraction(alg, opt)))
    return (-Fraction(best_alg, best_opt), tuple(map(value_of, best_units))), violations


def verify_bound(
    policy: SchedulerId | OnlinePolicy,
    m: int,
    k: int,
    n_max: int,
    values: Sequence[Rational],
    target_bound: Rational,
    jobs: int = 1,
) -> VerificationReport:
    """Exhaustively check a ratio bound over all instances of length 1..n_max
    with processing times drawn from the value set.

    Never aborts on a violation; every instance exceeding the bound is
    collected into the report.  Each length's enumeration is split into
    jobs index ranges, and worker w scans its range of every length as one
    task, so its move table, its OPT table and its best ratio so far serve
    all lengths; a worker with no instance gets no task.  The result is
    identical for any worker count: instances_checked is the sum of the
    lengths' totals, which the split iterates, the tasks' violations
    merge in (n, index) order, and the report's argmax is the least of the
    tasks' best pairs, so ties break as they do within a task.  The report's
    Instances are built from the checked grid values without validating
    them again, as ``enumerate_instances`` does.
    """
    policy = policy_for(policy)
    check_policy(policy, m, k)
    if n_max < 1:
        raise InvalidParam(f"n_max must be >= 1, got {n_max}")
    values = _check_values(values)
    reject_float(target_bound, "target bound")
    if target_bound < 1:
        raise InvalidParam(f"target bound must be >= 1, got {target_bound}")
    target_bound = Fraction(target_bound)
    if jobs < 1:
        raise InvalidParam(f"worker count must be >= 1, got {jobs}")

    totals = [len(values) ** n for n in range(1, n_max + 1)]
    shares: dict[int, list[tuple[int, int, int]]] = {}
    for n, total in enumerate(totals, 1):
        chunk = -(-total // jobs)  # ceil division
        for worker, start in enumerate(range(0, total, chunk)):
            shares.setdefault(worker, []).append((n, start, min(start + chunk, total)))
    tasks = [(policy, m, k, values, ranges, target_bound) for ranges in shares.values()]

    if jobs == 1:
        results = [_scan_chunk(*task) for task in tasks]
    else:
        # imported only here: it pulls in multiprocessing, which slows every start-up
        from concurrent.futures import ProcessPoolExecutor

        # a fork-started pool launches every worker at once, so no more than
        # the CPUs can use: min(jobs, tasks, CPUs), and tasks <= jobs
        workers = min(len(tasks), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk, *zip(*tasks)))

    neg_ratio, best_values = min(best for best, _ in results)
    # (n, index) is unique, so the sort never compares further
    found = sorted(violation for _, violations in results for violation in violations)
    return VerificationReport(
        policy=policy,
        m=m,
        k=k,
        n_max=n_max,
        values=values,
        instances_checked=sum(totals),
        max_ratio=-neg_ratio,
        argmax_instance=Instance(best_values),
        violations=tuple((Instance(v), r) for _, v, r in found),
        target_bound=target_bound,
    )


def report_rows(report: VerificationReport) -> list[ExperimentRow]:
    """Flatten a report into the rows run_one would give: the argmax
    instance, then each violation.  Each row replays the policy, and OPT is
    ALG divided by the report's ratio, which the scan computed as ALG/OPT,
    so no row calls the oracle again."""
    policy, m, k = report.policy, report.m, report.k
    rows = []
    for instance, ratio in ((report.argmax_instance, report.max_ratio), *report.violations):
        trace = run_policy(instance, policy, m, k)
        label = inline_label(instance.processing_times)
        rows.append(ExperimentRow(policy, label, m, k, trace, trace.makespan / ratio, ratio))
    return rows


def emit_csv(rows: Iterable[ExperimentRow]) -> str:
    """Serialise rows as RFC-4180 CSV; a report's rows come from report_rows.

    Rationals are written exactly as "a/b"; the trailing ratio_decimal
    column is a rounded display-only convenience.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(
            (
                policy_name(row.policy),
                row.instance_label,
                row.m,
                row.k,
                str(row.alg_makespan),
                str(row.opt_makespan),
                str(row.ratio),
                f"{float(row.ratio):.6f}",
            )
        )
    return buffer.getvalue()
