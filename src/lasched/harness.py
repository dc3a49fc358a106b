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
    """Score one share: the index range [start, stop) of the length-n
    enumeration for each (n, start, stop) in ranges.

    The share scales verify_bound's checked Fractions once to integers over
    the lcm of their denominators and iterates that one integer grid,
    driving the policy through ``_chooser`` and ``_drive`` as ``run_policy``
    does, with one move table for the whole share: ``choose`` is asked at
    most once per distinct (loads, window), whatever the length.  The policy
    was checked once by verify_bound; the scan makes no per-instance check
    or scaling.  ALG is the largest final load, in grid units.

    The scan walks rows: instance i of length n is prefix i // |values| of
    length n - 1 followed by value i % |values|.  Decision i depends only on
    the first i + k values, so the prefix alone fixes the loads after step
    s = max(0, n - 1 - k), and ALG depends only on those loads, the
    prefix's values after s (at most k) and the last value.  The share keeps
    the loads after each step of the previous prefix; in lexicographic order
    a prefix shares all but its last t + 1 values with the one before, where
    t counts the trailing zero base-|values| digits of its index, so
    ``_drive`` resumes each prefix at step max(0, n - t - 2 - k), through
    step s only.  The first prefix of a range runs from step 0, so the
    result is the same for any split.  The ALG row, every last value's ALG,
    is cached on (loads after s, values after s) and built once, by one
    ``_drive`` per last value from those loads.

    OPT depends only on the multiset of processing times, so the share keeps
    one cell per sorted integer tuple, and the OPT row of a prefix, cached on
    its sorted values, holds the cells of its last values.  A cell's entry
    is -LB, its lower bound ``_lower_bound`` (the oracle's first probe)
    negated, until OPT is known, and OPT from then on.  The skip test is the
    exact negation of the report's own order under the entry's value E: an
    instance is scored exactly only if bound * E < ALG (a violation under E)
    or it would replace the share's best under E, that is ALG/E is larger,
    or equal and the instance lexicographically smaller; the replace test
    and the merge of the shares use that same order.  E <= OPT, so
    ALG/OPT <= ALG/E: an instance that neither violates nor wins under E
    cannot under OPT, and skipping changes nothing.  Each row also keeps,
    from when it was built, its largest ALG and its least |entry|, which
    stays a lower bound on every cell as entries only grow; a row that
    under these has no violation and every ratio below the best's skips
    all its instances at once, as each one's own test would.  Otherwise
    LB <= OPT <= ALG, so ALG = LB makes LB the OPT, and only ALG > LB asks
    the oracle.  The oracle runs once per multiset at most, always on the
    sorted order: it divides by the gcd, so a capacity error depends on the
    multiset alone, never on which ordering the share met first, and it is
    raised only for a multiset the scan had to ask for.  Ratios are compared
    with each other and with the bound by cross-multiplying integers, and
    ordering integer tuples orders the instances by value, as scaling keeps
    order.

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
    # cells: multiset -> [entry]; ALG rows: (loads, values after s) ->
    # (largest ALG, ALGs); OPT rows: sorted prefix -> (least |entry|, cells)
    cells: dict[tuple[int, ...], list[int]] = {}
    alg_rows: dict[tuple, tuple[int, tuple[int, ...]]] = {}
    opt_rows: dict[tuple[int, ...], tuple[int, tuple[list[int], ...]]] = {}
    for n, start, stop in ranges:
        step = max(0, n - 1 - k)  # the last step the prefix alone decides
        states = [(0,) * m]
        first = start // base
        for row, prefix in enumerate(_grid(n - 1, ints, first, -(-stop // base)), first):
            resume = 0  # the last step whose loads the previous prefix shares
            if row > first:
                shared, wrapped = n - 2, row
                while wrapped % base == 0:
                    wrapped //= base
                    shared -= 1
                resume = min(step, max(0, shared - k))
            _drive(choose, moves, prefix, k, states, resume, step)
            loads, tail = states[step], prefix[step:]
            alg_row = alg_rows.get((loads, tail))
            if alg_row is None:
                algs = []
                for value in ints:
                    run = [loads]
                    _drive(choose, moves, tail + (value,), k, run)
                    algs.append(max(run[-1]))
                alg_row = alg_rows[loads, tail] = max(algs), tuple(algs)
            top, algs = alg_row
            ordered = tuple(sorted(prefix))
            opt_row = opt_rows.get(ordered)
            if opt_row is None:
                keys = [tuple(sorted(ordered + (value,))) for value in ints]
                row_cells = tuple(cells.get(key) or cells.setdefault(key, [-_lower_bound(key, m)]) for key in keys)
                opt_row = opt_rows[ordered] = min(abs(cell[0]) for cell in row_cells), row_cells
            least, row_cells = opt_row
            # the whole row, under its largest ALG and least entry: no
            # violation, and every ratio below the best's
            if under * top <= over * least and top * best_opt < best_alg * least:
                continue
            offset = row * base
            for j in range(max(0, start - offset), min(base, stop - offset)):
                alg, cell = algs[j], row_cells[j]
                entry = cell[0]
                opt = abs(entry)  # OPT, or LB <= OPT while the entry is negative
                # the report's order: the larger ratio (alg/opt and best_alg/best_opt,
                # both times opt * best_opt), then the smaller instance; skip unless,
                # under the entry, the instance violates or would replace the best
                this, best = alg * best_opt, best_alg * opt
                if under * alg <= over * opt and (
                    this < best or this == best and prefix + (ints[j],) > best_units
                ):
                    continue
                units = prefix + (ints[j],)
                # LB <= OPT <= ALG, so ALG = LB makes LB the OPT
                if entry < 0 and alg > opt:
                    key = tuple(sorted(units))
                    try:
                        value = optimal_makespan_value(Instance(tuple(map(value_of, key))), m)
                    except CapacityExceeded as exc:
                        raise CapacityExceeded(f"{exc} (instance {inline_label(map(value_of, units))})") from exc
                    opt = value.numerator * (scale // value.denominator)
                    best = best_alg * opt
                cell[0] = opt
                # the same order, under OPT
                if this > best or this == best and units < best_units:
                    best_alg, best_opt, best_units = alg, opt, units
                if under * alg > over * opt:
                    violations.append(((n, offset + j), tuple(map(value_of, units)), Fraction(alg, opt)))
    return (-Fraction(best_alg, best_opt), tuple(map(value_of, best_units))), violations


def _scan_share(writer, task) -> None:
    """A child's work: scan one share and send back its result, or the
    exception it raised for the parent to raise again."""
    try:
        result = _scan_chunk(*task)
    except Exception as exc:
        result = exc
    writer.send(result)
    writer.close()


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
    min(jobs, CPUs) index ranges, and share w scans its range of every
    length as one ``_scan_chunk`` task, so its move table, its rows, its OPT
    cells and its best ratio so far serve all lengths; a share with no
    instance gets no task.  The parent scans share 0 itself while one
    process per further share scans that share and sends its result back
    through a one-way pipe; the parent reads them in share order and
    raises the first exception in that order.  On any error every child is
    terminated, and every child is joined before the call returns or
    raises.  The result is identical for any split: instances_checked is
    the sum of the lengths' totals, which the split iterates, the shares'
    violations merge in (n, index) order, and the report's argmax is the
    least of the shares' best pairs, so ties break as they do within a
    share.  The report's Instances are built from the checked grid values
    without validating them again, as ``enumerate_instances`` does.
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

    # every share but the first runs in its own process at once, so no more
    # shares than the CPUs can use
    jobs = min(jobs, os.cpu_count() or 1)
    totals = [len(values) ** n for n in range(1, n_max + 1)]
    shares: dict[int, list[tuple[int, int, int]]] = {}
    for n, total in enumerate(totals, 1):
        chunk = -(-total // jobs)  # ceil division
        for share, start in enumerate(range(0, total, chunk)):
            shares.setdefault(share, []).append((n, start, min(start + chunk, total)))
    tasks = [(policy, m, k, values, ranges, target_bound) for ranges in shares.values()]

    if len(tasks) == 1:
        results = [_scan_chunk(*tasks[0])]
    else:
        # imported only here: it slows every start-up
        import multiprocessing

        children, readers = [], []
        try:
            for task in tasks[1:]:
                reader, writer = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(target=_scan_share, args=(writer, task))
                child.start()
                children.append(child)
                readers.append(reader)
                writer.close()  # the child holds its own end
            results = [_scan_chunk(*tasks[0])]
            for reader in readers:
                result = reader.recv()
                if isinstance(result, Exception):
                    raise result
                results.append(result)
        except BaseException:
            for child in children:
                child.terminate()
            raise
        finally:
            for child in children:
                child.join()
            for reader in readers:
                reader.close()

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
