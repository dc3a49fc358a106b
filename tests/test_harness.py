import dataclasses
import functools
import multiprocessing
import os
import time
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import lasched.harness as harness
from lasched.algorithms import BudgetCascade
from brute_force import exhaustive_optimal_makespan
from reference_policies import LoadConstant
from lasched import (
    CSV_HEADER,
    CapacityExceeded,
    FamilyId,
    InvalidParam,
    SchedulerId,
    SchedulerMachineMismatch,
    emit_csv,
    enumerate_instances,
    format_family_id,
    make_instance,
    named_instance,
    policy_for,
    report_rows,
    run_one,
    run_policy,
    verify_bound,
)

VALUES_123 = (F(1), F(2), F(3))

# a custom row, not a SchedulerId: M1 within 3/4 of the known work, else M2,
# and the final job ties to M2
THETA_3_4 = BudgetCascade(None, 2, 1, ((1, 3, 4),), ties_high=True)


def _sweep(scheduler, families, m, k):
    """One row per family, labelled by its id, as `lasched sweep` runs them."""
    return [run_one(scheduler, named_instance(f), m, k, label=format_family_id(f)) for f in families]


def test_run_one_examples():
    row = run_one(SchedulerId.TWO_LA1, named_instance(FamilyId("fig1")), 2, 1, label="fig1")
    assert (row.alg_makespan, row.opt_makespan, row.ratio) == (F(2), F(2), F(1))

    row = run_one(SchedulerId.TWO_LA1, named_instance(FamilyId("theorem2", 6)), 2, 1)
    assert (row.alg_makespan, row.opt_makespan, row.ratio) == (F(24), F(18), F(4, 3))
    assert row.instance_label == "1,1,1,6,15,12"

    row = run_one(SchedulerId.THREE_LA1, named_instance(FamilyId("thm4", "1")), 3, 1)
    assert (row.alg_makespan, row.opt_makespan, row.ratio) == (F(15), F(11), F(15, 11))


def test_run_one_holds_the_policy_and_its_trace():
    row = run_one(SchedulerId.THREE_LA1, named_instance(FamilyId("thm4", "1")), 3, 1)
    assert row.policy is policy_for(SchedulerId.THREE_LA1)
    assert row.trace.decisions == (3, 1, 1, 1, 2)
    assert row.alg_makespan == row.trace.makespan == 15
    row = run_one(THETA_3_4, make_instance([1, 2, 1]), 2, 1)
    assert row.policy is THETA_3_4
    assert row.ratio == F(3, 2)
    assert emit_csv([row]).splitlines()[1] == 'policy,"1,2,1",2,1,3,2,3/2,1.500000'


def test_run_one_rejects_mismatched_machines():
    instance = make_instance([1, 2])
    with pytest.raises(SchedulerMachineMismatch):
        run_one(SchedulerId.TWO_LA1, instance, 3, 1)
    with pytest.raises(SchedulerMachineMismatch):
        run_one(SchedulerId.THREE_LA1, instance, 2, 1)
    with pytest.raises(InvalidParam):
        run_one(SchedulerId.TWO_LA1, instance, 2, 0)


def test_verify_bound_trivial_space():
    report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 1, (F(1),), F(1))
    assert report.instances_checked == 1
    assert report.max_ratio == 1
    assert report.violations == ()


def test_verify_bound_small_clean_space():
    report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 4, (F(1), F(2)), F(4, 3))
    assert report.instances_checked == 30
    assert report.violations == ()
    assert report.max_ratio == F(4, 3)
    assert report.argmax_instance.processing_times == (F(1), F(1), F(2), F(2))


def test_verify_bound_collects_violations_instead_of_aborting():
    # a four-job sequence already beats the 4/3 target once values reach 4
    report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 4, (F(1), F(2), F(4)), F(4, 3))
    assert report.violations
    listed = {inst.processing_times for inst, _ in report.violations}
    assert (F(1), F(2), F(1), F(4)) in listed
    for instance, ratio in report.violations:
        assert ratio > F(4, 3)
        rerun = run_one(SchedulerId.TWO_LA1, instance, 2, 1)
        assert rerun.ratio == ratio


def test_verify_bound_reverification():
    report = verify_bound(SchedulerId.LS, 2, 0, 4, VALUES_123, F(3, 2))
    rerun = run_one(SchedulerId.LS, report.argmax_instance, 2, 0)
    assert rerun.ratio == report.max_ratio


def test_verify_bound_lookahead_policy_up_to_five_jobs():
    report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 5, VALUES_123, F(4, 3))
    assert report.instances_checked == 363
    assert report.violations == ()
    assert report.max_ratio == F(4, 3)
    assert report.argmax_instance.processing_times == (F(1), F(1), F(2), F(2))


def test_verify_bound_baseline_up_to_five_jobs():
    report = verify_bound(SchedulerId.LS, 2, 0, 5, VALUES_123, F(3, 2))
    assert report.violations == ()
    assert report.max_ratio == F(3, 2)
    assert report.argmax_instance.processing_times == (F(1), F(1), F(2))


def test_verify_bound_deterministic_across_worker_counts():
    single = verify_bound(SchedulerId.TWO_LA1, 2, 1, 4, VALUES_123, F(5, 4))
    parallel = verify_bound(SchedulerId.TWO_LA1, 2, 1, 4, VALUES_123, F(5, 4), jobs=4)
    assert single == parallel


def test_verify_bound_scores_a_custom_policy_at_any_worker_count():
    report = verify_bound(THETA_3_4, 2, 1, 4, VALUES_123, F(4, 3))
    # jobs=2 pickles the policy itself into each worker
    assert report == verify_bound(THETA_3_4, 2, 1, 4, VALUES_123, F(4, 3), jobs=2)
    assert report.policy is THETA_3_4
    assert report.instances_checked == 120
    assert report.max_ratio == F(3, 2)
    assert report.argmax_instance.processing_times == (F(1),) * 4
    assert len(report.violations) == 12
    rows = report_rows(report)
    assert all(row.policy is THETA_3_4 for row in rows)
    assert [row.ratio for row in rows] == [report.max_ratio, *(r for _, r in report.violations)]


def _uncached_report(scheduler, m, k, n_max, values, bound):
    """(checked, max ratio, argmax times, violations) from run_one on every
    enumerated instance: verify_bound's answer without its OPT cache."""
    checked, best_ratio, best_times, violations = 0, None, None, []
    for n in range(1, n_max + 1):
        for instance in enumerate_instances(n, values):
            times = instance.processing_times
            ratio = run_one(scheduler, instance, m, k).ratio
            checked += 1
            if best_ratio is None or ratio > best_ratio or (ratio == best_ratio and times < best_times):
                best_ratio, best_times = ratio, times
            if ratio > bound:
                violations.append((times, ratio))
    return checked, best_ratio, best_times, violations


# one reference per grid for tests that scan it at several worker counts
_reference_report = functools.cache(_uncached_report)


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize(
    "scheduler,m,k,values,bound",
    [
        (SchedulerId.THREE_LA1, 3, 1, VALUES_123, F(16, 11)),
        (SchedulerId.LS, 4, 0, VALUES_123, F(4, 3)),
        (SchedulerId.TWO_LA1, 2, 1, (F(1, 2), F(1), F(3, 2)), F(5, 4)),
        # descending: ties break by value, not by the order the scan meets them
        (SchedulerId.THREE_LA1, 3, 1, (F(3), F(2), F(1)), F(16, 11)),
        (THETA_3_4, 2, 1, VALUES_123, F(4, 3)),
        # not a BudgetCascade, and the grid's scale is 2: the scan must run it
        # on the Fractions, where its load constants mean what they say
        (LoadConstant(), 3, 1, (F(7, 2), F(4), F(7), F(11)), F(4, 3)),
        # k = 2: the scan resumes two steps before the first changed value
        (SchedulerId.TWO_LA1, 2, 2, VALUES_123, F(5, 4)),
        (SchedulerId.THREE_LA1, 3, 2, VALUES_123, F(16, 11)),
    ],
)
def test_verify_bound_equals_uncached_reference(scheduler, m, k, values, bound, jobs):
    report = verify_bound(scheduler, m, k, 5, values, bound, jobs=jobs)
    checked, best_ratio, best_times, violations = _uncached_report(scheduler, m, k, 5, values, bound)
    assert violations
    assert report.instances_checked == checked
    assert report.max_ratio == best_ratio
    assert report.argmax_instance.processing_times == best_times
    assert [(inst.processing_times, r) for inst, r in report.violations] == violations


def _summary(report):
    """A report in the form _uncached_report gives."""
    violations = [(instance.processing_times, ratio) for instance, ratio in report.violations]
    return report.instances_checked, report.max_ratio, report.argmax_instance.processing_times, violations


@pytest.mark.parametrize("jobs", [3, 4])
@pytest.mark.parametrize(
    "scheduler,m,k,bound",
    [(SchedulerId.TWO_LA1, 2, 1, F(5, 4)), (SchedulerId.THREE_LA1, 3, 1, F(5, 4)), (SchedulerId.LS, 2, 0, F(4, 3))],
)
def test_verify_bound_equals_uncached_reference_when_shares_span_lengths(scheduler, m, k, bound, jobs):
    # two values: lengths 1 and 2 have fewer instances than workers, so each
    # task spans several lengths, and some shares of the short ones are empty
    values = (F(1), F(2))
    expected = _uncached_report(scheduler, m, k, 5, values, bound)
    assert expected[3]
    assert _summary(verify_bound(scheduler, m, k, 5, values, bound, jobs=jobs)) == expected


@pytest.mark.parametrize("jobs", [1, 3])
@settings(max_examples=15, deadline=None)
@given(
    unit=st.builds(F, st.integers(1, 9), st.integers(2, 7)),
    multiples=st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True),
    n_max=st.integers(1, 4),
    bound=st.sampled_from([F(1), F(5, 4), F(4, 3)]),
)
def test_verify_bound_equals_uncached_reference_on_random_grids(unit, multiples, n_max, bound, jobs):
    # multiples of one fractional unit, in any order: many instances tie at
    # the largest ratio, so the argmax rests on the tie-break
    values = tuple(unit * j for j in multiples)
    expected = _uncached_report(SchedulerId.LS, 2, 0, n_max, values, bound)
    assert _summary(verify_bound(SchedulerId.LS, 2, 0, n_max, values, bound, jobs=jobs)) == expected


def _counting(policy):
    """A copy of a built-in policy whose choose records every (loads, window) it is asked."""
    policy = dataclasses.replace(policy_for(policy))
    choose, calls = policy.choose, []

    def counted(loads, window):
        calls.append((loads, window))
        return choose(loads, window)

    policy.choose = counted
    return policy, calls


def test_verify_bound_asks_each_distinct_question_once_per_task():
    # the benchmark's tracer wraps choose on the policy itself; one task's
    # move table serves every length, so choose sees each distinct
    # (loads, window) at most once, and sees every one a plain run asks
    policy, calls = _counting(SchedulerId.THREE_LA1)
    report = verify_bound(policy, 3, 1, 4, VALUES_123, F(16, 11), jobs=1)
    assert report.instances_checked == 3 + 9 + 27 + 81
    assert len(calls) == len(set(calls)) == 182
    fresh, asked = _counting(SchedulerId.THREE_LA1)
    for n in range(1, 5):
        for instance in enumerate_instances(n, VALUES_123):
            run_policy(instance, fresh, 3, 1)
    assert set(calls) == set(asked) and len(asked) > 182
    plain = verify_bound(SchedulerId.THREE_LA1, 3, 1, 4, VALUES_123, F(16, 11), jobs=1)
    assert dataclasses.replace(report, policy=plain.policy) == plain


def test_verify_bound_shows_any_other_policy_the_fractions():
    # the scan holds integer loads, but a policy outside the cascade sees
    # the grid's own Fractions in every load and window
    policy = LoadConstant()
    choose, windows = policy.choose, []

    def recorded(loads, window):
        windows.append(window)
        return choose(loads, window)

    policy.choose = recorded
    values = (F(7, 2), F(4), F(7), F(11))
    verify_bound(policy, 3, 1, 4, values, F(4, 3), jobs=1)
    assert windows and len(policy.seen) == len(windows)
    assert all(type(load) is F for loads in policy.seen for load in loads)
    assert all(type(p) is F for window in windows for p in (window.current, *window.future))
    assert {window.current for window in windows} == set(values)


def _lower_bound(times, m):
    """max(p_max, ceil(T/m), p_(m) + p_(m+1)) of integer times, written out
    apart from the oracle's own, which the scan uses."""
    ordered = sorted(times, reverse=True)
    pair = ordered[m - 1] + ordered[m] if len(ordered) > m else 0
    return max(ordered[0], -(-sum(ordered) // m), pair)


def _oracle_calls(monkeypatch):
    """The processing times of every oracle call the scan makes from now on."""
    oracle, seen = harness.optimal_makespan_value, []

    def counted(instance, m):
        seen.append(instance.processing_times)
        return oracle(instance, m)

    monkeypatch.setattr(harness, "optimal_makespan_value", counted)
    return seen


def test_verify_bound_calls_the_oracle_once_per_multiset(monkeypatch):
    seen = _oracle_calls(monkeypatch)
    bound = F(16, 11)
    report = verify_bound(SchedulerId.THREE_LA1, 3, 1, 6, VALUES_123, bound)
    # the lower bound settles, or meets ALG on, every other one of the 83 multisets
    assert sum(comb(n + 2, 2) for n in range(1, 7)) == 83
    assert len(seen) == len(set(seen)) == 4
    assert all(list(times) == sorted(times) for times in seen)
    # each multiset the oracle never saw needs no OPT: either every instance
    # of it is neither a violation nor the argmax by its ALG against the
    # lower bound alone, or some instance has ALG = LB and the brute force
    # gives OPT = LB
    asked, algs = set(seen), {}
    policy = policy_for(SchedulerId.THREE_LA1)
    for n in range(1, 7):
        for instance in enumerate_instances(n, VALUES_123):
            key = tuple(sorted(instance.processing_times))
            if key not in asked:
                algs.setdefault(key, []).append(run_policy(instance, policy, 3, 1).makespan)
    assert len(algs) == 83 - 4
    met = 0
    for key, alg in algs.items():
        lower = _lower_bound(key, 3)
        opt = exhaustive_optimal_makespan(make_instance(key), 3).makespan
        assert lower <= opt
        if lower in alg:
            met += 1
            assert opt == lower
        else:
            assert all(a <= bound * lower and a / lower < report.max_ratio for a in alg)
    assert 0 < met < len(algs)


def test_verify_bound_asks_the_oracle_for_few_multisets_of_the_bench_grid(monkeypatch):
    # the verify-m3 bench grid at jobs 1: the scan's running best, and LB as
    # OPT wherever ALG meets it, settle all but 42 of its multisets
    seen = _oracle_calls(monkeypatch)
    report = verify_bound(SchedulerId.THREE_LA1, 3, 1, 6, tuple(F(v) for v in range(1, 6)), F(16, 11))
    assert sum(comb(n + 4, 4) for n in range(1, 7)) == 461
    assert len(seen) == len(set(seen)) == 42
    assert report.instances_checked == 19530 and len(report.violations) == 187


def test_verify_bound_makes_no_oracle_call_where_every_alg_meets_its_lower_bound(monkeypatch):
    # LS spreads n unit jobs evenly on two machines: ALG = ceil(n/2) = LB
    seen = _oracle_calls(monkeypatch)
    report = verify_bound(SchedulerId.LS, 2, 0, 8, (F(1),), F(1))
    assert seen == []
    assert report.instances_checked == 8 and report.violations == ()
    assert report.max_ratio == 1 and report.argmax_instance == make_instance([1])


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize(
    "scheduler,m,k,n_max,values,bound,asked",
    [
        # one call settles the argmax 1,1,1,1,2 at 3/2
        (SchedulerId.LS, 4, 0, 5, tuple(F(v) for v in range(1, 9)), F(7, 4), 1),
        # three calls settle the argmax 1,1,1,1,1,1 at 4/3
        (SchedulerId.TWO_LA1, 2, 1, 8, VALUES_123, F(4, 3), 3),
    ],
)
def test_verify_bound_asks_the_oracle_only_where_a_tie_could_change_the_report(
    monkeypatch, scheduler, m, k, n_max, values, bound, asked, jobs
):
    # an instance that ties the running best under its lower bound and comes
    # after it in the report's order can neither win nor violate under OPT,
    # so most ties on these grids need no oracle call
    seen = _oracle_calls(monkeypatch)
    report = verify_bound(scheduler, m, k, n_max, values, bound, jobs=jobs)
    if jobs == 1:
        assert len(seen) == len(set(seen)) == asked
    assert _summary(report) == _reference_report(scheduler, m, k, n_max, values, bound)


def test_verify_bound_asks_the_oracle_as_before_on_a_wide_grid(monkeypatch):
    # 3la1 over 1..12: long rows, most of them skipped whole under their
    # largest ALG and least entry; every oracle call an instance's own test
    # would make is still made
    seen = _oracle_calls(monkeypatch)
    values = tuple(F(v) for v in range(1, 13))
    report = verify_bound(SchedulerId.THREE_LA1, 3, 1, 5, values, F(16, 11), jobs=1)
    assert len(seen) == len(set(seen)) == 1456
    assert report.max_ratio == 2 and len(report.violations) == 4509
    assert report.argmax_instance.processing_times == (F(1), F(11), F(11), F(1))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize(
    "scheduler,m,k",
    [(SchedulerId.LS, 2, 0), (SchedulerId.TWO_LA1, 2, 1), (SchedulerId.THREE_LA1, 3, 2)],
)
def test_scan_pieces_merge_to_the_one_share_result(scheduler, m, k, data):
    # cut each length's enumeration at random points, mostly inside a row,
    # and hand piece w of every length to share w, as verify_bound does
    values = data.draw(st.sampled_from([VALUES_123, (F(3), F(2), F(1)), (F(1, 2), F(2), F(5, 2), F(1))]))
    bound, policy, n_max = F(5, 4), policy_for(scheduler), 4
    shares, whole = {}, []
    for n in range(1, n_max + 1):
        total = len(values) ** n
        cuts = data.draw(st.lists(st.integers(1, total - 1), max_size=4, unique=True)) if total > 1 else []
        edges = [0, *sorted(cuts), total]
        for share, (start, stop) in enumerate(zip(edges, edges[1:])):
            shares.setdefault(share, []).append((n, start, stop))
        whole.append((n, 0, total))
    results = [harness._scan_chunk(policy, m, k, values, ranges, bound) for ranges in shares.values()]
    best, violations = harness._scan_chunk(policy, m, k, values, whole, bound)
    assert min(best for best, _ in results) == best
    assert sorted(v for _, found in results for v in found) == violations


def test_verify_bound_replaces_its_best_only_by_the_ratio_against_opt():
    # 2,2,5,5 reaches the maximum 9/7 first; the later 2,3,2,5 beats it
    # against its lower bound (ALG 8, LB 6) but not against OPT 7, so the
    # best must be compared again once OPT is known
    values = (F(2), F(3), F(5))
    expected = _uncached_report(SchedulerId.TWO_LA1, 2, 1, 4, values, F(5, 4))
    assert expected[1:3] == (F(9, 7), (F(2), F(2), F(5), F(5)))
    assert _summary(verify_bound(SchedulerId.TWO_LA1, 2, 1, 4, values, F(5, 4))) == expected


def _cap_the_oracle(monkeypatch, times=(F(1), F(2), F(3), F(3))):
    """Make the scan's oracle raise on one multiset, sorted; returns the
    processing times of every call it gets in this process."""
    oracle = harness.optimal_makespan_value
    seen = []

    def capped(instance, m):
        seen.append(instance.processing_times)
        if instance.processing_times == times:
            raise CapacityExceeded("too big")
        return oracle(instance, m)

    monkeypatch.setattr(harness, "optimal_makespan_value", capped)
    return seen


def test_verify_bound_capacity_error_names_the_scanned_instance(monkeypatch):
    seen = _cap_the_oracle(monkeypatch)
    # descending values: the first multiset the scan asks for, {1, 2, 3, 3},
    # is met as 3,3,1,2
    with pytest.raises(CapacityExceeded, match=r"^too big \(instance 3,3,1,2\)$"):
        verify_bound(SchedulerId.THREE_LA1, 3, 1, 4, (F(3), F(2), F(1)), F(16, 11))
    assert seen == [(F(1), F(2), F(3), F(3))]


class _InProcess:
    """Stands in for multiprocessing.Process: records each child and runs
    its target in this process when started."""

    started: list = []

    def __init__(self, target, args):
        self.target, self.args = target, args

    def start(self):
        self.started.append(self)
        self.target(*self.args)

    def terminate(self):
        pass

    def join(self):
        pass


@pytest.mark.parametrize("cpus,children", [(2, 1), (64, 7), (None, 0)])
def test_verify_bound_caps_the_pool_size(monkeypatch, cpus, children):
    monkeypatch.setattr(multiprocessing, "Process", _InProcess)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_InProcess, "started", [])
    # jobs=5000 makes min(jobs, CPUs) shares; at 64, share w gets index w of
    # every length, so 8 shares are non-empty, and the parent scans the first
    report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 3, (F(1), F(2)), F(1), jobs=5000)
    assert len(_InProcess.started) == children
    assert report == verify_bound(SchedulerId.TWO_LA1, 2, 1, 3, (F(1), F(2)), F(1))


def test_no_child_outlives_verify_bound(monkeypatch):
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    report = verify_bound(SchedulerId.THREE_LA1, 3, 1, 4, (F(3), F(2), F(1)), F(16, 11), jobs=3)
    assert multiprocessing.active_children() == []
    assert report == verify_bound(SchedulerId.THREE_LA1, 3, 1, 4, (F(3), F(2), F(1)), F(16, 11))


@pytest.mark.parametrize(
    "times,label",
    [
        # the parent's share asks for it first
        ((F(1), F(2), F(3), F(3)), "3,3,1,2"),
        # only the last share asks for it: the child's error comes back
        ((F(1), F(1), F(1), F(3)), "1,1,3,1"),
    ],
)
def test_no_child_outlives_a_verify_bound_that_raises(monkeypatch, times, label):
    _fork_only()
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    _cap_the_oracle(monkeypatch, times)
    with pytest.raises(CapacityExceeded, match=rf"^too big \(instance {label}\)$"):
        verify_bound(SchedulerId.THREE_LA1, 3, 1, 4, (F(3), F(2), F(1)), F(16, 11), jobs=3)
    assert multiprocessing.active_children() == []


def _fork_only():
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("a patched oracle reaches the children only through fork")


def test_verify_bound_stops_every_share_when_one_fails(monkeypatch):
    # the parent's share fails at its first oracle call, while each child
    # would wait a minute at its first; the children are terminated, not
    # waited for
    _fork_only()
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    parent = os.getpid()

    def stalled(instance, m):
        if os.getpid() == parent:
            raise CapacityExceeded("too big")
        time.sleep(60)

    monkeypatch.setattr(harness, "optimal_makespan_value", stalled)
    began = time.monotonic()
    with pytest.raises(CapacityExceeded, match=r"^too big \(instance 3,3,1,2\)$"):
        verify_bound(SchedulerId.THREE_LA1, 3, 1, 4, (F(3), F(2), F(1)), F(16, 11), jobs=3)
    assert time.monotonic() - began < 30
    assert multiprocessing.active_children() == []


def test_verify_bound_raises_the_children_errors_in_share_order(monkeypatch):
    # every child fails at its first oracle call; the error is share 1's,
    # whichever child finishes first
    _fork_only()
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
    parent, oracle = os.getpid(), harness.optimal_makespan_value

    def capped(instance, m):
        if os.getpid() != parent:
            raise CapacityExceeded("too big")
        return oracle(instance, m)

    monkeypatch.setattr(harness, "optimal_makespan_value", capped)
    values, bound = (F(3), F(2), F(1)), F(16, 11)
    with pytest.raises(CapacityExceeded) as raised:
        verify_bound(SchedulerId.THREE_LA1, 3, 1, 4, values, bound, jobs=3)
    # share 1 of three: the second third of each length's 3, 9, 27, 81
    share = [(1, 1, 2), (2, 3, 6), (3, 9, 18), (4, 27, 54)]
    parent = None  # the patched oracle now fails in this process too
    with pytest.raises(CapacityExceeded) as expected:
        harness._scan_chunk(policy_for(SchedulerId.THREE_LA1), 3, 1, values, share, bound)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("values", [(F(1), F(1)), (F(1), F(2, 2))])
def test_verify_bound_rejects_duplicate_values(values):
    with pytest.raises(InvalidParam, match="values must be distinct, got 1,1"):
        verify_bound(SchedulerId.LS, 2, 0, 2, values, F(3, 2))
    with pytest.raises(InvalidParam, match="distinct"):
        list(enumerate_instances(2, values))


@pytest.mark.parametrize("bound", [F(0), F(-1), F(99, 100)])
def test_verify_bound_rejects_a_bound_below_one(bound):
    with pytest.raises(InvalidParam, match=f"target bound must be >= 1, got {bound}$"):
        verify_bound(SchedulerId.LS, 2, 0, 2, VALUES_123, bound)


def test_verify_bound_rejects_a_float_bound():
    # Fraction(1.4) would check against 3152519739159347/2251799813685248
    with pytest.raises(TypeError, match="target bound is a float; pass Fraction or int"):
        verify_bound(SchedulerId.LS, 2, 0, 2, VALUES_123, 1.4)


def test_verify_bound_argmax_prefers_lexicographically_smallest():
    report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 6, (F(1), F(2)), F(4, 3))
    # several instances attain 4/3; the reported one must be the lex-smallest
    assert report.max_ratio == F(4, 3)
    assert report.argmax_instance.processing_times == (F(1), F(1), F(1), F(1), F(1), F(1))


def test_family_sweep_theorem2_makespans():
    # the family is tight only for n <= 6: from n = 7 on, every third unit
    # job overflows the two-thirds budget and lands on M2, giving
    # 4n - floor((n-4)/3) instead of 4n
    rows = _sweep(
        SchedulerId.TWO_LA1, [FamilyId("theorem2", n) for n in range(4, 9)], 2, 1
    )
    assert [row.alg_makespan for row in rows] == [16, 20, 24, 27, 31]
    assert [row.opt_makespan for row in rows] == [12, 15, 18, 21, 24]
    assert [row.ratio for row in rows] == [F(4, 3), F(4, 3), F(4, 3), F(9, 7), F(31, 24)]
    for n, row in zip(range(4, 21), _sweep(
        SchedulerId.TWO_LA1, [FamilyId("theorem2", n) for n in range(4, 21)], 2, 1
    )):
        assert row.alg_makespan == 4 * n - (n - 4) // 3


def test_family_sweep_equal_jobs_baseline():
    rows = _sweep(
        SchedulerId.LS, [FamilyId("corollary21", x) for x in (1, 2, 3)], 2, 0
    )
    assert [row.ratio for row in rows] == [1, 1, 1]
    assert all(row.ratio <= F(7, 6) for row in rows)


def test_family_sweep_lemma6():
    (row,) = _sweep(SchedulerId.THREE_LA1, [FamilyId("lemma6", 1)], 3, 1)
    assert row.alg_makespan == 16
    assert row.opt_makespan == 11
    assert row.ratio == F(16, 11)


def test_emit_csv_header_only():
    assert emit_csv([]) == "scheduler,instance,m,k,alg_makespan,opt_makespan,ratio,ratio_decimal\r\n"


def test_emit_csv_single_row():
    row = run_one(SchedulerId.TWO_LA1, named_instance(FamilyId("theorem2", 6)), 2, 1, label="theorem2:n=6")
    text = emit_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert lines[1] == "2la1,theorem2:n=6,2,1,24,18,4/3,1.333333"


def test_emit_csv_theorem2_sweep_ratios():
    rows = _sweep(
        SchedulerId.TWO_LA1, [FamilyId("theorem2", n) for n in (4, 5, 6)], 2, 1
    )
    lines = emit_csv(rows).splitlines()[1:]
    assert all(line.split(",")[6] == "4/3" for line in lines)


def test_emit_csv_quotes_inline_instance_labels():
    row = run_one(SchedulerId.LS, make_instance([1, 1, 2]), 2, 0)
    lines = emit_csv([row]).splitlines()
    assert lines[1] == 'ls,"1,1,2",2,0,3,2,3/2,1.500000'


def test_emit_csv_accepts_report():
    report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 3, (F(1), F(2)), F(1))
    lines = emit_csv(report_rows(report)).splitlines()
    # argmax row first, then one row per violation
    assert len(lines) == 1 + 1 + len(report.violations)


def test_report_rows_make_no_oracle_call(monkeypatch):
    report = verify_bound(SchedulerId.THREE_LA1, 3, 1, 6, VALUES_123, F(16, 11))
    instances = [report.argmax_instance, *(instance for instance, _ in report.violations)]
    expected = [run_one(report.policy, instance, 3, 1) for instance in instances]
    seen = []
    oracle = harness.optimal_makespan_value
    monkeypatch.setattr(harness, "optimal_makespan_value", lambda *args: seen.append(args) or oracle(*args))
    # eleven rows (the argmax 1,2,2,1,3 is also a violation), each OPT read
    # off the report as ALG / ratio
    assert report_rows(report) == expected
    assert len(expected) == 11
    assert seen == []
