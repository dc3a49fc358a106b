from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lasched import (
    LookaheadWindow,
    SchedulerId,
    enumerate_instances,
    ls_schedule,
    make_instance,
    policy_for,
    run_policy,
    three_la1_schedule,
    two_la1_schedule,
)
from reference_policies import reference_choose, three_la1_admit, two_la1_admit

positive_fractions = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
instances = st.lists(positive_fractions, min_size=1, max_size=8).map(make_instance)

SCHEDULERS = [
    (SchedulerId.LS, 2, 0),
    (SchedulerId.LS, 3, 0),
    (SchedulerId.TWO_LA1, 2, 1),
    (SchedulerId.THREE_LA1, 3, 1),
]


def test_ls_examples():
    trace = ls_schedule(make_instance([1, 1, 2]), 2)
    assert trace.makespan == 3
    trace = ls_schedule(make_instance([5]), 2)
    assert trace.makespan == 5
    trace = ls_schedule(make_instance([7, 4, 4, 7, 11]), 3)
    assert trace.loads == (F(7), F(11), F(15))
    assert trace.makespan == 15


def test_two_la1_admit_examples():
    assert two_la1_admit(F(0), F(0), F(1), F(1)) is True
    # tight case: both sides equal 24 after clearing the 2/3 factor
    assert 3 * (F(9) + F(15)) == 2 * (F(9) + F(0) + F(15) + F(12))
    assert two_la1_admit(F(9), F(0), F(15), F(12)) is True
    # rejection: 3*(2+1) = 9 > 2*(2+0+1+1) = 8
    assert two_la1_admit(F(2), F(0), F(1), F(1)) is False
    assert two_la1_admit(F(1), F(1), F(1), F(1)) is True
    # the same cases against the library's 2la1 row
    choose = policy_for(SchedulerId.TWO_LA1).choose
    assert choose((F(0), F(0)), LookaheadWindow(F(1), (F(1),))) == 1
    assert choose((F(9), F(0)), LookaheadWindow(F(15), (F(12),))) == 1
    assert choose((F(2), F(0)), LookaheadWindow(F(1), (F(1),))) == 2
    assert choose((F(1), F(1)), LookaheadWindow(F(1), (F(1),))) == 1


def test_two_la1_schedule_examples():
    trace = two_la1_schedule(make_instance([1, 1, 2]))
    assert trace.loads == (F(2), F(2))
    assert trace.makespan == 2

    trace = two_la1_schedule(make_instance([1, 1, 1, 6, 15, 12]))
    assert trace.decisions == (1, 1, 1, 1, 1, 2)
    assert trace.loads == (F(24), F(12))
    assert trace.makespan == 24

    trace = two_la1_schedule(make_instance([1] * 6))
    assert trace.decisions.count(1) == 4
    assert trace.decisions.count(2) == 2
    assert trace.makespan == 4


def test_three_la1_admit_examples():
    assert three_la1_admit(F(0), F(0), F(0), F(16), F(16)) == 3
    assert 33 * (F(0) + F(16)) == 16 * (F(0) + F(0) + F(16) + F(16) + F(1))
    assert three_la1_admit(F(0), F(0), F(16), F(16), F(1)) == 1
    assert three_la1_admit(F(0), F(0), F(0), F(1), F(1)) == 3
    # the same cases against the library's 3la1 row
    choose = policy_for(SchedulerId.THREE_LA1).choose
    assert choose((F(0), F(0), F(0)), LookaheadWindow(F(16), (F(16),))) == 3
    assert choose((F(0), F(0), F(16)), LookaheadWindow(F(16), (F(1),))) == 1
    assert choose((F(0), F(0), F(0)), LookaheadWindow(F(1), (F(1),))) == 3


def test_three_la1_schedule_examples():
    trace = three_la1_schedule(make_instance([17, 14, 1, 1]))
    assert trace.decisions == (3, 1, 1, 2)
    assert trace.makespan == 17

    trace = three_la1_schedule(make_instance([1, 1, 14, 17]))
    assert trace.makespan == 17

    trace = three_la1_schedule(make_instance([7, 4, 4, 7, 11]))
    assert trace.decisions == (3, 1, 1, 1, 2)
    assert trace.loads == (F(15), F(11), F(7))
    assert trace.makespan == 15


def test_single_job_placements():
    # two-machine policy: the tie on the final job goes to M2, which keeps
    # the floor(2n/3) equal-job count exact down to n = 1
    trace = two_la1_schedule(make_instance([5]))
    assert trace.decisions == (2,)
    trace = three_la1_schedule(make_instance([5]))
    assert trace.decisions == (1,)
    trace = ls_schedule(make_instance([5]), 2)
    assert trace.decisions == (1,)


@pytest.mark.parametrize("n", range(1, 31))
@pytest.mark.parametrize("x", [F(1), F(7, 2)])
def test_equal_job_structure(n, x):
    trace = two_la1_schedule(make_instance([x] * n))
    assert trace.decisions.count(1) == (2 * n) // 3


# the README's verify grids: (scheduler, m, k, n_max, values)
GOLDEN_GRIDS = [
    (SchedulerId.TWO_LA1, 2, 1, 7, (1, 2, 3)),
    (SchedulerId.TWO_LA1, 2, 1, 5, (1, 2, 3, 4, 5, 6)),
    (SchedulerId.THREE_LA1, 3, 1, 6, (1, 2, 3)),
    (SchedulerId.LS, 2, 0, 7, (1, 2, 3)),
    (SchedulerId.LS, 3, 0, 6, (1, 2, 3)),
]


@pytest.mark.parametrize("scheduler,m,k,n_max,values", GOLDEN_GRIDS)
def test_choose_matches_reference_on_golden_grids(scheduler, m, k, n_max, values):
    policy = policy_for(scheduler)
    values = [F(v) for v in values]
    for n in range(1, n_max + 1):
        for instance in enumerate_instances(n, values):
            loads = (F(0),) * m
            for record in run_policy(instance, policy, m, k).records:
                assert record.machine == reference_choose(scheduler, loads, record.window)
                loads = record.loads


@given(loads=st.lists(st.integers(0, 3).map(F), min_size=2, max_size=5).map(tuple),
       p=positive_fractions)
def test_ls_choose_matches_reference_on_ties(loads, p):
    # small integer loads tie often; LS picks the lowest least-loaded machine
    window = LookaheadWindow(p, ())
    assert policy_for(SchedulerId.LS).choose(loads, window) == reference_choose(
        SchedulerId.LS, loads, window
    )


BUDGET_ROWS = [
    (scheduler, row)
    for scheduler in (SchedulerId.TWO_LA1, SchedulerId.THREE_LA1)
    for row in range(len(policy_for(scheduler).budgets))
]


@pytest.mark.parametrize("scheduler,row", BUDGET_ROWS)
@given(t=st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12),
       weights=st.lists(st.integers(0, 6), min_size=4, max_size=4))
def test_choose_matches_reference_on_budget_boundaries(scheduler, row, t, weights):
    # the known work l_1 + ... + l_m + p + q is 1, so row (j, a, b) admits
    # exactly while l_j + p <= a/b; put l_j on that boundary and every earlier
    # row's machine strictly past its own
    policy = policy_for(scheduler)
    m = policy.machine_count
    machine, a, b = policy.budgets[row]
    p = t * F(a, b)
    loads = [F(0)] * m
    loads[machine - 1] = F(a, b) - p
    # the rest of the work is shared by weight: w[0] to q, w[j] to machine j
    w = weights[: m + 1]
    w[0] += 1
    w[machine] = 0
    for j, a_e, b_e in policy.budgets[:row]:
        loads[j - 1] = max(F(0), F(a_e, b_e) - p)
        w[j] += 1
    unit = (1 - p - sum(loads)) / sum(w)
    q = w[0] * unit
    loads = tuple(load + w[j] * unit for j, load in enumerate(loads, 1))
    window = LookaheadWindow(p, (q,))
    assert b * (loads[machine - 1] + p) == a * (sum(loads) + p + q)
    # ties admit
    assert policy.choose(loads, window) == reference_choose(scheduler, loads, window) == machine


@pytest.mark.parametrize("scheduler,m,k", SCHEDULERS)
@given(instance=instances)
def test_conservation_and_makespan(scheduler, m, k, instance):
    trace = run_policy(instance, policy_for(scheduler), m, k)
    assert sum(trace.loads) == instance.total_time
    assert trace.makespan == max(trace.loads)
    assert len(trace.records) == len(instance)
    # loads in each record extend the previous record by exactly one job
    previous = tuple(F(0) for _ in range(m))
    for record, p in zip(trace.records, instance.processing_times):
        expected = list(previous)
        expected[record.machine - 1] += p
        assert record.loads == tuple(expected)
        previous = record.loads
    # the final loads follow from the assignment alone
    assert set(trace.decisions) <= set(range(1, m + 1))
    rebuilt = [F(0)] * m
    for p, machine in zip(instance.processing_times, trace.decisions):
        rebuilt[machine - 1] += p
    assert tuple(rebuilt) == trace.loads


@pytest.mark.parametrize("scheduler,m,k", SCHEDULERS)
@given(instance=instances)
def test_determinism(scheduler, m, k, instance):
    first = run_policy(instance, policy_for(scheduler), m, k)
    second = run_policy(instance, policy_for(scheduler), m, k)
    assert first == second


@pytest.mark.parametrize("scheduler,m,k", SCHEDULERS)
@given(instance=instances, scale=st.fractions(min_value=F(1, 4), max_value=5, max_denominator=4))
def test_scaling_invariance(scheduler, m, k, instance, scale):
    scaled = make_instance([p * scale for p in instance.processing_times])
    base_trace = run_policy(instance, policy_for(scheduler), m, k)
    scaled_trace = run_policy(scaled, policy_for(scheduler), m, k)
    assert base_trace.decisions == scaled_trace.decisions
    assert scaled_trace.makespan == base_trace.makespan * scale


@pytest.mark.parametrize("scheduler,m,k", SCHEDULERS)
@settings(max_examples=50)
@given(instance=instances)
def test_revelation_compliance(scheduler, m, k, instance):
    # mutating values the window has not yet revealed must not change any
    # decision already made
    times = instance.processing_times
    n = len(times)
    trace = run_policy(instance, policy_for(scheduler), m, k)
    for i in range(1, n + 1):
        if i + k >= n:
            break
        mutated = list(times)
        for j in range(i + k, n):
            mutated[j] = times[j] + 1
        mutated_trace = run_policy(make_instance(mutated), policy_for(scheduler), m, k)
        assert mutated_trace.decisions[:i] == trace.decisions[:i]


def test_run_policy_window_examples():
    instance = make_instance([1, 1, 2])
    trace = run_policy(instance, policy_for(SchedulerId.LS), 2, 1)
    first, _, last = (record.window for record in trace.records)
    assert (first.current, first.future) == (F(1), (F(1),))
    assert (last.current, last.future) == (F(2), ())
    trace = run_policy(instance, policy_for(SchedulerId.LS), 2, 5)
    first = trace.records[0].window
    assert (first.current, first.future) == (F(1), (F(1), F(2)))


@given(instance=instances, k=st.integers(min_value=1, max_value=10))
def test_run_policy_window_length(instance, k):
    # the final job's window has an empty future, which is how policies
    # recognise it without a separate end-of-input signal
    times = instance.processing_times
    n = len(times)
    trace = run_policy(instance, policy_for(SchedulerId.LS), 2, k)
    for i, record in enumerate(trace.records, 1):
        assert record.window.current == times[i - 1]
        assert len(record.window.future) == min(k, n - i)
        assert record.window.future == times[i : i + k]


def test_run_policy_validations():
    from lasched import InvalidParam, SchedulerMachineMismatch

    assert issubclass(SchedulerMachineMismatch, InvalidParam)
    instance = make_instance([1, 2])
    with pytest.raises(SchedulerMachineMismatch):
        run_policy(instance, policy_for(SchedulerId.TWO_LA1), 3, 1)
    with pytest.raises(InvalidParam):
        run_policy(instance, policy_for(SchedulerId.TWO_LA1), 2, 0)
    with pytest.raises(InvalidParam):
        run_policy(instance, policy_for(SchedulerId.LS), 1, 0)
