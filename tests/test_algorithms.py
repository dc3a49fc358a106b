from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lasched import (
    SchedulerId,
    build_schedule,
    ls_schedule,
    make_instance,
    policy_for,
    run_policy,
    three_la1_admit,
    three_la1_schedule,
    two_la1_admit,
    two_la1_schedule,
)

positive_fractions = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
instances = st.lists(positive_fractions, min_size=1, max_size=8).map(make_instance)

SCHEDULERS = [
    (SchedulerId.LS, 2, 0),
    (SchedulerId.LS, 3, 0),
    (SchedulerId.TWO_LA1, 2, 1),
    (SchedulerId.THREE_LA1, 3, 1),
]


def test_ls_examples():
    schedule, _ = ls_schedule(make_instance([1, 1, 2]), 2)
    assert schedule.makespan == 3
    schedule, _ = ls_schedule(make_instance([5]), 2)
    assert schedule.makespan == 5
    schedule, _ = ls_schedule(make_instance([7, 4, 4, 7, 11]), 3)
    assert schedule.loads == (F(7), F(11), F(15))
    assert schedule.makespan == 15


def test_two_la1_admit_examples():
    assert two_la1_admit(F(0), F(0), F(1), F(1)) is True
    # tight case: both sides equal 24 after clearing the 2/3 factor
    assert 3 * (F(9) + F(15)) == 2 * (F(9) + F(0) + F(15) + F(12))
    assert two_la1_admit(F(9), F(0), F(15), F(12)) is True
    # rejection: 3*(2+1) = 9 > 2*(2+0+1+1) = 8
    assert two_la1_admit(F(2), F(0), F(1), F(1)) is False
    assert two_la1_admit(F(1), F(1), F(1), F(1)) is True


def test_two_la1_schedule_examples():
    schedule, _ = two_la1_schedule(make_instance([1, 1, 2]))
    assert schedule.loads == (F(2), F(2))
    assert schedule.makespan == 2

    schedule, trace = two_la1_schedule(make_instance([1, 1, 1, 6, 15, 12]))
    assert trace.decisions == (1, 1, 1, 1, 1, 2)
    assert schedule.loads == (F(24), F(12))
    assert schedule.makespan == 24

    schedule, trace = two_la1_schedule(make_instance([1] * 6))
    assert trace.decisions.count(1) == 4
    assert trace.decisions.count(2) == 2
    assert schedule.makespan == 4


def test_three_la1_admit_examples():
    assert three_la1_admit(F(0), F(0), F(0), F(16), F(16)) == 3
    assert 33 * (F(0) + F(16)) == 16 * (F(0) + F(0) + F(16) + F(16) + F(1))
    assert three_la1_admit(F(0), F(0), F(16), F(16), F(1)) == 1
    assert three_la1_admit(F(0), F(0), F(0), F(1), F(1)) == 3


def test_three_la1_schedule_examples():
    schedule, trace = three_la1_schedule(make_instance([17, 14, 1, 1]))
    assert trace.decisions == (3, 1, 1, 2)
    assert schedule.makespan == 17

    schedule, _ = three_la1_schedule(make_instance([1, 1, 14, 17]))
    assert schedule.makespan == 17

    schedule, trace = three_la1_schedule(make_instance([7, 4, 4, 7, 11]))
    assert trace.decisions == (3, 1, 1, 1, 2)
    assert schedule.loads == (F(15), F(11), F(7))
    assert schedule.makespan == 15


def test_single_job_placements():
    # two-machine policy: the tie on the final job goes to M2, which keeps
    # the floor(2n/3) equal-job count exact down to n = 1
    _, trace = two_la1_schedule(make_instance([5]))
    assert trace.decisions == (2,)
    _, trace = three_la1_schedule(make_instance([5]))
    assert trace.decisions == (1,)
    _, trace = ls_schedule(make_instance([5]), 2)
    assert trace.decisions == (1,)


@pytest.mark.parametrize("n", range(1, 31))
@pytest.mark.parametrize("x", [F(1), F(7, 2)])
def test_equal_job_structure(n, x):
    _, trace = two_la1_schedule(make_instance([x] * n))
    assert trace.decisions.count(1) == (2 * n) // 3


@pytest.mark.parametrize("scheduler,m,k", SCHEDULERS)
@given(instance=instances)
def test_conservation_and_makespan(scheduler, m, k, instance):
    schedule, trace = run_policy(instance, policy_for(scheduler), m, k)
    assert sum(schedule.loads) == instance.total_time
    assert schedule.makespan == max(schedule.loads)
    assert len(trace.records) == len(instance)
    # loads in each record extend the previous record by exactly one job
    previous = tuple(F(0) for _ in range(m))
    for record, p in zip(trace.records, instance.processing_times):
        expected = list(previous)
        expected[record.machine - 1] += p
        assert record.loads == tuple(expected)
        previous = record.loads
    rebuilt = build_schedule(instance, schedule.assignment, m)
    assert rebuilt.loads == schedule.loads


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
    base_schedule, base_trace = run_policy(instance, policy_for(scheduler), m, k)
    scaled_schedule, scaled_trace = run_policy(scaled, policy_for(scheduler), m, k)
    assert base_trace.decisions == scaled_trace.decisions
    assert scaled_schedule.makespan == base_schedule.makespan * scale


@pytest.mark.parametrize("scheduler,m,k", SCHEDULERS)
@settings(max_examples=50)
@given(instance=instances)
def test_revelation_compliance(scheduler, m, k, instance):
    # mutating values the window has not yet revealed must not change any
    # decision already made
    times = instance.processing_times
    n = len(times)
    _, trace = run_policy(instance, policy_for(scheduler), m, k)
    for i in range(1, n + 1):
        if i + k >= n:
            break
        mutated = list(times)
        for j in range(i + k, n):
            mutated[j] = times[j] + 1
        _, mutated_trace = run_policy(make_instance(mutated), policy_for(scheduler), m, k)
        assert mutated_trace.decisions[:i] == trace.decisions[:i]


def test_run_policy_window_examples():
    instance = make_instance([1, 1, 2])
    _, trace = run_policy(instance, policy_for(SchedulerId.LS), 2, 1)
    first, _, last = (record.window for record in trace.records)
    assert (first.current, first.future) == (F(1), (F(1),))
    assert (last.current, last.future) == (F(2), ())
    _, trace = run_policy(instance, policy_for(SchedulerId.LS), 2, 5)
    first = trace.records[0].window
    assert (first.current, first.future) == (F(1), (F(1), F(2)))


@given(instance=instances, k=st.integers(min_value=1, max_value=10))
def test_run_policy_window_length(instance, k):
    # the final job's window has an empty future, which is how policies
    # recognise it without a separate end-of-input signal
    times = instance.processing_times
    n = len(times)
    _, trace = run_policy(instance, policy_for(SchedulerId.LS), 2, k)
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
