import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lasched.oracle as oracle
from lasched.core import scaled_ints
from brute_force import exhaustive_optimal_makespan
from lasched import (
    CapacityExceeded,
    SchedulerId,
    ZeroOpt,
    competitive_ratio,
    enumerate_instances,
    make_instance,
    opt_lower_bound,
    optimal_makespan,
    optimal_makespan_value,
    parse_instance_text,
    policy_for,
    run_policy,
)

GOLDEN = Path(__file__).parent / "cli_golden"

positive_fractions = st.fractions(min_value=F(1, 6), max_value=6, max_denominator=6)
small_instances = st.lists(positive_fractions, min_size=1, max_size=7).map(make_instance)


@pytest.mark.parametrize(
    "times,m,expected",
    [
        ([1, 1, 2], 2, F(2)),
        ([1, 1, 1, 6, 15, 12], 2, F(18)),
        ([7, 4, 4, 7, 11], 3, F(11)),
        ([2, 2, 2], 3, F(2)),
        # the sorted-tuple DP has no scaled-total or job-count cap
        ([30000], 3, F(30000)),
        ([1] * 13, 5, F(3)),
        # lemma6:x=700: a run of c equal times costs the m = 2 bitset O(log c) shifts
        ([1] * 23100, 2, F(11550)),
    ],
)
def test_optimal_makespan_examples(times, m, expected):
    assert optimal_makespan(make_instance(times), m).makespan == expected
    assert optimal_makespan_value(make_instance(times), m) == expected


def test_optimal_makespan_witness_is_reproducible():
    result = optimal_makespan(make_instance([1, 1, 1, 6, 15, 12]), 2)
    assert result.witness_assignment == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}
    result = optimal_makespan(make_instance([7, 4, 4, 7, 11]), 3)
    assert result.witness_assignment == {1: 1, 2: 1, 3: 2, 4: 2, 5: 3}


def test_optimal_makespan_handles_fractions():
    assert optimal_makespan_value(make_instance([F(7, 2), F(3), F(1, 2)]), 2) == F(7, 2)


def test_optimal_makespan_m4():
    result = optimal_makespan(make_instance([2, 2, 2]), 4)
    assert result.makespan == 2
    assert result.witness_assignment == {1: 1, 2: 2, 3: 3}


def test_capacity_exceeded():
    # no path has a scaled-total cap
    assert optimal_makespan_value(make_instance([30000]), 2) == 30000
    assert optimal_makespan(make_instance([30000]), 2).makespan == 30000
    # the tables decline past their cap (None) and only the witness search
    # raises; the m = 2 bitset shifts ten unit jobs in as the parts 1, 2, 3,
    # 4: layers of 1, 2, 4, 7 and 11 bits, 25 in all
    assert oracle._dp_two([1] * 10, state_cap=24) is None
    assert oracle._dp_two([1] * 10, state_cap=25) == 5
    # 3000 distinct times: the last layer fits in the cap, all layers do not,
    # so the bitset declines before it shifts anything
    assert oracle._dp_two(list(range(1, 3001)), state_cap=5_000_000) is None
    # past the bitset's cap both m = 2 paths fall back to the search's
    # lower-bound probe, so the value path answers what the witness path does
    for times in (range(1, 1001), range(1, 3001)):
        instance = make_instance(times)
        assert optimal_makespan_value(instance, 2) == optimal_makespan(instance, 2).makespan
    assert optimal_makespan_value(make_instance([1] * 10), 2, state_cap=24) == 5
    # 25 jobs from 700..780: the bitset passes 100000 bits and the lower bound
    # is infeasible, so the value path raises only once the search's dead ends
    # pass the cap as well
    m2_tight = parse_instance_text((GOLDEN / "m2_tight.txt").read_text())
    with pytest.raises(CapacityExceeded, match="past 10000 states"):
        optimal_makespan_value(m2_tight, 2, state_cap=10_000)
    assert optimal_makespan_value(m2_tight, 2, state_cap=100_000) == 9294
    with pytest.raises(CapacityExceeded):
        exhaustive_optimal_makespan(make_instance([1] * 13), 5)
    # the witness search stores 480 dead-end load tuples on oracle-mix's
    # heaviest call, whose lower bound 75 is infeasible at m = 3; children the
    # wasted-room bound cuts are never stored, and the bisection keeps the
    # witness of each feasible cap instead of probing it again
    instance = make_instance([1, 19, 33, 3, 27, 1, 31, 29, 19, 28, 34])
    with pytest.raises(CapacityExceeded, match="past 479 states"):
        optimal_makespan(instance, 3, state_cap=479)
    assert optimal_makespan(instance, 3, state_cap=480).makespan == 77
    # past the m = 3 DP's cap the value path falls back to the search too: the
    # DP stores 5401 load tuples on that call, so at both caps the search
    # answers, and the value path raises only once its dead ends pass the cap
    with pytest.raises(CapacityExceeded, match="past 479 states"):
        optimal_makespan_value(instance, 3, state_cap=479)
    assert optimal_makespan_value(instance, 3, state_cap=480) == 77
    # the m = 3 DP's layers over thirty unit jobs hold the partitions of
    # 0..30 into at most three parts, 1041 load tuples in all
    assert oracle._dp_sorted([1] * 30, 3, state_cap=1040) is None
    assert oracle._dp_sorted([1] * 30, 3, state_cap=1041) == 10
    assert optimal_makespan_value(make_instance([1] * 30), 3, state_cap=1) == 10


def test_oracle_paths_run_their_table_at_most_once(monkeypatch):
    calls = []
    for name in ("_dp_two", "_dp_sorted"):
        table = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args, table=table: calls.append(args[-1]) or table(*args))

    def witness(*args, **kwargs):
        return optimal_makespan(*args, **kwargs).makespan

    # at m = 2 both paths run the bitset once, whether it fits its cap or not;
    # at m = 3 the value path runs its DP once and the witness path no table
    for m, times, opt, caps, witness_calls in (
        (2, [1] * 10, 5, (24, 25), 1),
        (3, [1] * 30, 10, (1, 2000), 0),
    ):
        instance = make_instance(times)
        for cap in caps:
            for path, count in ((optimal_makespan_value, 1), (witness, witness_calls)):
                calls.clear()
                assert path(instance, m, state_cap=cap) == opt
                assert calls == [cap] * count


def test_both_oracle_paths_divide_by_the_gcd():
    # undivided, the m = 2 bitset of 3000000,3000000 would count 9000003 bits
    instance = make_instance([3_000_000, 3_000_000])
    assert optimal_makespan_value(instance, 2) == 3_000_000
    assert optimal_makespan(instance, 2).makespan == 3_000_000
    # scaled to 6,6,6 over 5, divided to 1,1,1: the unit and the scale both come back
    fifths = make_instance([F(6, 5)] * 3)
    for m, opt in ((2, F(12, 5)), (3, F(6, 5))):
        assert optimal_makespan_value(fifths, m) == opt
        assert optimal_makespan(fifths, m).makespan == opt


def test_witness_search_does_not_recurse_per_job():
    for m in (2, 3):
        result = optimal_makespan(make_instance([1] * 1200), m)
        assert result.makespan == 1200 // m
        machines = list(result.witness_assignment.values())
        assert [machines.count(machine) for machine in range(1, m + 1)] == [1200 // m] * m
    # the search runs on the scaled times divided by their gcd
    result = optimal_makespan(make_instance([7] * 3001), 3)
    assert result.makespan == 7007
    machines = list(result.witness_assignment.values())
    assert [machines.count(machine) for machine in (1, 2, 3)] == [1001, 1001, 999]


# small denominators mixed with the Mersenne prime 2^61 - 1, so the lcm can
# be far larger than any numerator
mixed_fractions = st.builds(
    F, st.integers(min_value=1, max_value=10**6), st.sampled_from([1, 2, 3, 4, 6, 7, 10, 2**61 - 1])
)


@given(times=st.lists(mixed_fractions, min_size=1, max_size=8))
def test_scaled_ints_are_exact(times):
    instance = make_instance(times)
    ints, scale = scaled_ints(instance.processing_times)
    assert scale == math.lcm(*(p.denominator for p in instance.processing_times))
    assert ints == [int(p * scale) for p in instance.processing_times]
    assert [F(a, scale) for a in ints] == list(instance.processing_times)


def test_lpt_runs_only_after_the_lower_bound_fails(monkeypatch):
    lpt = oracle._lpt_makespan

    def refuse(ints, m):
        raise AssertionError("LPT computed although the lower bound is feasible")

    monkeypatch.setattr(oracle, "_lpt_makespan", refuse)
    # on [2, 2, 2, 2, 1] at m = 3 the two-term bound max(p_max, ceil(T/m)) = 3
    # is infeasible, and the pair term p_(m) + p_(m+1) = 4 is OPT (the gcd is
    # 1: on [2, 2, 2, 2] the search probes [1, 1, 1, 1], where 2 is OPT already)
    cases = [([1, 1, 2], 2, 2), ([7, 4, 4, 7, 11], 3, 11), ([1] * 1200, 3, 400), ([2, 2, 2, 2, 1], 3, 4)]
    for times, m, opt in cases:
        assert optimal_makespan(make_instance(times), m).makespan == opt
    # at m = 2 the search takes the optimum from the bitset and probes only
    # there, though the lower bound 18409/2 of these 25 jobs is infeasible
    tight = parse_instance_text((GOLDEN / "m2_tight.txt").read_text())
    assert optimal_makespan(tight, 2).makespan == 9294
    # the lower bound 75 of oracle-mix's heaviest call is infeasible
    calls = []
    monkeypatch.setattr(oracle, "_lpt_makespan", lambda ints, m: calls.append(m) or lpt(ints, m))
    instance = parse_instance_text((GOLDEN / "lb_infeasible.txt").read_text())
    assert optimal_makespan(instance, 3).makespan == 77
    assert calls == [3]


# opt_lower_bound, the two-term bound max(p_max, T/m), is below OPT on
# every case at m = 2 or m = 3.  The search probes the three-term bound of
# the times divided by their gcd, rounded up, which is OPT on the first four
# ([2, 2, 2, 2, 2] at m = 2 has bound 5 and OPT 6, but on [1] * 5 the bound
# 3 is OPT).  [3, 3, 3, 3, 2] needs the pair term at m = 3 (two-term 5,
# three-term 6 = OPT) and bisects up to LPT at m = 2 (bound 7, OPT 8);
# [2, 2, 2, 3, 3] bisects at m = 3 (bound 4, OPT 5)
@pytest.mark.parametrize(
    "times", [[2, 2, 2, 2], [F(1001, 1000)] * 4, [2, 2, 2], [2, 2, 2, 2, 2], [3, 3, 3, 3, 2], [2, 2, 2, 3, 3]]
)
def test_witness_search_bisects_past_the_lower_bound(times, monkeypatch):
    instance = make_instance(times)
    assert any(opt_lower_bound(instance, m) < optimal_makespan_value(instance, m) for m in (2, 3))
    lpt, calls = oracle._lpt_makespan, []
    monkeypatch.setattr(oracle, "_lpt_makespan", lambda ints, m: calls.append(m) or lpt(ints, m))
    ints, unit, scale = oracle._coprime_ints(instance)
    for m in (2, 3):
        exact = exhaustive_optimal_makespan(instance, m)
        # the search itself, which the m = 2 paths reach only past the bitset's cap
        cap, machines = oracle._witness_search(ints, m, oracle.DEFAULT_STATE_CAP)
        assert F(cap * unit, scale) == exact.makespan
        assert dict(enumerate(machines, 1)) == exact.witness_assignment
        # LPT is computed exactly when the first probe, the three-term bound, fails
        assert (m in calls) == (F(oracle._lower_bound(sorted(ints), m) * unit, scale) < exact.makespan)
        assert optimal_makespan(instance, m) == exact


def test_witness_search_on_oracle_mix_sizes():
    # the m=3 and m=4 shapes of the benchmark's oracle-mix ladder, two of each size
    rng = random.Random(11)
    shapes = [(3, n, 40) for n in range(8, 17)] + [(4, n, 9) for n in (5, 6, 7)]
    for m, n, high in shapes:
        for _ in range(2):
            instance = make_instance([rng.randint(1, high) for _ in range(n)])
            result = optimal_makespan(instance, m)
            assert result.makespan == optimal_makespan_value(instance, m)
            loads = [0] * m
            for i, p in enumerate(instance.processing_times, 1):
                loads[result.witness_assignment[i] - 1] += p
            assert max(loads) == result.makespan
            if n <= 8:
                assert result == exhaustive_optimal_makespan(instance, m)


@pytest.mark.parametrize(
    "times,m,expected",
    [
        ([1, 1, 2], 2, F(2)),
        ([7, 4, 4, 7, 11], 3, F(11)),
        ([5], 2, F(5)),
    ],
)
def test_opt_lower_bound_examples(times, m, expected):
    assert opt_lower_bound(make_instance(times), m) == expected


def test_competitive_ratio_examples():
    assert competitive_ratio(F(24), F(18)) == F(4, 3)
    assert competitive_ratio(F(15), F(11)) == F(15, 11)
    assert competitive_ratio(F(7), F(7)) == 1
    with pytest.raises(ZeroOpt):
        competitive_ratio(F(1), F(0))


def test_competitive_ratio_rejects_floats():
    # a float OPT would turn the exact ratio into the float 1.5
    with pytest.raises(TypeError, match="OPT makespan is a float; pass Fraction or int"):
        competitive_ratio(F(3), 2.0)
    with pytest.raises(TypeError, match="ALG makespan is a float"):
        competitive_ratio(3.0, F(2))


def test_dp_matches_exhaustive_small_space():
    values = (F(1), F(2), F(3))
    cache = {}
    for n in range(1, 6):
        for instance in enumerate_instances(n, values):
            key = tuple(sorted(instance.processing_times))
            for m in (2, 3, 4):
                if (key, m) not in cache:
                    cache[key, m] = exhaustive_optimal_makespan(make_instance(key), m).makespan
                assert optimal_makespan_value(instance, m) == cache[key, m]
                if n <= 4:
                    # witness included: both return the lexicographically smallest optimum
                    assert optimal_makespan(instance, m) == exhaustive_optimal_makespan(instance, m)


# the m = 4 brute force on seven jobs takes ~0.3 s, past hypothesis's default deadline
@settings(max_examples=60, deadline=None)
@given(instance=small_instances, m=st.sampled_from([2, 3, 4]))
def test_dp_matches_exhaustive_random(instance, m):
    assert optimal_makespan_value(instance, m) == exhaustive_optimal_makespan(instance, m).makespan


# integer times, about half of them padded so the total divides by m: at the
# lower bound their slack is 0, so the wasted-room bound cuts children
@st.composite
def integer_instances(draw, m):
    times = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=7))
    if len(times) < 7 and sum(times) % m and draw(st.booleans()):
        times.append(m - sum(times) % m)
    return make_instance(times)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.sampled_from([2, 3, 4]))
def test_witness_matches_exhaustive(data, m):
    # witness included: both return the lexicographically smallest optimum.
    # Seven jobs leave a few hundred sorted load tuples per probe, so a bound
    # that wrongly cuts every assignment, and makes the bisection probe the
    # LPT cap forever, raises here instead of hanging.
    instance = data.draw(integer_instances(m))
    result = optimal_makespan(instance, m, state_cap=10_000)
    assert result == exhaustive_optimal_makespan(instance, m)


@given(instance=small_instances, m=st.sampled_from([2, 3, 4]))
def test_witness_validity(instance, m):
    result = optimal_makespan(instance, m)
    loads = [F(0)] * m
    for i, p in enumerate(instance.processing_times, 1):
        loads[result.witness_assignment[i] - 1] += p
    assert max(loads) == result.makespan


@given(instance=small_instances, m=st.sampled_from([2, 3, 4]), seed=st.randoms())
def test_permutation_invariance(instance, m, seed):
    times = list(instance.processing_times)
    seed.shuffle(times)
    assert optimal_makespan_value(make_instance(times), m) == optimal_makespan_value(instance, m)


@settings(max_examples=60)
@given(instance=small_instances)
def test_sandwich(instance):
    for scheduler, m, k in [
        (SchedulerId.LS, 2, 0),
        (SchedulerId.TWO_LA1, 2, 1),
        (SchedulerId.THREE_LA1, 3, 1),
    ]:
        trace = run_policy(instance, policy_for(scheduler), m, k)
        opt = optimal_makespan_value(instance, m)
        assert opt_lower_bound(instance, m) <= opt <= trace.makespan
