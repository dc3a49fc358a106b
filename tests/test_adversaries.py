from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from lasched import (
    FamilyId,
    InvalidParam,
    SchedulerId,
    SchedulerMachineMismatch,
    enumerate_instances,
    format_family_id,
    named_instance,
    optimal_makespan_value,
    parse_family_id,
    play_theorem1,
    play_theorem4,
)
from reference_policies import LoadConstant


class Stacker:
    """Worst imaginable policy: everything on the first machine."""

    scheduler_id = None
    machine_count = None
    min_lookahead = 0

    def choose(self, loads, window):
        return 1


@pytest.mark.parametrize(
    "family,expected",
    [
        (FamilyId("fig1"), [1, 1, 2]),
        (FamilyId("theorem2", 6), [1, 1, 1, 6, 15, 12]),
        (FamilyId("theorem2", 4), [1, 4, 11, 8]),
        (FamilyId("corollary21", 1), [1] * 6),
        (FamilyId("lemma4"), [16, 16, 1]),
        (FamilyId("lemma5a"), [17, 14, 1, 1]),
        (FamilyId("lemma5b"), [1, 1, 14, 17]),
        (FamilyId("lemma6", 1), [1] * 33),
        (FamilyId("thm4", "1"), [7, 4, 4, 7, 11]),
        (FamilyId("thm4", "2.2"), [7, 4, 4, 11, 7]),
        (FamilyId("thm4", "3b.1"), [7, 4, 4, 7, 8]),
        (FamilyId("thm4", "3b.2"), [7, 4, 4, 8, 7]),
    ],
)
def test_named_instance(family, expected):
    assert named_instance(family).processing_times == tuple(F(v) for v in expected)


@pytest.mark.parametrize(
    "family",
    [
        FamilyId("theorem2", 3),
        FamilyId("corollary21", 0),
        FamilyId("lemma6", -1),
        FamilyId("thm4", "9"),
        FamilyId("nonsense"),
    ],
)
def test_named_instance_invalid_params(family):
    with pytest.raises(InvalidParam):
        named_instance(family)


@pytest.mark.parametrize(
    "text,family",
    [
        ("fig1", FamilyId("fig1")),
        ("theorem2:n=6", FamilyId("theorem2", 6)),
        ("corollary21:x=2", FamilyId("corollary21", 2)),
        ("lemma6:x=3", FamilyId("lemma6", 3)),
        ("thm4:case=3b.1", FamilyId("thm4", "3b.1")),
    ],
)
def test_family_id_round_trip(text, family):
    assert parse_family_id(text) == family
    assert format_family_id(family) == text


@pytest.mark.parametrize("bad", ["fig1:n=2", "theorem2", "theorem2:x=6", "thm4:case", "what"])
def test_parse_family_id_rejects(bad):
    with pytest.raises(InvalidParam):
        parse_family_id(bad)


def test_family_oracle_agreement():
    for case in ("1", "2.1", "2.2", "2.3", "3a.1", "3a.2", "3a.3", "3b.1", "3b.2"):
        assert optimal_makespan_value(named_instance(FamilyId("thm4", case)), 3) == 11
    for n in range(4, 21):
        assert optimal_makespan_value(named_instance(FamilyId("theorem2", n)), 2) == 3 * n


def test_play_theorem1_against_ls_at_100():
    transcript = play_theorem1(SchedulerId.LS, 100, 1, F(1))
    assert transcript.case == "2"
    assert transcript.final_instance.processing_times[-1] == 49
    assert transcript.trace.makespan == 98
    assert transcript.opt_makespan == 74
    assert transcript.ratio == F(49, 37)
    assert not transcript.degenerate


def test_play_theorem1_small_n_is_below_the_asymptotic_regime():
    transcript = play_theorem1(SchedulerId.LS, 6, 1, F(1))
    assert transcript.final_instance.processing_times[-1] == 2
    assert transcript.ratio == 1


def test_play_theorem1_rejects_too_short_games():
    with pytest.raises(InvalidParam):
        play_theorem1(SchedulerId.LS, 2, 1, F(1))
    with pytest.raises(InvalidParam):
        play_theorem1(SchedulerId.LS, 10, 0, F(1))
    with pytest.raises(InvalidParam):
        play_theorem1(SchedulerId.LS, 10, 1, F(0))
    # a policy bound to another machine count fails in run_policy's check
    with pytest.raises(SchedulerMachineMismatch):
        play_theorem1(SchedulerId.THREE_LA1, 10, 1, F(1))
    with pytest.raises(SchedulerMachineMismatch):
        play_theorem4(SchedulerId.TWO_LA1)


def test_play_theorem1_rejects_a_float_x():
    # Fraction(0.1) would play x = 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="x is a float; pass Fraction or int"):
        play_theorem1(SchedulerId.LS, 5, 1, 0.1)


# ratios frozen from the closed-form prefix analysis: after 3j equal jobs the
# two-machine lookahead policy holds loads (2j, j), so the final value lands
# in case 1 and the whole game is n unit jobs; LS balances and lands in case 2
THEOREM1_FLOOR = {
    SchedulerId.LS: {60: F(29, 22), 80: F(78, 59), 100: F(49, 37), 200: F(198, 149)},
    SchedulerId.TWO_LA1: {60: F(4, 3), 80: F(53, 40), 100: F(33, 25), 200: F(133, 100)},
}


@pytest.mark.parametrize("scheduler", [SchedulerId.LS, SchedulerId.TWO_LA1])
@pytest.mark.parametrize("n", [60, 80, 100, 200])
def test_play_theorem1_floor(scheduler, n):
    transcript = play_theorem1(scheduler, n, 1, F(1))
    assert transcript.ratio == THEOREM1_FLOOR[scheduler][n]
    assert transcript.ratio >= F(13, 10)


def test_play_theorem4_against_spreading_policy():
    transcript = play_theorem4(SchedulerId.LS)
    assert transcript.case == "1"
    assert transcript.final_instance.processing_times == (F(7), F(4), F(4), F(7), F(11))
    assert transcript.trace.makespan == 15
    assert transcript.opt_makespan == 11
    assert transcript.ratio == F(15, 11)


def test_play_theorem4_against_three_la1():
    # the lookahead policy isolates job 1 and pairs jobs 2 and 3, so the
    # commitment table selects the (7, 8) tail; the ratio still reaches 15/11
    transcript = play_theorem4(SchedulerId.THREE_LA1)
    assert transcript.case == "3b.1"
    assert transcript.final_instance.processing_times == (F(7), F(4), F(4), F(7), F(8))
    assert transcript.trace.makespan == 15
    assert transcript.opt_makespan == 11
    assert transcript.ratio == F(15, 11)


def test_play_theorem4_against_stacker():
    transcript = play_theorem4(Stacker())
    assert transcript.case == "1"
    assert transcript.trace.makespan == 33
    assert transcript.ratio == 3


def test_play_theorem1_against_stacker():
    transcript = play_theorem1(Stacker(), 10, 1, F(1))
    assert transcript.case == "1"
    assert transcript.ratio > 1


class NeedsTwo(Stacker):
    """Asks for two jobs of lookahead."""

    min_lookahead = 2


def test_play_theorem1_names_the_policy_lookahead_bound():
    with pytest.raises(InvalidParam, match=r"^policy needs lookahead >= 2, got k=1$"):
        play_theorem1(NeedsTwo(), 10, 1, F(1))
    with pytest.raises(InvalidParam, match=r"^lookahead must be >= 1, got 0$"):
        play_theorem1(NeedsTwo(), 10, 0, F(1))
    assert play_theorem1(NeedsTwo(), 10, 2, F(1)).case == "1"


class Scripted:
    """Places jobs 1..3 as scripted and every later job on M1."""

    scheduler_id = None
    machine_count = None
    min_lookahead = 0

    def __init__(self, *script):
        self.script = script
        self.placed = 0

    def choose(self, loads, window):
        if not any(loads):  # job 1 starts a run
            self.placed = 0
        self.placed += 1
        return self.script[self.placed - 1] if self.placed <= len(self.script) else 1


@pytest.mark.parametrize(
    "policy,case",
    [
        (SchedulerId.LS, "1"),
        (SchedulerId.THREE_LA1, "3b.1"),
        (Stacker(), "1"),
        (Scripted(1, 1, 2), "2.1"),
        (Scripted(1, 2, 1), "3a.1"),
    ],
    ids=["ls", "3la1", "stacker", "2.1", "3a.1"],
)
def test_play_theorem4_ends_on_its_named_case(policy, case):
    transcript = play_theorem4(policy)
    assert transcript.case == case
    assert transcript.final_instance == named_instance(FamilyId("thm4", case))


class Flipper:
    """Not deterministic: everything on M1 in its first run, on M2 afterwards."""

    scheduler_id = None
    machine_count = None
    min_lookahead = 0

    def __init__(self):
        self.runs = 0

    def choose(self, loads, window):
        if not any(loads):  # job 1 starts a run
            self.runs += 1
        return 1 if self.runs == 1 else 2


@pytest.mark.parametrize(
    "play", [lambda p: play_theorem1(p, 10, 1, F(1)), play_theorem4], ids=["thm1", "thm4"]
)
def test_games_reject_a_policy_whose_replay_diverges(play):
    with pytest.raises(RuntimeError, match="^policy is not deterministic: replayed prefix diverged$"):
        play(Flipper())


@pytest.mark.parametrize(
    "play",
    [
        lambda: play_theorem1(SchedulerId.LS, 20, 1, F(1)),
        lambda: play_theorem1(SchedulerId.TWO_LA1, 20, 2, F(3, 2)),
        lambda: play_theorem4(SchedulerId.THREE_LA1),
        lambda: play_theorem4(Stacker()),
    ],
)
def test_transcript_soundness(play):
    transcript = play()
    instance = transcript.final_instance
    n = len(instance)
    revealed = [record.window for record in transcript.trace.records]
    decisions = transcript.trace.decisions
    assert len(revealed) == n
    assert len(decisions) == n
    machines = max(decisions)
    loads = [F(0)] * max(machines, 2)
    for p, machine in zip(instance.processing_times, decisions):
        loads[machine - 1] += p
    assert max(loads) == transcript.trace.makespan
    assert transcript.ratio == transcript.trace.makespan / transcript.opt_makespan
    # revealed values must be the final instance's values: the adversary can
    # never rewrite something it already showed
    times = instance.processing_times
    for i, window in enumerate(revealed, 1):
        assert window.current == times[i - 1]
        assert window.future == times[i : i + len(window.future)]
    for i, window in enumerate(revealed[:-1], 1):
        assert window.future, f"window at step {i} hides the next value"


def test_enumerate_instances_examples():
    listed = [inst.processing_times for inst in enumerate_instances(2, (F(1), F(2)))]
    assert listed == [(F(1), F(1)), (F(1), F(2)), (F(2), F(1)), (F(2), F(2))]
    listed = list(enumerate_instances(3, (F(1),)))
    assert [inst.processing_times for inst in listed] == [(F(1), F(1), F(1))]
    total = sum(len(list(enumerate_instances(n, (F(1), F(2), F(3))))) for n in range(1, 8))
    assert total == 3279


def test_enumerate_instances_invalid():
    with pytest.raises(InvalidParam):
        list(enumerate_instances(0, (F(1),)))
    with pytest.raises(InvalidParam):
        list(enumerate_instances(2, ()))
    with pytest.raises(InvalidParam):
        list(enumerate_instances(2, (F(1), F(0))))


@settings(max_examples=30)
@given(
    n=st.integers(min_value=1, max_value=4),
    cut=st.integers(min_value=0, max_value=81),
)
def test_enumerate_instances_chunking(n, cut):
    values = (F(1), F(2), F(3))
    full = list(enumerate_instances(n, values))
    cut = min(cut, len(full))
    head = list(enumerate_instances(n, values, stop=cut))
    tail = list(enumerate_instances(n, values, start=cut))
    assert head + tail == full



def test_play_theorem4_is_not_a_lower_bound_against_every_policy():
    # LoadConstant reads only the loads: on this game it sends the jobs at
    # (0,0,0) and (7,0,0) to M1, at (11,0,0) and (11,4,0) to M2 and at
    # (11,11,0) to M3; so the game picks case 2.1 from the placements 1, 1, 2,
    # and every machine ends at 11 = OPT
    transcript = play_theorem4(LoadConstant())
    assert transcript.case == "2.1"
    assert transcript.final_instance.processing_times == (F(7), F(4), F(4), F(7), F(11))
    assert transcript.trace.decisions == (1, 1, 2, 2, 3)
    assert transcript.opt_makespan == 11
    assert transcript.ratio == 1
