"""The three online scheduling policies behind one deterministic interface.

Each policy is a pure function of the current machine loads and the
lookahead window of the arriving job, stored as one row of data for a single
budget-cascade rule.  A window with an empty future marks the final job,
which all policies send to a least-loaded machine.  Every run is driven on
the instance scaled to integers over the common denominator of its times, so
every load state is a tuple of ints.  Every admission inequality is
homogeneous, so a budget cascade's ``choose`` takes those integers, and each
comparison, ties included, keeps its truth value; ``_chooser`` shows any
other policy the equal Fractions.  One loop, ``_drive``, makes the
decisions: it runs the steps after a stored load state and keeps only the
loads after each step, so ``run_policy`` runs it from the start and the
verify scan resumes it where an instance stops sharing its prefix with the
one before.  It looks each (loads, revealed values) up in a move table of
loads after first, so a policy is asked each question at most once per
table.  Every time is positive, so each decision is the one machine whose
load grew.  A trace stores the decisions and the integer loads, and builds
its Fractions on read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Protocol

from .core import (
    Instance,
    InvalidParam,
    LookaheadWindow,
    Rational,
    check_machine_count,
    reject_float,
    scaled_ints,
)


class SchedulerMachineMismatch(InvalidParam):
    """Scheduler run on a machine count it does not support."""


class SchedulerId(Enum):
    LS = "ls"
    TWO_LA1 = "2la1"
    THREE_LA1 = "3la1"


@dataclass(frozen=True)
class DecisionRecord:
    """One scheduling step: what was visible, what was chosen, the loads after."""

    window: LookaheadWindow
    machine: int
    loads: tuple[Rational, ...]


@dataclass(frozen=True)
class DecisionTrace:
    """One policy run over a non-empty instance, stored as its decisions.

    It keeps the processing times and the lookahead of the run, the machine
    chosen for each job, and the final loads as integers over ``scale``, the
    lcm of the times' denominators.  ``loads``, ``makespan`` and ``records``
    are built as Fractions on each read; ``records`` replays the decisions
    through ``_drive``, so each record holds the window that was revealed at
    that step, built by the one rule, in the instance's own units.
    """

    times: tuple[Rational, ...]
    lookahead: int
    decisions: tuple[int, ...]
    scaled_loads: tuple[int, ...]
    scale: int

    @property
    def loads(self) -> tuple[Rational, ...]:
        return tuple(Fraction(load, self.scale) for load in self.scaled_loads)

    @property
    def makespan(self) -> Rational:
        return Fraction(max(self.scaled_loads), self.scale)

    @property
    def records(self) -> tuple[DecisionRecord, ...]:
        decisions, windows = iter(self.decisions), []

        def replay(loads, window):
            windows.append(window)
            return next(decisions)

        # every time is positive, so the loads grow at each step and no key
        # of the fresh move table repeats: replay sees every step
        states = [(Fraction(0),) * len(self.scaled_loads)]
        _drive(replay, {}, self.times, self.lookahead, states)
        return tuple(map(DecisionRecord, windows, self.decisions, states[1:]))


class OnlinePolicy(Protocol):
    """Deterministic choice of a machine from loads and a lookahead window.

    ``choose`` must be a pure function of (loads, window): the same loads and
    window give the same machine, whatever was asked before.  Verification
    relies on it: each worker of the scan asks ``choose`` once per distinct
    (loads, window) and reuses the answer for every instance of every
    length that reaches them again.
    """

    scheduler_id: SchedulerId | None
    machine_count: int | None
    min_lookahead: int

    def choose(self, loads: tuple[Rational, ...], window: LookaheadWindow) -> int: ...


@dataclass(eq=False)
class BudgetCascade:
    """An online policy as data: a cascade of load budgets over least-loaded.

    A job with a visible next job goes to machine j of the first budget row
    (j, a, b) with b*(l_j + p_i) <= a*(l_1 + ... + l_m + p_i + p_{i+1}),
    i.e. whose new load stays within a/b of all work known so far (ties
    admit); if no row admits it, it goes to the last machine.  Every other
    job goes to a least-loaded machine, ties to the lowest index, or to the
    highest if ``ties_high`` is set.  Every test is exact on integers and on
    Fractions alike, and homogeneous, so ``run_policy`` drives it on the
    instance scaled to integers.  Each row must be three ints j, a, b >= 1
    (a float raises TypeError), and a cascade with rows reads the next job,
    so it needs ``min_lookahead`` >= 1; ``check_policy`` rejects a row whose
    machine is past m.  Not frozen, so a tracer can wrap ``choose`` on the
    instance.
    """

    scheduler_id: SchedulerId | None
    machine_count: int | None  # None: any m >= 2
    min_lookahead: int
    budgets: tuple[tuple[int, int, int], ...] = ()
    ties_high: bool = False

    def __post_init__(self) -> None:
        for row in self.budgets:
            for value in row:
                reject_float(value, "budget row entry")
            if len(row) != 3 or not all(isinstance(value, int) and value >= 1 for value in row):
                raise InvalidParam(f"budget row {row!r} needs three ints j, a, b >= 1")
        if self.budgets and self.min_lookahead < 1:
            raise InvalidParam(f"budget rows need min_lookahead >= 1, got {self.min_lookahead}")

    def choose(self, loads: tuple[Rational, ...], window: LookaheadWindow) -> int:
        if self.budgets and window.future:
            p = window.current
            known = sum(loads) + p + window.future[0]
            for machine, a, b in self.budgets:
                if b * (loads[machine - 1] + p) <= a * known:
                    return machine
            return len(loads)
        # a plain scan, not min() with a key: it costs about half as much
        # on this per-job path
        high = self.ties_high
        best = 0
        for j in range(1, len(loads)):
            if loads[j] <= loads[best] if high else loads[j] < loads[best]:
                best = j
        return best + 1


_POLICIES: dict[SchedulerId, OnlinePolicy] = {
    policy.scheduler_id: policy
    for policy in (
        # Graham's List Scheduling: every job to a least-loaded machine
        BudgetCascade(SchedulerId.LS, None, 0),
        # M1 within 2/3 of the known work, else M2; the final job ties to M2,
        # so that n equal jobs always leave exactly floor(2n/3) of them on M1
        BudgetCascade(SchedulerId.TWO_LA1, 2, 1, ((1, 2, 3),), ties_high=True),
        # M1 within 16/33, then M2 within 15/33, else M3
        BudgetCascade(SchedulerId.THREE_LA1, 3, 1, ((1, 16, 33), (2, 15, 33))),
    )
}


def policy_for(policy: SchedulerId | OnlinePolicy) -> OnlinePolicy:
    """The built-in policy of a SchedulerId; any other policy is returned as is."""
    if isinstance(policy, SchedulerId):
        return _POLICIES[policy]
    return policy


def policy_name(policy: OnlinePolicy) -> str:
    """The name printed for a policy: its SchedulerId's value, else "policy"."""
    return policy.scheduler_id.value if policy.scheduler_id is not None else "policy"


def check_policy(policy: OnlinePolicy, m: int, k: int) -> None:
    """Raise unless the policy can run on m machines with k-lookahead."""
    check_machine_count(m)
    name = policy_name(policy)
    if policy.machine_count is not None and policy.machine_count != m:
        raise SchedulerMachineMismatch(f"{name} requires m={policy.machine_count}, got m={m}")
    if k < policy.min_lookahead:
        raise InvalidParam(f"{name} needs lookahead >= {policy.min_lookahead}, got k={k}")
    if isinstance(policy, BudgetCascade) and any(row[0] > m for row in policy.budgets):
        raise InvalidParam(f"{name} has a budget row for a machine past m={m}")


def _chooser(policy: OnlinePolicy, scale: int):
    """The policy's ``choose`` on integer loads and windows over scale.

    A ``BudgetCascade`` takes the integers: its tests do not depend on the
    unit, so scaling by values not yet revealed cannot change its choice.
    Any other policy is shown the equal Fractions, where its constants mean
    what they say.
    """
    choose = policy.choose
    if isinstance(policy, BudgetCascade):
        return choose

    def shown(loads: tuple[int, ...], window: LookaheadWindow) -> int:
        current, *future = (Fraction(p, scale) for p in (window.current, *window.future))
        return choose(tuple(Fraction(x, scale) for x in loads), LookaheadWindow(current, tuple(future)))

    return shown


def _drive(choose, moves: dict, units: tuple, lookahead: int, states: list, step: int = 0) -> None:
    """Run steps step + 1..n of a ``_chooser`` over units, from the loads after step.

    ``states[i]`` holds the integer loads after step i (``states[0]`` the
    empty machines); it is cut back to step and extended to n.  Decision i
    depends only on the first i + lookahead values, so a run over values
    that share their first d with the stored run's may resume at step
    max(0, d - lookahead).  Every unit is positive, so the machine of job i
    is the one whose load differs between ``states[i - 1]`` and
    ``states[i]``.

    ``moves`` is the move table: it maps (loads, revealed values) to the
    loads after, the very tuple that ``states`` stores.  A step whose key
    is in it makes no ``choose`` call and builds no window; a new key asks
    ``choose`` once.  ``choose`` is a pure function of loads and window, so
    an entry holds for every run whose units share one scale.  ``_drive`` is
    the one place that builds a window, for every run and every trace's
    records.
    """
    del states[step + 1 :]
    loads = states[step]
    for i in range(step, len(units)):
        # job i + 1 reveals its own value and the next lookahead ones
        revealed = units[i : i + 1 + lookahead]
        key = loads, revealed
        after = moves.get(key)
        if after is None:
            machine = choose(loads, LookaheadWindow(revealed[0], revealed[1:]))
            after = list(loads)
            after[machine - 1] += revealed[0]
            after = moves[key] = tuple(after)
        states.append(after)
        loads = after


def run_policy(
    instance: Instance, policy: OnlinePolicy, machine_count: int, lookahead: int
) -> DecisionTrace:
    """Drive a policy over an instance under the revelation contract.

    The policy only ever sees the loads and the k-lookahead window of the
    arriving job; the trace replays exactly that, so tests can check it.
    A lookahead of 0 (the LS baseline) gives every window an empty future.
    The instance is scaled to integers once, and the policy sees what
    ``_chooser`` shows it.  Each decision is read off a pair of stored
    states.
    """
    check_policy(policy, machine_count, lookahead)
    times = instance.processing_times
    ints, scale = scaled_ints(times)
    states = [(0,) * machine_count]
    _drive(_chooser(policy, scale), {}, tuple(ints), lookahead, states)
    # every time is positive: job i went to the one machine whose load grew
    steps = zip(states, states[1:])
    decisions = tuple([old != new for old, new in zip(*step)].index(True) + 1 for step in steps)
    return DecisionTrace(times, lookahead, decisions, states[-1], scale)


def ls_schedule(instance: Instance, machine_count: int) -> DecisionTrace:
    """List Scheduling on any m >= 2; ties go to the lowest machine index."""
    return run_policy(instance, _POLICIES[SchedulerId.LS], machine_count, 0)


def two_la1_schedule(instance: Instance) -> DecisionTrace:
    """The two-machine lookahead policy (m fixed at 2, k fixed at 1)."""
    return run_policy(instance, _POLICIES[SchedulerId.TWO_LA1], 2, 1)


def three_la1_schedule(instance: Instance) -> DecisionTrace:
    """The three-machine lookahead policy (m fixed at 3, k fixed at 1)."""
    return run_policy(instance, _POLICIES[SchedulerId.THREE_LA1], 3, 1)
