"""The three online scheduling policies behind one deterministic interface.

Each policy is a pure function of the current machine loads and the
lookahead window of the arriving job.  A window with an empty future marks
the final job, which all policies send to a least-loaded machine; every
admission inequality is evaluated by integer cross-multiplication so that
the equality cases admit exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Protocol

from .core import Instance, InvalidParam, LookaheadWindow, Rational, check_machine_count


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
    """One policy run over a non-empty instance: a record per job, in order."""

    records: tuple[DecisionRecord, ...]

    @property
    def decisions(self) -> tuple[int, ...]:
        return tuple(record.machine for record in self.records)

    @property
    def loads(self) -> tuple[Rational, ...]:
        return self.records[-1].loads

    @property
    def makespan(self) -> Rational:
        return max(self.loads)


class OnlinePolicy(Protocol):
    """Deterministic choice of a machine from loads and a lookahead window."""

    scheduler_id: SchedulerId | None
    machine_count: int | None
    min_lookahead: int

    def choose(self, loads: tuple[Rational, ...], window: LookaheadWindow) -> int: ...


def two_la1_admit(l1: Rational, l2: Rational, p_i: Rational, p_next: Rational) -> bool:
    """Admit the arriving job to the first machine if its new load stays
    within two thirds of all work known so far (ties admit)."""
    return 3 * (l1 + p_i) <= 2 * (l1 + l2 + p_i + p_next)


def three_la1_admit(
    l1: Rational, l2: Rational, l3: Rational, p_i: Rational, p_next: Rational
) -> int:
    """Pick a machine on the 16/33-then-15/33 budget cascade; M3 is the overflow."""
    known = l1 + l2 + l3 + p_i + p_next
    if 33 * (l1 + p_i) <= 16 * known:
        return 1
    if 33 * (l2 + p_i) <= 15 * known:
        return 2
    return 3


class ListScheduling:
    """Graham's rule: each job to a currently least-loaded machine."""

    scheduler_id = SchedulerId.LS
    machine_count = None  # any m >= 2
    min_lookahead = 0

    def choose(self, loads: tuple[Rational, ...], window: LookaheadWindow) -> int:
        # min() keeps the first minimum, i.e. the lowest machine index
        return min(range(len(loads)), key=loads.__getitem__) + 1


class TwoMachineLookahead:
    """Two-machine policy with one job of lookahead."""

    scheduler_id = SchedulerId.TWO_LA1
    machine_count = 2
    min_lookahead = 1

    def choose(self, loads: tuple[Rational, ...], window: LookaheadWindow) -> int:
        l1, l2 = loads
        if window.future:
            return 1 if two_la1_admit(l1, l2, window.current, window.future[0]) else 2
        # final job: least-loaded machine, ties to M2, so that a sequence of
        # n equal jobs always leaves exactly floor(2n/3) of them on M1
        return 1 if l1 < l2 else 2


class ThreeMachineLookahead:
    """Three-machine policy with one job of lookahead."""

    scheduler_id = SchedulerId.THREE_LA1
    machine_count = 3
    min_lookahead = 1

    def choose(self, loads: tuple[Rational, ...], window: LookaheadWindow) -> int:
        if window.future:
            return three_la1_admit(loads[0], loads[1], loads[2], window.current, window.future[0])
        return min(range(3), key=loads.__getitem__) + 1


_POLICIES: dict[SchedulerId, OnlinePolicy] = {
    SchedulerId.LS: ListScheduling(),
    SchedulerId.TWO_LA1: TwoMachineLookahead(),
    SchedulerId.THREE_LA1: ThreeMachineLookahead(),
}


def policy_for(scheduler: SchedulerId) -> OnlinePolicy:
    return _POLICIES[scheduler]


def check_policy(policy: OnlinePolicy, m: int, k: int) -> None:
    """Raise unless the policy can run on m machines with k-lookahead."""
    check_machine_count(m)
    name = policy.scheduler_id.value if policy.scheduler_id is not None else "policy"
    if policy.machine_count is not None and policy.machine_count != m:
        raise SchedulerMachineMismatch(f"{name} requires m={policy.machine_count}, got m={m}")
    if k < policy.min_lookahead:
        raise InvalidParam(f"{name} needs lookahead >= {policy.min_lookahead}, got k={k}")


def run_policy(
    instance: Instance, policy: OnlinePolicy, machine_count: int, lookahead: int
) -> DecisionTrace:
    """Drive a policy over an instance under the revelation contract.

    The policy only ever sees the loads and the k-lookahead window of the
    arriving job; the trace records exactly that, so tests can replay it.
    A lookahead of 0 (the LS baseline) gives every window an empty future.
    """
    check_policy(policy, machine_count, lookahead)
    times = instance.processing_times
    loads = [Fraction(0)] * machine_count
    records = []
    for i, p in enumerate(times, 1):
        window = LookaheadWindow(p, times[i : i + lookahead])
        machine = policy.choose(tuple(loads), window)
        loads[machine - 1] += p
        records.append(DecisionRecord(window, machine, tuple(loads)))
    return DecisionTrace(tuple(records))


def ls_schedule(instance: Instance, machine_count: int) -> DecisionTrace:
    """List Scheduling on any m >= 2; ties go to the lowest machine index."""
    return run_policy(instance, _POLICIES[SchedulerId.LS], machine_count, 0)


def two_la1_schedule(instance: Instance) -> DecisionTrace:
    """The two-machine lookahead policy (m fixed at 2, k fixed at 1)."""
    return run_policy(instance, _POLICIES[SchedulerId.TWO_LA1], 2, 1)


def three_la1_schedule(instance: Instance) -> DecisionTrace:
    """The three-machine lookahead policy (m fixed at 3, k fixed at 1)."""
    return run_policy(instance, _POLICIES[SchedulerId.THREE_LA1], 3, 1)
