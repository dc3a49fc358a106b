"""The three online scheduling policies behind one deterministic interface.

Each policy is a pure function of the current machine loads and the
lookahead window of the arriving job, stored as one row of data for a
single budget-cascade rule.  A window with an empty future marks the final
job, which all policies send to a least-loaded machine; every admission
inequality is evaluated by integer cross-multiplication so that the
equality cases admit exactly.
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


@dataclass(eq=False)
class BudgetCascade:
    """An online policy as data: a cascade of load budgets over least-loaded.

    A job with a visible next job goes to machine j of the first budget row
    (j, a, b) with b*(l_j + p_i) <= a*(l_1 + ... + l_m + p_i + p_{i+1}),
    i.e. whose new load stays within a/b of all work known so far (ties
    admit); if no row admits it, it goes to the last machine.  Every other
    job goes to a least-loaded machine, ties to the lowest index, or to the
    highest if ``ties_high`` is set.  Not frozen, so a tracer can wrap
    ``choose`` on the instance.
    """

    scheduler_id: SchedulerId | None
    machine_count: int | None  # None: any m >= 2
    min_lookahead: int
    budgets: tuple[tuple[int, int, int], ...] = ()
    ties_high: bool = False

    def choose(self, loads: tuple[Rational, ...], window: LookaheadWindow) -> int:
        if self.budgets and window.future:
            p = window.current
            known = sum(loads, p + window.future[0])
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
