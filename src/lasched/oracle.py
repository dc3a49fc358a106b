"""Exact optimal offline makespan, the classic lower bound, and ratios.

The oracle scales all processing times to integers by the LCM of their
denominators (``core.scaled_ints``) and divides them by their gcd, on both
the value and the witness path.  One search gives the value and witness
of every m >= 2.  At m = 2 it takes the optimum from the value bitset and
probes only there; for m >= 3, or if the bitset would pass ``state_cap``, it
probes the lower bound ``_lower_bound``, max(p_max, ceil(T/m), p_(m) +
p_(m+1)) (Dell'Amico and Martello, ORSA J. Computing 1995), which the verify
scan shares, and, only if that fails, computes the LPT makespan and bisects
up to it.  Under each cap a depth-first search tries machine 1 first; the
last probe gives the witness.  The search cuts a child whose loads break
the cap, whose sorted loads are a known dead end, or whose wasted room
exceeds the slack m*cap - T: the wasted-space bound of bin-packing branch
and bound (Martello and Toth, Knapsack Problems, 1990, ch. 8), where room
below the smallest job still to come is wasted.
Waste is at most m*(p - 1) for that smallest job p, so the check runs only
at depths where that exceeds the slack, and unit jobs skip it.  The value
paths run one table first, a subset-sum bitset for m = 2 and, for every
m >= 3, a layered reachable-load DP over load tuples, each kept sorted
because the machines are identical; past ``state_cap`` every value path
falls back to the search, so it answers whatever the witness path answers.
Dropping the m >= 3 table for the search waits for the benchmark fix of
ROADMAP item 1.  Every table and the search's dead ends are bounded by
``state_cap``.  The tests check both paths against a pure m^n brute force.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .core import Instance, Rational, SchedulingError, check_machine_count, reject_float, scaled_ints

DEFAULT_STATE_CAP = 5_000_000


class CapacityExceeded(SchedulingError):
    """The value tables and the witness search would all pass ``state_cap``.

    The m = 2 value bitset counts its bits over all its layers, one bit per
    M1 load from 0 to the work shifted in so far; the m >= 3 value DP counts
    the load tuples of all its layers together.  Past either table's cap the
    value path falls back to the witness search instead of raising, and so
    does the m = 2 witness path past the bitset's.  For every m >= 2 the
    witness search counts the dead-end load tuples it stores, summed over
    every cap it probes; children cut by the cap or by the wasted-room bound
    are never stored.  Raised only once the search passes the cap too,
    instead of ever degrading accuracy; shrink the instance or raise the cap.
    """


class ZeroOpt(SchedulingError):
    """Competitive ratio against a zero optimum is undefined."""


@dataclass(frozen=True)
class OptResult:
    makespan: Rational
    witness_assignment: dict[int, int]


def _dp_two(ints: list[int], state_cap: int) -> int | None:
    """Best makespan from the reachable M1 loads, kept as one bitset.

    A run of c jobs of time a is shifted in as the parts a, 2a, 4a, ... and
    a remainder, whose subset sums are exactly the multiples 0..c of a, so
    the run costs O(log c) shifts.  Parts go smallest first.  After each
    part the bitset has one bit per M1 load from 0 to the work so far;
    ``state_cap`` bounds these bits over all layers together, so it bounds
    the shift work, not only the final width, and past it the answer is None.
    """
    ints = sorted(ints)
    parts = []
    i = 0
    while i < len(ints):
        a = ints[i]
        j = bisect_right(ints, a, i)
        c, k = j - i, 1
        while k <= c:
            parts.append(a * k)
            c -= k
            k *= 2
        if c:
            parts.append(a * c)
        i = j
    parts.sort()
    if sum(accumulate(parts, initial=1)) > state_cap:
        return None
    reach = 1  # bit s set <=> load s on M1 is reachable
    for a in parts:
        reach |= reach << a
    # the loads are symmetric (s reachable <=> total - s reachable), so the
    # best split is the largest reachable M1 load not above total // 2
    total = sum(parts)
    half = reach & ((1 << (total // 2 + 1)) - 1)
    return total - (half.bit_length() - 1)


def _children(loads: tuple[int, ...], a: int) -> list[tuple[int, ...]]:
    """Sorted loads after placing a job of size a; of equal loads only the first gets it."""
    children = []
    for j, load in enumerate(loads):
        if j == 0 or load != loads[j - 1]:
            k = bisect_left(loads, load + a, j + 1)
            children.append(loads[:j] + loads[j + 1 : k] + (load + a,) + loads[k:])
    return children


def _dp_sorted(ints: list[int], m: int, state_cap: int) -> int | None:
    """Least top load over all reachable ascending load tuples, layer by layer; None past the cap."""
    check_machine_count(m)
    layer = {(0,) * m}
    stored = 1
    for a in ints:
        nxt = set()
        for loads in layer:
            nxt.update(_children(loads, a))
        stored += len(nxt)
        if stored > state_cap:
            return None
        layer = nxt
    return min(loads[-1] for loads in layer)


def _lpt_makespan(ints: list[int], m: int) -> int:
    """Makespan of Longest Processing Time first: a real schedule, so a feasible cap."""
    loads = [0] * m
    for a in sorted(ints, reverse=True):
        heapq.heapreplace(loads, loads[0] + a)
    return max(loads)


def _lower_bound(ints: list[int], m: int) -> int:
    """max(p_max, ceil(T/m), p_(m) + p_(m+1)) of ascending positive integers,
    where p_(j) is the j-th largest: OPT is an integer at least this (two of
    the m + 1 largest jobs share a machine)."""
    bound = max(ints[-1], -(-sum(ints) // m))
    if len(ints) > m:
        bound = max(bound, ints[-m] + ints[-m - 1])
    return bound


def _witness_search(
    ints: list[int], m: int, state_cap: int, optimum: int | None = None
) -> tuple[int, list[int]]:
    """Smallest feasible cap between the lower bound and LPT, and its smallest witness.

    A known ``optimum`` is probed first in place of the lower bound.
    """
    check_machine_count(m)
    n = len(ints)
    total = sum(ints)
    # after[i]: the smallest job after job i (0 after the last); nondecreasing
    # on 0..n-2, so the depths where the wasted-room bound can fire form a tail
    after = list(accumulate(reversed(ints), min))[-2::-1] + [0]
    stored = 0

    def probe(cap: int) -> list[int] | None:
        """The lexicographically smallest assignment with no load above cap, if any.

        An iterative depth-first search over labelled loads that tries machine 1
        first, so the job count is not bounded by the recursion limit.  Whether
        jobs i.. still fit depends only on the sorted loads, whose sum fixes i
        because jobs are positive, so every sorted tuple whose subtree failed
        goes into one dead-end set.  A child whose wasted room exceeds the
        slack is cut like one that breaks the cap: the later jobs cannot fit.
        """
        nonlocal stored
        dead: set[tuple[int, ...]] = set()
        slack = m * cap - total
        # from depth first on, m*(after[i] - 1) > slack, so waste can exceed the
        # slack (at the last depth after[i] is 0 and nothing is wasted)
        first = bisect_right(after, slack // m + 1, 0, n - 1)
        loads = [0] * m
        machines: list[int] = []
        j = 0  # the next machine to try for job len(machines)
        while len(machines) < n:
            i = len(machines)
            a = ints[i]
            full = cap - after[i]  # a load above this wastes its room
            while j < m:
                loads[j] += a
                if (
                    loads[j] <= cap
                    and (i < first or sum([cap - load for load in loads if load > full]) <= slack)
                    and not (dead and tuple(sorted(loads)) in dead)
                ):
                    break
                loads[j] -= a
                j += 1
            if j < m:
                machines.append(j)
                j = 0
                continue
            dead.add(tuple(sorted(loads)))
            stored += 1
            if stored > state_cap:
                raise CapacityExceeded(
                    f"the search's dead ends grew past {state_cap} states; use smaller values or a larger cap"
                )
            if not machines:
                return None
            j = machines.pop()
            loads[j] -= ints[len(machines)]
            j += 1
        return [j + 1 for j in machines]

    # given the optimum, one probe finds the witness; otherwise probe the
    # lower bound first; only if it fails, bisect up to LPT, with every cap
    # <= low infeasible and high feasible, best its witness if probed; the
    # LPT cap itself is probed only if no lower cap is feasible
    low = optimum or _lower_bound(sorted(ints), m)
    machines = probe(low)
    if machines is not None:
        return low, machines
    high = _lpt_makespan(ints, m)
    best = None
    while high - low > 1:
        cap = (low + high + 1) // 2
        machines = probe(cap)
        if machines is None:
            low = cap
        else:
            high, best = cap, machines
    if best is None:
        best = probe(high)
    return high, best


def _coprime_ints(instance: Instance) -> tuple[list[int], int, int]:
    """The processing times as integers with gcd 1, plus unit and scale: p_i = ints[i]*unit/scale."""
    ints, scale = scaled_ints(instance.processing_times)
    unit = math.gcd(*ints)
    if unit > 1:
        ints = [a // unit for a in ints]
    return ints, unit, scale


def optimal_makespan_value(
    instance: Instance, machine_count: int, *, state_cap: int = DEFAULT_STATE_CAP
) -> Rational:
    """Exact minimum makespan without witness reconstruction (fast path).

    The subset-sum bitset (m = 2) or the sorted-tuple DP (m >= 3) answers;
    if it would pass ``state_cap``, the witness search does, starting with
    its lower-bound probe, so at every m the value path answers the same
    instances as ``optimal_makespan``.
    """
    ints, unit, scale = _coprime_ints(instance)
    best = _dp_two(ints, state_cap) if machine_count == 2 else _dp_sorted(ints, machine_count, state_cap)
    if best is None:
        best = _witness_search(ints, machine_count, state_cap)[0]
    return Fraction(best * unit, scale)


def optimal_makespan(
    instance: Instance, machine_count: int, *, state_cap: int = DEFAULT_STATE_CAP
) -> OptResult:
    """Exact minimum makespan over all assignments, plus one witness.

    One search serves every m >= 2, on the processing times scaled to
    integers and divided by their gcd.  At m = 2 it takes the optimum from
    the subset-sum bitset of ``optimal_makespan_value`` and probes only that
    cap.  For m >= 3, or when that bitset would pass ``state_cap``, it probes
    the lower bound max(p_max, ceil(T/m), p_(m) + p_(m+1)) first (two of the
    m + 1 largest jobs share a machine); only if that fails does it
    compute the LPT makespan and bisect up to it.  Each probe is a
    depth-first search over labelled loads that tries machine 1 first and
    never lets a load exceed the cap.  It also cuts a child once the room
    wasted on machines too full for the smallest job still to come exceeds
    the slack m*cap - T; that check is skipped at depths where the waste, at
    most m*(p - 1) for that job p, cannot exceed the slack.  Both cuts drop
    only subtrees with no feasible completion.  Dead-end load tuples over all
    probes are bounded by ``state_cap``.  The search does not recurse per
    job, so instances of thousands of jobs are fine.
    ``optimal_makespan_value`` runs its own table first and, at every m,
    falls back to this search past ``state_cap``; dropping its m >= 3 DP for
    the search waits for ROADMAP item 1's benchmark fix.  The first
    assignment the probe at the optimal cap reaches is the lexicographically
    smallest optimal one, the same witness a brute force over all m^n
    assignments in lexicographic order returns.
    """
    ints, unit, scale = _coprime_ints(instance)
    optimum = _dp_two(ints, state_cap) if machine_count == 2 else None
    best, machines = _witness_search(ints, machine_count, state_cap, optimum)
    return OptResult(Fraction(best * unit, scale), {i: m for i, m in enumerate(machines, 1)})


def opt_lower_bound(instance: Instance, machine_count: int) -> Rational:
    """max(largest job, total work / m): no schedule can beat either term.

    This is the classic two-term bound that ``lasched oracle`` prints; the
    search's first probe, ``_lower_bound``, adds the term p_(m) + p_(m+1).
    """
    check_machine_count(machine_count)
    return max(instance.max_time, instance.total_time / machine_count)


def competitive_ratio(alg_makespan: Rational, opt_makespan: Rational) -> Rational:
    """Exact ratio of an algorithm's makespan to the optimum (no additive slack)."""
    reject_float(alg_makespan, "ALG makespan")
    reject_float(opt_makespan, "OPT makespan")
    if opt_makespan <= 0:
        raise ZeroOpt(f"optimal makespan must be positive, got {opt_makespan}")
    return Fraction(alg_makespan) / opt_makespan
