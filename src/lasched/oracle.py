"""Exact optimal offline makespan, the classic lower bound, and ratios.

The oracle scales all processing times to integers by the LCM of their
denominators.  One search gives the value and witness of every m >= 2, with
no scaled-total cap: it probes the lower bound max(p_max, ceil(T/m)), bisects
up to the LPT makespan, and under each cap runs a depth-first search that
tries machine 1 first, so the probe at the optimal cap returns the witness.
The value paths are unchanged: a subset-sum bitset for m = 2 and, for every
m >= 3, a layered reachable-load DP over load tuples, each kept sorted
because the machines are identical.  Sending the m >= 3 value through the
search waits for the benchmark fix of ROADMAP item 1.  A pure m^n brute
force is the independent oracle both paths are tested against.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import Instance, Rational, SchedulingError, check_machine_count

DEFAULT_SCALED_TOTAL_CAP = 20_000
DEFAULT_STATE_CAP = 5_000_000
EXHAUSTIVE_MAX_JOBS = 12


class CapacityExceeded(SchedulingError):
    """A DP table or the brute-force space would exceed its size bound.

    The m = 2 value bitset is bounded by the scaled total work and the brute
    force by the job count.  For m >= 3 ``state_cap`` bounds the value path's
    DP by the load tuples of all its layers together.  For every m >= 2 it
    bounds the witness search by the dead-end load tuples it stores, summed
    over every cap it probes; that search has no scaled-total cap.  Raised
    instead of ever degrading accuracy; shrink the instance or raise the
    caps.
    """


class ZeroOpt(SchedulingError):
    """Competitive ratio against a zero optimum is undefined."""


@dataclass(frozen=True)
class OptResult:
    makespan: Rational
    witness_assignment: dict[int, int]


def _scaled_ints(instance: Instance) -> tuple[list[int], int]:
    """Scale processing times to integers; returns (ints, scale)."""
    times = instance.processing_times
    scale = math.lcm(*(p.denominator for p in times))
    return [int(p * scale) for p in times], scale


def _dp_two(ints: list[int], cap: int) -> int:
    """Best makespan from the reachable M1 loads, kept as one bitset."""
    total = sum(ints)
    if total > cap:
        raise CapacityExceeded(
            f"scaled total {total} exceeds cap {cap}; use smaller values or raise the cap"
        )
    reach = 1  # bit s set <=> load s on M1 is reachable
    for a in ints:
        reach |= reach << a
    return min(max(s, total - s) for s in range(total + 1) if reach >> s & 1)


def _children(loads: tuple[int, ...], a: int) -> list[tuple[int, ...]]:
    """Sorted loads after placing a job of size a; of equal loads only the first gets it."""
    children = []
    for j, load in enumerate(loads):
        if j == 0 or load != loads[j - 1]:
            k = bisect_left(loads, load + a, j + 1)
            children.append(loads[:j] + loads[j + 1 : k] + (load + a,) + loads[k:])
    return children


def _dp_sorted(ints: list[int], m: int, state_cap: int) -> int:
    """Minimum top load over every reachable ascending load tuple, one layer at a time."""
    check_machine_count(m)
    layer = {(0,) * m}
    stored = 1
    for a in ints:
        nxt = set()
        for loads in layer:
            nxt.update(_children(loads, a))
        stored += len(nxt)
        if stored > state_cap:
            raise CapacityExceeded(
                f"DP table grew past {state_cap} states; use smaller values or raise the cap"
            )
        layer = nxt
    return min(loads[-1] for loads in layer)


def _lpt_makespan(ints: list[int], m: int) -> int:
    """Makespan of Longest Processing Time first: a real schedule, so a feasible cap."""
    loads = [0] * m
    for a in sorted(ints, reverse=True):
        heapq.heapreplace(loads, loads[0] + a)
    return max(loads)


def _witness_search(ints: list[int], m: int, state_cap: int) -> tuple[int, list[int]]:
    """Smallest feasible cap between the lower bound and LPT, and its smallest witness."""
    check_machine_count(m)
    unit = math.gcd(*ints)
    ints = [a // unit for a in ints]
    n = len(ints)
    stored = 0

    def probe(cap: int) -> list[int] | None:
        """The lexicographically smallest assignment with no load above cap, if any.

        An iterative depth-first search over labelled loads that tries machine 1
        first, so the job count is not bounded by the recursion limit.  Whether
        jobs i.. still fit depends only on the sorted loads, whose sum fixes i
        because jobs are positive, so every sorted tuple whose subtree failed
        goes into one dead-end set.
        """
        nonlocal stored
        dead: set[tuple[int, ...]] = set()
        loads = [0] * m
        machines: list[int] = []
        j = 0  # the next machine to try for job len(machines)
        while len(machines) < n:
            a = ints[len(machines)]
            while j < m:
                loads[j] += a
                if loads[j] <= cap and tuple(sorted(loads)) not in dead:
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
                    f"DP table grew past {state_cap} states; use smaller values or raise the cap"
                )
            if not machines:
                return None
            j = machines.pop()
            loads[j] -= ints[len(machines)]
            j += 1
        return [j + 1 for j in machines]

    # probe the lower bound first; if it fails, bisect up to LPT, with every
    # cap <= low infeasible and high feasible
    cap = max(max(ints), -(-sum(ints) // m))
    low, high = cap - 1, _lpt_makespan(ints, m)
    while True:
        machines = probe(cap)
        if machines is None:
            low = cap
        elif cap == low + 1:
            return cap * unit, machines
        else:
            high = cap
        cap = (low + high + 1) // 2


def exhaustive_optimal_makespan(instance: Instance, machine_count: int) -> OptResult:
    """Brute force over all m^n assignments, in lexicographic order.

    Deliberately free of the DP's scaling and reachability machinery so it
    can serve as an independent oracle.  Only strict improvements replace the
    incumbent, so the returned witness is the lexicographically smallest
    optimum.
    """
    check_machine_count(machine_count)
    n = len(instance)
    if n > EXHAUSTIVE_MAX_JOBS:
        raise CapacityExceeded(
            f"exhaustive search supports n <= {EXHAUSTIVE_MAX_JOBS}, got {n}"
        )
    times = instance.processing_times
    best: Rational | None = None
    best_combo: tuple[int, ...] | None = None
    for combo in product(range(1, machine_count + 1), repeat=n):
        loads = [Fraction(0)] * machine_count
        for p, machine in zip(times, combo):
            loads[machine - 1] += p
        cost = max(loads)
        if best is None or cost < best:
            best, best_combo = cost, combo
    assert best is not None and best_combo is not None
    return OptResult(best, {i: m for i, m in enumerate(best_combo, 1)})


def optimal_makespan_value(
    instance: Instance,
    machine_count: int,
    *,
    scaled_total_cap: int = DEFAULT_SCALED_TOTAL_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Rational:
    """Exact minimum makespan without witness reconstruction (fast path)."""
    ints, scale = _scaled_ints(instance)
    if machine_count == 2:
        best = _dp_two(ints, scaled_total_cap)
    else:
        best = _dp_sorted(ints, machine_count, state_cap)
    return Fraction(best, scale)


def optimal_makespan(
    instance: Instance, machine_count: int, *, state_cap: int = DEFAULT_STATE_CAP
) -> OptResult:
    """Exact minimum makespan over all assignments, plus one witness.

    One search serves every m >= 2, on the processing times scaled to
    integers and divided by their gcd, with no scaled-total cap.  It probes
    the lower bound max(p_max, ceil(T/m)) first, then bisects up to the LPT
    makespan; each probe is a depth-first search over labelled loads that
    tries machine 1 first and never lets a load exceed the cap.  Dead-end
    load tuples over all probes are bounded by ``state_cap``.  The search
    does not recurse per job, so instances of thousands of jobs are fine.
    ``optimal_makespan_value`` keeps its own value paths unchanged; moving
    its m >= 3 DP onto this search waits for ROADMAP item 1's benchmark fix.
    The first assignment the probe at the optimal cap reaches is the
    lexicographically smallest optimal one, the same witness
    ``exhaustive_optimal_makespan`` returns.
    """
    ints, scale = _scaled_ints(instance)
    best, machines = _witness_search(ints, machine_count, state_cap)
    return OptResult(Fraction(best, scale), {i: m for i, m in enumerate(machines, 1)})


def opt_lower_bound(instance: Instance, machine_count: int) -> Rational:
    """max(largest job, total work / m): no schedule can beat either term."""
    check_machine_count(machine_count)
    return max(instance.max_time, instance.total_time / machine_count)


def competitive_ratio(alg_makespan: Rational, opt_makespan: Rational) -> Rational:
    """Exact ratio of an algorithm's makespan to the optimum (no additive slack)."""
    if opt_makespan <= 0:
        raise ZeroOpt(f"optimal makespan must be positive, got {opt_makespan}")
    return Fraction(alg_makespan) / opt_makespan
