"""Exact optimal offline makespan, the classic lower bound, and ratios.

The optimised paths scale all processing times to integers by the LCM of
their denominators and run reachable-load dynamic programs: a subset-sum
bitset for two machines, a reachable (l1, l2) pair set for three.  A pure
m^n brute force doubles as the fallback for other machine counts and as the
independent oracle the dynamic programs are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import Instance, Rational, SchedulingError, check_machine_count

DEFAULT_SCALED_TOTAL_CAP = 20_000
DEFAULT_STATE_CAP = 5_000_000
EXHAUSTIVE_MAX_JOBS = 12


class CapacityExceeded(SchedulingError):
    """The scaled DP table (or brute-force space) would exceed its size bound.

    Raised instead of ever degrading accuracy; callers should shrink the
    instance or raise the caps explicitly.
    """


class ZeroOpt(SchedulingError):
    """Competitive ratio against a zero optimum is undefined."""


@dataclass(frozen=True)
class OptResult:
    makespan: Rational
    witness_assignment: dict[int, int]


def _scaled_ints(instance: Instance, cap: int) -> tuple[list[int], int]:
    """Scale processing times to integers; returns (ints, scale)."""
    times = instance.processing_times
    scale = math.lcm(*(p.denominator for p in times))
    ints = [int(p * scale) for p in times]
    total = sum(ints)
    if total > cap:
        raise CapacityExceeded(
            f"scaled total {total} exceeds cap {cap}; use smaller values or raise the cap"
        )
    return ints, scale


def _dp_two(ints: list[int]) -> tuple[int, list[int]]:
    """Reachable M1 loads after each job, as bitsets; returns (best, layers)."""
    layers = [1]  # bit s set <=> load s on M1 is reachable
    reach = 1
    for a in ints:
        reach |= reach << a
        layers.append(reach)
    total = sum(ints)
    best = min(max(s, total - s) for s in range(total + 1) if reach >> s & 1)
    return best, layers


def _witness_two(ints: list[int], best: int, layers: list[int]) -> list[int]:
    total = sum(ints)
    goal = 0
    for s in range(total + 1):
        if layers[-1] >> s & 1 and max(s, total - s) == best:
            goal |= 1 << s
    goods = [goal]
    for i in range(len(ints) - 1, -1, -1):
        a = ints[i]
        goods.append(layers[i] & ((goods[-1] >> a) | goods[-1]))
    goods.reverse()
    machines = []
    s = 0
    for i, a in enumerate(ints):
        # prefer M1 whenever it still leads to an optimal completion: this
        # walk yields the lexicographically smallest optimal witness
        if goods[i + 1] >> (s + a) & 1:
            machines.append(1)
            s += a
        else:
            machines.append(2)
    return machines


def _dp_three(ints: list[int], state_cap: int) -> tuple[int, list[set[tuple[int, int]]]]:
    """Reachable (l1, l2) pairs after each job; l3 is the prefix sum remainder."""
    layers: list[set[tuple[int, int]]] = [{(0, 0)}]
    stored = 1
    for a in ints:
        nxt = set()
        for l1, l2 in layers[-1]:
            nxt.add((l1 + a, l2))
            nxt.add((l1, l2 + a))
            nxt.add((l1, l2))
        stored += len(nxt)
        if stored > state_cap:
            raise CapacityExceeded(
                f"DP table grew past {state_cap} states; use smaller values or raise the cap"
            )
        layers.append(nxt)
    total = sum(ints)
    best = min(max(l1, l2, total - l1 - l2) for l1, l2 in layers[-1])
    return best, layers


def _witness_three(
    ints: list[int], best: int, layers: list[set[tuple[int, int]]]
) -> list[int]:
    total = sum(ints)
    goods = [
        {
            (l1, l2)
            for l1, l2 in layers[-1]
            if max(l1, l2, total - l1 - l2) == best
        }
    ]
    for i in range(len(ints) - 1, -1, -1):
        a = ints[i]
        nxt = goods[-1]
        goods.append(
            {
                (l1, l2)
                for l1, l2 in layers[i]
                if (l1 + a, l2) in nxt or (l1, l2 + a) in nxt or (l1, l2) in nxt
            }
        )
    goods.reverse()
    machines = []
    l1 = l2 = 0
    for i, a in enumerate(ints):
        if (l1 + a, l2) in goods[i + 1]:
            machines.append(1)
            l1 += a
        elif (l1, l2 + a) in goods[i + 1]:
            machines.append(2)
            l2 += a
        else:
            machines.append(3)
    return machines


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
    if machine_count == 2:
        ints, scale = _scaled_ints(instance, scaled_total_cap)
        best, _ = _dp_two(ints)
        return Fraction(best, scale)
    if machine_count == 3:
        ints, scale = _scaled_ints(instance, scaled_total_cap)
        best, _ = _dp_three(ints, state_cap)
        return Fraction(best, scale)
    return exhaustive_optimal_makespan(instance, machine_count).makespan


def optimal_makespan(
    instance: Instance,
    machine_count: int,
    *,
    scaled_total_cap: int = DEFAULT_SCALED_TOTAL_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> OptResult:
    """Exact minimum makespan over all assignments, plus one witness.

    m = 2 and m = 3 run reachable-load dynamic programs on the scaled
    integers; any other m falls back to the brute force (n <= 12).  The
    witness is the lexicographically smallest optimal assignment.
    """
    if machine_count == 2:
        ints, scale = _scaled_ints(instance, scaled_total_cap)
        best, layers = _dp_two(ints)
        machines = _witness_two(ints, best, layers)
    elif machine_count == 3:
        ints, scale = _scaled_ints(instance, scaled_total_cap)
        best, layers = _dp_three(ints, state_cap)
        machines = _witness_three(ints, best, layers)
    else:
        return exhaustive_optimal_makespan(instance, machine_count)
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
