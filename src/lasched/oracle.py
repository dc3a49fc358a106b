"""Exact optimal offline makespan, the classic lower bound, and ratios.

The oracle scales all processing times to integers by the LCM of their
denominators.  For two machines a subset-sum bitset gives the value and the
witness.  For every m >= 3 the value path is a layered reachable-load DP over
load tuples, each kept sorted because the machines are identical; the
witness path instead searches for the bound: it probes the lower bound
max(p_max, ceil(T/m)), bisects up to the LPT makespan, and walks the memo of
a depth-first feasibility search under the optimal cap.  A pure m^n brute
force is the independent oracle the dynamic programs are tested against.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .core import Instance, Rational, SchedulingError, check_machine_count

DEFAULT_SCALED_TOTAL_CAP = 20_000
DEFAULT_STATE_CAP = 5_000_000
EXHAUSTIVE_MAX_JOBS = 12


class CapacityExceeded(SchedulingError):
    """A DP table or the brute-force space would exceed its size bound.

    The m = 2 bitset is bounded by the scaled total work and the brute force
    by the job count.  For m >= 3 ``state_cap`` bounds the value path's DP by
    the load tuples of all its layers together, and the witness path by the
    memo entries of its feasibility search, summed over every cap it probes.
    Raised instead of ever degrading accuracy; shrink the instance or raise
    the caps.
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


def _dp_two(ints: list[int], cap: int) -> tuple[int, list[int]]:
    """Reachable M1 loads after each job, as bitsets; returns (best, layers)."""
    total = sum(ints)
    if total > cap:
        raise CapacityExceeded(
            f"scaled total {total} exceeds cap {cap}; use smaller values or raise the cap"
        )
    layers = [1]  # bit s set <=> load s on M1 is reachable
    reach = 1
    for a in ints:
        reach |= reach << a
        layers.append(reach)
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


def _bounded_sorted(ints: list[int], m: int, state_cap: int) -> tuple[int, list[int]]:
    """Smallest feasible cap between the lower bound and LPT, and its smallest witness."""
    check_machine_count(m)
    n = len(ints)
    stored = 0

    def fits(cap: int, memo: dict[tuple[int, ...], bool], i: int, root: tuple[int, ...]) -> bool:
        """Whether jobs i.. fit on top of ascending loads root with no load above cap.

        An iterative depth-first search, so the job count is not bounded by the
        recursion limit.  Positive jobs make prefix sums strictly increasing, so a
        tuple's sum fixes how many jobs it holds and the memo is keyed by loads.
        """
        nonlocal stored
        if i == n:
            return True
        known = memo.get(root)
        if known is not None:
            return known

        def kids(depth: int, loads: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            return (c for c in _children(loads, ints[depth]) if c[-1] <= cap)

        path, frames = [root], [kids(i, root)]
        while frames:
            depth = i + len(frames)  # jobs placed in each child of the top frame
            for child in frames[-1]:
                known = True if depth == n else memo.get(child)
                if known:
                    # a feasible child makes every state on the path feasible
                    memo.update(dict.fromkeys(path, True))
                    stored += len(path)
                    break
                if known is None:
                    path.append(child)
                    frames.append(kids(depth, child))
                    break
            else:
                memo[path.pop()] = False
                frames.pop()
                stored += 1
                known = False
            if stored > state_cap:
                raise CapacityExceeded(
                    f"DP table grew past {state_cap} states; use smaller values or raise the cap"
                )
            if known:
                return True
        return False

    root = (0,) * m
    lo = max(max(ints), -(-sum(ints) // m))
    best = _lpt_makespan(ints, m)
    memo: dict[tuple[int, ...], bool] = {}
    if lo < best:
        # probe the lower bound first; if it fails, bisect (lo, best] with lo
        # infeasible and best feasible, keeping the memo of the smallest best
        probe: dict[tuple[int, ...], bool] = {}
        if fits(lo, probe, 0, root):
            best, memo = lo, probe
        while best - lo > 1:
            mid = (lo + best) // 2
            probe = {}
            if fits(mid, probe, 0, root):
                best, memo = mid, probe
            else:
                lo = mid
    machines = []
    loads = [0] * m
    for i, a in enumerate(ints):
        # the lowest machine whose sorted result can still finish within best:
        # this walk yields the lexicographically smallest optimal witness
        for j in range(m):
            loads[j] += a
            if loads[j] <= best and fits(best, memo, i + 1, tuple(sorted(loads))):
                machines.append(j + 1)
                break
            loads[j] -= a
    return best, machines


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
        best, _ = _dp_two(ints, scaled_total_cap)
    else:
        best = _dp_sorted(ints, machine_count, state_cap)
    return Fraction(best, scale)


def optimal_makespan(
    instance: Instance,
    machine_count: int,
    *,
    scaled_total_cap: int = DEFAULT_SCALED_TOTAL_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> OptResult:
    """Exact minimum makespan over all assignments, plus one witness.

    Works on the processing times scaled to integers.  For m = 2 it runs the
    subset-sum bitset (bounded by ``scaled_total_cap``).  For every m >= 3 it
    searches between the lower bound max(p_max, ceil(T/m)) and the LPT
    makespan: a memoised depth-first search over sorted load tuples that
    never exceed a cap tests the lower bound first, then bisects up to LPT.
    Memo entries over all probes are bounded by ``state_cap``.  The search
    does not recurse per job, so instances of thousands of jobs are fine.
    ``optimal_makespan_value`` keeps the full layered DP.  The witness is the
    lexicographically smallest optimal assignment, the same one
    ``exhaustive_optimal_makespan`` returns.
    """
    ints, scale = _scaled_ints(instance)
    if machine_count == 2:
        best, layers = _dp_two(ints, scaled_total_cap)
        machines = _witness_two(ints, best, layers)
    else:
        best, machines = _bounded_sorted(ints, machine_count, state_cap)
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
