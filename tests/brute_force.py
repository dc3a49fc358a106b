"""The test oracle: a pure brute force over all m^n assignments.

It shares none of the library oracle's scaling, bitset, DP or search code, so
the tests can check every path of ``lasched.oracle`` against it.
"""

from fractions import Fraction
from itertools import product

from lasched import CapacityExceeded, Instance, OptResult, Rational
from lasched.core import check_machine_count

EXHAUSTIVE_MAX_JOBS = 12


def exhaustive_optimal_makespan(instance: Instance, machine_count: int) -> OptResult:
    """Brute force over all m^n assignments, in lexicographic order.

    Only strict improvements replace the incumbent, so the returned witness
    is the lexicographically smallest optimum.
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
