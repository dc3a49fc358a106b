"""The test reference for the policies: each rule written out by hand.

The library stores every policy as one row of budget-cascade data; these
functions spell out the same rules separately, with the constants inline,
so the tests can check each row's ``choose`` against them.
"""

from lasched import LookaheadWindow, Rational, SchedulerId


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


def least_loaded(loads: tuple[Rational, ...]) -> int:
    """A least-loaded machine, ties to the lowest index."""
    return min(range(len(loads)), key=loads.__getitem__) + 1


def reference_choose(
    scheduler: SchedulerId, loads: tuple[Rational, ...], window: LookaheadWindow
) -> int:
    """The machine each policy picks for the arriving job."""
    if scheduler is SchedulerId.TWO_LA1:
        l1, l2 = loads
        if window.future:
            return 1 if two_la1_admit(l1, l2, window.current, window.future[0]) else 2
        # final job: least-loaded machine, ties to M2
        return 1 if l1 < l2 else 2
    if scheduler is SchedulerId.THREE_LA1 and window.future:
        return three_la1_admit(*loads, window.current, window.future[0])
    return least_loaded(loads)
