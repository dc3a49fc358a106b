"""The test reference for the policies: each rule written out by hand.

The library stores every policy as one row of budget-cascade data; these
functions spell out the same rules separately, with the constants inline,
so the tests can check each row's ``choose`` against them.  ``LoadConstant``
is a policy outside the cascade, for the tests of the Fraction path.
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


class LoadConstant:
    """A counter-policy to the thm4 game: M1 at total load 0 or 7, M2 at 11
    or 15, else a least-loaded machine.  It compares loads with fixed
    constants, so scaling the instance would change its choices; it is not
    a BudgetCascade, so it sees the Fractions."""

    scheduler_id = None
    machine_count = 3
    min_lookahead = 1

    def __init__(self):
        self.seen = []

    def choose(self, loads, window):
        self.seen.append(loads)
        total = sum(loads)
        if total in (0, 7):
            return 1
        if total in (11, 15):
            return 2
        return min(range(len(loads)), key=loads.__getitem__) + 1
