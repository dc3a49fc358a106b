"""Hard-instance families and adaptive adversary games.

The named families are fixed sequences; the two game strategies build their
sequence while playing against an online policy, committing each processing
time no later than the lookahead model reveals it.  A game that peeked at
decisions made after a value was revealed would prove nothing, so both games
commit first and replay afterwards, checking that the replayed prefix
decisions match the live ones.  A game's ratio bounds a policy's competitive
ratio from below only for the policies it is played against: the thm4 game
is not a lower bound against every policy (see ``play_theorem4``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Callable

from .algorithms import DecisionTrace, OnlinePolicy, SchedulerId, policy_for, run_policy
from .core import Instance, InvalidParam, Rational, make_instance, reject_float
from .harness import run_one

# (p4, p5) tails of the five-job ambush family, per case id
_THM4_TAILS: dict[str, tuple[int, int]] = {
    "1": (7, 11),
    "2.1": (7, 11),
    "2.2": (11, 7),
    "2.3": (4, 11),
    "3a.1": (7, 11),
    "3a.2": (4, 11),
    "3a.3": (11, 7),
    "3b.1": (7, 8),
    "3b.2": (8, 7),
}

THM4_CASE_IDS = tuple(_THM4_TAILS)

# kind -> (parameter key, parameter domain, job sequence of the parameter).
# A bare family has no key.  An integer domain is the smallest value; a tuple
# domain lists every string id.
_FAMILIES: dict[str, tuple[str | None, int | tuple[str, ...] | None, Callable[..., list[int]]]] = {
    "fig1": (None, None, lambda _: [1, 1, 2]),
    "theorem2": ("n", 4, lambda n: [1] * (n - 3) + [n, 2 * n + 3, 2 * n]),
    "corollary21": ("x", 1, lambda x: [1] * (6 * x)),
    "lemma4": (None, None, lambda _: [16, 16, 1]),
    "lemma5a": (None, None, lambda _: [17, 14, 1, 1]),
    "lemma5b": (None, None, lambda _: [1, 1, 14, 17]),
    "lemma6": ("x", 1, lambda x: [1] * (33 * x)),
    "thm4": ("case", THM4_CASE_IDS, lambda case: [7, 4, 4, *_THM4_TAILS[case]]),
}


@dataclass(frozen=True)
class FamilyId:
    """A named instance family, optionally parametrised (n, x, or case id)."""

    kind: str
    param: int | str | None = None


def parse_family_id(text: str) -> FamilyId:
    """Parse CLI identifiers like "fig1", "theorem2:n=6", "thm4:case=3b.1"."""
    kind, sep, rest = text.partition(":")
    if kind not in _FAMILIES:
        raise InvalidParam(f"unknown family {text!r}")
    key, domain, _ = _FAMILIES[kind]
    if key is None:
        if sep:
            raise InvalidParam(f"family {kind!r} takes no parameter")
        return FamilyId(kind)
    prefix = f"{key}="
    if not rest.startswith(prefix):
        raise InvalidParam(f"family {kind!r} needs a {prefix}<value> parameter")
    raw = rest[len(prefix):]
    if not isinstance(domain, int):
        return FamilyId(kind, raw)
    try:
        return FamilyId(kind, int(raw))
    except ValueError:
        raise InvalidParam(f"family {kind!r} needs an integer {key}, got {raw!r}") from None


def parse_family_range(text: str) -> list[FamilyId]:
    """Expand a sweep's --family argument into the ids it names.

    An integer-keyed family takes a "low..high" range ("theorem2:n=4..20"),
    and a string-keyed family given bare ("thm4") names all its ids; any
    other text is one id for :func:`parse_family_id`.
    """
    kind, sep, rest = text.partition(":")
    key, domain, _ = _FAMILIES.get(kind, (None, None, None))
    if isinstance(domain, tuple) and not sep:
        return [FamilyId(kind, param) for param in domain]
    prefix = f"{key}="
    if isinstance(domain, int) and rest.startswith(prefix) and ".." in rest:
        raw = rest[len(prefix):]
        low, high = raw.split("..", 1)
        try:
            values = range(int(low), int(high) + 1)
        except ValueError:
            values = range(0)
        if not values:  # unparsable or reversed
            raise InvalidParam(f"bad range {raw!r} in --family")
        return [FamilyId(kind, value) for value in values]
    return [parse_family_id(text)]


def format_family_id(family: FamilyId) -> str:
    if family.param is None:
        return family.kind
    return f"{family.kind}:{_FAMILIES[family.kind][0]}={family.param}"


def named_instance(family: FamilyId) -> Instance:
    """Materialise a named family into its exact job sequence."""
    kind, param = family.kind, family.param
    if kind not in _FAMILIES:
        raise InvalidParam(f"unknown family kind {kind!r}")
    key, domain, jobs = _FAMILIES[kind]
    if isinstance(domain, int) and (not isinstance(param, int) or param < domain):
        raise InvalidParam(f"{kind} needs {key} >= {domain}, got {param!r}")
    if isinstance(domain, tuple) and param not in domain:
        raise InvalidParam(f"{kind} {key} must be one of {', '.join(domain)}, got {param!r}")
    return make_instance(jobs(param))


@dataclass(frozen=True)
class GameTranscript:
    """One adversary-vs-policy play: the policy's run on the final instance, and its score."""

    trace: DecisionTrace
    final_instance: Instance
    opt_makespan: Rational
    ratio: Rational
    case: str
    degenerate: bool = False


_Answer = Callable[[tuple[Rational, ...], tuple[int, ...]], tuple[Rational, str, bool]]


def _commit_then_replay(
    policy: OnlinePolicy, machine_count: int, k: int, committed: list[Rational], answer: _Answer
) -> GameTranscript:
    """Play a request-answer game in which every value but the last is committed.

    The policy runs once on the committed values.  answer gets the loads and
    decisions after the first len(committed) - k jobs, the ones whose windows
    those values fill, and returns the last value, its case label and whether
    it was clamped (degenerate).  The final instance is then scored by
    run_one: a pure policy repeats its prefix decisions there, and any other
    raises.
    """
    upto = len(committed) - k
    live = run_policy(make_instance(committed), policy, machine_count, k)
    decisions = live.decisions[:upto]
    last, case, degenerate = answer(live.records[upto - 1].loads, decisions)
    instance = make_instance([*committed, last])
    row = run_one(policy, instance, machine_count, k)
    if row.trace.decisions[:upto] != decisions:
        raise RuntimeError("policy is not deterministic: replayed prefix diverged")
    return GameTranscript(row.trace, instance, row.opt_makespan, row.ratio, case, degenerate)


def play_theorem1(
    scheduler: SchedulerId | OnlinePolicy, n: int, k: int, x: Rational
) -> GameTranscript:
    """Two-machine lower-bound game against any policy with k-lookahead.

    The sequence is n-k-1 jobs of length x, then k unit jobs, then a final
    job fixed at the moment it first enters a lookahead window (when job
    n-k arrives): with loads relabelled so a >= b, the final job is k when
    a >= 2b, else 2a - b.  A non-positive final value (impossible once
    n >= k + 2, but guarded anyway) is clamped to 1 and the transcript is
    flagged degenerate.  A policy bound to another machine count, or needing
    more than k jobs of lookahead, raises from run_policy's check_policy.
    """
    if k < 1:
        raise InvalidParam(f"lookahead must be >= 1, got {k}")
    if n < k + 2:
        raise InvalidParam(f"need n >= k + 2, got n={n}, k={k}")
    reject_float(x, "x")
    x = Fraction(x)
    if x <= 0:
        raise InvalidParam(f"x must be positive, got {x}")

    def answer(loads, _):
        a, b = max(loads), min(loads)  # relabel so the case split is well defined
        if a >= 2 * b:
            return Fraction(k), "1", False
        y = 2 * a - b
        return (y, "2", False) if y > 0 else (Fraction(1), "2", True)

    return _commit_then_replay(policy_for(scheduler), 2, k, [x] * (n - k - 1) + [Fraction(1)] * k, answer)


def play_theorem4(scheduler: SchedulerId | OnlinePolicy) -> GameTranscript:
    """Three-machine adversary game under 1-lookahead.

    The prefix 7, 4, 4 is fixed.  The game always commits 7 as the fourth
    value, so it can be committed when job 3 arrives without knowing where
    job 3 will go; the named thm4:case tails, by contrast, use p4 in
    {4, 7, 8, 11}.  When job 4 arrives the placements of jobs 1..3 alone
    pick a case whose tail starts with that 7: "3b.1" if jobs 1 and 2 sit on
    different machines and job 3 joined job 2, else "1", "2.1" or "3a.1".
    The fifth value is that case's from the thm4:case tails, so the final
    instance is thm4:case=<label>.  A policy bound to another machine count
    raises SchedulerMachineMismatch from run_policy.

    This is not a lower bound against every policy.  A policy that reads
    only the loads, sending the jobs at loads (0,0,0) and (7,0,0) to M1, at
    (11,0,0) and (11,4,0) to M2, at (11,11,0) to M3 and any other job to a
    least-loaded machine, draws case "2.1" and plays 1,1,2,2,3 on
    7,4,4,7,11: every machine ends at 11 = OPT, so the ratio is 1.
    """

    def answer(_, decisions):
        m1, m2, m3 = decisions
        if m1 == m2:
            case = "1" if m3 == m1 else "2.1"
        else:
            case = "3b.1" if m3 == m2 else "3a.1" if m3 == m1 else "1"
        return Fraction(_THM4_TAILS[case][1]), case, False

    return _commit_then_replay(policy_for(scheduler), 3, 1, [Fraction(v) for v in (7, 4, 4, 7)], answer)
