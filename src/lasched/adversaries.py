"""Hard-instance families and adaptive lower-bound games.

The named families are fixed sequences; the two game strategies build their
sequence while playing against an online policy, committing each processing
time no later than the lookahead model reveals it.  A game that peeked at
decisions made after a value was revealed would prove nothing, so both games
commit first and replay afterwards, checking that the replayed prefix
decisions match the live ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Callable, Sequence

from .algorithms import OnlinePolicy, SchedulerId, policy_for, run_policy
from .core import Instance, InvalidParam, LookaheadWindow, Rational, make_instance
from .oracle import competitive_ratio, optimal_makespan_value

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
            raise InvalidParam(f"bad range {raw!r} in --family") from None
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
    """One adversary-vs-policy play: what was revealed, chosen, and scored."""

    revealed: tuple[LookaheadWindow, ...]
    decisions: tuple[int, ...]
    final_instance: Instance
    alg_makespan: Rational
    opt_makespan: Rational
    ratio: Rational
    case: str
    degenerate: bool = False


def _as_policy(scheduler: SchedulerId | OnlinePolicy) -> OnlinePolicy:
    if isinstance(scheduler, SchedulerId):
        return policy_for(scheduler)
    return scheduler


def _play_prefix(
    times: Sequence[Rational], policy: OnlinePolicy, machine_count: int, k: int, upto: int
) -> tuple[tuple[Rational, ...], tuple[int, ...]]:
    """Loads and decisions after jobs 1..upto of a partially committed sequence.

    Every window shown within the prefix must already be fully committed,
    i.e. upto + k <= len(times).  The policy runs on times[:upto + k]; it is
    pure, so the decisions it makes after job upto (on windows cut short by
    the end of the committed values) are dropped without effect.
    """
    assert upto + k <= len(times)
    _, trace = run_policy(make_instance(times[: upto + k]), policy, machine_count, k)
    return trace.records[upto - 1].loads, trace.decisions[:upto]


def _finish_game(
    policy: OnlinePolicy,
    machine_count: int,
    k: int,
    times: list[Rational],
    prefix_decisions: tuple[int, ...],
    case: str,
    degenerate: bool = False,
) -> GameTranscript:
    instance = make_instance(times)
    schedule, trace = run_policy(instance, policy, machine_count, k)
    if trace.decisions[: len(prefix_decisions)] != prefix_decisions:
        raise RuntimeError("policy is not deterministic: replayed prefix diverged")
    opt = optimal_makespan_value(instance, machine_count)
    return GameTranscript(
        revealed=tuple(record.window for record in trace.records),
        decisions=trace.decisions,
        final_instance=instance,
        alg_makespan=schedule.makespan,
        opt_makespan=opt,
        ratio=competitive_ratio(schedule.makespan, opt),
        case=case,
        degenerate=degenerate,
    )


def play_theorem1(
    scheduler: SchedulerId | OnlinePolicy, n: int, k: int, x: Rational
) -> GameTranscript:
    """Two-machine lower-bound game against any policy with k-lookahead.

    The sequence is n-k-1 jobs of length x, then k unit jobs, then a final
    job fixed at the moment it first enters a lookahead window (when job
    n-k arrives): with loads relabelled so a >= b, the final job is k when
    a >= 2b, else 2a - b.  A non-positive final value (impossible once
    n >= k + 2, but guarded anyway) is clamped to 1 and the transcript is
    flagged degenerate.
    """
    policy = _as_policy(scheduler)
    if policy.machine_count not in (None, 2):
        raise InvalidParam("this game is played on two machines")
    if k < max(1, policy.min_lookahead):
        raise InvalidParam(f"lookahead must be >= 1, got {k}")
    if n < k + 2:
        raise InvalidParam(f"need n >= k + 2, got n={n}, k={k}")
    x = Fraction(x)
    if x <= 0:
        raise InvalidParam(f"x must be positive, got {x}")

    prefix = [x] * (n - k - 1) + [Fraction(1)] * k
    loads, decisions = _play_prefix(prefix, policy, 2, k, n - k - 1)
    a, b = max(loads), min(loads)  # relabel so the case split is well defined
    degenerate = False
    if a >= 2 * b:
        y: Rational = Fraction(k)
        case = "1"
    else:
        y = 2 * a - b
        case = "2"
        if y <= 0:
            y = Fraction(1)
            degenerate = True
    return _finish_game(policy, 2, k, prefix + [y], decisions, case, degenerate)


def play_theorem4(scheduler: SchedulerId | OnlinePolicy) -> GameTranscript:
    """Three-machine lower-bound game under 1-lookahead.

    The prefix 7, 4, 4 is fixed.  The game always commits 7 as the fourth
    value, so it can be committed when job 3 arrives without knowing where
    job 3 will go; the named thm4:case tails, by contrast, use p4 in
    {4, 7, 8, 11}.  The fifth value is committed when job 4 arrives, from
    the placements of jobs 1..3 alone: 8 if jobs 1 and 2 sit on different
    machines and job 3 joined job 2, else 11.  The transcript's
    case label records which branch applied.
    """
    policy = _as_policy(scheduler)
    if policy.machine_count not in (None, 3):
        raise InvalidParam("this game is played on three machines")
    k = 1

    committed = [Fraction(7), Fraction(4), Fraction(4), Fraction(7)]
    _, decisions = _play_prefix(committed, policy, 3, k, 3)
    m1, m2, m3 = decisions
    if m1 == m2:
        case = "1" if m3 == m1 else "2.1"
        p5 = Fraction(11)
    elif m3 == m2:
        case = "3b.1"
        p5 = Fraction(8)
    elif m3 == m1:
        case = "3a.1"
        p5 = Fraction(11)
    else:
        case = "1"
        p5 = Fraction(11)
    return _finish_game(policy, 3, k, committed + [p5], decisions, case)

