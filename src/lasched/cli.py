"""Command-line surface: simulate, oracle, verify, adversary, generate, sweep.

Exit codes: 0 success, 1 usage or input error, 2 a verification run found
instances violating the target bound (so scripts can distinguish a scientific
finding from a crash).  Output is byte-identical across identical
invocations; nothing here prints timestamps.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import __version__
from .adversaries import (
    GameTranscript,
    format_family_id,
    named_instance,
    parse_family_id,
    parse_family_range,
    play_theorem1,
    play_theorem4,
)
from .algorithms import DecisionTrace, SchedulerId, policy_for, policy_name
from .core import (
    Instance,
    Rational,
    SchedulingError,
    format_instance_text,
    format_rational,
    make_instance,
    parse_instance_text,
    parse_rational,
)
from .harness import (
    ExperimentRow,
    VerificationReport,
    emit_csv,
    inline_label,
    report_rows,
    run_one,
    verify_bound,
)
from .oracle import opt_lower_bound, optimal_makespan

USAGE_ERROR = 1
VIOLATIONS_FOUND = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # "bound violated", so route usage errors to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _ratio_str(value: Rational) -> str:
    return f"{format_rational(value)} ({float(value):.6f})"


def _rational_flag(flag: str, text: str) -> Rational:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}") from None


def _values_flag(text: str) -> tuple[Rational, ...]:
    return tuple(_rational_flag("--values", part) for part in text.split(","))


def _load_instance(args) -> tuple[Instance, str]:
    if args.family is not None:
        family = parse_family_id(args.family)
        return named_instance(family), format_family_id(family)
    if args.instance is not None:
        try:
            with open(args.instance, encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise _UsageError(f"{args.instance}: {exc}") from None
        return parse_instance_text(text), args.instance
    raise _UsageError("one of --instance or --family is required")


def _default_k(args) -> int:
    return policy_for(args.alg).min_lookahead if args.k is None else args.k


def _print_trace(trace: DecisionTrace, name: str, loads: bool) -> None:
    """One line per revealed window: the job, its lookahead and its machine,
    then the loads after it if asked."""
    for i, record in enumerate(trace.records, 1):
        future = ",".join(format_rational(p) for p in record.window.future)
        after = f" loads=({','.join(format_rational(l) for l in record.loads)})" if loads else ""
        print(
            f"  {name} {i}: p={format_rational(record.window.current)}"
            f" future=[{future}] -> M{record.machine}{after}"
        )


def _write_csv(path: str | None, rows: list[ExperimentRow]) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(emit_csv(rows))


def _cmd_simulate(args) -> int:
    instance, label = _load_instance(args)
    row = run_one(args.alg, instance, args.m, _default_k(args), label=label)
    print(f"scheduler: {policy_name(row.policy)}")
    print(f"instance: {label} = {inline_label(instance.processing_times)}")
    print(f"m: {row.m}")
    print(f"k: {row.k}")
    print(f"alg_makespan: {format_rational(row.alg_makespan)}")
    print(f"opt_makespan: {format_rational(row.opt_makespan)}")
    print(f"ratio: {_ratio_str(row.ratio)}")
    if args.trace:
        _print_trace(row.trace, "job", loads=True)
    _write_csv(args.csv, [row])
    return 0


def _cmd_oracle(args) -> int:
    instance, label = _load_instance(args)
    result = optimal_makespan(instance, args.m)
    witness = ",".join(str(result.witness_assignment[i]) for i in range(1, len(instance) + 1))
    print(f"instance: {label} = {inline_label(instance.processing_times)}")
    print(f"m: {args.m}")
    print(f"opt_makespan: {format_rational(result.makespan)}")
    print(f"lower_bound: {format_rational(opt_lower_bound(instance, args.m))}")
    print(f"witness_machines: {witness}")
    return 0


def _print_report(report: VerificationReport) -> None:
    print(f"scheduler: {policy_name(report.policy)}")
    print(f"m: {report.m}")
    print(f"k: {report.k}")
    print(f"space: n=1..{report.n_max} values={inline_label(report.values)}")
    print(f"instances_checked: {report.instances_checked}")
    print(f"target_bound: {_ratio_str(report.target_bound)}")
    print(f"max_ratio: {_ratio_str(report.max_ratio)}")
    print(f"argmax_instance: {inline_label(report.argmax_instance.processing_times)}")
    print(f"violations: {len(report.violations)}")
    for instance, ratio in report.violations:
        print(
            f"  violation: {inline_label(instance.processing_times)}"
            f" ratio {_ratio_str(ratio)}"
        )


def _cmd_verify(args) -> int:
    if args.nmax is None:
        raise _UsageError("--nmax is required")
    report = verify_bound(
        args.alg,
        args.m,
        _default_k(args),
        args.nmax,
        _values_flag(args.values),
        _rational_flag("--bound", args.bound),
        jobs=args.jobs,
    )
    _print_report(report)
    if args.csv:
        _write_csv(args.csv, report_rows(report))
    return VIOLATIONS_FOUND if report.violations else 0


def _print_transcript(game: str, transcript: GameTranscript, trace: bool) -> None:
    print(f"game: {game}")
    print(f"case: {transcript.case}")
    print(f"degenerate: {str(transcript.degenerate).lower()}")
    print(f"instance: {inline_label(transcript.final_instance.processing_times)}")
    print(f"decisions: {','.join(str(d) for d in transcript.trace.decisions)}")
    print(f"alg_makespan: {format_rational(transcript.trace.makespan)}")
    print(f"opt_makespan: {format_rational(transcript.opt_makespan)}")
    print(f"ratio: {_ratio_str(transcript.ratio)}")
    if trace:
        _print_trace(transcript.trace, "step", loads=False)


def _cmd_adversary(args) -> int:
    if args.game == "thm1":
        x = _rational_flag("--x", "1" if args.x is None else args.x)
        transcript = play_theorem1(args.alg, 100 if args.n is None else args.n, _default_k(args), x)
    else:
        if args.n is not None or args.x is not None or args.k not in (None, 1):
            raise _UsageError("--game thm4 takes no --n, no --x and no --k other than 1")
        transcript = play_theorem4(args.alg)
    _print_transcript(args.game, transcript, args.trace)
    return 0


def _cmd_generate(args) -> int:
    if args.family is not None:
        instance = named_instance(parse_family_id(args.family))
    elif args.random is not None:
        values = _values_flag(args.values)
        rng = random.Random(args.seed)
        instance = make_instance(
            [values[rng.randrange(len(values))] for _ in range(args.random)]
        )
    else:
        raise _UsageError("one of --family or --random is required")
    text = format_instance_text(instance)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_sweep(args) -> int:
    families = parse_family_range(args.family)
    k = _default_k(args)
    rows = [run_one(args.alg, named_instance(f), args.m, k, label=format_family_id(f)) for f in families]
    for row in rows:
        print(
            f"{row.instance_label}: alg={format_rational(row.alg_makespan)}"
            f" opt={format_rational(row.opt_makespan)} ratio={_ratio_str(row.ratio)}"
        )
    _write_csv(args.csv, rows)
    return 0


def _add_common(parser: _Parser, *, alg: bool = True, machines: bool = True) -> None:
    if alg:
        parser.add_argument(
            "--alg",
            type=SchedulerId,
            choices=list(SchedulerId),
            metavar="{ls,2la1,3la1}",
            required=True,
        )
        parser.add_argument("--k", type=int, default=None, help="lookahead size (default: 1, or 0 for ls)")
    if machines:
        parser.add_argument("--m", type=int, required=True, help="machine count")


def _add_source(parser: _Parser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--instance", help="path to an instance file")
    source.add_argument("--family", help="named family, e.g. theorem2:n=6")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lasched",
        description=(
            "Exact semi-online makespan scheduling with lookahead: run the "
            "policies, query the optimal offline oracle, play the "
            "lower-bound adversaries, and exhaustively verify ratio bounds."
        ),
    )
    parser.add_argument("--version", action="version", version=f"lasched {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="run one scheduler on one instance")
    _add_common(simulate)
    _add_source(simulate)
    simulate.add_argument("--trace", action="store_true", help="print every decision")
    simulate.add_argument("--csv", help="also write the row to a CSV file")
    simulate.set_defaults(func=_cmd_simulate)

    oracle = commands.add_parser("oracle", help="exact optimal offline makespan")
    _add_common(oracle, alg=False)
    _add_source(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    verify = commands.add_parser("verify", help="exhaustively check a ratio bound")
    _add_common(verify)
    verify.add_argument("--nmax", type=int, help="maximum instance length")
    verify.add_argument("--values", required=True, help="comma list of rationals, e.g. 1,2,3")
    verify.add_argument("--bound", required=True, help="target ratio bound, e.g. 4/3")
    verify.add_argument("--jobs", type=int, default=1, help="parallel workers")
    verify.add_argument("--csv", help="write argmax and violations to a CSV file")
    verify.set_defaults(func=_cmd_verify)

    adversary = commands.add_parser("adversary", help="play a lower-bound game")
    adversary.add_argument("--game", choices=("thm1", "thm4"), required=True)
    _add_common(adversary, machines=False)
    adversary.add_argument("--n", type=int, help="thm1: total number of jobs (default: 100)")
    adversary.add_argument("--x", help="thm1: prefix job length, a rational (default: 1)")
    adversary.add_argument("--trace", action="store_true", help="print every revealed window")
    adversary.set_defaults(func=_cmd_adversary)

    generate = commands.add_parser("generate", help="write an instance file")
    generate.add_argument("--family", help="named family to materialise")
    generate.add_argument("--random", type=int, help="generate this many random jobs")
    generate.add_argument("--values", default="1,2,3", help="value set for --random")
    generate.add_argument("--seed", type=int, default=0, help="RNG seed for --random")
    generate.add_argument("--output", help="output path (default: stdout)")
    generate.set_defaults(func=_cmd_generate)

    sweep = commands.add_parser("sweep", help="run a scheduler across a family range")
    _add_common(sweep)
    sweep.add_argument(
        "--family",
        required=True,
        help="family or range, e.g. theorem2:n=4..8, thm4, corollary21:x=1..3",
    )
    sweep.add_argument("--csv", help="write the rows to a CSV file")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, SchedulingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SystemExit as exc:  # --help / --version
        code = exc.code
        return code if isinstance(code, int) else 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
