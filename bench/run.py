#!/usr/bin/env python3
"""Closed-loop benchmark of lasched: exhaustive verification and the exact oracle.

Run from the root of a checkout (stdlib only, nothing to install):

    python3 bench/run.py --workload verify-m3 --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50

A single caller makes each call and waits for it before making the next.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it wraps the module attributes through which one lasched
module calls another, records a span per call and reports the per-layer
metrics.  Every output is checked against ``reference.json`` or, for the
oracle, three independent ways.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
NOTES.md says why each workload exists and which metric should move when.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice, product
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

SETUP_SAMPLES = 7  # set-ups timed for setup_s: the run's own, then fresh interpreters
LATENCY_SAMPLE = 200  # distinct verify instances whose oracle calls are timed
LATENCY_SECONDS = 1.0  # rounds over the latency sample after each verify pass
EXHAUSTIVE_CHECK_MAX_N = 8  # oracle answers are cross-checked by brute force up to this n


@dataclass(frozen=True)
class Verify:
    """One `lasched verify` invocation, run in-process through the CLI."""

    alg: str
    m: int
    nmax: int
    values: tuple[int, ...]
    bound: str
    jobs: int

    def argv(self, csv_path: Path, jobs: int) -> list[str]:
        return [
            "verify", "--alg", self.alg, "--m", str(self.m), "--k", "1",
            "--nmax", str(self.nmax), "--values", ",".join(map(str, self.values)),
            "--bound", self.bound, "--csv", str(csv_path), "--jobs", str(jobs),
        ]


VERIFY = {
    # 2la1 over 55,986 instances: the policy loop dominates, the m=2 oracle is cheap
    "verify-m2": Verify("2la1", 2, 6, (1, 2, 3, 4, 5, 6), "4/3", jobs=1),
    # 3la1 over 19,530 instances: policy and the m=3 oracle split the time, 187
    # violations load the report/CSV path, and --jobs 2 uses the process pool
    "verify-m3": Verify("3la1", 3, 6, (1, 2, 3, 4, 5), "16/11", jobs=2),
}

# oracle-mix size ladder: (machines, jobs, largest value, instances).  The seed
# draws the values; sizes and each instance's total stay fixed.
ORACLE_LADDER = [(3, n, 40, 11) for n in range(8, 17)] + [(4, n, 9, 10) for n in (5, 6, 7)]
# The last call, m=3 and n=22, sets peak memory, which moved by about 12 %
# between seeds when its values were drawn freely.  Its values are fixed
# and the seed only shuffles them.
ORACLE_PEAK = (3, 22, 40)

WORKLOADS = (*VERIFY, "oracle-mix")

END_TO_END = {
    "instances_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "algorithms.run_policy.s": "s",
    "algorithms.run_policy.self_s": "s",
    "algorithms.run_policy.calls": "count",
    "algorithms.choose.s": "s",
    "algorithms.choose.calls": "count",
    "algorithms.calls_per_instance": "ratio",
    "core.make_instance.s": "s",
    "core.make_instance.calls": "count",
    "oracle.optimal_makespan_value.s": "s",
    "oracle.optimal_makespan_value.calls": "count",
    "oracle.optimal_makespan.s": "s",
    "oracle.optimal_makespan.calls": "count",
    "oracle.m3.s": "s",
    "oracle.m4.s": "s",
    "oracle.exhaustive.s": "s",
    "oracle.exhaustive.calls": "count",
    "oracle.competitive_ratio.s": "s",
    "oracle.competitive_ratio.calls": "count",
    "oracle.calls_per_instance": "ratio",
    "harness.verify_bound.s": "s",
    "harness.verify_bound.self_s": "s",
    "harness.verify_bound.calls": "count",
    "harness.instances": "count",
    "harness.emit_csv.s": "s",
    "harness.emit_csv.calls": "count",
    "harness.jobs2_speedup": "ratio",
    "cli.s": "s",
    "cli.self_s": "s",
    "cli.calls": "count",
    "trace.overhead_frac": "frac",
}


class SetupError(Exception):
    """The checkout does not hold the lasched sources."""


def import_lasched():
    """Import lasched from this checkout's src/, never from anywhere else."""
    if not (SRC / "lasched" / "__init__.py").is_file():
        raise SetupError(f"no lasched package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lasched
    import lasched.algorithms
    import lasched.cli
    import lasched.core
    import lasched.harness
    import lasched.oracle

    if not Path(lasched.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"lasched was imported from {lasched.__file__}, not from {SRC}")
    return lasched


def draw_values(rng: random.Random, n: int, high: int) -> list[int]:
    """n values in 1..high whose total is fixed at n*(high+1)//2.

    Values are drawn uniformly, then single units move at random positions
    until the total is reached, so seeds change which values an instance
    holds but not how much work it is.
    """
    values = [rng.randint(1, high) for _ in range(n)]
    target = n * (high + 1) // 2
    while (total := sum(values)) != target:
        i = rng.randrange(n)
        step = 1 if total < target else -1
        if 1 <= values[i] + step <= high:
            values[i] += step
    return values


def latency_sample(spec: Verify) -> list[tuple[int, ...]]:
    """Every k-th instance of the verify enumeration, LATENCY_SAMPLE in all."""
    lengths = range(1, spec.nmax + 1)
    space = chain.from_iterable(product(spec.values, repeat=n) for n in lengths)
    step = sum(len(spec.values) ** n for n in lengths) // LATENCY_SAMPLE
    return list(islice(space, 0, step * LATENCY_SAMPLE, step))


@dataclass
class Inputs:
    lasched: object
    workload: str
    spec: Verify | None = None
    # (machine count, integer times, Instance) per oracle call: the oracle-mix
    # ladder, or the verify workload's latency sample
    calls: list = field(default_factory=list)


def setup(workload: str, seed: int) -> tuple[Inputs, float]:
    """Import lasched and build the workload's inputs; returns them and the seconds taken."""
    start = time.perf_counter()
    lasched = import_lasched()
    make_instance = lasched.core.make_instance
    if workload in VERIFY:
        # verify workloads are exhaustive: the seed does not change their inputs
        spec = VERIFY[workload]
        inputs = Inputs(lasched, workload, spec, [(spec.m, t, make_instance(t)) for t in latency_sample(spec)])
    else:
        rng = random.Random(seed)
        ladder = [(m, tuple(draw_values(rng, n, high))) for m, n, high, count in ORACLE_LADDER for _ in range(count)]
        m, n, high = ORACLE_PEAK
        peak = draw_values(random.Random(0), n, high)
        rng.shuffle(peak)
        ladder.append((m, tuple(peak)))
        inputs = Inputs(lasched, workload, calls=[(m, t, make_instance(t)) for m, t in ladder])
    return inputs, time.perf_counter() - start


# ---------------------------------------------------------------- checking


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_fields(stdout: str) -> dict[str, str]:
    """The `key: value` lines of a verify report, without the violation listing."""
    return dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line and not line.startswith(" "))


def check_verify(stdout: str, csv_bytes: bytes, exit_code: int, reference: dict) -> list[str]:
    """Differences between one verify run and its committed reference."""
    fields = report_fields(stdout)
    seen = {
        "exit_code": exit_code,
        "stdout_sha256": sha256(stdout.encode()),
        "csv_sha256": sha256(csv_bytes),
        "instances_checked": fields.get("instances_checked"),
        "max_ratio": fields.get("max_ratio", "").split(" ")[0],
        "argmax_instance": fields.get("argmax_instance"),
        "violations": fields.get("violations"),
    }
    return [f"{key}: got {seen[key]!r}, expected {reference[key]!r}" for key in reference if seen[key] != reference[key]]


def brute_force_makespan(times: tuple[int, ...], m: int) -> int:
    """Exact optimum over every assignment, in integers and independent of lasched.

    Job 1 stays on machine 1: the machines are identical.
    """
    best = sum(times)
    for combo in product(range(m), repeat=len(times) - 1):
        loads = [times[0]] + [0] * (m - 1)
        for p, machine in zip(times[1:], combo):
            loads[machine] += p
        best = min(best, max(loads))
    return best


class OracleChecker:
    """Checks oracle answers; brute-force optima are computed once per instance."""

    def __init__(self, optimum=brute_force_makespan):
        self.optimum = optimum
        self._optima: dict[tuple, int] = {}

    def check_value(self, m: int, times: tuple[int, ...], value) -> list[str]:
        """The value respects max(p_max, total/m) and equals the brute force
        wherever n <= EXHAUSTIVE_CHECK_MAX_N."""
        problems = []
        if value < max(max(times), Fraction(sum(times), m)):
            problems.append(f"value {value} below the lower bound")
        if len(times) <= EXHAUSTIVE_CHECK_MAX_N:
            key = (m, times)
            if key not in self._optima:
                self._optima[key] = self.optimum(times, m)
            if value != self._optima[key]:
                problems.append(f"value {value} but brute force gives {self._optima[key]}")
        return problems

    def check_result(self, m: int, times: tuple[int, ...], result) -> list[str]:
        """check_value, and the witness is an assignment that achieves the value."""
        witness = result.witness_assignment
        if sorted(witness) != list(range(1, len(times) + 1)) or not all(1 <= w <= m for w in witness.values()):
            return [f"witness {witness} is not an assignment of {len(times)} jobs to {m} machines"]
        loads = [0] * m
        for job, p in enumerate(times, 1):
            loads[witness[job] - 1] += p
        problems = self.check_value(m, times, result.makespan)
        if max(loads) != result.makespan:
            problems.append(f"witness makespan {max(loads)} differs from value {result.makespan}")
        return problems


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans of wrapped calls, kept in flat arrays until the run ends.

    A span is (name, parent span, tag, start, end); the tag is the machine
    count for oracle calls and the job count for policy runs.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object, bool]] = []
        self.missing: list[str] = []

    def wrap(self, fn, name: str, tag=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        stack, clock = self._stack, time.perf_counter
        names, parents, tags, starts, ends = self.name, self.parent, self.tag, self.start, self.end

        def traced(*args, **kwargs):
            span = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            tags.append(tag(args) if tag else 0)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str, tag=None) -> None:
        """Replace owner.attr by a traced wrapper; a missing attribute is
        recorded, so its calls read as zero instead of failing the run."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
            return
        own = attr in vars(owner)
        setattr(owner, attr, self.wrap(original, name, tag))
        self._patched.append((owner, attr, original, own))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patched):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def summary(self) -> dict:
        """Calls, total and self seconds per name, plus totals per (name, tag).

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        durations = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(durations)
        for span, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += durations[span]
        by_name = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        by_tag: dict[str, dict[int, dict]] = {name: {} for name in self.names}
        for span, nid in enumerate(self.name):
            name = self.names[nid]
            entry = by_name[name]
            entry["calls"] += 1
            entry["s"] += durations[span]
            entry["self_s"] += durations[span] - child[span]
            tagged = by_tag[name].setdefault(self.tag[span], {"calls": 0, "s": 0.0})
            tagged["calls"] += 1
            tagged["s"] += durations[span]
        return {"by_name": by_name, "by_tag": by_tag}

    def write(self, path: Path, header: dict) -> None:
        """Write header fields and every span (times in ns from the first span)."""
        origin = self.start[0] if self.start else 0.0
        columns = {
            "name": self.name,
            "parent": self.parent,
            "tag": self.tag,
            "start_ns": [round((s - origin) * 1e9) for s in self.start],
            "end_ns": [round((e - origin) * 1e9) for e in self.end],
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, indent=1)[:-2])
            handle.write(f',\n "span_names": {json.dumps(self.names)},\n "spans": {{')
            handle.write(",".join(f'\n  "{key}": [{",".join(map(str, values))}]' for key, values in columns.items()))
            handle.write("\n }\n}\n")


def install_tracer(tracer: Tracer, lasched) -> None:
    """Wrap each public entry point at the attribute through which its caller reaches it."""
    cli, harness, oracle = lasched.cli, lasched.harness, lasched.oracle
    machines = lambda args: args[1]  # noqa: E731
    jobs = lambda args: len(args[0])  # noqa: E731
    tracer.patch(cli, "verify_bound", "harness.verify_bound")
    tracer.patch(cli, "emit_csv", "harness.emit_csv")
    tracer.patch(harness, "make_instance", "core.make_instance")
    tracer.patch(harness, "run_policy", "algorithms.run_policy", jobs)
    tracer.patch(harness, "optimal_makespan_value", "oracle.optimal_makespan_value", machines)
    tracer.patch(harness, "competitive_ratio", "oracle.competitive_ratio")
    tracer.patch(oracle, "exhaustive_optimal_makespan", "oracle.exhaustive")
    for scheduler in lasched.algorithms.SchedulerId:
        tracer.patch(lasched.algorithms.policy_for(scheduler), "choose", "algorithms.choose")


# ---------------------------------------------------------------- passes


@dataclass
class Pass:
    wall: float
    attempted: int
    failed: int
    latencies: list[float] = field(default_factory=list)
    instances_checked: int = 0  # as the program reports it


def verify_pass(inputs: Inputs, jobs: int, reference: dict, entry=None) -> Pass:
    """One `lasched verify` call through cli.dispatch, timed and checked."""
    cli = inputs.lasched.cli
    entry = entry or cli.dispatch
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        csv_path = workdir / "verify.csv"
        argv = inputs.spec.argv(csv_path, jobs)
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            try:
                code = entry(argv)
            except Exception:  # a crash is a wrong answer for every instance
                traceback.print_exc()
                code = None
        wall = time.perf_counter() - start
        csv_bytes = csv_path.read_bytes() if csv_path.exists() else b""
    finally:
        shutil.rmtree(workdir)
    checked = int(reference["instances_checked"])
    problems = check_verify(stdout.getvalue(), csv_bytes, code, reference)
    for problem in problems:
        print(f"{inputs.workload} --jobs {jobs}: {problem}", file=sys.stderr)
    reported = report_fields(stdout.getvalue()).get("instances_checked", "0")
    return Pass(wall, checked, checked if problems else 0, instances_checked=int(reported))


def oracle_round(inputs: Inputs, checker: OracleChecker, call, with_witness: bool) -> Pass:
    """Closed loop over the workload's oracle calls; each answer is checked afterwards."""
    latencies, answers = [], []
    clock = time.perf_counter
    start = clock()
    for m, _, instance in inputs.calls:
        began = clock()
        try:
            answers.append(call(instance, m))
        except Exception as exc:  # a crash is a wrong answer
            answers.append(exc)
        latencies.append(clock() - began)
    wall = clock() - start
    failed = 0
    for (m, times, _), answer in zip(inputs.calls, answers):
        if isinstance(answer, Exception):
            problems = [f"raised {answer!r}"]
        elif with_witness:
            problems = checker.check_result(m, times, answer)
        else:
            problems = checker.check_value(m, times, answer)
        if problems:
            failed += 1
            print(f"{inputs.workload}: m={m} {','.join(map(str, times))}: {'; '.join(problems)}", file=sys.stderr)
    return Pass(wall, len(answers), failed, latencies)


def oracle_mix_pass(inputs: Inputs, checker: OracleChecker, call=None) -> Pass:
    # optimal_makespan with its witness, as `lasched oracle` calls it
    return oracle_round(inputs, checker, call or inputs.lasched.oracle.optimal_makespan, with_witness=True)


# ---------------------------------------------------------------- runs


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (a pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def probe_setup(workload: str, seed: int) -> float:
    """Setup time of a fresh interpreter, as `--probe-setup` measures it."""
    result = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(result.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """Untraced run: repeat the workload for `seconds`, report the end-to-end metrics."""
    inputs, first_setup = setup(workload, seed)
    checker = OracleChecker()
    reference = json.loads(REFERENCE.read_text())[workload] if inputs.spec else None
    passes, latency_rounds = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if inputs.spec:
            passes.append(verify_pass(inputs, inputs.spec.jobs, reference))
            until = time.perf_counter() + LATENCY_SECONDS
            while not latency_rounds or time.perf_counter() < until:
                latency_rounds.append(oracle_round(
                    inputs, checker, inputs.lasched.oracle.optimal_makespan_value, with_witness=False,
                ))
        else:
            passes.append(oracle_mix_pass(inputs, checker))
            latency_rounds.append(passes[-1])
    rss = peak_rss_mb()
    setups = [first_setup] + [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]

    # The work is deterministic, so a slow spell of a shared machine only ever
    # adds time: the fastest pass, and each instance's fastest call, are the
    # steadiest estimates of what the program costs.  A change that makes the
    # program do more work slows every pass and every call.
    latencies = [min(calls) * 1e3 for calls in zip(*(r.latencies for r in latency_rounds))]
    rates = [r.attempted / r.wall for r in passes]
    rounds = passes + (latency_rounds if inputs.spec else [])
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    metrics = {
        "instances_per_s": max(rates),
        "call_p50_ms": statistics.median(latencies),
        "call_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setups),
    }
    what = "verify instances" if inputs.spec else "oracle calls"
    notes = [
        f"{workload} seed={seed}: {len(passes)} passes in {time.perf_counter() - start:.1f} s"
        + ("; exhaustive workload, the seed does not change its inputs" if inputs.spec else ""),
        f"instances_per_s: fastest of {len(passes)} passes, in {what} per second: "
        + " ".join(f"{rate:.5g}" for rate in rates),
        f"call_p50_ms, call_p90_ms: over {len(latencies)} instances, each its fastest of"
        f" {len(latency_rounds)} oracle calls",
        f"setup_s: median of {len(setups)} setups: " + " ".join(f"{s:.4f}" for s in setups),
        f"failed_frac = {failed / attempted:.6g} frac ({failed} of {attempted})",
    ]
    return metrics, attempted, failed, notes


def traced_pass(inputs: Inputs, checker: OracleChecker, reference: dict | None) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    install_tracer(tracer, inputs.lasched)
    try:
        if inputs.spec:
            result = verify_pass(inputs, 1, reference, entry=tracer.wrap(inputs.lasched.cli.dispatch, "cli"))
        else:
            call = tracer.wrap(inputs.lasched.oracle.optimal_makespan, "oracle.optimal_makespan", lambda args: args[1])
            result = oracle_mix_pass(inputs, checker, call)
    finally:
        tracer.restore()
    return result, tracer


def layer_metrics(tracer: Tracer, scored: int, instances: int, wall: float, untraced_wall: float, speedup: float) -> dict:
    summary = tracer.summary()
    by_name, by_tag = summary["by_name"], summary["by_tag"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    get = lambda name: by_name.get(name, zero)  # noqa: E731
    oracle_entries = ("oracle.optimal_makespan_value", "oracle.optimal_makespan")
    oracle_calls = sum(get(name)["calls"] for name in oracle_entries)

    def machines_s(m: int) -> float:
        return sum(by_tag.get(name, {}).get(m, {"s": 0.0})["s"] for name in oracle_entries)

    metrics = {}
    for name in (
        "algorithms.run_policy", "algorithms.choose", "core.make_instance",
        "oracle.optimal_makespan_value", "oracle.optimal_makespan", "oracle.exhaustive",
        "oracle.competitive_ratio", "harness.verify_bound", "harness.emit_csv", "cli",
    ):
        for key in ("s", "self_s", "calls"):
            if f"{name}.{key}" in PER_LAYER:
                metrics[f"{name}.{key}"] = get(name)[key]
    metrics.update({
        "algorithms.calls_per_instance": get("algorithms.run_policy")["calls"] / scored,
        "oracle.calls_per_instance": oracle_calls / scored,
        "oracle.m3.s": machines_s(3),
        "oracle.m4.s": machines_s(4),
        "harness.instances": instances,
        "harness.jobs2_speedup": speedup,
        "trace.overhead_frac": wall / untraced_wall - 1,
    })
    return metrics


def counts(tracer: Tracer, metrics: dict) -> dict:
    """Every count of a traced pass, for the exact-count check."""
    per_n: dict[int, int] = {}
    ids = {name: i for i, name in enumerate(tracer.names)}
    run_id, verify_id = ids.get("algorithms.run_policy"), ids.get("harness.verify_bound")
    for span, nid in enumerate(tracer.name):
        parent = tracer.parent[span]
        if nid == run_id and parent >= 0 and tracer.name[parent] == verify_id:
            per_n[tracer.tag[span]] = per_n.get(tracer.tag[span], 0) + 1
    found = {k: v for k, v in metrics.items() if k.endswith((".calls", ".calls_per_instance")) or k == "harness.instances"}
    found["instances_per_n"] = {str(n): c for n, c in sorted(per_n.items())}
    return found


def measure_traced(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    """Traced run (--jobs 1): two traced passes whose counts must agree exactly,
    plus untraced passes for the tracing overhead and the --jobs 2 speed-up."""
    inputs, _ = setup(workload, seed)
    checker = OracleChecker()
    reference = json.loads(REFERENCE.read_text())[workload] if inputs.spec else None
    untraced = []
    speedup = 0.0  # oracle-mix runs no pool
    if inputs.spec:
        untraced.append(verify_pass(inputs, 1, reference))
        untraced.append(verify_pass(inputs, 2, reference))
        speedup = untraced[0].wall / untraced[1].wall
    else:
        untraced.append(oracle_mix_pass(inputs, checker))
    runs = [traced_pass(inputs, checker, reference) for _ in range(2)]

    scored = runs[-1][0].attempted
    instances = runs[-1][0].instances_checked
    results = [
        layer_metrics(tracer, scored, instances, result.wall, untraced[0].wall, speedup)
        for result, tracer in runs
    ]
    first, second = (counts(tracer, metrics) for (_, tracer), metrics in zip(runs, results))
    everything = untraced + [result for result, _ in runs]
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    notes = [f"{workload} seed={seed}: traced at --jobs 1; metrics from the second traced pass"]
    if first != second:
        mismatched = sorted(k for k in first if first[k] != second.get(k))
        print(f"{workload}: counts differ between the two traced passes: {mismatched}", file=sys.stderr)
        failed += runs[-1][0].attempted
    tracer = runs[-1][1]
    if tracer.missing:
        notes.append("not found, so zero calls: " + ", ".join(tracer.missing))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}.json"
    tracer.write(path, {"workload": workload, "seed": seed, "metrics": results[-1], "counts": second})
    notes.append(f"spans written to {path.relative_to(ROOT)}")
    return results[-1], attempted, failed, notes


def run_all(args) -> int:
    """Run each workload in a fresh process and print one table."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(result.stderr)
        lines = result.stdout.strip().splitlines()
        if result.returncode != 0 or not lines:
            print(f"{workload}: exit code {result.returncode}")
            status = 1
            continue
        outcome = json.loads(lines[-1])
        for note in lines[:-1]:
            print(note)
        print(f"{workload}: correct={outcome['correct']} attempted={outcome['attempted']} failed={outcome['failed']}")
        status |= not outcome["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        if args.probe_setup:
            print(setup(args.workload, args.seed)[1])
            return 0
        if args.trace:
            metrics, attempted, failed, notes = measure_traced(args.workload, args.seed)
        else:
            metrics, attempted, failed, notes = measure(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    for note in notes:
        print(note)
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
