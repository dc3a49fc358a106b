"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line.  All
comparisons are exact rational equalities; there are no tolerances anywhere.

Criterion 2 pins Theorem 2 tightness as the admission rule delivers it on the
theorem2:n family (n-3 unit jobs, then n, 2n+3, 2n): for every n in 4..20 the
optimum is 3n and the 2la1 makespan is 4n - floor((n-4)/3), so the ratio is
exactly 4/3 for n in {4, 5, 6} and strictly below it from n = 7 on.  A
makespan of 4n for every n cannot be met by any policy that also meets
criterion 3:

1. The jobs total 6n, so makespan 4n leaves exactly 2n on the other machine.
   The only subset summing to 2n is the final job alone, so all n-3 unit
   jobs must share one machine.
2. For n >= 7 each of the first three jobs is a unit followed by a unit, so
   their loads and lookahead windows are those of jobs 1-3 in a run of four
   unit jobs.
3. Criterion 3 puts floor(8/3) = 2 of those four units on M1.  At most one
   of them is the final job, so jobs 1-3 cannot all sit on one machine.

Under 2la1 the split happens at job 3: with loads (2, 0) and the window
(1, 1), 3*(2+1) = 9 > 8 = 2*(2+0+1+1), so job 3 goes to M2.
"""

from fractions import Fraction as F

import pytest

from brute_force import exhaustive_optimal_makespan
from lasched import (
    FamilyId,
    LookaheadWindow,
    SchedulerId,
    enumerate_instances,
    ls_schedule,
    make_instance,
    named_instance,
    optimal_makespan_value,
    play_theorem1,
    policy_for,
    run_one,
    three_la1_schedule,
    two_la1_schedule,
    verify_bound,
)
from lasched.cli import dispatch

VALUES_123 = (F(1), F(2), F(3))
VALUES_16 = tuple(F(v) for v in range(1, 7))


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_figure1_reproduction():
    instance = named_instance(FamilyId("fig1"))
    ls = ls_schedule(instance, 2)
    la = two_la1_schedule(instance)
    opt = optimal_makespan_value(instance, 2)
    ok = ls.makespan == 3 and la.makespan == 2 and opt == 2
    _report(1, ok, f"ls={ls.makespan} 2la1={la.makespan} opt={opt} on 1,1,2")


def test_criterion_02_theorem2_tightness():
    # loads (2, 0) before job 3, window (1, 1): 3*(2+1) = 9 > 8 = 2*(2+0+1+1)
    window = LookaheadWindow(F(1), (F(1),))
    third_unit = policy_for(SchedulerId.TWO_LA1).choose((F(2), F(0)), window)
    mismatches = []
    for n in range(4, 21):
        instance = named_instance(FamilyId("theorem2", n))
        trace = two_la1_schedule(instance)
        opt = optimal_makespan_value(instance, 2)
        ratio = trace.makespan / opt
        expected = 4 * n - (n - 4) // 3
        ok = opt == 3 * n and trace.makespan == expected
        if n <= 6:
            ok = ok and ratio == F(4, 3)
        else:
            ok = ok and ratio < F(4, 3) and third_unit == 2
            ok = ok and trace.decisions[:3] == (1, 1, 2)
        if not ok:
            mismatches.append((n, trace.makespan, expected, opt, ratio, trace.decisions[:3]))
    detail = (
        "opt == 3n and 2la1 makespan == 4n - floor((n-4)/3) for every n in 4..20: "
        "ratio 4/3 for n in 4..6, below 4/3 from n = 7 (job 3 overflows to M2)"
    )
    if mismatches:
        listed = "; ".join(
            f"n={n}: alg={alg} (expected {expected}), opt={opt} (3n={3*n}), "
            f"ratio={ratio}, jobs 1-3 on {','.join(map(str, first))}"
            for n, alg, expected, opt, ratio, first in mismatches
        )
        detail = (
            f"2la1 puts job 3 on M{third_unit} at loads (2, 0), window (1, 1); mismatches: "
            + listed
        )
    _report(2, not mismatches, detail)


def test_criterion_03_equal_job_structure():
    six = two_la1_schedule(make_instance([1] * 6))
    opt = optimal_makespan_value(make_instance([1] * 6), 2)
    ok = six.makespan == 4 and opt == 3
    counts_ok = True
    for n in range(1, 31):
        trace = two_la1_schedule(make_instance([1] * n))
        if trace.decisions.count(1) != (2 * n) // 3:
            counts_ok = False
            break
    _report(
        3,
        ok and counts_ok,
        f"6 unit jobs: alg={six.makespan} opt={opt} (ratio 4/3); "
        f"floor(2n/3) jobs on M1 for all n <= 30: {counts_ok}",
    )


def test_criterion_04_ambush_family_and_three_la1():
    opts = {
        case: optimal_makespan_value(named_instance(FamilyId("thm4", case)), 3)
        for case in ("1", "2.1", "2.2", "2.3", "3a.1", "3a.2", "3a.3", "3b.1", "3b.2")
    }
    trace = three_la1_schedule(make_instance([7, 4, 4, 7, 11]))
    ratio = F(trace.makespan, 11)
    ok = (
        all(opt == 11 for opt in opts.values())
        and trace.makespan == 15
        and F(15, 11) <= ratio <= F(16, 11)
    )
    _report(4, ok, f"all 9 case opts = 11; 3la1 on 7,4,4,7,11 -> {trace.makespan} (ratio {ratio})")


def test_criterion_05_pmax_dominated_sequences():
    results = {}
    for times in ([16, 16, 1], [17, 14, 1, 1], [1, 1, 14, 17]):
        instance = make_instance(times)
        trace = three_la1_schedule(instance)
        opt = optimal_makespan_value(instance, 3)
        results[tuple(times)] = (trace.makespan, opt, instance.max_time)
    named_ok = all(alg == opt == pmax for alg, opt, pmax in results.values())

    units = make_instance([1] * 33)
    trace = three_la1_schedule(units)
    opt = optimal_makespan_value(units, 3)
    units_ok = trace.makespan <= 16 and opt == 11
    _report(
        5,
        named_ok and units_ok,
        f"alg == opt == pmax on the three sequences: {named_ok}; "
        f"33 unit jobs: alg={trace.makespan} (<= 16), opt={opt}",
    )


def _surface(violations) -> str:
    return "; ".join(
        f"{','.join(str(p) for p in inst.processing_times)} -> {ratio}"
        for inst, ratio in violations
    )


def test_criterion_06_two_la1_bound_verification(capsys):
    report_a = verify_bound(SchedulerId.TWO_LA1, 2, 1, 7, VALUES_123, F(4, 3))
    ok_a = report_a.violations == () and report_a.instances_checked == 3279

    report_b = verify_bound(SchedulerId.TWO_LA1, 2, 1, 5, VALUES_16, F(4, 3))
    # space (b) REFUTES the 4/3 bound: the contract is then to surface every
    # counterexample verbatim and exit 2 from the CLI
    surfaced_ok = True
    if report_b.violations:
        for instance, ratio in report_b.violations:
            rerun = run_one(SchedulerId.TWO_LA1, instance, 2, 1)
            surfaced_ok = surfaced_ok and rerun.ratio == ratio and ratio > F(4, 3)
        code = dispatch(
            ["verify", "--alg", "2la1", "--m", "2", "--k", "1",
             "--nmax", "5", "--values", "1,2,3,4,5,6", "--bound", "4/3"]
        )
        out = capsys.readouterr().out
        surfaced_ok = surfaced_ok and code == 2
        surfaced_ok = surfaced_ok and all(
            f"violation: {','.join(str(p) for p in inst.processing_times)} ratio" in out
            for inst, _ in report_b.violations
        )
    ok = ok_a and surfaced_ok
    detail = (
        f"space (a) n<=7 {{1,2,3}}: {report_a.instances_checked} instances, "
        f"max {report_a.max_ratio}, violations {len(report_a.violations)}; "
        f"space (b) n<=5 {{1..6}}: max {report_b.max_ratio}, "
        f"{len(report_b.violations)} counterexamples to 4/3 surfaced with exit code 2"
        f" (max at {','.join(str(p) for p in report_b.argmax_instance.processing_times)})"
    )
    _report(6, ok, detail)


def test_criterion_07_three_la1_bound_verification(capsys):
    report = verify_bound(SchedulerId.THREE_LA1, 3, 1, 6, VALUES_123, F(16, 11))
    surfaced_ok = True
    if report.violations:
        for instance, ratio in report.violations:
            rerun = run_one(SchedulerId.THREE_LA1, instance, 3, 1)
            surfaced_ok = surfaced_ok and rerun.ratio == ratio and ratio > F(16, 11)
        code = dispatch(
            ["verify", "--alg", "3la1", "--m", "3", "--k", "1",
             "--nmax", "6", "--values", "1,2,3", "--bound", "16/11"]
        )
        out = capsys.readouterr().out
        surfaced_ok = surfaced_ok and code == 2
        surfaced_ok = surfaced_ok and all(
            f"violation: {','.join(str(p) for p in inst.processing_times)} ratio" in out
            for inst, _ in report.violations
        )
    detail = (
        f"n<=6 {{1,2,3}}: {report.instances_checked} instances, max {report.max_ratio}; "
        f"{len(report.violations)} counterexamples to 16/11 surfaced with exit code 2: "
        f"{_surface(report.violations[:3])}..."
        if report.violations
        else f"n<=6 {{1,2,3}}: zero violations of 16/11, max {report.max_ratio}"
    )
    _report(7, surfaced_ok, detail)


def test_criterion_08_baseline_sanity():
    ls_report = verify_bound(SchedulerId.LS, 2, 0, 7, VALUES_123, F(3, 2))
    la_report = verify_bound(SchedulerId.TWO_LA1, 2, 1, 7, VALUES_123, F(4, 3))
    ok = ls_report.violations == () and ls_report.max_ratio > la_report.max_ratio
    _report(
        8,
        ok,
        f"ls max {ls_report.max_ratio} (0 violations of 3/2) > 2la1 max {la_report.max_ratio}",
    )


def test_criterion_09_adversary_game_against_ls():
    at_100 = play_theorem1(SchedulerId.LS, 100, 1, F(1))
    ratios = {
        n: play_theorem1(SchedulerId.LS, n, 1, F(1)).ratio for n in (60, 80, 100, 200)
    }
    floor_ok = all(r >= F(13, 10) for r in ratios.values())
    approach_ok = F(4, 3) - ratios[200] < F(4, 3) - ratios[60] and all(
        r <= F(4, 3) for r in ratios.values()
    )
    ok = (
        at_100.final_instance.processing_times[-1] == 49
        and at_100.trace.makespan == 98
        and at_100.opt_makespan == 74
        and at_100.ratio == F(49, 37)
        and floor_ok
        and approach_ok
    )
    _report(
        9,
        ok,
        "n=100: y=49, 98 vs 74 (49/37); ratios "
        + ", ".join(f"n={n}: {r}" for n, r in sorted(ratios.items()))
        + " all >= 1.30 and approaching 4/3",
    )


def test_criterion_10_oracle_equivalence():
    cache: dict = {}
    checked = 0
    for n in range(1, 9):
        for instance in enumerate_instances(n, VALUES_123):
            key = tuple(sorted(instance.processing_times))
            for m in (2, 3):
                if (key, m) not in cache:
                    cache[key, m] = exhaustive_optimal_makespan(make_instance(key), m).makespan
                if optimal_makespan_value(instance, m) != cache[key, m]:
                    _report(10, False, f"DP != exhaustive on {instance.processing_times} m={m}")
            checked += 1
    _report(10, checked == 9840, f"DP == exhaustive m^n on all {checked} instances, m in {{2,3}}")


def test_criterion_11_property_suite():
    from lasched import policy_for, run_policy

    probes = [
        (SchedulerId.LS, 2, 0, [3, 1, 4, 1, 5]),
        (SchedulerId.TWO_LA1, 2, 1, [F(7, 2), 1, F(1, 3), 2, 2]),
        (SchedulerId.THREE_LA1, 3, 1, [7, 4, 4, 7, 11]),
    ]
    conservation_ok = scaling_ok = revelation_ok = True
    for scheduler, m, k, times in probes:
        instance = make_instance(times)
        trace = run_policy(instance, policy_for(scheduler), m, k)
        conservation_ok &= sum(trace.loads) == instance.total_time
        conservation_ok &= trace.makespan == max(trace.loads)

        scaled = make_instance([p * F(5, 3) for p in instance.processing_times])
        t2 = run_policy(scaled, policy_for(scheduler), m, k)
        scaling_ok &= t2.decisions == trace.decisions
        scaling_ok &= t2.makespan == trace.makespan * F(5, 3)

        for i in range(1, len(times)):
            if i + k >= len(times):
                break
            mutated = list(instance.processing_times)
            for j in range(i + k, len(times)):
                mutated[j] += 9
            t3 = run_policy(make_instance(mutated), policy_for(scheduler), m, k)
            revelation_ok &= t3.decisions[:i] == trace.decisions[:i]

    single = verify_bound(SchedulerId.TWO_LA1, 2, 1, 5, VALUES_123, F(4, 3), jobs=1)
    quad = verify_bound(SchedulerId.TWO_LA1, 2, 1, 5, VALUES_123, F(4, 3), jobs=4)
    determinism_ok = single == quad

    ok = conservation_ok and scaling_ok and revelation_ok and determinism_ok
    _report(
        11,
        ok,
        f"conservation {conservation_ok}, scaling {scaling_ok}, "
        f"revelation {revelation_ok}, jobs-1-vs-4 determinism {determinism_ok}",
    )
