#!/usr/bin/env python3
"""Self-test of the benchmark's checks: a wrong reference must make failed_frac > 0.

    python3 bench/selftest.py

Runs verify-m3 once against a copy of its committed reference with one
field changed, and the first oracle-mix calls against a brute force that is
off by one.  Exits 0 when both are reported as failures and the untouched
references are not.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def failed_frac(result: run.Pass) -> float:
    return result.failed / result.attempted


def main() -> int:
    errors = []

    inputs, _ = run.setup("verify-m3", seed=1)
    reference = json.loads(run.REFERENCE.read_text())["verify-m3"]
    wrong = dict(reference, max_ratio="3/2")
    if failed_frac(run.verify_pass(inputs, 2, wrong)) <= 0:
        errors.append("verify-m3: a wrong max_ratio in the reference went unnoticed")

    inputs, _ = run.setup("oracle-mix", seed=1)
    inputs.calls = inputs.calls[:3]  # three m=3 instances with n=8, all brute-forced
    if failed_frac(run.oracle_mix_pass(inputs, run.OracleChecker())) != 0:
        errors.append("oracle-mix: the correct brute-force reference was rejected")
    off_by_one = run.OracleChecker(lambda times, m: run.brute_force_makespan(times, m) + 1)
    if failed_frac(run.oracle_mix_pass(inputs, off_by_one)) <= 0:
        errors.append("oracle-mix: a brute-force reference off by one went unnoticed")

    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest:", "failed" if errors else "ok (wrong references give failed_frac > 0)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
