import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import lasched
from lasched import SchedulerId, policy_for
from lasched.cli import dispatch

GOLDEN = Path(__file__).parent / "cli_golden"


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_family(capsys):
    code, out, _ = run(capsys, "simulate", "--alg", "2la1", "--m", "2", "--k", "1",
                       "--family", "theorem2:n=6")
    assert code == 0
    assert "alg_makespan: 24" in out
    assert "opt_makespan: 18" in out
    assert "ratio: 4/3" in out


def test_simulate_instance_file(capsys, tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text("1\n1\n2\n")
    code, out, _ = run(capsys, "simulate", "--alg", "ls", "--m", "2", "--instance", str(path))
    assert code == 0
    assert "alg_makespan: 3" in out
    assert "k: 0" in out  # ls defaults to no lookahead


def test_simulate_trace(capsys):
    code, out, _ = run(capsys, "simulate", "--alg", "3la1", "--m", "3",
                       "--family", "thm4:case=1", "--trace")
    assert code == 0
    assert "job 1: p=7 future=[4] -> M3" in out
    assert "job 5: p=11 future=[] -> M2" in out


def test_simulate_trace_runs_the_policy_once(capsys, monkeypatch):
    policy = policy_for(SchedulerId.THREE_LA1)
    choose = policy.choose
    calls = []

    def counted(loads, window):
        calls.append(window)
        return choose(loads, window)

    monkeypatch.setattr(policy, "choose", counted)
    code, _, _ = run(capsys, "simulate", "--alg", "3la1", "--m", "3",
                     "--family", "thm4:case=1", "--trace")
    assert code == 0
    assert len(calls) == 5


def test_simulate_scheduler_machine_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "simulate", "--alg", "2la1", "--m", "3", "--family", "fig1")
    assert code == 1
    assert "requires m=2" in err


def test_simulate_requires_an_instance_source(capsys):
    code, _, err = run(capsys, "simulate", "--alg", "ls", "--m", "2")
    assert code == 1
    assert "--instance or --family" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "simulate", "--alg", "ls", "--m", "2", "--nope")
    assert code == 1


def test_oracle(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "2", "--family", "fig1")
    assert code == 0
    assert "opt_makespan: 2" in out
    assert "witness_machines: 1,1,2" in out


def test_oracle_answers_more_than_twelve_jobs_at_m5(capsys):
    code, out, err = run(capsys, "oracle", "--m", "5", "--family", "lemma6:x=1")
    assert code == 0
    assert err == ""
    assert "opt_makespan: 7\n" in out
    assert "lower_bound: 33/5\n" in out


def test_oracle_answers_660_unit_jobs_at_m3(capsys):
    code, out, err = run(capsys, "oracle", "--m", "3", "--family", "lemma6:x=20")
    assert code == 0
    assert err == ""
    assert "opt_makespan: 220\n" in out
    witness = out.split("witness_machines: ")[1].rstrip("\n").split(",")
    assert [witness.count(str(machine)) for machine in (1, 2, 3)] == [220, 220, 220]


# one search gives every witness, with no scaled-total cap at m = 2
@pytest.mark.parametrize("m,family,opt", [("3", "lemma6:x=100", 1100), ("2", "lemma6:x=700", 11550)])
def test_oracle_answers_long_unit_instances(capsys, m, family, opt):
    code, out, err = run(capsys, "oracle", "--m", m, "--family", family)
    assert code == 0
    assert err == ""
    assert f"opt_makespan: {opt}\n" in out
    witness = out.split("witness_machines: ")[1].rstrip("\n").split(",")
    assert [witness.count(str(machine)) for machine in range(1, int(m) + 1)] == [opt] * int(m)


@pytest.mark.parametrize("m", ["0", "-1"])
def test_oracle_rejects_too_few_machines(capsys, m):
    code, out, err = run(capsys, "oracle", "--m", m, "--family", "fig1")
    assert code == 1
    assert out == ""
    assert err == f"error: machine count must be >= 2, got {m}\n"


def test_verify_clean_space_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--alg", "2la1", "--m", "2", "--k", "1",
                       "--nmax", "4", "--values", "1,2", "--bound", "4/3")
    assert code == 0
    assert "violations: 0" in out
    assert "max_ratio: 4/3" in out


def test_verify_violations_exit_two_and_are_printed_verbatim(capsys):
    code, out, _ = run(capsys, "verify", "--alg", "2la1", "--m", "2", "--k", "1",
                       "--nmax", "4", "--values", "1,2,4", "--bound", "4/3")
    assert code == 2
    assert "violation: 1,2,1,4 ratio 3/2" in out


def test_verify_output_is_byte_identical_and_jobs_invariant(capsys, tmp_path):
    args = ("verify", "--alg", "ls", "--m", "2", "--k", "0",
            "--nmax", "4", "--values", "1,2,3", "--bound", "3/2")
    code1, out1, _ = run(capsys, *args, "--csv", str(tmp_path / "jobs1.csv"))
    code2, out2, _ = run(capsys, *args)
    code4, out4, _ = run(capsys, *args, "--jobs", "4", "--csv", str(tmp_path / "jobs4.csv"))
    assert code1 == code2 == code4 == 0
    assert out1 == out2
    assert out1 == out4
    assert (tmp_path / "jobs1.csv").read_bytes() == (tmp_path / "jobs4.csv").read_bytes()


def test_verify_csv(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, _, _ = run(capsys, "verify", "--alg", "2la1", "--m", "2", "--k", "1",
                     "--nmax", "3", "--values", "1,2", "--bound", "4/3",
                     "--csv", str(path))
    assert code == 0
    content = path.read_text()
    assert content.startswith("scheduler,instance,m,k,alg_makespan,opt_makespan,ratio,ratio_decimal")


def test_adversary_thm1(capsys):
    code, out, _ = run(capsys, "adversary", "--game", "thm1", "--alg", "ls",
                       "--n", "100", "--k", "1", "--x", "1")
    assert code == 0
    assert "ratio: 49/37" in out
    assert "case: 2" in out


def test_adversary_thm4(capsys):
    code, out, _ = run(capsys, "adversary", "--game", "thm4", "--alg", "3la1")
    assert code == 0
    assert "case: 3b.1" in out
    assert "instance: 7,4,4,7,8" in out
    assert "ratio: 15/11" in out


def test_adversary_defaults_and_thm4_at_k1_keep_their_golden_bytes(capsys):
    code, out, _ = run(capsys, "adversary", "--game", "thm1", "--alg", "ls", "--k", "1")
    assert code == 0
    assert out.encode() == (GOLDEN / "adversary_thm1" / "stdout").read_bytes()
    code, out, _ = run(capsys, "adversary", "--game", "thm4", "--alg", "3la1", "--k", "1")
    assert code == 0
    assert out.encode() == (GOLDEN / "adversary_thm4" / "stdout").read_bytes()


# argparse words its usage lines differently across Python versions, so these
# are pinned by exit code and a substring, not by golden bytes
@pytest.mark.parametrize(
    "argv,message",
    [
        ("oracle --m 3 --k 7 --family fig1", "unrecognized arguments: --k 7"),
        ("adversary --game thm4 --alg 3la1 --k 5", "--game thm4 takes no --n, no --x and no --k other than 1"),
        ("adversary --game thm4 --alg 3la1 --n 3", "--game thm4 takes no --n, no --x and no --k other than 1"),
        ("adversary --game thm4 --alg 3la1 --x 9", "--game thm4 takes no --n, no --x and no --k other than 1"),
        ("simulate --alg ls --m 2 --instance jobs.txt --family fig1", "not allowed with argument"),
        ("oracle --m 2 --family fig1 --instance jobs.txt", "not allowed with argument"),
    ],
)
def test_cli_refuses_options_it_would_ignore(capsys, argv, message):
    code, out, err = run(capsys, *shlex.split(argv))
    assert code == 1
    assert out == ""
    assert message in err


def test_generate_family_round_trips(capsys):
    code, out, _ = run(capsys, "generate", "--family", "lemma5a")
    assert code == 0
    assert out == "17\n14\n1\n1\n"


def test_generate_random_is_seed_deterministic(capsys):
    code, out1, _ = run(capsys, "generate", "--random", "5", "--values", "1,2,3", "--seed", "7")
    assert code == 0
    code, out2, _ = run(capsys, "generate", "--random", "5", "--values", "1,2,3", "--seed", "7")
    assert out1 == out2
    code, out3, _ = run(capsys, "generate", "--random", "5", "--values", "1,2,3", "--seed", "8")
    assert out1 != out3


def test_sweep_range(capsys):
    code, out, _ = run(capsys, "sweep", "--alg", "2la1", "--m", "2", "--k", "1",
                       "--family", "theorem2:n=4..6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("theorem2:n=4:")
    assert all("ratio=4/3" in line for line in lines)


def test_sweep_thm4_expands_all_cases(capsys):
    code, out, _ = run(capsys, "sweep", "--alg", "3la1", "--m", "3", "--family", "thm4")
    assert code == 0
    assert len(out.splitlines()) == 9


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out == f"lasched {lasched.__version__}\n"


# The README cookbook (less its --jobs 4 run, which the jobs-invariance test
# above covers), the error paths, two oracle calls whose lower bound is
# infeasible, so their witness comes from a bisected cap: one at m = 3 and
# one at m = 2 (25 jobs from 700..780, a shape no benchmark workload runs),
# and one trace per lookahead policy whose job 1 misses M1's budget by one
# unit (3*81 = 243 > 242 and 33*17 = 561 > 560), worse than LS on the same
# input (206/125 against 33/25) and than any ratio the verify grids reach,
# a 2la1 run on 3000000,3000000, whose OPT needs the gcd division, one on
# the coprime 3000001,3000000, whose OPT comes from the search's lower-bound
# probe because the m = 2 bitset would pass its cap, and a 3la1 trace on a
# fractional instance, whose records are built on read from a run on the
# instance scaled to integers, the thm4 game's revealed windows, which print
# through the same helper as simulate's trace, and a 3la1 verify through the
# process pool on a descending, non-integer grid, whose scan scores in grid
# units and must unscale its ratios and break ties by value.
# Each case's directory under cli_golden/ holds its expected stdout, stderr
# and exit code, plus every file the command writes; commands run in a
# scratch directory that holds only copies of the FIXTURES below.
GOLDEN_COMMANDS = {
    "simulate_trace": "simulate --alg 2la1 --m 2 --k 1 --family theorem2:n=6 --trace",
    "simulate_file": "simulate --alg ls --m 2 --instance jobs.txt",
    "simulate_2la1_budget": "simulate --alg 2la1 --m 2 --instance la2_budget.txt --trace",
    "simulate_3la1_budget": "simulate --alg 3la1 --m 3 --instance la3_budget.txt --trace",
    "simulate_2la1_gcd": "simulate --alg 2la1 --m 2 --instance gcd.txt",
    "simulate_2la1_coprime": "simulate --alg 2la1 --m 2 --instance coprime.txt",
    "simulate_3la1_fraction_trace": "simulate --alg 3la1 --m 3 --instance jobs.txt --trace",
    "oracle_thm4": "oracle --m 3 --family thm4:case=1",
    "oracle_lb_infeasible": "oracle --m 3 --instance lb_infeasible.txt",
    "oracle_m2_tight": "oracle --m 2 --instance m2_tight.txt",
    "verify_2la1_n7": "verify --alg 2la1 --m 2 --k 1 --nmax 7 --values 1,2,3 --bound 4/3",
    "verify_2la1_n5": "verify --alg 2la1 --m 2 --k 1 --nmax 5 --values 1,2,3,4,5,6 --bound 4/3",
    "verify_3la1_n6": "verify --alg 3la1 --m 3 --k 1 --nmax 6 --values 1,2,3 --bound 16/11",
    "verify_3la1_fractional": "verify --alg 3la1 --m 3 --k 1 --nmax 5 --values 3/2,1,1/2 --bound 16/11 --jobs 2",
    "adversary_thm1": "adversary --game thm1 --alg ls --n 100 --k 1 --x 1",
    "adversary_thm4": "adversary --game thm4 --alg 3la1",
    "adversary_thm4_trace": "adversary --game thm4 --alg 3la1 --trace",
    "generate_family": "generate --family lemma6:x=1 --output units33.txt",
    "generate_random": "generate --random 20 --values 1,2,3 --seed 7",
    "sweep_theorem2": "sweep --alg 2la1 --m 2 --k 1 --family theorem2:n=4..20 --csv sweep.csv",
    "sweep_thm4": "sweep --alg 3la1 --m 3 --k 1 --family thm4",
    "error_mismatch": "simulate --alg 2la1 --m 3 --family fig1",
    "error_k0": "simulate --alg 2la1 --m 2 --k 0 --family fig1",
    "error_m0": "oracle --m 0 --family fig1",
    "error_family_unknown": "generate --family nope",
    "error_family_bare_with_param": "generate --family fig1:x=1",
    "error_family_wrong_key": "generate --family theorem2:x=4",
    "error_family_not_integer": "generate --family theorem2:n=six",
    "error_family_theorem2_low": "generate --family theorem2:n=3",
    "error_family_corollary21_low": "generate --family corollary21:x=0",
    "error_family_lemma6_low": "generate --family lemma6:x=0",
    "error_family_thm4_case": "generate --family thm4:case=4",
    "error_family_bad_range": "sweep --alg ls --m 2 --family theorem2:n=4..x",
    "error_family_reversed_range": "sweep --alg 2la1 --m 2 --family theorem2:n=20..4",
    "error_values_empty": "verify --alg ls --m 2 --nmax 2 --values '' --bound 3/2",
    "error_values_token": "verify --alg ls --m 2 --nmax 2 --values 1,x --bound 3/2",
    "error_values_duplicate": "verify --alg ls --m 2 --nmax 2 --values 1,1 --bound 3/2",
    "error_bound_below_one": "verify --alg ls --m 2 --nmax 2 --values 1,2 --bound 0",
    "error_bound_token": "verify --alg ls --m 2 --nmax 2 --values 1,2 --bound x",
    "error_x_decimal": "adversary --game thm1 --alg ls --x 0.5",
    "error_instance_not_utf8": "oracle --m 2 --instance not_utf8.txt",
}


# the input files every golden command finds in its scratch directory
FIXTURES = (
    "jobs.txt", "la2_budget.txt", "la3_budget.txt", "lb_infeasible.txt", "m2_tight.txt",
    "not_utf8.txt", "gcd.txt", "coprime.txt",
)


# each run maps to (golden directory, command); two verify cases also run
# through the process pool, which gives each of two or three workers its
# range of every length as one task, with its own move and OPT tables, and
# must print the same bytes as one task
GOLDEN_RUNS = {case: (case, command) for case, command in GOLDEN_COMMANDS.items()}
GOLDEN_RUNS.update(
    {
        f"{case}_jobs{jobs}": (case, f"{GOLDEN_COMMANDS[case]} --jobs {jobs}")
        for case in ("verify_3la1_n6", "verify_2la1_n7")
        for jobs in (2, 3)
    }
)


@pytest.mark.parametrize("case", GOLDEN_RUNS)
def test_cli_bytes_match_golden(capsys, tmp_path, monkeypatch, case):
    golden, command = GOLDEN_RUNS[case]
    for name in FIXTURES:
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *shlex.split(command))
    expected = {path.name: path.read_bytes() for path in (GOLDEN / golden).iterdir()}
    assert code == int(expected.pop("exit"))
    assert out.encode() == expected.pop("stdout")
    assert err.encode() == expected.pop("stderr")
    written = {
        path.name: path.read_bytes() for path in tmp_path.iterdir() if path.name not in FIXTURES
    }
    assert written == expected


def test_python_m_lasched_runs_the_cli(tmp_path):
    # `python -m lasched` from the source tree, with no install
    src = Path(lasched.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "lasched", *shlex.split(GOLDEN_COMMANDS["verify_3la1_n6"])],
        capture_output=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert result.returncode == 2
    assert result.stdout == (GOLDEN / "verify_3la1_n6" / "stdout").read_bytes()
    assert result.stderr == (GOLDEN / "verify_3la1_n6" / "stderr").read_bytes()
