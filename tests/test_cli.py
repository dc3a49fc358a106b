import shlex
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


def test_verify_output_is_byte_identical_and_jobs_invariant(capsys):
    args = ("verify", "--alg", "ls", "--m", "2", "--k", "0",
            "--nmax", "4", "--values", "1,2,3", "--bound", "3/2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    code4, out4, _ = run(capsys, *args, "--jobs", "4")
    assert code1 == code2 == code4 == 0
    assert out1 == out2
    assert out1 == out4


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
# input (206/125 against 33/25) and than any ratio the verify grids reach.
# Each case's directory under cli_golden/ holds its expected stdout, stderr
# and exit code, plus every file the command writes; commands run in a
# scratch directory that holds only copies of the FIXTURES below.
GOLDEN_COMMANDS = {
    "simulate_trace": "simulate --alg 2la1 --m 2 --k 1 --family theorem2:n=6 --trace",
    "simulate_file": "simulate --alg ls --m 2 --instance jobs.txt",
    "simulate_2la1_budget": "simulate --alg 2la1 --m 2 --instance la2_budget.txt --trace",
    "simulate_3la1_budget": "simulate --alg 3la1 --m 3 --instance la3_budget.txt --trace",
    "oracle_thm4": "oracle --m 3 --family thm4:case=1",
    "oracle_lb_infeasible": "oracle --m 3 --instance lb_infeasible.txt",
    "oracle_m2_tight": "oracle --m 2 --instance m2_tight.txt",
    "verify_2la1_n7": "verify --alg 2la1 --m 2 --k 1 --nmax 7 --values 1,2,3 --bound 4/3",
    "verify_2la1_n5": "verify --alg 2la1 --m 2 --k 1 --nmax 5 --values 1,2,3,4,5,6 --bound 4/3",
    "verify_3la1_n6": "verify --alg 3la1 --m 3 --k 1 --nmax 6 --values 1,2,3 --bound 16/11",
    "adversary_thm1": "adversary --game thm1 --alg ls --n 100 --k 1 --x 1",
    "adversary_thm4": "adversary --game thm4 --alg 3la1",
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
    "error_values_empty": "verify --alg ls --m 2 --nmax 2 --values '' --bound 3/2",
    "error_values_token": "verify --alg ls --m 2 --nmax 2 --values 1,x --bound 3/2",
    "error_values_duplicate": "verify --alg ls --m 2 --nmax 2 --values 1,1 --bound 3/2",
    "error_bound_below_one": "verify --alg ls --m 2 --nmax 2 --values 1,2 --bound 0",
    "error_instance_not_utf8": "oracle --m 2 --instance not_utf8.txt",
}


# the input files every golden command finds in its scratch directory
FIXTURES = (
    "jobs.txt", "la2_budget.txt", "la3_budget.txt", "lb_infeasible.txt", "m2_tight.txt",
    "not_utf8.txt",
)


@pytest.mark.parametrize("case", GOLDEN_COMMANDS)
def test_cli_bytes_match_golden(capsys, tmp_path, monkeypatch, case):
    for name in FIXTURES:
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *shlex.split(GOLDEN_COMMANDS[case]))
    expected = {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}
    assert code == int(expected.pop("exit"))
    assert out.encode() == expected.pop("stdout")
    assert err.encode() == expected.pop("stderr")
    written = {
        path.name: path.read_bytes() for path in tmp_path.iterdir() if path.name not in FIXTURES
    }
    assert written == expected
