import pytest

import lasched
from lasched.cli import dispatch


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
