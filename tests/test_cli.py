"""Command-line interface: exit codes, config files, CSV outputs."""

import csv

import pytest

from stiffbvp import bench
from stiffbvp.cli import main


def test_solve_success(tmp_path, capsys):
    out = tmp_path / "solution.csv"
    code = main(["solve", "--problem", "troesch", "--lambda", "3",
                 "--out", str(out), "--quiet"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "u1", "u2", "transform"]
    assert len(rows) > 2


def test_solve_missing_lambda_is_config_error():
    assert main(["solve", "--problem", "troesch", "--quiet"]) == 3


def test_unknown_flag_is_config_error(capsys):
    assert main(["solve", "--no-such-flag"]) == 3


# 1e-12 asks for 10**12 knots, past the cold-start knot cap
@pytest.mark.parametrize("h0", ["0", "-1", "nan", "1e-12"])
def test_bad_cold_start_step_is_config_error(h0):
    assert main(["solve", "--lambda", "3", "--h0", h0, "--quiet"]) == 3


def test_infinite_lambda_is_config_error():
    assert main(["solve", "--lambda", "inf", "--quiet"]) == 3


# each would solve before the fault showed, if it showed at all
@pytest.mark.parametrize("argv", [
    ["solve", "--lambda", "3", "--tol", "inf"],
    ["solve", "--lambda", "3", "--h-min", "0.01", "--h-max", "inf"],
    ["srn", "--delta-lambda", "inf"],
    ["deep", "--lambda", "4", "--h-fine", "inf"]],
    ids=["tol", "h-max", "delta-lambda", "h-fine"])
def test_infinite_setting_is_config_error_before_any_solve(monkeypatch,
                                                           argv):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve was made")

    monkeypatch.setattr(bench, "newton_solve", no_solve)
    assert main(argv + ["--quiet"]) == 3


def test_unknown_problem_is_config_error():
    assert main(["solve", "--problem", "nope", "--quiet"]) == 3


def test_solver_failure_exit_code():
    # identity strategy on a coarse fixed mesh cannot reach lambda = 30
    code = main(["solve", "--problem", "troesch", "--lambda", "30",
                 "--strategy", "identity", "--quiet"])
    assert code == 2


def test_auto_strategy_keeps_swaps_off_the_boundary():
    # the knots keep their order in normalize, so no swap the strategy
    # kept off a boundary interval is carried onto one
    code = main(["solve", "--lambda", "8", "--strategy", "auto",
                 "--h-min", "0.01", "--h-max", "0.1", "--quiet"])
    assert code == 0


def test_config_file_supplies_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 3  # stiffness\nh0 = 0.1\n")
    out = tmp_path / "solution.csv"
    code = main(["solve", "--config", str(cfg), "--out", str(out),
                 "--quiet"])
    assert code == 0
    assert out.exists()


def test_explicit_flag_beats_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 30\n")        # would fail
    code = main(["solve", "--config", str(cfg), "--lambda", "3", "--quiet"])
    assert code == 0


def test_config_file_sets_a_flag_with_a_default(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 3\nh0 = 0.05\n")
    out = tmp_path / "solution.csv"
    assert main(["solve", "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 0
    with open(out, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 21


def test_config_file_value_outside_choices(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("stop = bogus\n")
    assert main(["srn", "--config", str(cfg), "--lambda-cap", "4",
                 "--quiet"]) == 3


def test_config_file_bad_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("no_such_option = 1\n")
    assert main(["solve", "--config", str(cfg), "--quiet"]) == 3


def test_config_file_bad_syntax(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("just a line\n")
    assert main(["solve", "--config", str(cfg), "--quiet"]) == 3


def test_config_file_missing(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "absent.cfg"),
                 "--quiet"]) == 3


def test_half_refinement_pair_rejected():
    assert main(["solve", "--problem", "troesch", "--lambda", "3",
                 "--h-min", "0.01", "--quiet"]) == 3


def test_srn_command(tmp_path):
    out = tmp_path / "srn.csv"
    code = main(["srn", "--stop", "convergence", "--lambda-cap", "5",
                 "--out", str(out), "--quiet"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[-1][0] == "srn"
    assert rows[-1][2] == "lambda-cap"


def test_srn_non_troesch_rejected():
    assert main(["srn", "--problem", "linear", "--quiet"]) == 3


def test_errors_command(tmp_path):
    out = tmp_path / "errors.csv"
    code = main(["errors", "--lambdas", "2,3", "--out", str(out),
                 "--quiet"])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert rows[1][-1] == "ok"
    assert float(rows[1][1]) < 1.0


def test_errors_bad_lambda_list():
    assert main(["errors", "--lambdas", "2,,x", "--quiet"]) == 3
    assert main(["errors", "--lambdas", ",", "--quiet"]) == 3


def test_progress_goes_to_stderr(tmp_path, capsys):
    main(["solve", "--problem", "troesch", "--lambda", "3"])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "solving" in captured.err


def test_deep_command(tmp_path):
    out = tmp_path / "deep.csv"
    assert main(["deep", "--lambda", "4", "--h-fine", "1e-2",
                 "--out", str(out), "--quiet"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "u1", "u2", "transform"]
    assert len(rows) > 2


@pytest.mark.parametrize("flags", [
    ["--lambda", "0"], ["--lambda", "nan"], ["--lambda", "inf"],
    ["--h-fine", "0"], ["--h-fine", "-1"], ["--h-fine", "nan"],
    ["--strategy", "identity"]])
def test_deep_bad_option_is_config_error(flags):
    assert main(["deep"] + flags + ["--quiet"]) == 3


def test_deep_config_file_supplies_lambda(tmp_path, capsys):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("lambda = 4\nh_fine = 0.01\n")
    assert main(["deep", "--config", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert "lambda=4: " in err
    assert "rel err " in err


def test_deep_quiet_prints_nothing(tmp_path, capsys):
    assert main(["deep", "--lambda", "4", "--h-fine", "1e-2",
                 "--out", str(tmp_path / "deep.csv"), "--quiet"]) == 0
    captured = capsys.readouterr()
    assert captured.out == captured.err == ""
