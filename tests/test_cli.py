"""Command line interface: exit codes, JSON output, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gsmoment
from gsmoment import cli, conditions, interpolating
from gsmoment.cli import main

GEVREY3 = '{"kind":"gevrey","params":{"alpha":3.0}}'
GEVREY15 = '{"kind":"gevrey","params":{"alpha":1.5}}'
FLAT0 = '{"atoms":[["flat_halfline",0,1.0,0.0]]}'
TABLE2 = json.dumps({"kind": "table", "params": {
    "log_values": [2.0 * math.lgamma(p + 1) for p in range(257)]}})


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_decisive_weight_exits_zero(capsys):
    code, out, err = run(["classify", "--weight", GEVREY3,
                          "--horizon", "512"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["reports"]["gamma2"]["verdict"] == "Holds"
    assert data["horizon"] == 512


def test_classify_inconclusive_weight_exits_three(capsys, tmp_path):
    # gevrey(3) at the minimum horizon leaves beta2_1 undecided
    code, out, err = run(["classify", "--weight", GEVREY3,
                          "--horizon", "256"], capsys)
    data = json.loads(out)
    verdicts = {d["verdict"] for d in data["reports"].values()}
    if "Inconclusive" in verdicts:
        assert code == 3
    else:
        assert code == 0


def test_classify_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "verdicts.csv"
    code, out, err = run(["classify", "--weight", GEVREY3,
                          "--horizon", "512", "--csv", str(csv_path)],
                         capsys)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "condition,verdict"
    assert any(line.startswith("gamma2,") for line in lines)


def test_output_file_is_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(["classify", "--weight", GEVREY3,
                          "--horizon", "512", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_weight_config_from_file(tmp_path, capsys):
    cfg = tmp_path / "weight.json"
    cfg.write_text(GEVREY3)
    code, out, err = run(["classify", "--weight", str(cfg),
                          "--horizon", "512"], capsys)
    assert code == 0


def test_interpolate_reports_transfers(capsys):
    code, out, err = run(["interpolate", "--weight", GEVREY3,
                          "--horizon", "1024"], capsys)
    assert code == 0
    data = json.loads(out)
    assert set(data["transfers"]) == {"dc", "gamma_halved", "beta"}
    assert data["interpolated_horizon"] == 2048


def test_interpolate_builds_the_interpolant_once(monkeypatch, capsys):
    calls = [0]
    plain = interpolating.two_interpolate

    def counted(ws):
        calls[0] += 1
        return plain(ws)
    for module in (interpolating, cli):  # wherever the name is bound
        if hasattr(module, "two_interpolate"):
            monkeypatch.setattr(module, "two_interpolate", counted)
    code, out, err = run(["interpolate", "--weight", TABLE2], capsys)
    assert json.loads(out)["interpolated_horizon"] == 512
    assert calls[0] == 1


def test_seminorm_outputs_value_and_argmax(capsys):
    code, out, err = run(["seminorm", "--weight", GEVREY3,
                          "--horizon", "256", "--function", FLAT0,
                          "--order-cap", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["value"] > 0
    assert data["argmax"]["argmax_x"] > 0


@pytest.mark.parametrize("extra", [
    ["--scale", "inf"],
    ["--scale", "nan"],
    ["--order-cap", "-1"],
    ["--scale", "inf", "--amplitude", GEVREY15],
    ["--order-cap", "-1", "--amplitude", GEVREY15],
])
def test_seminorm_refuses_bad_scales_and_caps(extra, capsys):
    # with or without --amplitude, one check refuses the same arguments
    code, out, err = run(["seminorm", "--weight", GEVREY3, "--horizon", "256",
                          "--function", FLAT0] + extra, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: InvalidParameter:")


def test_moments_with_operator_chain(capsys):
    code, out, err = run(["moments", "--function", FLAT0,
                          "--max-order", "3", "--apply", "fold",
                          "--apply", "sqrt_sub"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["applied"] == ["fold", "sqrt_sub"]
    assert len(data["moments"]) == 4


def test_moments_rejects_sequence_operator(capsys):
    code, out, err = run(["moments", "--function", FLAT0,
                          "--apply", "sign_twist"], capsys)
    assert code == 2
    assert "sequences" in err


@pytest.mark.parametrize("argv", [
    ["moments", "--function", FLAT0, "--max-order", "200"],
    ["moments", "--function", '{"atoms":[["gaussian_poly",0,1.0,0.0]]}',
     "--max-order", "400"],
    ["seminorm", "--weight", '{"kind":"gevrey","params":{"alpha":0.5}}',
     "--function", '{"atoms":[["flat_halfline",0,1e300,0.0]]}',
     "--order-cap", "8"],
])
def test_non_finite_results_exit_one_without_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert sum(line.startswith("error:") for line in err.splitlines()) == 1


def test_overflowing_seminorm_is_refused_without_a_warning(capsys):
    argv = ["seminorm", "--weight", '{"kind":"gevrey","params":{"alpha":0.5}}',
            "--function", '{"atoms":[["flat_halfline",0,1e300,0.0]]}',
            "--order-cap", "8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "log_value" in err


@pytest.mark.parametrize("order", ["-3", "1025"])
def test_moment_order_outside_the_cap_is_a_usage_error(order, capsys):
    code, out, err = run(["moments", "--function", '{"atoms": []}',
                          "--max-order", order], capsys)
    assert code == 2
    assert out == ""


def test_solve_emits_solution_and_lambda_norm(capsys):
    code, out, err = run(["solve", "--weight", GEVREY3, "--horizon", "256",
                          "--target", "[1.0, 0.5, 2.0]"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["gate"]["verdict"] == "Holds"
    assert max(data["residuals"]) < 1e-6
    assert data["lambda_norm"] > 0
    assert len(data["coefficients"]) == 3


def test_solve_refusal_exits_one(capsys):
    code, out, err = run(["solve", "--weight", GEVREY15, "--horizon", "256",
                          "--target", "[1.0, 0.5]"], capsys)
    assert code == 1
    assert "ConditionRefused" in err
    assert out == ""


def test_solve_override_flag_recorded(capsys):
    code, out, err = run(["solve", "--weight", GEVREY15, "--horizon", "256",
                          "--target", "[1.0, 0.5]", "--override-gamma2"],
                         capsys)
    assert code == 0
    data = json.loads(out)
    assert data["gate"]["override"] is True
    assert data["gate"]["verdict"] == "Fails"


def test_solve_accepts_structured_target(tmp_path, capsys):
    tgt = tmp_path / "target.json"
    tgt.write_text('{"h": 0.5, "entries": [[1.0, 0.0], [0.0, 1.0]]}')
    code, out, err = run(["solve", "--weight", GEVREY3, "--horizon", "256",
                          "--target", str(tgt)], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["target"]["h"] == 0.5


def test_borel_ritt_subcommand(capsys):
    code, out, err = run(["borel-ritt", "--weight", GEVREY3,
                          "--horizon", "256",
                          "--entries", "[1.0, [0.0, 1.0], -0.5]"], capsys)
    assert code == 0
    data = json.loads(out)
    assert max(data["residuals"]) < 1e-5
    assert data["boundary_jet"][1] == [0.0, 1.0]


@pytest.mark.parametrize("argv", [
    ["borel-ritt", "--entries", "[1.0, [0.0, 1.0], -0.5]"],
    ["solve", "--target", "[1.0, 0.5, 2.0]"],
    ["verify"],
])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1e-6"])
def test_tolerances_that_switch_the_checks_off_exit_one(capsys, argv,
                                                        tolerance):
    code, out, err = run(argv + ["--weight", GEVREY3, "--horizon", "256",
                                 "--tolerance=" + tolerance], capsys)
    assert code == 1
    assert out == ""
    assert "InvalidParameter" in err and "tolerance" in err


def test_json_default_maps_numpy_complex_and_tuples():
    assert cli._json_default(np.float64(0.25)) == 0.25
    assert type(cli._json_default(np.float64(0.25))) is float
    assert cli._json_default(np.int64(7)) == 7
    assert type(cli._json_default(np.int64(7))) is int
    assert cli._json_default(1.5 - 2j) == [1.5, -2.0]
    assert cli._json_default((1, "a")) == [1, "a"]
    with pytest.raises(TypeError, match="not serializable"):
        cli._json_default({1, 2})
    text = json.dumps({"x": (np.float64(0.5), 1j)},
                      default=cli._json_default)
    assert json.loads(text) == {"x": [0.5, [0.0, 1.0]]}


def test_verify_battery_passes_on_solvable_weight(capsys):
    code, out, err = run(["verify", "--weight", GEVREY3,
                          "--horizon", "512"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["solve_check"]["passed"] is True


def test_verify_skips_solve_when_gate_fails(capsys):
    code, out, err = run(["verify", "--weight", GEVREY15,
                          "--horizon", "512"], capsys)
    data = json.loads(out)
    assert "skipped" in data["solve_check"]


def test_interpolate_and_verify_accept_table_weights(capsys):
    # the interpolant of a table ends where the table's data does, so the
    # rescaled-index checks read no index past it
    code, out, err = run(["interpolate", "--weight", TABLE2], capsys)
    assert code == 3
    data = json.loads(out)
    assert data["interpolated_horizon"] == 512
    assert {k: v["match"] for k, v in data["transfers"].items()} == {
        "dc": "agree", "beta": "agree", "gamma_halved": "unknown"}
    code, out, err = run(["verify", "--weight", TABLE2], capsys)
    assert code == 3
    data = json.loads(out)
    assert data["solve_check"] == {
        "skipped": "gate condition verdict is Inconclusive"}


def test_verify_reports_a_failed_solve(capsys):
    code, out, err = run(["verify", "--weight", GEVREY3, "--horizon", "512",
                          "--tolerance", "1e-40"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["classification"]["gamma2"] == "Holds"
    assert data["interpolation"]["dc"] == "agree"
    check = data["solve_check"]
    assert check["degree"] == 3 and check["passed"] is False
    assert check["error"].startswith("quadrature unresolved")


def test_verify_checks_each_condition_once(monkeypatch, capsys):
    calls = []
    for name, check in conditions._CHECKS.items():
        def counted(ws, name=name, check=check):
            calls.append((ws.kind, name))
            return check(ws)
        monkeypatch.setitem(conditions._CHECKS, name, counted)
    code, out, err = run(["verify", "--weight", GEVREY3,
                          "--horizon", "256"], capsys)
    assert json.loads(out)["solve_check"]["passed"] is True
    assert sorted(calls) == sorted(set(calls))
    assert {name for kind, name in calls if kind == "gevrey"} \
        == set(conditions._CHECKS)


def test_malformed_json_exits_two(capsys):
    code, out, err = run(["classify", "--weight", '{"kind":'], capsys)
    assert code == 2
    assert "invalid JSON" in err


def test_missing_file_exits_two(capsys):
    code, out, err = run(["classify", "--weight", "/no/such/file.json"],
                         capsys)
    assert code == 2


def test_missing_required_argument_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--weight", GEVREY3])
    assert exc.value.code == 2


def test_unbounded_expr_rule_exits_one_promptly():
    # integer literals in a rule are floats, so 10**10**7 overflows at
    # once instead of building a ten-million-digit integer
    rule = json.dumps({"kind": "expr", "params": {
        "expression": "lgamma(p+1) + 0*(10**10**7)"}})
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gsmoment.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "gsmoment.cli", "classify", "--horizon", "64",
         "--weight", rule], env=env, capture_output=True, text=True,
        timeout=20)
    assert proc.returncode == 1
    assert "InvalidParameter" in proc.stderr


def _expr(rule):
    return json.dumps({"kind": "expr", "params": {"expression": rule}})


def test_non_finite_rule_values_print_only_the_error_line():
    # numpy's RuntimeWarnings from log(0) and 0 * inf stay off stderr; the
    # finiteness check alone reports the rule
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(gsmoment.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "gsmoment.cli", "classify", "--horizon", "64",
         "--weight", _expr("p*log(p)")], env=env, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: NotAWeightSequence: log-weights must be finite"]


@pytest.mark.parametrize("argv, code, error", [
    (["classify", "--weight", '{"kind":"gevrey"}'], 1, "InvalidParameter"),
    (["classify", "--weight", '{"kind":"gevrey","params":{"alpha":"x"}}'],
     1, "InvalidParameter"),
    (["classify", "--weight", '{"kind":"gevrey","params":[1]}'],
     1, "InvalidParameter"),
    (["solve", "--weight", GEVREY3, "--target", '{"h":1}'], 2, "usage"),
    (["solve", "--weight", GEVREY3, "--target", '{"h":"x","entries":[1]}'],
     2, "usage"),
    (["solve", "--weight", GEVREY3, "--target", '[[1,"x"]]'], 2, "usage"),
    (["moments", "--function", '{"atoms":[["flat_halfline","a",1,0]]}'],
     1, "InvalidParameter"),
    (["moments", "--function", '{"atoms":[["flat_halfline",1e999,1,0]]}'],
     1, "InvalidParameter"),
    (["moments", "--function", '{"atoms":5}'], 2, "usage"),
    (["classify", "--weight", _expr("p+")], 1, "InvalidParameter"),
    (["classify", "--weight", _expr("2")], 1, "NotAWeightSequence"),
    (["classify", "--weight", _expr("+".join(["p"] * 20000))],
     1, "InvalidParameter"),
    (["classify", "--weight", _expr("-" * 19999 + "p")],
     1, "InvalidParameter"),
    (["classify", "--weight", _expr(
        "2*lgamma(p+1) + 0*(lambda q: "
        "().__class__.__base__.__subclasses__().__len__())(p)")],
     1, "InvalidParameter"),
    (["moments", "--function", '{"atoms":[["flat_halfline",1.5,1,0]]}'],
     1, "InvalidParameter"),
    (["moments", "--function",
      '{"atoms":[["flat_halfline",1,1,0,"no"]]}'], 1, "InvalidParameter"),
])
def test_malformed_input_is_refused_without_a_traceback(argv, code, error,
                                                        capsys):
    # each input is refused before any computation
    code_seen, out, err = run(argv, capsys)
    assert code_seen == code
    assert out == ""
    assert error in err.splitlines()[0]


@pytest.mark.parametrize("argv", [
    ["moments", "--function"],
    ["solve", "--weight", GEVREY3, "--target"],
    ["borel-ritt", "--weight", GEVREY3, "--entries"],
])
def test_json_files_of_the_wrong_shape_are_usage_errors(argv, tmp_path,
                                                        capsys):
    path = tmp_path / "five.json"
    path.write_text("5")
    code, out, err = run(argv + [str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:")


def test_domain_errors_exit_one(capsys):
    # horizon below the supported minimum is a domain error, not usage
    code, out, err = run(["classify", "--weight", GEVREY3,
                          "--horizon", "10"], capsys)
    assert code == 1
    assert "error" in err
    code, out, err = run(["solve", "--weight", GEVREY3, "--horizon", "256",
                          "--target", "[1.0]", "--precision", "8001"], capsys)
    assert code == 1
    assert "above 8000 bits" in err
