import argparse
import dataclasses
import json
import math
import time
import tracemalloc

import pytest

from su3char import bounds, cli, lpnorms, read_report_csv
from su3char.cli import (
    EXIT_INVARIANT,
    EXIT_NONCONVERGENCE,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    payload = json.loads(out) if out.strip().startswith("{") else None
    return code, payload, err


def test_eval_defining_rep_quarter_turn(capsys):
    code, payload, _ = run(
        capsys, "eval", "--mu", "1,0",
        "--theta", "1.5707963,-1.5707963,0", "--method", "auto",
    )
    assert code == EXIT_OK
    assert payload["method"] == "weyl"
    assert payload["value_re"] == pytest.approx(1.0, abs=1e-6)
    assert payload["value_im"] == pytest.approx(0.0, abs=1e-6)
    assert payload["dim"] == 3
    assert payload["config"]["command"] == "eval"


def test_eval_alcove_input_and_explicit_descent_wall(capsys):
    code, payload, _ = run(
        capsys, "eval", "--mu", "2,1", "--alcove", "1.0,2.0",
        "--method", "descent", "--wall", "2",
    )
    assert code == EXIT_OK
    assert payload["method"] == "descent2"
    code2, auto, _ = run(capsys, "eval", "--mu", "2,1", "--alcove", "1.0,2.0")
    assert auto["value_re"] == pytest.approx(payload["value_re"], abs=1e-9)
    assert auto["value_im"] == pytest.approx(payload["value_im"], abs=1e-9)


def test_eval_descent_without_a_wall_takes_the_nearest(capsys):
    code, payload, _ = run(
        capsys, "eval", "--mu", "2,1", "--alcove", "0.3,1e-7", "--method", "descent",
    )
    assert code == EXIT_OK
    assert payload["method"] == "descent2"
    _, auto, _ = run(capsys, "eval", "--mu", "2,1", "--alcove", "0.3,1e-7")
    assert auto["method"] == "descent2"
    assert (auto["value_re"], auto["value_im"]) == (payload["value_re"], payload["value_im"])


def test_eval_requires_a_point(capsys):
    code, _, err = run(capsys, "eval", "--mu", "1,0")
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize("config, flags", [
    ({"mu": [1, 0], "theta": [0, 0, 0]}, ["--alcove", "1,2"]),
    ({"mu": [1, 0], "alcove": [1, 2]}, ["--theta", "0,0,0"]),
    ({"mu": [1, 0], "theta": [0, 0, 0], "alcove": [1, 2]}, []),
    ({"mu": [1, 0]}, ["--theta", "0,0,0", "--alcove", "1,2"]),
])
def test_eval_refuses_two_point_forms(capsys, tmp_path, config, flags):
    # neither form may win silently: the echo would record a point not evaluated
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, payload, err = run(capsys, "eval", "--config", str(cfg), *flags)
    assert code == EXIT_USAGE and payload is None
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert "--theta" in diag["message"] and "--alcove" in diag["message"]


def test_eval_weyl_on_singular_point_is_a_usage_error(capsys):
    code, _, err = run(
        capsys, "eval", "--mu", "2,1", "--theta", "0,0,0", "--method", "weyl"
    )
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "singular-input"


def test_eval_resource_guard(capsys):
    code, _, err = run(
        capsys, "eval", "--mu", "600,600", "--theta", "0,0,0", "--method", "schur"
    )
    assert code == EXIT_RESOURCE
    assert json.loads(err)["error"] == "resource-limit"


def test_lp_multiplicity_budget_trips_fast(capsys):
    # a 48 x 48 stage passes; at p = 4 its 8001 x 16000 stage is refused first
    code, _, err = run(capsys, "lp", "--mu", "4000,4000", "--p", "0.01")
    assert code == EXIT_RESOURCE
    diag = json.loads(err)
    assert diag["error"] == "resource-limit"
    assert "multiplicity-array budget" in diag["message"]


@pytest.mark.parametrize("argv, work", [
    (["prop-i", "--out-csv"], "I_numeric_table"),
    (["verify-envelope", "--out-json"], "sweep_constant"),
    (["lp", "--mu", "2,1", "--p", "4", "--out"], "haar_lp_norm"),
])
def test_missing_output_directory_is_refused_before_the_work(capsys, monkeypatch, tmp_path, argv, work):
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, *argv, str(tmp_path / "missing" / "x.out"))
    assert code == EXIT_USAGE
    assert calls == []
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert "missing" in diag["message"]


@pytest.mark.parametrize("argv, names", [
    (["--dense-max", "-3", "--shell-max", "2"], "--dense-max (dense_max)"),
    (["--shell-max", "-1"], "--shell-max (shell_max)"),
])
def test_negative_weight_shells_are_refused_before_the_sweep(capsys, monkeypatch, argv, names):
    calls = []
    monkeypatch.setattr(cli, "sweep_constant", lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, "verify-envelope", *argv)
    assert code == EXIT_USAGE and calls == []
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert names in diag["message"] and "at least 0" in diag["message"]


def test_late_write_failure_is_a_usage_error(capsys, monkeypatch, tmp_path):
    def fail(payload, path, config=None):
        raise cli.ReportWriteError(f"cannot write report to {path}: disk full")

    monkeypatch.setattr(cli, "emit_json", fail)
    code, _, err = run(capsys, "rank1", "--n-max", "2", "--grid", "10",
                       "--out", str(tmp_path / "r.json"))
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "io"


def test_lp_trivial_weight(capsys):
    code, payload, _ = run(capsys, "lp", "--mu", "0,0", "--p", "3.7")
    assert code == EXIT_OK
    assert payload["norm"] == 1.0
    assert payload["converged"] is True


def test_lp_large_p_is_finite(capsys):
    code, payload, _ = run(capsys, "lp", "--mu", "20,20", "--p", "90")
    assert code == EXIT_OK
    assert math.isfinite(payload["norm"])
    assert 0.0 < payload["norm"] <= 9261.0  # dim(20, 20)


def test_stdout_json_is_strict(capsys):
    # the pattern sum divides by nothing: condition = inf
    assert main(["eval", "--mu", "1,0", "--theta", "0,0,0"]) == EXIT_OK
    out, _ = capsys.readouterr()

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    payload = json.loads(out, parse_constant=refuse)
    assert payload["method"] == "schur"
    assert payload["condition"] == "inf"


@pytest.mark.parametrize("method", ["auto", "weyl"])
def test_eval_non_finite_torus_point_is_a_usage_error(capsys, method):
    # t1 = t2 = 1e308 overflows the angle triple to NaN
    code, payload, err = run(capsys, "eval", "--mu", "1,0", "--alcove", "1e308,1e308",
                             "--method", method)
    assert code == EXIT_USAGE and payload is None
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert "finite" in diag["message"]


@pytest.mark.parametrize("env, want", [
    # this case keeps the id it had beside the former --threads cases
    pytest.param("0", "between 1 and 64", id="flags3-0-SU3CHAR_THREADS"),
    pytest.param("-3", "between 1 and 64", id="-3"),
    pytest.param("65", "between 1 and 64", id="65"),
    pytest.param("x", "an integer", id="x"),
])
def test_thread_count_outside_1_to_64_is_refused_before_the_work(capsys, monkeypatch, env, want):
    def no_work(*a, **k):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(bounds, "build_grid", no_work)
    monkeypatch.setattr(bounds, "ThreadPoolExecutor", no_work)
    monkeypatch.setenv("SU3CHAR_THREADS", env)
    code, payload, err = run(capsys, "verify-envelope")
    assert code == EXIT_USAGE and payload is None
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert f"SU3CHAR_THREADS must be {want}" in diag["message"]


def test_verify_envelope_has_no_threads_flag(capsys):
    # SU3CHAR_THREADS is the only thread setting: argparse refuses the flag
    # as it refuses any unknown one
    with pytest.raises(SystemExit) as exc:
        main(["verify-envelope", "--threads", "2"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_bad_thread_count_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("SU3CHAR_THREADS", "abc")
    code, _, err = run(capsys, "verify-envelope", "--dense-max", "1", "--shell-max", "2")
    assert code == EXIT_USAGE
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert "SU3CHAR_THREADS" in diag["message"]


def test_lp_nonconvergence_exit_code(capsys):
    code, payload, err = run(
        capsys, "lp", "--mu", "3,2", "--p", "2.5",
        "--max-refinements", "0", "--rel-tol", "1e-12",
    )
    assert code == EXIT_NONCONVERGENCE
    assert payload["converged"] is False
    # the report on stdout, then one JSON diagnostic on stderr
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "non-convergence"


def test_lp_small_p_is_judged_on_the_norm(capsys):
    # N_p agrees to 1e-6 at p = 1e-10, which says nothing of its 1/p-th root
    code, payload, err = run(capsys, "lp", "--mu", "3,2", "--p", "1e-10")
    assert code == EXIT_NONCONVERGENCE and payload["converged"] is False
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "non-convergence"
    assert diag["message"].startswith("haar_lp_norm: no convergence after 7 levels")


def test_lp_report_names_the_tolerance_it_was_judged_against(capsys):
    # rel_tol 1e-6 at p = 1e-6 is 1e-12 on both integrals
    code, payload, err = run(capsys, "lp", "--mu", "3,2", "--p", "1e-6")
    assert code == EXIT_NONCONVERGENCE
    assert payload["config"]["rel_tol"] == 1e-6 and payload["applied_rel_tol"] == 1e-6 * 1e-6
    assert payload["applied_rel_tol"] < payload["last_delta"] < 1e-6
    assert json.loads(err)["message"].endswith(" against rel_tol 1.000e-12)")


def test_scaling_nonconvergence_writes_the_partial_table_and_no_summary(capsys, tmp_path):
    csv_p, json_p = tmp_path / "scale.csv", tmp_path / "scale.json"
    code, payload, err = run(
        capsys, "scaling", "--family", "axis", "--p", "4", "--n-values", "4,8,16,32",
        "--max-refinements", "0", "--out-csv", str(csv_p), "--out-json", str(json_p),
    )
    assert code == EXIT_NONCONVERGENCE and payload is None
    assert json.loads(err)["error"] == "non-convergence"
    config, rows = read_report_csv(str(csv_p))
    assert [r["N"] for r in rows] == [4]
    assert config["command"] == "scaling" and config["max_refinements"] == 0
    assert not json_p.exists()


def test_oracle_diff_regular_within_tolerance(capsys, tmp_path):
    csv_path = str(tmp_path / "diff.csv")
    code, payload, _ = run(
        capsys, "oracle-diff", "--mu", "6,4", "--samples", "40",
        "--seed", "5", "--out-csv", csv_path,
    )
    assert code == EXIT_OK
    assert payload["within_tol"] is True
    config, rows = read_report_csv(csv_path)
    assert config["command"] == "oracle-diff"
    assert len(rows) == 40
    assert all(row["wall_min"] >= 0.1 for row in rows)


def test_oracle_diff_wall_regime(capsys):
    code, payload, _ = run(
        capsys, "oracle-diff", "--mu", "5,5", "--samples", "30",
        "--regime", "wall", "--seed", "9",
    )
    assert code == EXIT_OK
    assert payload["within_tol"] is True
    assert payload["max_abs_diff"] <= 1e-6 * payload["dim"]


def test_oracle_diff_absurd_tolerance_is_invariant_violation(capsys):
    code, _, err = run(
        capsys, "oracle-diff", "--mu", "8,5", "--samples", "10", "--tol", "1e-30"
    )
    assert code == EXIT_INVARIANT
    assert json.loads(err)["error"] == "invariant-violation"


def test_rank1_command(capsys):
    code, payload, _ = run(capsys, "rank1", "--n-max", "40", "--grid", "500")
    assert code == EXIT_OK
    assert payload["min_margin"] >= -1e-12


def _violated_sweep(real):
    return lambda *args, **kw: dataclasses.replace(real(*args, **kw), finite_ok=False)


@pytest.mark.parametrize("argv, target, stub, outputs", [
    (["verify-envelope", "--dense-max", "1", "--shell-max", "2", "--grid-total", "300",
      "--wall-per-edge", "20", "--chamber", "10", "--corner-scales", "2", "--corner-rays", "2"],
     "sweep_constant", _violated_sweep(cli.sweep_constant), ("out_csv", "out_json")),
    (["rank1", "--n-max", "5", "--grid", "10"],
     "rank1_margin_min", lambda n_max, thetas: (-1.0, 3, 0.5), ("out",)),
])
def test_a_violated_invariant_exits_5_after_writing_the_artifacts(capsys, monkeypatch, tmp_path,
                                                                  argv, target, stub, outputs):
    monkeypatch.setattr(cli, target, stub)
    paths = [tmp_path / name for name in outputs]
    flags = [x for path in paths for x in ("--" + path.name.replace("_", "-"), str(path))]
    code, payload, err = run(capsys, *argv, *flags)
    assert code == EXIT_INVARIANT and payload is not None
    [line] = err.splitlines()
    assert json.loads(line)["error"] == "invariant-violation"
    assert all(path.stat().st_size > 0 for path in paths)


@pytest.mark.parametrize("text", [None, "{not json"])
def test_unreadable_config_file_is_a_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    code, payload, err = run(capsys, "rank1", "--config", str(cfg))
    assert code == EXIT_USAGE and payload is None
    assert json.loads(err)["message"].startswith(f"cannot read config file {cfg}: ")


def test_config_file_merging_and_flag_override(capsys, tmp_path):
    cfg = tmp_path / "lp.json"
    cfg.write_text(json.dumps({"mu": "0,0", "p": 2.0}))
    code, payload, _ = run(capsys, "lp", "--config", str(cfg), "--p", "6.0")
    assert code == EXIT_OK
    assert payload["p"] == 6.0  # flag beats file
    assert payload["mu_a"] == 0 and payload["mu_b"] == 0


def test_config_file_unknown_key_rejected(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"mu": "0,0", "p": 2.0, "turbo": True}))
    code, _, err = run(capsys, "lp", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert "turbo" in json.loads(err)["message"]


@pytest.mark.parametrize("cmd, key, value", [
    ("oracle-diff", "regime", "walls"),
    ("lp", "mapping", "square"),
    ("eval", "method", None),
    ("eval", "wall", 7),
])
def test_config_file_values_obey_the_flag_choices(capsys, tmp_path, cmd, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": "2,1", key: value}))
    code, _, err = run(capsys, cmd, "--config", str(cfg))
    assert code == EXIT_USAGE
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert key in diag["message"]


@pytest.mark.parametrize("cmd, key, value", [
    ("rank1", "n_max", 2.7),
    ("rank1", "n_max", True),
    ("rank1", "n_max", math.inf),
    ("rank1", "grid", "500"),
    ("verify-envelope", "seed", 1.5),
    ("lp", "p", "2"),
    ("lp", "p", False),
    ("rank1", "n_max", None),
    ("lp", "base_rule", None),
    ("oracle-diff", "samples", None),
])
def test_config_file_values_the_flag_type_would_change_are_refused(capsys, tmp_path, cmd, key,
                                                                   value):
    cfg = tmp_path / "cfg.json"
    with_mu = cmd in ("lp", "oracle-diff")
    cfg.write_text(json.dumps({"mu": "2,1", key: value} if with_mu else {key: value}))
    code, payload, err = run(capsys, cmd, "--config", str(cfg))
    assert code == EXIT_USAGE and payload is None
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert key in diag["message"]


@pytest.mark.parametrize("cmd, key, work", [
    ("rank1", "out", "rank1_margin_min"),
    ("prop-i", "out_csv", "I_numeric_table"),
    ("verify-envelope", "out_json", "sweep_constant"),
])
@pytest.mark.parametrize("value", [5, True, ["x.json"]])
def test_config_file_output_paths_must_be_strings(capsys, monkeypatch, tmp_path, cmd, key, work,
                                                  value):
    # an int path would be opened as a file descriptor
    calls = []
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, payload, err = run(capsys, cmd, "--config", str(cfg))
    assert code == EXIT_USAGE and payload is None
    assert calls == []
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert key in diag["message"]


@pytest.mark.parametrize("cmd, key, value", [
    ("eval", "mu", [1.5, 2]),
    ("eval", "mu", [True, 2]),
    ("eval", "mu", ["1", 2]),
    ("eval", "mu", [1, 2, 3]),
    ("eval", "mu", [1]),
    ("eval", "mu", "1.5,2"),
    ("scaling", "n_values", [8, 16.5, 32, 64]),
])
def test_config_file_integer_lists_are_not_truncated(capsys, tmp_path, cmd, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value, "theta": "0,0,0"} if cmd == "eval"
                              else {key: value, "family": "axis", "p": 4.0}))
    code, payload, err = run(capsys, cmd, "--config", str(cfg))
    assert code == EXIT_USAGE and payload is None
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert key.replace("_", "-") in diag["message"]


def test_config_file_mu_list_runs_like_the_flag(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mu": [2, 1], "theta": "0.5,-0.25,-0.25"}))
    code, from_file, _ = run(capsys, "eval", "--config", str(cfg),
                             "--out", str(tmp_path / "file.json"))
    assert code == EXIT_OK
    assert from_file["mu"] == [2, 1] and from_file["config"]["mu"] == [2, 1]
    code, from_flag, _ = run(capsys, "eval", "--mu", "2,1", "--theta", "0.5,-0.25,-0.25",
                             "--out", str(tmp_path / "flag.json"))
    assert {k: v for k, v in from_file.items() if k != "config"} == \
        {k: v for k, v in from_flag.items() if k != "config"}
    # the echo is the parsed value, so the artifacts agree byte for byte
    assert from_file == from_flag
    assert (tmp_path / "file.json").read_bytes() == (tmp_path / "flag.json").read_bytes()


@pytest.mark.parametrize("cmd, file_values, flags", [
    ("eval", {"mu": [2, 1], "theta": [0.5, -0.25, -0.25]},
     ["--mu", "2,1", "--theta", "0.5,-0.25,-0.25"]),
    ("eval", {"mu": "5,2", "alcove": [0.3, 1e-7]}, ["--mu", "5,2", "--alcove", "0.3,1e-7"]),
    ("prop-i", {"p_values": [2, 4.0], "pool": [4, 1], "base_rule": 32},
     ["--p-values", "2,4", "--pool", "4,1", "--base-rule", "32"]),
])
def test_config_file_lists_write_the_flags_bytes(capsys, tmp_path, cmd, file_values, flags):
    # JSON lists (ints included for float rows) and flag text parse to one value
    outs = ["--out"] if cmd == "eval" else ["--out-csv", "--out-json"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(file_values))
    written = {}
    for source, argv in (("file", ["--config", str(cfg)]), ("flag", flags)):
        paths = [str(tmp_path / f"{source}{i}") for i in range(len(outs))]
        code = main([cmd, *argv, *[a for pair in zip(outs, paths) for a in pair]])
        stdout, err = capsys.readouterr()
        assert code == EXIT_OK, err
        written[source] = [stdout.encode()] + [open(q, "rb").read() for q in paths]
    assert written["file"] == written["flag"]


@pytest.mark.parametrize("cmd, key, value", [
    ("prop-i", "p_values", [True, "4"]),
    ("prop-i", "p_values", [2, "4"]),
    ("prop-i", "p_values", [True, 4]),
    ("prop-i", "pool", [1, "4"]),
    ("prop-i", "pool", [1, False]),
    ("prop-i", "pool", [1, math.nan]),
    ("prop-i", "p_values", []),
    ("prop-i", "pool", []),
    ("prop-i", "pool", 4),
    ("eval", "theta", [True, 0, 0]),
    ("eval", "theta", ["0", 0, 0]),
    ("eval", "theta", [0.5, -0.5]),
    ("eval", "alcove", ["0.3", 1]),
    ("eval", "alcove", [False, 1]),
])
def test_config_file_float_lists_hold_finite_numbers(capsys, monkeypatch, tmp_path, cmd, key,
                                                     value):
    calls = []
    for work in ("I_numeric_table", "chi_stable"):
        monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value, "mu": [2, 1]} if cmd == "eval" else {key: value}))
    code, payload, err = run(capsys, cmd, "--config", str(cfg))
    assert code == EXIT_USAGE and payload is None
    assert calls == []
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert f"--{key.replace('_', '-')} ({key})" in diag["message"]


@pytest.mark.parametrize("text", ["5", "[]", '"mu"'])
def test_config_file_must_hold_an_object(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "rank1", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert "JSON object" in json.loads(err)["message"]


def test_prop_i_non_convergence_names_the_first_integral(capsys, tmp_path):
    # the first non-converged integral in (p, then triple) order; nothing written
    out_csv = tmp_path / "p.csv"
    code, payload, err = run(capsys, "prop-i", "--max-refinements", "1", "--p-values", "2,5.5",
                             "--pool", "1,64,256", "--out-csv", str(out_csv))
    assert code == EXIT_NONCONVERGENCE and payload is None
    assert not out_csv.exists()
    assert json.loads(err) == {
        "error": "non-convergence",
        "message": "I_numeric(p=5.5, 256.0, 1.0, 1.0): no convergence after 2 levels "
                   "(last relative delta 2.788e-04)",
    }


def test_config_file_values_are_read_with_the_flag_type(capsys, tmp_path):
    # 40.0 runs as the int 40 and is echoed as 40, like --n-max 40
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_max": 40.0, "grid": 500}))
    code, from_file, _ = run(capsys, "rank1", "--config", str(cfg))
    assert code == EXIT_OK
    assert from_file["config"]["n_max"] == 40 and isinstance(from_file["config"]["n_max"], int)
    code, from_flags, _ = run(capsys, "rank1", "--n-max", "40", "--grid", "500")
    assert from_file == from_flags


def test_echo_omits_runtime_knobs(capsys, tmp_path):
    out_json = str(tmp_path / "s.json")
    code, payload, _ = run(
        capsys, "verify-envelope", "--dense-max", "2", "--shell-max", "2",
        "--grid-total", "300", "--wall-per-edge", "30", "--chamber", "20",
        "--corner-scales", "3", "--corner-rays", "3", "--out-json", out_json,
    )
    assert code == EXIT_OK
    echo = payload["config"]
    assert "threads" not in echo and "out_json" not in echo and "out_csv" not in echo
    assert echo["seed"] == 2718
    body = json.loads(open(out_json).read())
    assert body["config"] == echo


def test_verify_envelope_artifacts_thread_invariant(capsys, monkeypatch, tmp_path):
    argv = [
        "verify-envelope", "--dense-max", "3", "--shell-max", "3",
        "--grid-total", "300", "--wall-per-edge", "30", "--chamber", "20",
        "--corner-scales", "3", "--corner-rays", "3",
    ]
    files = {}
    for threads in ("1", "3"):
        csv_p = str(tmp_path / f"r{threads}.csv")
        json_p = str(tmp_path / f"s{threads}.json")
        monkeypatch.setenv("SU3CHAR_THREADS", threads)
        code, _, _ = run(capsys, *argv, "--out-csv", csv_p, "--out-json", json_p)
        assert code == EXIT_OK
        files[threads] = (open(csv_p, "rb").read(), open(json_p, "rb").read())
    assert files["1"] == files["3"]


@pytest.mark.parametrize("argv, outs", [
    (["scaling", "--family", "axis", "--p", "2.5", "--n-values", "8,16,32,64"],
     ["--out-csv", "--out-json"]),
    (["lp", "--mu", "24,0", "--p", "2.8"], ["--out"]),
])
def test_lp_artifacts_are_byte_identical_for_any_thread_count(capsys, monkeypatch, tmp_path,
                                                              argv, outs):
    files = {}
    for threads in ("1", "2", "4"):
        monkeypatch.setenv("SU3CHAR_THREADS", threads)
        paths = [tmp_path / f"{threads}{flag}" for flag in outs]
        code = main([*argv, *[str(a) for pair in zip(outs, paths) for a in pair]])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        files[threads] = [out] + [p.read_bytes() for p in paths]
    assert files["1"] == files["2"] == files["4"]


@pytest.mark.parametrize("env", ["0", "-3", "65", "x"])
def test_lp_thread_count_is_refused_before_level_zero(capsys, monkeypatch, env):
    def no_work(*a, **k):
        raise AssertionError("level 0 started")

    monkeypatch.setattr(lpnorms, "_grid_levels", no_work)
    monkeypatch.setenv("SU3CHAR_THREADS", env)
    code, payload, err = run(capsys, "lp", "--mu", "3,2", "--p", "2.5")
    assert code == EXIT_USAGE and payload is None
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert "SU3CHAR_THREADS" in diag["message"]


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *a, **k):
        built.append(k.get("prog"))
        init(self, *a, **k)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for _ in range(2):
        assert main(["eval", "--mu", "1,0", "--theta", "0,0,0"]) == EXIT_OK
    assert len(built) == 1 + len(cli._COMMANDS)  # the parser and one per subcommand
    monkeypatch.undo()
    capsys.readouterr()
    for cmd in ["", *cli._COMMANDS]:  # the kept parser's help is a new parser's
        texts = []
        for parser in (cli._build_parser(), cli._build_parser.__wrapped__()):
            with pytest.raises(SystemExit):
                parser.parse_args([cmd, "--help"] if cmd else ["--help"])
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] and "usage: su3char" in texts[0]


@pytest.mark.parametrize("argv, message", [
    (["--pool", "1e-300,1", "--p-values", "2.7"], "I_bound(p=2.7, 1e-300, 1e-300, 1e-300) = inf "),
    (["--pool", "1e200", "--p-values", "2"], "I_bound(p=2.0, 1e+200, 1e+200, 1e+200) = 0.0 "),
])
def test_prop_i_bound_outside_the_floats_is_a_usage_error(capsys, argv, message):
    code, payload, err = run(capsys, "prop-i", *argv)
    assert code == EXIT_USAGE and payload is None
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "usage" and diag["message"].startswith(message)


def test_scaling_small_run(capsys, tmp_path):
    csv_p = str(tmp_path / "scale.csv")
    code, payload, _ = run(
        capsys, "scaling", "--family", "axis", "--p", "4",
        "--n-values", "4,8,16,32", "--out-csv", csv_p,
    )
    assert code == EXIT_OK
    assert payload["family"] == "axis"
    assert 0.15 < payload["slope"] < 0.35
    config, rows = read_report_csv(csv_p)
    assert [r["N"] for r in rows] == [4, 8, 16, 32]
    assert config["n_values"] == [4, 8, 16, 32]


def test_prop_i_small_run(capsys, tmp_path):
    csv_p = str(tmp_path / "prop.csv")
    code, payload, _ = run(
        capsys, "prop-i", "--p-values", "2,4", "--pool", "1,4",
        "--base-rule", "32", "--out-csv", csv_p,
    )
    assert code == EXIT_OK
    assert len(payload["per_p"]) == 2
    for entry in payload["per_p"]:
        assert entry["K"] > 0.0
        assert len(entry["shells"]) == 2  # min element 1 or 4
    _, rows = read_report_csv(csv_p)
    assert len(rows) == 2 * 4  # 4 sorted triples from a 2-element pool
    k_overall = payload["K_overall"]
    assert all(row["ratio"] <= k_overall * (1 + 1e-12) for row in rows)
    assert all(row["a"] >= row["b"] >= row["c"] > 0 for row in rows)


def test_empty_weight_set_is_a_usage_error(capsys):
    code, _, err = run(capsys, "verify-envelope", "--shell-max", "-1")
    assert code == EXIT_USAGE
    assert json.loads(err)["error"] == "usage"


def test_oracle_diff_needs_at_least_one_sample(capsys):
    code, _, err = run(capsys, "oracle-diff", "--mu", "3,1", "--samples", "0")
    assert code == EXIT_USAGE
    assert "--samples" in json.loads(err)["message"]


@pytest.mark.parametrize("argv, flag", [
    (["eval", "--mu", "1,0", "--alcove", "nan,0"], "--alcove"),
    (["eval", "--mu", "1,0", "--theta", "nan,0,0"], "--theta"),
    (["eval", "--mu", "1,0", "--theta", "inf,-inf,0"], "--theta"),
    (["lp", "--mu", "2,1", "--p", "nan"], "--p"),
    (["lp", "--mu", "2,1", "--p", "inf"], "--p"),
    (["lp", "--mu", "64,0", "--p", "2.5", "--rel-tol", "nan"], "rel_tol"),
    (["scaling", "--family", "axis", "--p", "nan", "--n-values", "1,2,3,4"], "--p"),
    (["oracle-diff", "--mu", "3,1", "--samples", "1", "--tol", "nan"], "--tol"),
])
def test_non_finite_numbers_are_refused_before_the_work(capsys, monkeypatch, argv, flag):
    calls = []
    for work in ("chi_stable", "haar_lp_norm", "scaling_fit", "chi_schur"):
        monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a))
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert calls == []
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert flag in diag["message"]


def _refused_stage(capsys, *argv):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    diag = json.loads(err)
    assert diag["error"] == "resource-limit"
    assert "MB" in diag["message"]
    assert peak < 1 << 20
    return diag["message"]


def test_lp_grid_stage_budget_trips_before_allocating(capsys):
    # p = 5000 asks for n0 = 337 500 (5-smooth): a 101 x 337 500 complex stage
    assert "n0 = 337500" in _refused_stage(capsys, "lp", "--mu", "100,0", "--p", "5000")


def test_lp_overflowing_grid_size_is_a_resource_error(capsys):
    # p * bandwidth overflows to inf; capped at the budget, not a traceback
    assert "n0 = 10077696" in _refused_stage(capsys, "lp", "--mu", "5,0", "--p", "1e308")


@pytest.mark.parametrize("mu, p, n0", [("3000,0", "2.8", "5625"), ("4000,4000", "4", "16200")])
def test_lp_stage_budget_trips_before_the_multiplicities(capsys, mu, p, n0):
    # a 3001 x 5625 stage: multiplicities' 3001^2 int64 array (9.0e6 entries,
    # under its own budget) was built first, a 137.5 MB tracemalloc peak
    message = _refused_stage(capsys, "lp", "--mu", mu, "--p", p)
    assert f"n0 = {n0}:" in message and "r-grid stage budget" in message


@pytest.mark.parametrize("argv, message", [
    (["prop-i", "--p-values", "2", "--pool", ",".join(map(str, range(1, 85)))],
     "p values x triples = 102340 exceeds the model-integral budget 100000"),
    (["oracle-diff", "--mu", "3,2", "--samples", "100001"],
     "--samples (samples) = 100001 exceeds the entry budget 100000"),
])
def test_table_budgets_trip_before_any_row(capsys, argv, message):
    # 84 pool values make C(86, 3) triples; each integral or sample holds
    # about 1 kB until the tables are written
    t0 = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 0.1
    assert code == EXIT_RESOURCE
    [line] = err.splitlines()
    assert json.loads(line) == {"error": "resource-limit", "message": message}
    tracemalloc.start()
    try:
        assert run(capsys, *argv)[0] == EXIT_RESOURCE
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_prop_i_budget_counts_every_p_and_triple(capsys, monkeypatch):
    # the default pool's 35 triples: one p at a cap of 69 runs, two are refused
    monkeypatch.setattr(cli, "MAX_INTEGRALS", 69)
    monkeypatch.setattr(lpnorms, "MAX_INTEGRALS", 69)
    assert run(capsys, "prop-i", "--p-values", "2", "--max-refinements", "1")[0] == EXIT_OK
    monkeypatch.setattr(cli, "I_numeric_table", lambda *a: pytest.fail("integrals set up"))
    code, _, err = run(capsys, "prop-i", "--p-values", "2,3")
    assert code == EXIT_RESOURCE and "= 70 exceeds the model-integral budget 69" in err


@pytest.mark.parametrize("argv, flag", [
    (["lp", "--mu", "2,1", "--p", "3", "--mapping", "duffy", "--base-rule", "50000"],
     "--base-rule"),
    (["prop-i", "--max-refinements", "40"], "--max-refinements"),
])
def test_quadrature_rules_and_levels_are_bounded_before_any_work(capsys, argv, flag):
    # leggauss(50000) would build a 20 GB companion matrix; 40 refinements
    # would hold 4^40 triangles
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 0.1
    assert code == EXIT_USAGE
    assert f"{flag} ({flag[2:].replace('-', '_')}) must be at most" in json.loads(err)["message"]
    assert peak < 1 << 20


def test_lp_diagonal_256_at_the_critical_exponent_converges(capsys):
    # the old full-grid levels refused a 257 x 22 113 stage at n = 44 224
    code, payload, _ = run(capsys, "lp", "--mu", "256,256", "--p", "2.6666666666666665")
    assert code == EXIT_OK and payload["converged"]


@pytest.mark.parametrize("argv, size", [
    (["rank1", "--grid", "10000001"], "--grid (grid) = 10000001"),
    (["verify-envelope", "--grid-total", "10000001"], "--grid-total (grid_total) = 10000001"),
])
def test_grid_budgets_trip_before_allocating(capsys, argv, size):
    # one past the 10^7-entry budget: 80 MB per float64 array had it run
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_RESOURCE
    diag = json.loads(err)
    assert diag["error"] == "resource-limit"
    assert size in diag["message"] and "budget" in diag["message"]
    assert peak < 1 << 20


def test_grid_strata_over_the_total_fail_before_allocating(capsys):
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "verify-envelope", "--grid-total", "100",
                           "--wall-per-edge", "1000000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert "too small" in json.loads(err)["message"]
    assert peak < 1 << 20


@pytest.mark.parametrize("flags", [["--dense-max", "100000", "--shell-max", "100000"],
                                   ["--shell-max", "100000000"]])
def test_sweep_cost_trips_before_the_weight_list_is_built(capsys, monkeypatch, flags):
    # past MAX_WEIGHTS weights: refused by sweep_constant as it reads them
    monkeypatch.setattr(bounds, "build_grid", lambda *a: pytest.fail("grid built"))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "verify-envelope", *flags)
    assert time.perf_counter() - t0 < 0.1  # untraced: tracemalloc slows it about 7x
    assert code == EXIT_RESOURCE
    diag = json.loads(err)
    assert diag["error"] == "resource-limit" and "budget" in diag["message"]
    tracemalloc.start()
    try:
        assert run(capsys, "verify-envelope", *flags)[0] == EXIT_RESOURCE
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sweep_budget_takes_the_default_weights_on_a_large_grid(monkeypatch):
    # 351 weights x 50 000 points passes the sweep's budget and reaches the grid
    class Built(Exception):
        pass

    def build(spec, seed):
        raise Built(spec.total)

    monkeypatch.setattr(bounds, "build_grid", build)
    with pytest.raises(Built, match="50000"):
        main(["verify-envelope", "--grid-total", "50000"])


@pytest.mark.parametrize("argv", [
    ["eval", "--mu", "2,1", "--alcove", "1.0,2.0"],
    ["lp", "--mu", "2,1", "--p", "4"],
    ["rank1", "--n-max", "3", "--grid", "20"],
])
def test_out_file_echoes_the_config(capsys, tmp_path, argv):
    path = tmp_path / "out.json"
    code, payload, _ = run(capsys, *argv, "--out", str(path))
    assert code == EXIT_OK
    body = json.loads(path.read_text())
    assert body["config"] == payload["config"]
    assert body == payload


@pytest.mark.parametrize("argv, names", [
    (["scaling", "--family", "axis", "--p", "4", "--n-values", "8,8,8,8"], "N values"),
    (["scaling", "--family", "axis", "--p", "4", "--n-values", "0,8,16,32"], "N values"),
    (["rank1", "--n-max", "-1"], "--n-max"),
    (["rank1", "--grid", "0"], "--grid"),
    (["oracle-diff", "--mu", "1,1", "--samples", "2", "--tol", "-1"], "--tol"),
    (["lp", "--mu", "1,0", "--p", "abc"], "--p (p)"),
    (["rank1", "--grid", "x"], "--grid (grid)"),
    (["rank1", "--n-max", "2.5"], "--n-max (n_max)"),
    (["oracle-diff", "--mu", "3,1", "--regime", "walls"], "--regime (regime)"),
    (["eval", "--mu", "1,0", "--alcove", "1,2,3"], "--alcove (alcove)"),
    (["eval", "--theta", "0,0,0"], "--mu (mu) is required"),
    (["scaling", "--p", "4"], "--family (family) is required"),
    (["verify-envelope", "--corner-rays", "-1"], "--corner-rays (corner_rays)"),
    (["eval", "--mu", "1,0", "--alcove", "0.3,1", "--wall", "7"], "--wall (wall)"),
])
def test_out_of_domain_inputs_are_usage_errors(capsys, argv, names):
    code, _, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert len(err.splitlines()) == 1
    diag = json.loads(err)
    assert diag["error"] == "usage"
    assert names in diag["message"]


TABLE_ROWS = [(cmd, row) for cmd, (_, _, rows) in cli._COMMANDS.items() for row in rows]


def _row_values(row, tmp_path):
    """(config-file value, flag text, flag value) for one table row, the
    file value unlike the default and the flag value unlike the file's."""
    name, default, kw = row
    if name in ("out", "out_csv", "out_json"):
        return str(tmp_path / "from_file"), str(tmp_path / "from_flag"), str(tmp_path / "from_flag")
    if kw.get("nargs"):
        # a list row: as many entries as it takes, two where it takes one or more
        n = 2 if kw["nargs"] == "+" else kw["nargs"]
        from_file, flag_text, from_flag = _row_values((name, None, {**kw, "nargs": None}), tmp_path)
        return [from_file] * n, ",".join([flag_text] * n), [from_flag] * n
    if "choices" in kw:
        from_file = next(c for c in kw["choices"] if c != default)
        from_flag = next(c for c in kw["choices"] if c != from_file)
        return from_file, str(from_flag), from_flag
    kind = kw.get("type", str)
    if kind is int:
        return 3, "5", 5
    if kind is float:
        return 0.25, "0.5", 0.5
    return "from_file", "from_flag", "from_flag"


def _required_flags(cmd, skip=None):
    """Flag arguments that fill the required rows of cmd other than skip."""
    argv = []
    for row in cli._COMMANDS[cmd][2]:
        if row[2].get("required") and row[0] != skip:
            argv += ["--" + row[0].replace("_", "-"), _row_values(row, None)[1]]
    return argv


@pytest.mark.parametrize("cmd, row", TABLE_ROWS, ids=[f"{c}:{r[0]}" for c, r in TABLE_ROWS])
def test_every_table_row_is_a_config_key_and_a_flag(capsys, tmp_path, cmd, row):
    name, default, kw = row
    flag = "--" + name.replace("_", "-")
    from_file, flag_text, from_flag = _row_values(row, tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({name: from_file}))
    parser = cli._build_parser()

    def resolved(*argv):
        return cli._resolve(parser.parse_args([cmd, *_required_flags(cmd, name), *argv])).params[name]

    if kw.get("nargs") and isinstance(default, str):
        default = [kw["type"](x) for x in default.split(",")]  # written as flag text
    if kw.get("required"):
        with pytest.raises(cli.UsageError, match=f"{flag} \\({name}\\) is required"):
            resolved()
    else:
        assert resolved() == default
    assert resolved("--config", str(cfg_path)) == from_file
    assert resolved("--config", str(cfg_path), flag, flag_text) == from_flag
    with pytest.raises(SystemExit):
        parser.parse_args([cmd, "--help"])
    assert flag + " " in capsys.readouterr().out


@pytest.mark.parametrize("cmd", list(cli._COMMANDS))
def test_echo_is_the_table_rows_minus_runtime_knobs(cmd):
    cfg = cli._resolve(cli._build_parser().parse_args([cmd, *_required_flags(cmd)]))
    names = {name for name, _, _ in cli._COMMANDS[cmd][2]}
    assert set(cli._echo(cfg)) == {"command"} | names - {"out", "out_csv", "out_json"}
