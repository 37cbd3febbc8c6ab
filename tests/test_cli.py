import json
import math

import numpy as np
import pytest

import cset
from cset.cli import _extract_config, main
from cset.conformal import ConformalModel, MethodSpec


FOUR_ROW_CSV = (
    "scores,K=6\n"
    "0.2,0.19,0.18,0.17,0.15,0.11,0\n"
    "0.5,0.1,0.1,0.1,0.1,0.1,0\n"
    "0.7,0.06,0.06,0.06,0.06,0.06,0\n"
    "0.9,0.02,0.02,0.02,0.02,0.02,0\n"
)


@pytest.fixture
def four_row_file(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text(FOUR_ROW_CSV)
    return str(path)


def run(args):
    return main(args)


def test_calibrate_hand_fixture_writes_tau(four_row_file, tmp_path, capsys):
    out = tmp_path / "model"
    # deterministic aps scores of the fixture are (0.2, 0.5, 0.7, 0.9)
    code = run([
        "calibrate", "--input", four_row_file, "--method", "aps",
        "--alpha", "0.5", "--deterministic", "--out", str(out),
    ])
    assert code == 0
    text = (out / "model.txt").read_text()
    assert "tau_hat = 0.7\n" in text
    captured = capsys.readouterr()
    assert "tau_hat=0.7" in captured.out
    assert json.loads((out / "config_used.json").read_text())["alpha"] == 0.5


def test_predict_hand_example_line(tmp_path):
    model = ConformalModel(
        MethodSpec("aps", 0.1, randomized=False), 0.85, 10, 0, 3
    )
    cset.save_model(model, str(tmp_path / "model.txt"))
    (tmp_path / "eval.csv").write_text("scores,K=3\n0.5,0.3,0.2,0\n")
    out = tmp_path / "pred"
    code = run([
        "predict", "--model", str(tmp_path / "model.txt"),
        "--input", str(tmp_path / "eval.csv"), "--out", str(out),
    ])
    assert code == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "0,2,0,1"


def test_predict_with_nan_threshold_model_is_data_error(tmp_path, capsys):
    model = ConformalModel(MethodSpec("aps", 0.1), 0.85, 10, 0, 3)
    path = tmp_path / "model.txt"
    cset.save_model(model, str(path))
    path.write_text(path.read_text().replace("tau_hat = 0.85", "tau_hat = nan"))
    (tmp_path / "eval.csv").write_text("scores,K=3\n0.5,0.3,0.2,0\n")
    out = tmp_path / "pred"
    code = run([
        "predict", "--model", str(path),
        "--input", str(tmp_path / "eval.csv"), "--out", str(out),
    ])
    assert code == 1
    assert "tau_hat" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


def test_predict_with_a_negative_seed_model_is_data_error(tmp_path, capsys):
    model = ConformalModel(MethodSpec("lac", 0.1), 0.85, 10, 0, 3)
    path = tmp_path / "model.txt"
    cset.save_model(model, str(path))
    path.write_text(path.read_text().replace("seed = 0", "seed = -7"))
    (tmp_path / "eval.csv").write_text("scores,K=3\n0.5,0.3,0.2,0\n")
    out = tmp_path / "pred"
    code = run([
        "predict", "--model", str(path),
        "--input", str(tmp_path / "eval.csv"), "--out", str(out),
    ])
    assert code == 1
    assert "seed" in capsys.readouterr().err
    assert not (out / "predictions.csv").exists()


def test_predict_infinite_threshold_gives_all_classes(tmp_path):
    model = ConformalModel(MethodSpec("aps", 0.1, randomized=False), math.inf, 4, 0, 3)
    cset.save_model(model, str(tmp_path / "model.txt"))
    (tmp_path / "eval.csv").write_text("scores,K=3\n0.5,0.3,0.2,0\n0.3,0.4,0.3,1\n")
    out = tmp_path / "pred"
    assert run([
        "predict", "--model", str(tmp_path / "model.txt"),
        "--input", str(tmp_path / "eval.csv"), "--out", str(out),
    ]) == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert all(line.split(",")[1] == "3" for line in lines)


def test_bad_alpha_is_usage_error_before_io(tmp_path, capsys):
    code = run([
        "calibrate", "--input", str(tmp_path / "never_created.csv"),
        "--alpha", "1.5", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("strata", ["5-2", "0-3,2-5"])
def test_bad_strata_is_usage_error_before_io(tmp_path, capsys, strata):
    code = run([
        "evaluate", "--model", str(tmp_path / "never_created.txt"),
        "--input", str(tmp_path / "never_created.bin"),
        "--strata", strata, "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "--strata" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_missing_input_is_data_error(tmp_path, capsys):
    missing = str(tmp_path / "nope.csv")
    code = run(["ingest", "--input", missing])
    assert code == 1
    assert missing in capsys.readouterr().err


def test_malformed_csv_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("scores,K=3\n0.5,0.5\n")
    code = run(["ingest", "--input", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err


def test_ingest_reports_shape_and_converts(tmp_path, capsys):
    src = tmp_path / "scores.csv"
    src.write_text("scores,K=3\n0.5,0.3,0.2,0\n0.2,0.3,0.5,2\n")
    out = tmp_path / "converted"
    code = run(["ingest", "--input", str(src), "--to", "binary", "--out", str(out)])
    assert code == 0
    assert "n=2 K=3 kind=probabilities" in capsys.readouterr().out
    back = cset.load_scores(str(out / "scores.bin"))
    assert back.n == 2 and back.kind == "probabilities"


def test_synth_then_calibrate_then_evaluate(tmp_path, capsys):
    data = tmp_path / "data"
    assert run([
        "synth", "--n", "400", "--k", "8", "--seed", "3", "--out", str(data),
    ]) == 0
    model = tmp_path / "model"
    assert run([
        "calibrate", "--input", str(data / "observed.bin"), "--method", "raps",
        "--lambda", "0.01", "--k-reg", "2", "--alpha", "0.2", "--out", str(model),
    ]) == 0
    report = tmp_path / "report"
    assert run([
        "evaluate", "--model", str(model / "model.txt"),
        "--input", str(data / "observed.bin"), "--out", str(report),
    ]) == 0
    text = (report / "report.txt").read_text()
    assert "coverage = " in text and "sscv = " in text
    hist = (report / "hist.csv").read_text().splitlines()
    assert hist[0] == "size,count"
    n_from_hist = sum(int(line.split(",")[1]) for line in hist[1:])
    assert n_from_hist == 400
    assert (report / "strata.csv").exists()
    assert (report / "difficulty.csv").exists()


def _hand_written_tables(report):
    """The evaluate tables in the format cmd_evaluate once wrote by hand."""
    hist_lines = ["size,count"] + [f"{s},{c}" for s, c in report.size_hist.items()]
    strata_lines = ["size_lo,size_hi,count,coverage"]
    for row in report.per_stratum:
        cov = repr(row.coverage) if row.coverage is not None else ""
        strata_lines.append(f"{row.lo},{row.hi},{row.count},{cov}")
    diff_lines = ["difficulty_lo,difficulty_hi,count,coverage,avg_size"]
    for row in report.per_difficulty:
        cov = repr(row.coverage) if row.coverage is not None else ""
        sz = repr(row.avg_size) if row.avg_size is not None else ""
        diff_lines.append(f"{row.lo},{row.hi},{row.count},{cov},{sz}")
    tables = {"hist.csv": hist_lines, "strata.csv": strata_lines, "difficulty.csv": diff_lines}
    return {name: "\n".join(lines) + "\n" for name, lines in tables.items()}


def test_evaluate_tables_keep_their_exact_bytes(four_row_file, tmp_path, capsys):
    model = tmp_path / "model"
    assert run([
        "calibrate", "--input", four_row_file, "--method", "aps",
        "--alpha", "0.5", "--deterministic", "--out", str(model),
    ]) == 0
    out = tmp_path / "eval"
    assert run([
        "evaluate", "--model", str(model / "model.txt"), "--input", four_row_file,
        "--strata", "0-0,1-2,3-4,5-6", "--seed", "1", "--out", str(out),
    ]) == 0
    m = cset.load_scores(four_row_file)
    report = cset.evaluate_model(
        cset.load_model(str(model / "model.txt")), cset.sort_scores(m, 1), m.labels,
        seed=1, strata=((0, 0), (1, 2), (3, 4), (5, 6)),
    )
    expected = _hand_written_tables(report)
    # sizes are 0, 1, 3, 3 and every label ranks first, so the last stratum and
    # two difficulty bins are empty and their cells blank
    assert expected["strata.csv"].endswith("\n5,6,0,\n")
    assert "\n2,3,0,,\n" in expected["difficulty.csv"]
    for name, text in expected.items():
        assert (out / name).read_bytes() == text.encode()


def test_evaluate_report_txt_and_csv_hold_the_same_fields(four_row_file, tmp_path):
    model = tmp_path / "model"
    assert run(["calibrate", "--input", four_row_file, "--method", "lac",
                "--out", str(model)]) == 0
    out = tmp_path / "eval"
    assert run(["evaluate", "--model", str(model / "model.txt"), "--input", four_row_file,
                "--out", str(out)]) == 0
    txt = [line.split(" = ") for line in (out / "report.txt").read_text().splitlines()]
    csv = (out / "report.csv").read_text().splitlines()
    assert csv[0] == "metric,value"
    assert [line.split(",") for line in csv[1:]] == txt
    assert [key for key, _ in txt] == ["n_eval", "coverage", "avg_size", "sscv", "top1", "top5"]


_SIZES = ["--cal-size", "10", "--eval-size", "10"]


@pytest.mark.parametrize("argv, says", [
    (["calibrate", "--alpha", "0"], "--alpha: alpha must be in (0, 1)"),
    (["calibrate", "--alpha", "1"], "--alpha: alpha must be in (0, 1)"),
    (["calibrate", "--alpha", "nan"], "--alpha: alpha must be in (0, 1)"),
    (["calibrate", "--alpha", "abc"], "--alpha: invalid float value: 'abc'"),
    (["fit-temp", "--t-tol", "0"], "--t-tol: expected a positive finite number"),
    (["fit-temp", "--t-tol", "abc"], "--t-tol: invalid float value: 'abc'"),
    (["calibrate", "--lambda", "-1"], "--lambda: expected a nonnegative finite number"),
    (["calibrate", "--lambda", "abc"], "--lambda: invalid float value: 'abc'"),
    (["experiment", *_SIZES, "--trials", "0"], "--trials: expected a positive integer"),
    (["experiment", *_SIZES, "--trials", "abc"], "--trials: invalid int value: 'abc'"),
    (["experiment", "--eval-size", "10", "--cal-size", "0"], "--cal-size: expected a positive"),
    (["calibrate", "--seed", "-1"], "--seed: expected a nonnegative integer"),
    (["calibrate", "--seed", "abc"], "--seed: invalid int value: 'abc'"),
])
def test_numeric_flags_refuse_bad_values_before_io(tmp_path, capsys, argv, says):
    out = tmp_path / "x"
    code = run([*argv, "--input", str(tmp_path / "never_created.csv"), "--out", str(out)])
    assert code == 2
    assert f"argument {says}" in capsys.readouterr().err
    assert not out.exists()


def test_fit_temp_roundtrip(tmp_path, capsys):
    g = np.random.default_rng(0)
    z = g.normal(0, 3.0, size=(2000, 6))
    labels = g.integers(0, 6, size=2000)
    m = cset.ScoreMatrix(z, labels, "logits")
    cset.save_scores(m, str(tmp_path / "logits.bin"), "binary")
    out = tmp_path / "temp"
    assert run(["fit-temp", "--input", str(tmp_path / "logits.bin"), "--out", str(out)]) == 0
    text = (out / "temperature.txt").read_text()
    fitted = float(text.splitlines()[0].split(" = ")[1])
    assert 0.05 <= fitted <= 20.0


def test_fit_temp_rejects_probabilities(tmp_path, capsys):
    (tmp_path / "p.csv").write_text("scores,K=2\n0.6,0.4,0\n")
    assert run(["fit-temp", "--input", str(tmp_path / "p.csv"), "--out", str(tmp_path / "o")]) == 1


def test_logits_require_temperature_for_calibrate(tmp_path, capsys):
    (tmp_path / "z.csv").write_text("scores,K=2\n1.5,-0.5,0\n-1.0,2.0,1\n2.0,0.0,0\n1.0,0.5,1\n")
    code = run([
        "calibrate", "--input", str(tmp_path / "z.csv"), "--method", "aps",
        "--out", str(tmp_path / "m"),
    ])
    assert code == 1
    assert "fit-temp" in capsys.readouterr().err

    assert run([
        "calibrate", "--input", str(tmp_path / "z.csv"), "--method", "aps",
        "--temperature", "2.0", "--alpha", "0.5", "--out", str(tmp_path / "m"),
    ]) == 0


def test_temperature_on_probabilities_is_usage_error(four_row_file, tmp_path):
    code = run([
        "calibrate", "--input", four_row_file, "--temperature", "2.0",
        "--out", str(tmp_path / "m"),
    ])
    assert code == 2


def test_tune_subcommand(tmp_path, capsys):
    spec = cset.SynthSpec(n=300, n_classes=10, concentration=1.0, seed=5)
    _, m = cset.generate(spec)
    cset.save_scores(m, str(tmp_path / "tune.bin"), "binary")
    out = tmp_path / "tuned"
    assert run([
        "tune", "--input", str(tmp_path / "tune.bin"), "--tune-objective", "size",
        "--alpha", "0.2", "--out", str(out),
    ]) == 0
    text = (out / "tune.txt").read_text()
    assert "k_reg = " in text and "lambda = " in text
    lam = float([l for l in text.splitlines() if l.startswith("lambda")][0].split(" = ")[1])
    from cset.tuning import SIZE_LAMBDA_GRID

    assert lam in SIZE_LAMBDA_GRID


def test_config_file_sets_defaults_cli_overrides(tmp_path, four_row_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "method": "aps", "deterministic": True}))
    out1 = tmp_path / "m1"
    assert run([
        "calibrate", "--config", str(cfg), "--input", four_row_file, "--out", str(out1),
    ]) == 0
    assert "tau_hat = 0.7\n" in (out1 / "model.txt").read_text()

    # explicit flag beats the config value
    out2 = tmp_path / "m2"
    assert run([
        "calibrate", "--config", str(cfg), "--input", four_row_file,
        "--alpha", "0.25", "--out", str(out2),
    ]) == 0
    assert "alpha = 0.25" in (out2 / "model.txt").read_text()
    echoed = json.loads((out2 / "config_used.json").read_text())
    assert echoed["alpha"] == 0.25


def test_config_unknown_key_is_usage_error(tmp_path, four_row_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_flag": 1}))
    code = run([
        "calibrate", "--config", str(cfg), "--input", four_row_file,
        "--out", str(tmp_path / "m"),
    ])
    assert code == 2
    assert "no_such_flag" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("calibrate", {"deterministic": "false"}),
    ("tune", {"tune_objective": "sizes"}),
    ("calibrate", {"seed": 1.5}),
])
def test_config_values_pass_the_flag_validators(tmp_path, four_row_file, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = run([command, "--config", str(cfg), "--input", four_row_file, "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config key {next(iter(config))!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_values_parse_like_flags(tmp_path, four_row_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.5, "method": "aps", "seed": 3, "deterministic": False}))
    out = tmp_path / "m"
    assert run(["calibrate", "--config", str(cfg), "--input", four_row_file, "--out", str(out)]) == 0
    echoed = json.loads((out / "config_used.json").read_text())
    assert (echoed["alpha"], echoed["method"], echoed["seed"]) == (0.5, "aps", 3)
    assert echoed["deterministic"] is False


def test_config_without_subcommand_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha": 0.2}))
    assert run(["--config", str(cfg)]) == 2


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2


def test_experiment_smoke_and_determinism(tmp_path):
    args = [
        "experiment", "--k", "10", "--trials", "2", "--cal-size", "80",
        "--eval-size", "80", "--methods", "aps,naive", "--alpha", "0.2",
        "--seed", "7", "--no-sweep",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("summary.csv", "hist_aps.csv", "strata_aps.csv", "table1.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "summary.csv").read_text().splitlines()[0]
    assert header.startswith("method,coverage,avg_size,sscv,top1,top5")


def test_experiment_with_sweep_writes_grid(tmp_path):
    out = tmp_path / "sweep_run"
    assert run([
        "experiment", "--k", "6", "--trials", "1", "--cal-size", "60",
        "--eval-size", "60", "--methods", "raps", "--lambda", "0.01",
        "--alpha", "0.2", "--out", str(out),
    ]) == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "k_reg,lambda,avg_size"
    # kregs above K are dropped
    ks = {int(line.split(",")[0]) for line in sweep[1:]}
    assert ks == {1, 2, 5}


def test_experiment_sweep_does_not_change_the_method_results(tmp_path):
    # the sweep shares the methods' trial loop; every method file must be the
    # same bytes as in a run without it
    args = [
        "experiment", "--k", "10", "--trials", "2", "--tune-size", "60",
        "--cal-size", "80", "--eval-size", "80", "--methods", "naive,aps,raps,lac,fixed_k",
        "--alpha", "0.2", "--seed", "5",
    ]
    with_sweep, without = tmp_path / "sweep", tmp_path / "nosweep"
    assert run(args + ["--out", str(with_sweep)]) == 0
    assert run(args + ["--no-sweep", "--out", str(without)]) == 0
    assert (with_sweep / "sweep.csv").exists()
    assert not (without / "sweep.csv").exists()
    # config_used.json records the flags, --no-sweep included
    names = sorted(p.name for p in without.iterdir() if p.name != "config_used.json")
    assert "summary.csv" in names and "hist_raps.csv" in names
    for name in names:
        assert (with_sweep / name).read_bytes() == (without / name).read_bytes(), name


def test_experiment_tuned_raps_needs_tune_split(tmp_path, capsys):
    code = run([
        "experiment", "--k", "6", "--trials", "1", "--cal-size", "50",
        "--eval-size", "50", "--methods", "raps", "--out", str(tmp_path / "x"),
        "--no-sweep",
    ])
    assert code == 2
    assert "tune" in capsys.readouterr().err


def test_experiment_from_file_input(tmp_path):
    spec = cset.SynthSpec(n=260, n_classes=8, seed=9)
    _, m = cset.generate(spec)
    cset.save_scores(m, str(tmp_path / "pool.bin"), "binary")
    out = tmp_path / "filerun"
    assert run([
        "experiment", "--input", str(tmp_path / "pool.bin"), "--trials", "2",
        "--cal-size", "100", "--eval-size", "100", "--methods", "lac,fixed_k",
        "--alpha", "0.2", "--out", str(out), "--no-sweep",
    ]) == 0
    summary = (out / "summary.csv").read_text()
    assert "lac" in summary and "fixed_k" in summary


def test_help_mentions_every_documented_flag(capsys):
    # argparse exits 0 on --help; main converts that to a return code
    assert main(["experiment", "--help"]) == 0
    text = capsys.readouterr().out
    for flag in (
        "--methods", "--trials", "--cal-size", "--eval-size", "--tune-size",
        "--lambda", "--k-reg", "--strata", "--platt-split", "--alpha", "--seed",
        "--corruption", "--concentration", "--no-sweep", "--deterministic",
    ):
        assert flag in text


def test_fit_temp_with_tol_below_float_spacing_returns(tmp_path, capsys):
    g = np.random.default_rng(3)
    m = cset.ScoreMatrix(g.normal(size=(50, 5)), g.integers(0, 5, 50), "logits")
    cset.save_scores(m, str(tmp_path / "logits.bin"), "binary")
    out = tmp_path / "temp"
    assert run([
        "fit-temp", "--input", str(tmp_path / "logits.bin"), "--t-tol", "1e-300",
        "--out", str(out),
    ]) == 0
    assert (out / "temperature.txt").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e999"])
@pytest.mark.parametrize("command", ["calibrate", "predict"])
def test_non_finite_temperature_is_usage_error(tmp_path, capsys, command, value):
    (tmp_path / "z.csv").write_text("scores,K=2\n1.5,-0.5,0\n-1.0,2.0,1\n")
    args = {
        "calibrate": ["calibrate", "--input", str(tmp_path / "z.csv")],
        "predict": ["predict", "--model", str(tmp_path / "m.txt"), "--input", str(tmp_path / "z.csv")],
    }[command]
    assert run(args + [f"--temperature={value}", "--out", str(tmp_path / "o")]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fit_temp_with_overflowing_bracket_is_usage_error(tmp_path, capsys):
    g = np.random.default_rng(3)
    m = cset.ScoreMatrix(g.normal(size=(50, 5)), g.integers(0, 5, 50), "logits")
    cset.save_scores(m, str(tmp_path / "logits.bin"), "binary")
    code = run([
        "fit-temp", "--input", str(tmp_path / "logits.bin"), "--t-hi", "1.7e308",
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "half the largest float" in capsys.readouterr().err
    assert not (tmp_path / "o" / "temperature.txt").exists()


@pytest.mark.parametrize("flag", ["--t-lo", "--t-hi", "--t-tol"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_fit_temp_non_finite_bracket_is_usage_error(tmp_path, capsys, flag, value):
    code = run([
        "fit-temp", "--input", str(tmp_path / "never_created.bin"), flag, value,
        "--out", str(tmp_path / "o"),
    ])
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lambda_is_usage_error(four_row_file, tmp_path, capsys, value):
    code = run([
        "calibrate", "--input", four_row_file, "--method", "raps", "--lambda", value,
        "--out", str(tmp_path / "m"),
    ])
    assert code == 2
    assert "tau_hat" not in capsys.readouterr().err
    assert run([
        "experiment", "--cal-size", "100", "--eval-size", "100", "--lambda-grid",
        f"0.01,{value}", "--out", str(tmp_path / "e"),
    ]) == 2


@pytest.mark.parametrize("penalty", [math.nan, math.inf])
def test_method_spec_rejects_non_finite_penalty(penalty):
    with pytest.raises(ValueError, match="finite"):
        MethodSpec("raps", 0.1, penalty=penalty)


def test_predict_with_non_finite_penalty_model_is_data_error(tmp_path, capsys):
    model = ConformalModel(MethodSpec("raps", 0.1, penalty=0.5), 0.85, 10, 0, 3)
    path = tmp_path / "model.txt"
    cset.save_model(model, str(path))
    path.write_text(path.read_text().replace("lambda = 0.5", "lambda = inf"))
    (tmp_path / "eval.csv").write_text("scores,K=3\n0.5,0.3,0.2,0\n")
    code = run([
        "predict", "--model", str(path),
        "--input", str(tmp_path / "eval.csv"), "--out", str(tmp_path / "pred"),
    ])
    assert code == 1
    assert "penalty" in capsys.readouterr().err


def _replay(command, first, second):
    """Rerun `command` from the config_used.json in `first`, writing to `second`."""
    echoed = json.loads((first / "config_used.json").read_text())
    assert "command" not in echoed and None not in echoed.values()
    assert run([command, "--config", str(first / "config_used.json"), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        if name != "config_used.json":
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
    replayed = json.loads((second / "config_used.json").read_text())
    assert replayed == {**echoed, "out": str(second)}
    return echoed


def test_evaluate_replays_from_its_config_used(tmp_path, capsys):
    data, model = tmp_path / "data", tmp_path / "model"
    assert run(["synth", "--n", "300", "--k", "8", "--seed", "3", "--out", str(data)]) == 0
    assert run(["calibrate", "--input", str(data / "observed.bin"), "--method", "raps",
                "--lambda", "0.01", "--k-reg", "2", "--out", str(model)]) == 0
    first = tmp_path / "e1"
    assert run(["evaluate", "--model", str(model / "model.txt"),
                "--input", str(data / "observed.bin"), "--strata", "0-1,2-3,4-8",
                "--seed", "2", "--out", str(first)]) == 0
    echoed = _replay("evaluate", first, tmp_path / "e2")
    assert echoed["strata"] == "0-1,2-3,4-8"
    assert "temperature" not in echoed


def test_experiment_replays_from_its_config_used(tmp_path, capsys):
    first = tmp_path / "x1"
    assert run([
        "experiment", "--k", "8", "--trials", "2", "--tune-size", "60", "--cal-size", "80",
        "--eval-size", "80", "--methods", "aps,raps", "--lambda-grid", "0.001,1e-2",
        "--tune-objective", "adaptiveness", "--strata", "0-1,2-2,3-8", "--alpha", "0.2",
        "--seed", "3", "--no-sweep", "--out", str(first),
    ]) == 0
    echoed = _replay("experiment", first, tmp_path / "x2")
    assert (echoed["strata"], echoed["methods"], echoed["lambda_grid"]) == (
        "0-1,2-2,3-8", "aps,raps", "0.001,0.01")
    assert "input" not in echoed and "penalty" not in echoed


def test_config_help_key_is_usage_error(tmp_path, four_row_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"help": True}))
    code = run(["calibrate", "--config", str(cfg), "--input", four_row_file,
                "--out", str(tmp_path / "m")])
    assert code == 2
    assert "unknown config key 'help'" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("argv, expected", [
    (["--config", "c.json", "calibrate", "--input", "a"], ("c.json", ["calibrate", "--input", "a"])),
    (["calibrate", "--input", "a", "--config", "c.json"], ("c.json", ["calibrate", "--input", "a"])),
    (["calibrate", "--config", "c.json", "--input", "a"], ("c.json", ["calibrate", "--input", "a"])),
    (["calibrate", "--config=c.json", "--input", "a"], ("c.json", ["calibrate", "--input", "a"])),
    (["calibrate", "--config", "a.json", "--config", "b.json"], ("b.json", ["calibrate"])),
    (["calibrate", "--lambda", "-1", "--config", "c.json"], ("c.json", ["calibrate", "--lambda", "-1"])),
    (["calibrate", "--lambda=-1", "--config", "c.json"], ("c.json", ["calibrate", "--lambda=-1"])),
    (["calibrate", "--conf", "c.json"], (None, ["calibrate", "--conf", "c.json"])),
    (["calibrate", "-h"], (None, ["calibrate", "-h"])),
    (["calibrate", "--input", "--config=x"], ("x", ["calibrate", "--input"])),
    ([], (None, [])),
])
def test_config_pre_parser_takes_config_from_any_position(argv, expected):
    assert _extract_config(argv) == expected


def test_trailing_config_without_path_is_usage_error(capsys):
    assert run(["calibrate", "--input", "a.csv", "--out", "o", "--config"]) == 2
    assert "--config" in capsys.readouterr().err


def test_calibrate_refuses_lambda_for_other_methods(four_row_file, tmp_path, capsys):
    out = tmp_path / "m"
    code = run([
        "calibrate", "--input", four_row_file, "--method", "aps", "--lambda", "0.5",
        "--out", str(out),
    ])
    assert code == 2
    assert "penalty is a raps knob" in capsys.readouterr().err
    assert not (out / "model.txt").exists() and not (out / "config_used.json").exists()


def test_ingest_takes_its_format_from_the_file(tmp_path, capsys):
    _, m = cset.generate(cset.SynthSpec(n=20, n_classes=4, seed=1))
    cset.save_scores(m, str(tmp_path / "s.bin"), "binary")
    out = tmp_path / "conv"
    code = run(["ingest", "--input", str(tmp_path / "s.bin"), "--format", "csv",
                "--out", str(out)])
    assert code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_tuned_raps_with_empty_tuning_split_says_so(tmp_path, capsys):
    out = tmp_path / "x"
    code = run([
        "experiment", "--k", "6", "--trials", "1", "--tune-size", "0", "--cal-size", "50",
        "--eval-size", "50", "--methods", "aps,raps", "--out", str(out),
    ])
    assert code == 2
    assert "tuning split is empty" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_refuses_a_repeated_method_before_io(tmp_path, capsys):
    out = tmp_path / "x"
    code = run([
        "experiment", "--input", str(tmp_path / "missing.bin"), "--cal-size", "50",
        "--eval-size", "50", "--methods", "aps,aps,lac", "--out", str(out),
    ])
    assert code == 2
    assert "'aps' is named twice" in capsys.readouterr().err
    assert not out.exists()


def test_predict_refuses_a_model_file_with_an_unknown_key(four_row_file, tmp_path, capsys):
    model = tmp_path / "m"
    assert run(["calibrate", "--input", four_row_file, "--method", "aps", "--alpha", "0.5",
                "--out", str(model)]) == 0
    path = model / "model.txt"
    path.write_text(path.read_text() + "temperature = 1.5\n")
    out = tmp_path / "pred"
    code = run(["predict", "--model", str(path), "--input", four_row_file, "--out", str(out)])
    assert code == 1
    assert "unknown model field 'temperature'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, says", [
    (["--methods", "aps,lac", "--lambda", "0.5", "--k-reg", "3"], "--lambda, --k-reg would"),
    (["--methods", "aps,lac", "--lambda", "0.5"], "--lambda would"),
    (["--methods", "aps,lac", "--tune-objective", "adaptiveness"], "--tune-objective would"),
    (["--methods", "aps,lac", "--lambda-grid", "0.1,0.2"], "--lambda-grid would"),
    (["--methods", "raps", "--lambda", "0.5", "--tune-objective", "size"], "--tune-objective"),
    (["--methods", "raps", "--lambda", "0.5", "--lambda-grid", "0.1,0.2"], "--lambda-grid"),
    (["--methods", "raps", "--k-reg", "3"], "--k-reg would"),
    (["--corruption-param", "7"], "corruption parameter needs a corruption"),
])
def test_experiment_refuses_flags_that_reach_no_model_before_any_data(
        tmp_path, capsys, monkeypatch, flags, says):
    def no_data(*_):
        raise AssertionError("data generated before the flags were checked")

    monkeypatch.setattr("cset.cli.generate", no_data)
    out = tmp_path / "x"
    code = run(["experiment", "--k", "6", "--trials", "1", "--tune-size", "40",
                "--cal-size", "50", "--eval-size", "50", "--no-sweep", *flags,
                "--out", str(out)])
    assert code == 2
    assert says in capsys.readouterr().err
    assert not (out / "summary.csv").exists() and not (out / "config_used.json").exists()


def test_synth_refuses_a_corruption_param_without_a_corruption(tmp_path, capsys):
    out = tmp_path / "d"
    code = run(["synth", "--n", "600", "--k", "20", "--corruption-param", "7", "--out", str(out)])
    assert code == 2
    assert "corruption parameter needs a corruption" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_echoes_only_the_raps_flags_given(tmp_path):
    out = tmp_path / "x"
    assert run(["experiment", "--k", "6", "--trials", "1", "--cal-size", "50",
                "--eval-size", "50", "--methods", "aps,raps", "--lambda", "0.5",
                "--no-sweep", "--out", str(out)]) == 0
    echoed = json.loads((out / "config_used.json").read_text())
    assert echoed["penalty"] == 0.5
    assert "k_reg" not in echoed and "tune_objective" not in echoed
    rows = dict(line.split(",", 1) for line in (out / "summary.csv").read_text().splitlines())
    assert rows["raps"].endswith(",0.5,1.0") and rows["aps"].endswith(",0.0,1.0")


@pytest.mark.parametrize("method", ["naive", "aps", "lac", "fixed_k"])
def test_calibrate_refuses_k_reg_without_raps(four_row_file, tmp_path, capsys, method):
    out = tmp_path / "x"
    code = run(["calibrate", "--input", four_row_file, "--method", method, "--k-reg", "3",
                "--out", str(out)])
    assert code == 2
    assert "--k-reg is a raps knob" in capsys.readouterr().err
    assert not out.exists()
    # raps takes it, and the other methods take the default spelled out
    assert run(["calibrate", "--input", four_row_file, "--method", "raps", "--k-reg", "3",
                "--out", str(tmp_path / "raps")]) == 0
    assert run(["calibrate", "--input", four_row_file, "--method", method, "--k-reg", "1",
                "--out", str(tmp_path / "one")]) == 0


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_model_file_with_fixed_k_fields_on_another_method_is_data_error(tmp_path, capsys,
                                                                        command):
    model = ConformalModel(MethodSpec("aps", 0.1), 0.85, 10, 0, 3)
    path = tmp_path / "model.txt"
    cset.save_model(model, str(path))
    path.write_text(path.read_text() + "k_star = 2\nmix_prob = 0.5\n")
    (tmp_path / "eval.csv").write_text("scores,K=3\n0.5,0.3,0.2,0\n0.3,0.4,0.3,1\n")
    out = tmp_path / "out"
    code = run([command, "--model", str(path), "--input", str(tmp_path / "eval.csv"),
                "--out", str(out)])
    assert code == 1
    assert "k_star and mix_prob apply to fixed_k only" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_repeated_strata_before_io(tmp_path, capsys):
    # Both copies of 0-1 would count the same rows.
    out = tmp_path / "x"
    code = run(["evaluate", "--model", str(tmp_path / "never_created.txt"),
                "--input", str(tmp_path / "never_created.bin"),
                "--strata", "0-1,0-1,2-50", "--out", str(out)])
    assert code == 2
    assert "overlapping strata (0,1) and (0,1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("objective", [[], ["--tune-objective", "size"]])
def test_tune_refuses_strata_without_the_adaptiveness_objective(tmp_path, capsys, objective):
    out = tmp_path / "x"
    code = run(["tune", "--input", str(tmp_path / "never_created.bin"), *objective,
                "--strata", "0-1,2-50", "--out", str(out)])
    assert code == 2
    assert "--strata applies only to --tune-objective adaptiveness" in capsys.readouterr().err
    assert not out.exists()


def test_tune_takes_strata_with_the_adaptiveness_objective(tmp_path):
    _, m = cset.generate(cset.SynthSpec(n=300, n_classes=10, concentration=1.0, seed=5))
    cset.save_scores(m, str(tmp_path / "tune.bin"), "binary")
    out = tmp_path / "tuned"
    assert run(["tune", "--input", str(tmp_path / "tune.bin"), "--tune-objective",
                "adaptiveness", "--strata", "0-1,2-10", "--out", str(out)]) == 0
    assert "objective = adaptiveness\n" in (out / "tune.txt").read_text()


@pytest.mark.parametrize("flags", [
    ["--method", "lac"], ["--method", "lac", "--deterministic"],
    ["--method", "naive", "--deterministic"], ["--method", "fixed_k", "--deterministic"],
    ["--method", "aps"], ["--method", "raps"],
])
def test_calibrate_refuses_boundary_inclusive_where_it_changes_no_set(tmp_path, capsys, flags):
    out = tmp_path / "x"
    code = run(["calibrate", "--input", str(tmp_path / "never_created.csv"), *flags,
                "--boundary-inclusive", "--out", str(out)])
    assert code == 2
    assert "--boundary-inclusive needs --deterministic with aps or raps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["aps", "raps"])
def test_calibrate_takes_boundary_inclusive_on_deterministic_aps_and_raps(
        four_row_file, tmp_path, method):
    out = tmp_path / "x"
    assert run(["calibrate", "--input", four_row_file, "--method", method, "--deterministic",
                "--boundary-inclusive", "--out", str(out)]) == 0
    assert "boundary_inclusive = true\n" in (out / "model.txt").read_text()
