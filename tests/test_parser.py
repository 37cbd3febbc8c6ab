"""The `cset` parser, pinned as literals: each subcommand's option strings,
the namespace a minimal argv parses to, and which flags it requires."""

import pytest

from cset.cli import build_parser, main

HELP = ["--help", "-h"]

OPTIONS = {
    "ingest": ["--input", "--out", "--to"],
    "synth": ["--concentration", "--corruption", "--corruption-param", "--k", "--n",
              "--out", "--seed"],
    "fit-temp": ["--input", "--out", "--t-hi", "--t-lo", "--t-tol"],
    "tune": ["--alpha", "--input", "--lambda-grid", "--out", "--seed", "--strata",
             "--temperature", "--tune-objective"],
    "calibrate": ["--alpha", "--boundary-inclusive", "--deterministic", "--input", "--k-reg",
                  "--lambda", "--method", "--out", "--seed", "--temperature"],
    "predict": ["--input", "--model", "--out", "--seed", "--temperature"],
    "evaluate": ["--input", "--model", "--out", "--seed", "--strata", "--temperature"],
    "experiment": ["--alpha", "--cal-size", "--concentration", "--corruption",
                   "--corruption-param", "--deterministic", "--eval-size", "--input", "--k",
                   "--k-reg", "--lambda", "--lambda-grid", "--methods", "--n", "--no-sweep",
                   "--out", "--platt-split", "--seed", "--strata", "--trials",
                   "--tune-objective", "--tune-size"],
}

# Each subcommand's shortest argv: its name and its required flags.
MINIMAL = {
    "ingest": ["--input", "s.bin"],
    "synth": ["--n", "10", "--k", "3", "--out", "o"],
    "fit-temp": ["--input", "s.bin", "--out", "o"],
    "tune": ["--input", "s.bin", "--out", "o"],
    "calibrate": ["--input", "s.bin", "--out", "o"],
    "predict": ["--model", "m.txt", "--input", "s.bin", "--out", "o"],
    "evaluate": ["--model", "m.txt", "--input", "s.bin", "--out", "o"],
    "experiment": ["--cal-size", "5", "--eval-size", "6", "--out", "o"],
}

NAMESPACES = {
    "ingest": {"input": "s.bin", "to": "binary", "out": None},
    "synth": {"n": 10, "k": 3, "concentration": None, "corruption": None,
              "corruption_param": None, "seed": 0, "out": "o"},
    "fit-temp": {"input": "s.bin", "t_lo": 0.05, "t_hi": 20.0, "t_tol": 0.0001, "out": "o"},
    "tune": {"input": "s.bin", "tune_objective": "size", "lambda_grid": None, "strata": None,
             "temperature": None, "alpha": 0.1, "seed": 0, "out": "o"},
    "calibrate": {"input": "s.bin", "method": "raps", "penalty": 0.0, "k_reg": 1,
                  "boundary_inclusive": False, "temperature": None, "alpha": 0.1, "seed": 0,
                  "deterministic": False, "out": "o"},
    "predict": {"model": "m.txt", "input": "s.bin", "temperature": None, "seed": 0, "out": "o"},
    "evaluate": {"model": "m.txt", "input": "s.bin", "temperature": None, "strata": None,
                 "seed": 0, "out": "o"},
    "experiment": {"input": None, "n": None, "k": None, "concentration": None,
                   "corruption": None, "corruption_param": None,
                   "methods": ("naive", "aps", "raps", "lac", "fixed_k"), "trials": 10,
                   "tune_size": 0, "cal_size": 5, "eval_size": 6, "penalty": None,
                   "k_reg": None, "tune_objective": None, "lambda_grid": None, "strata": None,
                   "platt_split": "calibration", "no_sweep": False, "alpha": 0.1, "seed": 0,
                   "deterministic": False, "out": "o"},
}


def test_parser_has_the_eight_subcommands():
    _, sub = build_parser()
    assert sorted(sub.choices) == sorted(OPTIONS)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_accepts_exactly_its_options(command):
    _, sub = build_parser()
    accepted = sorted(s for a in sub.choices[command]._actions for s in a.option_strings)
    assert accepted == sorted(OPTIONS[command] + HELP)


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_minimal_argv_parses_to_pinned_namespace(command):
    parser, _ = build_parser()
    ns = vars(parser.parse_args([command, *MINIMAL[command]]))
    assert callable(ns.pop("func"))
    assert ns == {"config": None, "command": command, **NAMESPACES[command]}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_each_minimal_flag_is_required(command):
    argv = MINIMAL[command]
    for i in range(0, len(argv), 2):
        with pytest.raises(SystemExit) as exc:
            build_parser()[0].parse_args([command, *argv[:i], *argv[i + 2:]])
        assert exc.value.code == 2


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err
