"""Command line interface, exercised in-process through main()."""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import get_args

import numpy as np
import pytest

import gmr.cli
import gmr.io
from gmr.cli import build_parser, main
from gmr.em import InitStrategy


def run(args):
    return main(list(args))


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run(
        [
            "simulate", "--n", "200", "--K", "2", "--p", "2", "--G", "5",
            "--sigma", "1", "--delta-beta", "8", "--seed", "7",
            "--split", "0.2", "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_simulate_writes_files_and_summary(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run(
        [
            "simulate", "--n", "800", "--K", "2", "--p", "2", "--G", "10",
            "--sigma", "2", "--delta-beta", "12", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "R=20" in printed
    assert "40" in printed  # n_r = 800 / 20
    assert (out / "dataset.csv").exists()
    assert (out / "truth.json").exists()


def test_simulate_byte_identical_reruns(tmp_path):
    args = [
        "simulate", "--n", "100", "--K", "2", "--p", "2", "--G", "5",
        "--sigma", "1", "--delta-beta", "6", "--seed", "3", "--split", "0.25",
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    for name in ("dataset.csv", "truth.json", "train.csv", "test.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    conf = tmp_path / "sim.json"
    conf.write_text(json.dumps({"n": 100, "K": 2, "p": 2, "G": 5, "sigma": 1.0, "delta_beta": 6.0, "seed": 1}))
    out = tmp_path / "sim"
    code = run(["simulate", "--config", str(conf), "--G", "10", "--out", str(out)])
    assert code == 0
    assert "R=20" in capsys.readouterr().out  # flag G=10 beat the file's G=5


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    conf = tmp_path / "sim.json"
    conf.write_text(json.dumps({"n": 100, "K": 2, "p": 2, "G": 5, "sigma": 1.0, "delta_beta": 6.0, "bogus": 1}))
    code = run(["simulate", "--config", str(conf), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_simulate_infeasible_parameters_exit_2(tmp_path, capsys):
    # K=4 equidistant vectors need p >= 3; n=9 rows cannot fill K*G=10 groups
    for n, K, p in (("100", "4", "2"), ("9", "2", "2")):
        code = run(
            [
                "simulate", "--n", n, "--K", K, "--p", p, "--G", "5",
                "--sigma", "1", "--delta-beta", "6", "--seed", "0",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc_info:
        run(["fit", "--K", "2"])  # no --data/--out
    assert exc_info.value.code == 2


def test_fit_predict_evaluate_pipeline(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    code = run(
        ["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1", "--out", str(model)]
    )
    assert code == 0
    assert "converged=" in capsys.readouterr().out

    preds = tmp_path / "preds.csv"
    code = run(
        ["predict", "--model", str(model), "--data", str(sim_dir / "test.csv"), "--out", str(preds)]
    )
    assert code == 0
    assert preds.exists()

    code = run(
        [
            "evaluate", "--model", str(model), "--truth", str(sim_dir / "truth.json"),
            "--train", str(sim_dir / "train.csv"), "--predictions", str(preds), "--seed", "1",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(record) == {
        "nmi", "beta_error", "rmse_train", "rmse_test", "n_iter", "converged", "K", "seed",
    }
    assert record["K"] == 2
    assert record["seed"] == 1
    assert 0.0 <= record["nmi"] <= 1.0
    assert record["rmse_test"] > 0


def test_fit_byte_identical_reruns(sim_dir, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "5"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_missing_data_file_exit_1(tmp_path, capsys):
    code = run(["fit", "--data", str(tmp_path / "nope.csv"), "--K", "2", "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_fit_bad_k_exit_2(sim_dir, tmp_path, capsys):
    code = run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "0", "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_predict_unknown_group_fallback_modes(sim_dir, tmp_path):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1", "--out", str(model)]) == 0
    unseen = tmp_path / "unseen.csv"
    unseen.write_text("group,y,x1,x2\nnewgroup,1.0,0.5,-0.5\n")

    out = tmp_path / "p.csv"
    assert run(["predict", "--model", str(model), "--data", str(unseen), "--fallback", "prior", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(",1")  # used_fallback flag

    code = run(["predict", "--model", str(model), "--data", str(unseen), "--fallback", "error", "--out", str(out)])
    assert code == 1


def test_evaluate_writes_file_and_is_deterministic(sim_dir, tmp_path):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1", "--out", str(model)]) == 0
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["evaluate", "--model", str(model), "--truth", str(sim_dir / "truth.json"), "--test", str(sim_dir / "test.csv")]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    record = json.loads(a.read_text())
    assert record["rmse_train"] is None  # no --train given
    assert record["rmse_test"] is not None


def _reorder_posteriors(model: Path, dest: Path, order) -> None:
    doc = json.loads(model.read_text())
    posteriors = list(doc["group_posteriors"].items())
    doc["group_posteriors"] = dict(posteriors[i] for i in order)
    dest.write_text(json.dumps(doc))


def test_evaluate_truth_pairs_labels_by_group_id(sim_dir, tmp_path, capsys):
    # A dataset's groups keep the order of their first row, so a model fitted
    # to shuffled rows lists them out of generation order.
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1",
                "--out", str(model)]) == 0
    shuffled = tmp_path / "shuffled.json"
    _reorder_posteriors(model, shuffled, np.random.default_rng(0).permutation(10))
    records = []
    for path in (model, shuffled):
        capsys.readouterr()
        assert run(["evaluate", "--model", str(path), "--truth", str(sim_dir / "truth.json")]) == 0
        records.append(json.loads(capsys.readouterr().out))
    assert records[1] == records[0]
    assert records[0]["nmi"] == 1.0


def test_evaluate_truth_with_a_group_it_does_not_know_exit_1(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1",
                "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["group_posteriors"]["stranger"] = doc["group_posteriors"].pop("g3")
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--model", str(model), "--truth", str(sim_dir / "truth.json")]) == 1
    assert "'stranger'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--truth", "--train", "--test"])
def test_evaluate_flag_that_needs_model_is_usage_error(tmp_path, capsys, flag):
    preds = tmp_path / "preds.csv"  # never created: the check comes before any read
    out = tmp_path / "metrics.json"
    args = ["evaluate", "--predictions", str(preds), flag, str(tmp_path / "missing"),
            "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: {flag} needs --model\n"
    assert not out.exists()


def test_evaluate_test_and_predictions_together_is_usage_error(tmp_path, capsys):
    # Both flags name a source of rmse_test; none of the files exists, so the
    # refusal comes before any read.
    out = tmp_path / "metrics.json"
    args = ["evaluate", "--model", str(tmp_path / "m.json"), "--test", str(tmp_path / "t.csv"),
            "--predictions", str(tmp_path / "p.csv"), "--out", str(out)]
    assert run(args) == 2
    assert capsys.readouterr().err == "error: --test and --predictions both give rmse_test; pass one\n"
    assert not out.exists()


def test_non_finite_test_csv_exit_1_and_no_output(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1", "--out", str(model)]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text("group,y,x1,x2\ng0,1.0,0.5,-0.5\ng0,nan,0.5,-0.5\n")
    capsys.readouterr()
    preds = tmp_path / "preds.csv"
    assert run(["predict", "--model", str(model), "--data", str(bad), "--out", str(preds)]) == 1
    assert capsys.readouterr().err == "error: group 'g0' contains NaN or infinite values\n"
    assert not preds.exists()
    metrics = tmp_path / "metrics.json"
    assert run(["evaluate", "--model", str(model), "--test", str(bad), "--out", str(metrics)]) == 1
    assert capsys.readouterr().err == "error: group 'g0' contains NaN or infinite values\n"
    assert not metrics.exists()


@pytest.mark.parametrize("column, cells", [
    ("y_pred", "1.0,nan"),
    ("y_true", "inf,1.0"),
    ("y_true", "1e500,1.0"),
])
def test_evaluate_non_finite_predictions_exit_1_and_no_output(tmp_path, capsys, column, cells):
    # The reader accepts these cells; evaluate must not write them as NaN or
    # Infinity, which is not JSON.
    preds = tmp_path / "preds.csv"
    preds.write_text(f"group,y_true,y_pred,log_density,used_fallback\ng0,{cells},-1.0,0\n")
    out = tmp_path / "metrics.json"
    assert run(["evaluate", "--predictions", str(preds), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {preds}: {column} contains NaN or infinite values\n"
    assert not out.exists()


def test_select_k_writes_report_pair(sim_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = run(
        [
            "select-k", "--data", str(sim_dir / "train.csv"), "--k-grid", "1-3",
            "--reps", "2", "--restarts", "2", "--seed", "4", "--out", str(out),
        ]
    )
    assert code == 0
    assert "best_k=" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["k_grid"] == [1, 2, 3]
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert lines[0] == "K,mean_rmse,sd_rmse"


def test_select_k_data_error_exit_1_usage_error_exit_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    data.write_text("group,y,x1\na,1.0,0.5\na,2.0,1.5\na,0.5,-1.0\nb,3.0,2.0\n")
    base = ["select-k", "--data", str(data), "--k-grid", "2", "--out", str(tmp_path / "r.json")]
    # group b has one row and cannot be split: a data error
    assert run(base + ["--reps", "1"]) == 1
    assert "groups too small to split: 'b'" in capsys.readouterr().err
    assert run(base + ["--reps", "0"]) == 2
    assert "n_reps must be at least 1" in capsys.readouterr().err


def test_select_k_reversed_k_range_is_usage_error(sim_dir, tmp_path, capsys):
    base = ["select-k", "--data", str(sim_dir / "train.csv"), "--out", str(tmp_path / "r.json")]
    for grid in ("2,5-3", "5-3"):
        assert run(base + ["--k-grid", grid]) == 2
        assert capsys.readouterr().err == "error: bad K range '5-3'\n"
    assert not (tmp_path / "r.json").exists()


def test_malformed_model_json_exit_1_naming_the_file(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["group_posteriors"] = []
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", str(model), "--data", str(sim_dir / "test.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {model}: 'list' object has no attribute 'values'\n"
    assert run(["evaluate", "--model", str(model)]) == 1
    assert capsys.readouterr().err == f"error: {model}: 'list' object has no attribute 'values'\n"


def test_model_json_with_wider_posteriors_exit_1_naming_the_file(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["group_posteriors"] = dict.fromkeys(doc["group_posteriors"], [0.5, 0.25, 0.25])
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    message = f"error: {model}: group_posteriors rows have 3 entries, pi has 2\n"
    out = tmp_path / "p.csv"
    assert run(["predict", "--model", str(model), "--data", str(sim_dir / "test.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert run(["evaluate", "--model", str(model)]) == 1
    assert capsys.readouterr().err == message


def test_config_keys_are_the_em_config_field_names(sim_dir, tmp_path, capsys):
    conf = tmp_path / "em.json"
    fit_args = ["fit", "--config", str(conf), "--data", str(sim_dir / "train.csv"), "--K", "2"]
    conf.write_text(json.dumps({"n_restarts": 2, "seed": 1}))
    assert run(fit_args + ["--out", str(tmp_path / "a.json")]) == 0
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--restarts", "2",
                "--seed", "1", "--out", str(tmp_path / "b.json")]) == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    conf.write_text(json.dumps({"restarts": 2}))
    capsys.readouterr()
    assert run(fit_args + ["--out", str(tmp_path / "c.json")]) == 2
    assert capsys.readouterr().err == "error: unknown config keys: ['restarts']\n"


@pytest.mark.parametrize(
    "command, required",
    [("fit", []), ("select-k", ["--k-grid", "2"])],
)
def test_fit_and_select_k_share_their_em_flags(command, required):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    init = sub.choices[command]._option_string_actions["--init"]
    assert tuple(init.choices) == get_args(InitStrategy)
    args = parser.parse_args(
        [command, "--data", "d.csv", "--out", "o", *required, "--restarts", "3",
         "--epsilon", "1e-4", "--max-iter", "7", "--init", "random_soft", "--seed", "5"]
    )
    assert (args.n_restarts, args.epsilon, args.max_iter, args.init, args.seed) == (
        3, 1e-4, 7, "random_soft", 5
    )


@pytest.mark.parametrize(
    "command, conf, message",
    [
        ("fit", {"max_iter": 2.5}, "max_iter must be an integer"),
        ("fit", {"seed": 1.5}, "seed must be an integer"),
        ("simulate", {"G": 5.5}, "G must be an integer"),
    ],
)
def test_config_value_of_the_wrong_type_is_a_usage_error(
    sim_dir, tmp_path, capsys, command, conf, message
):
    path = tmp_path / "conf.json"
    if command == "simulate":
        conf = {"n": 100, "K": 2, "p": 2, "sigma": 1.0, "delta_beta": 6.0, **conf}
        args = ["simulate", "--config", str(path), "--out", str(tmp_path / "sim")]
    else:
        args = ["fit", "--config", str(path), "--data", str(sim_dir / "train.csv"), "--K", "2",
                "--out", str(tmp_path / "m.json")]
    path.write_text(json.dumps(conf))
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, conf, field",
    [
        ("simulate", {"sigma": True}, "sigma"),
        ("simulate", {"delta_beta": "x"}, "delta_beta"),
        ("fit", {"epsilon": True}, "epsilon"),
        ("fit", {"ridge": "x"}, "ridge"),
        ("fit", {"sigma2_floor": False}, "sigma2_floor"),
    ],
)
def test_config_float_that_is_not_a_number_is_a_usage_error(
    sim_dir, tmp_path, capsys, command, conf, field
):
    path = tmp_path / "conf.json"
    out = tmp_path / "out"
    if command == "simulate":
        conf = {"n": 100, "K": 2, "p": 2, "G": 5, "sigma": 1.0, "delta_beta": 6.0, **conf}
        args = ["simulate", "--config", str(path), "--out", str(out)]
    else:
        args = ["fit", "--config", str(path), "--data", str(sim_dir / "train.csv"), "--K", "2",
                "--out", str(out)]
    path.write_text(json.dumps(conf))
    assert run(args) == 2
    assert capsys.readouterr().err == f"error: {field} must be a number\n"
    assert not out.exists()


def test_benchmark_jsonl_and_aggregate(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "K": 2, "p": 2, "G": 4, "n": [60, 80], "sigma": 1.0,
                "delta_beta": 8.0, "n_reps": 2, "restarts": 2, "seed": 13,
            }
        )
    )
    out = tmp_path / "results.jsonl"
    assert run(["benchmark", "--spec", str(spec), "--out", str(out)]) == 0
    assert "4 replications" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["error"] is None for line in lines)
    table = (tmp_path / "results.csv").read_text().splitlines()
    assert table[0].startswith("K,p,G,n,sigma,delta_beta,n_reps,n_failed")
    assert len(table) == 3

    rerun = tmp_path / "again.jsonl"
    assert run(["benchmark", "--spec", str(spec), "--jobs", "2", "--out", str(rerun)]) == 0
    assert rerun.read_bytes() == out.read_bytes()
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "results.csv").read_bytes()


@pytest.mark.parametrize("command", ["select-k", "benchmark"])
def test_report_out_ending_in_csv_is_usage_error_before_any_read(tmp_path, capsys, command):
    # The CSV table beside the report would overwrite it.  The input path does
    # not exist, so reading it first would give another message.
    missing = str(tmp_path / "missing.json")
    source = ["--data", missing, "--k-grid", "2"] if command == "select-k" else ["--spec", missing]
    out = tmp_path / "r.csv"
    assert run([command, *source, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --out {out} ends in .csv, the suffix of its CSV table; pick another\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["select-k", "benchmark"])
def test_report_or_table_that_is_the_input_is_usage_error(sim_dir, tmp_path, capsys, command):
    # select-k's table of --out d.json is d.csv, its --data; benchmark's
    # report is its own --spec.
    if command == "select-k":
        source = tmp_path / "d.csv"
        shutil.copy(sim_dir / "train.csv", source)
        args = ["--data", str(source), "--k-grid", "1-2", "--out", str(tmp_path / "d.json")]
    else:
        source = tmp_path / "s.json"
        source.write_text(json.dumps({"K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0,
                                      "delta_beta": 8.0, "n_reps": 1, "seed": 13}))
        args = ["--spec", str(source), "--out", str(source)]
    before = source.read_bytes()
    assert run([command, *args]) == 2
    assert f"would overwrite the input {source}" in capsys.readouterr().err
    assert source.read_bytes() == before


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_benchmark_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0,
                "delta_beta": 8.0, "n_reps": 1, "restarts": 2, "seed": 13,
            }
        )
    )
    out = tmp_path / "results.jsonl"
    assert run(["benchmark", "--spec", str(spec), "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not out.exists()


def test_benchmark_records_per_replication_failures(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "K": 4, "p": [2, 4], "G": 4, "n": 160, "sigma": 1.0,
                "delta_beta": 8.0, "n_reps": 1, "restarts": 2, "seed": 13,
            }
        )
    )
    out = tmp_path / "results.jsonl"
    assert run(["benchmark", "--spec", str(spec), "--out", str(out)]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert any(r["error"] is not None for r in records)
    assert any(r["error"] is None for r in records)


def test_benchmark_bad_em_settings_exit_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0,
                "delta_beta": 8.0, "n_reps": 1, "restarts": 0, "seed": 13,
            }
        )
    )
    out = tmp_path / "results.jsonl"
    assert run(["benchmark", "--spec", str(spec), "--out", str(out)]) == 2
    assert "n_restarts must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value", [("n", [120.0]), ("K", True), ("n_reps", 1.5), ("seed", 1.5)]
)
def test_benchmark_non_integer_spec_value_exit_2(tmp_path, capsys, field, value):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0,
                "delta_beta": 8.0, "n_reps": 1, "restarts": 1, "seed": 13, field: value,
            }
        )
    )
    out = tmp_path / "results.jsonl"
    assert run(["benchmark", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field} must be an integer\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value",
    [("sigma", True), ("sigma", [1.0, "x"]), ("delta_beta", None), ("test_frac", True),
     ("epsilon", "x")],
)
def test_benchmark_spec_float_that_is_not_a_number_exit_2(tmp_path, capsys, field, value):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0,
                "delta_beta": 8.0, "n_reps": 1, "restarts": 1, "seed": 13, field: value,
            }
        )
    )
    out = tmp_path / "results.jsonl"
    assert run(["benchmark", "--spec", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field} must be a number\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "predict", "evaluate", "select-k"])
def test_missing_out_directory_is_created(sim_dir, tmp_path, command):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1",
                "--out", str(model)]) == 0
    out = tmp_path / "new" / "dir" / "out.json"
    args = {
        "fit": ["--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1"],
        "predict": ["--model", str(model), "--data", str(sim_dir / "test.csv")],
        "evaluate": ["--model", str(model), "--truth", str(sim_dir / "truth.json")],
        "select-k": ["--data", str(sim_dir / "train.csv"), "--k-grid", "1-2", "--reps", "1"],
    }[command]
    assert run([command, *args, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_installed_script_entry_point(tmp_path):
    exe = shutil.which("gmr")
    if exe is not None:
        command, env = [exe], None
    else:  # no installed script: run the same entry point from the source tree
        src = Path(__file__).resolve().parents[1] / "src"
        command = [sys.executable, "-c", "from gmr.cli import entrypoint; entrypoint()"]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        command + ["simulate", "--n", "50", "--K", "2", "--p", "1", "--G", "5", "--sigma", "1",
                   "--delta-beta", "4", "--seed", "0", "--out", str(tmp_path / "s")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "R=10" in proc.stdout
    proc = subprocess.run(command + ["simulate", "--n", "50"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 2
    assert "required" in proc.stderr


def _run_module(*args):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", *args], capture_output=True, text=True, env=env)


def test_python_dash_m_gmr_runs_the_cli():
    proc = _run_module("gmr", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ")
    assert "{simulate,fit,predict,evaluate,select-k,benchmark}" in proc.stdout


def test_python_dash_m_gmr_cli_runs_the_cli():
    proc = _run_module("gmr.cli", "fit")
    assert proc.returncode == 2
    assert "the following arguments are required: --data, --out" in proc.stderr


def test_simulate_split_formats_each_group_once(tmp_path, monkeypatch):
    formatted = []
    real_csv_lines = gmr.io._csv_lines

    def spy(prefix, values, suffix):
        formatted.append(prefix)
        return real_csv_lines(prefix, values, suffix)

    monkeypatch.setattr(gmr.io, "_csv_lines", spy)
    out = tmp_path / "sim"
    assert run(
        [
            "simulate", "--n", "120", "--K", "2", "--p", "2", "--G", "6", "--sigma", "1",
            "--delta-beta", "6", "--seed", "5", "--split", "0.3", "--out", str(out),
        ]
    ) == 0
    assert formatted == [f"g{r}," for r in range(12)]  # R calls, one per group
    assert {p.name for p in out.iterdir()} == {"dataset.csv", "truth.json", "train.csv", "test.csv"}


def test_simulate_failing_split_writes_no_file(tmp_path, capsys):
    out = tmp_path / "sim"

    def args(n, split):
        return ["simulate", "--n", n, "--K", "2", "--p", "1", "--G", "10", "--sigma", "1",
                "--delta-beta", "4", "--seed", "0", "--split", split, "--out", str(out)]

    assert run(args("20", "0.2")) == 2  # groups of one row
    assert "groups too small to split: 'g0'" in capsys.readouterr().err
    assert run(args("40", "1.5")) == 2
    assert "test_frac must lie strictly between 0 and 1, got 1.5" in capsys.readouterr().err
    assert not out.exists()


# sha256 of the files the pipeline below writes, pinned under numpy 2.4.6 when
# each CSV was still written cell by cell.
PIPELINE_DIGESTS = {
    "dataset.csv": "e92dff777262f439ed19215cea3b44757152de1c04446d54faaec5210d802506",
    "train.csv": "36028d537fc3dfb1aa70a1abc85cbb850fbef2c696163fcee978ad2d7ab40486",
    "test.csv": "4470791bd72f197cce0c85457ac7ba3b438dd7e1e8c821e167929043f0adce21",
    "preds.csv": "fc0f93a8d34cd21c42a48f949a828538d9a6a3514b5cd5277e576e65c2565438",
}


def test_simulate_and_predict_outputs_match_pinned_digests(tmp_path):
    sim = tmp_path / "sim"
    assert run(
        [
            "simulate", "--n", "240", "--K", "2", "--p", "3", "--G", "6", "--sigma", "1.5",
            "--delta-beta", "6", "--seed", "11", "--split", "0.25", "--out", str(sim),
        ]
    ) == 0
    model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
    assert run(["fit", "--data", str(sim / "train.csv"), "--K", "2", "--seed", "1",
                "--out", str(model)]) == 0
    assert run(["predict", "--model", str(model), "--data", str(sim / "test.csv"),
                "--out", str(preds)]) == 0
    paths = {"dataset.csv": sim / "dataset.csv", "train.csv": sim / "train.csv",
             "test.csv": sim / "test.csv", "preds.csv": preds}
    digests = {name: hashlib.sha256(p.read_bytes()).hexdigest() for name, p in paths.items()}
    assert digests == PIPELINE_DIGESTS, (
        f"outputs differ under numpy {np.__version__}; "
        "the digests were pinned under numpy 2.4.6"
    )


_MMAP_PROBE = """
import ctypes, sys
import numpy as np
from gmr.cli import main

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2

def mapped_after_a_larger_free():
    big = np.ones(1 << 20)  # 8 MiB: mapped, and by default its free raises the threshold past it
    del big
    before = libc.mallinfo2().hblkhd
    buf = np.ones(1 << 18)  # 2 MiB
    return libc.mallinfo2().hblkhd - before >= buf.nbytes

if sys.argv[1:] == ["main"]:
    main(["evaluate"])  # exits 2 at once; the threshold is fixed before any work
print(mapped_after_a_larger_free())
"""


def test_main_maps_every_large_buffer_on_its_own_under_glibc():
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc or tuple(map(int, glibc.split()[1].split(".")[:2])) < (2, 33):
        pytest.skip("needs glibc 2.33 or later, for mallinfo2")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    # Each in a fresh process: a heap chunk freed by the first probe would serve the second.
    seen = []
    for first in ([], ["main"]):
        proc = subprocess.run([sys.executable, "-c", _MMAP_PROBE, *first], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        seen.append(proc.stdout.strip())
    assert seen == ["False", "True"]


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # Each parser is cyclic garbage once parsed, so main keeps one.
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(gmr.cli, "build_parser", counting_build_parser)
    gmr.cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert run(["evaluate", "--truth", str(tmp_path / "t.json")]) == 2
    finally:
        gmr.cli._parser.cache_clear()
    assert built == [1]
    assert build_parser() is not build_parser()


def test_main_looks_up_each_command_when_it_runs(tmp_path, monkeypatch):
    # The cached parser must not pin the commands: a wrapped cmd_* (a tracer's, say) runs.
    args = ["evaluate", "--truth", str(tmp_path / "t.json")]
    assert run(args) == 2
    ran = []
    monkeypatch.setattr(gmr.cli, "cmd_evaluate", lambda parsed: ran.append(parsed.truth) or 0)
    assert run(args) == 0
    assert ran == [args[-1]]


def test_a_bug_in_a_command_propagates_out_of_main(tmp_path, monkeypatch):
    def broken(path):
        raise ZeroDivisionError("a bug")

    monkeypatch.setattr(gmr.io, "read_predictions_csv", broken)
    with pytest.raises(ZeroDivisionError, match="a bug"):
        run(["evaluate", "--predictions", str(tmp_path / "p.csv")])


def test_benchmark_seed_flag_writes_the_bytes_of_the_spec_seed(tmp_path):
    spec = {"K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0, "delta_beta": 8.0, "n_reps": 2,
            "restarts": 1, "seed": 13}
    outputs = []
    for name, doc, flags in [("flag", spec, ["--seed", "5"]), ("spec", {**spec, "seed": 5}, [])]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / f"{name}_out.jsonl"
        assert run(["benchmark", "--spec", str(path), *flags, "--out", str(out)]) == 0
        outputs.append((out.read_bytes(), out.with_suffix(".csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0].splitlines()[0])["error"] is None


def test_select_k_checks_its_em_flags_before_reading_data(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    args = ["select-k", "--max-iter", "0", "--data", str(missing), "--k-grid", "2",
            "--out", str(tmp_path / "r.json")]
    assert run(args) == 2
    assert capsys.readouterr().err == "error: max_iter must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content, message", [
    (b'{"K": 2,\xff}', "invalid JSON ('utf-8' codec can't decode"),
    (b"[1, 2]", "expected a JSON object"),
    (None, "No such file or directory"),
    (b"[" * 100_000, "invalid JSON (maximum recursion depth exceeded"),
], ids=["not-utf8", "not-an-object", "missing", "too-deep"])
@pytest.mark.parametrize("command", ["simulate", "fit", "benchmark"])
def test_unreadable_config_or_spec_exit_2_naming_the_file(
    sim_dir, tmp_path, capsys, command, content, message
):
    path = tmp_path / "settings.json"
    if content is not None:
        path.write_bytes(content)
    out = str(tmp_path / "out.json")
    args = {
        "simulate": ["simulate", "--config", str(path), "--out", out],
        "fit": ["fit", "--config", str(path), "--data", str(sim_dir / "train.csv"), "--out", out],
        "benchmark": ["benchmark", "--spec", str(path), "--out", out],
    }[command]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and message in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["simulate", "fit", "benchmark"])
def test_negative_seed_is_a_usage_error(sim_dir, tmp_path, capsys, command):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0,
                                "delta_beta": 8.0, "n_reps": 1, "seed": -3}))
    out = str(tmp_path / "out.json")
    args = {
        "simulate": ["simulate", "--n", "100", "--K", "2", "--p", "2", "--G", "5", "--sigma",
                     "1", "--delta-beta", "5", "--seed", "-1", "--out", out],
        "fit": ["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "-1",
                "--out", out],
        "benchmark": ["benchmark", "--spec", str(spec), "--out", out],
    }[command]
    assert run(args) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"


def test_non_utf8_dataset_exit_1_naming_the_file(sim_dir, tmp_path, capsys):
    data = tmp_path / "data.csv"
    lines = (sim_dir / "train.csv").read_bytes().split(b"\n")
    lines[2] += b"\xff"
    data.write_bytes(b"\n".join(lines))
    out = tmp_path / "m.json"
    assert run(["fit", "--data", str(data), "--K", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data}: not UTF-8 text (")
    assert not out.exists()


def test_evaluate_truth_label_out_of_range_exit_1_naming_the_file(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1",
                "--out", str(model)]) == 0
    doc = json.loads((sim_dir / "truth.json").read_text())
    doc["labels"][0] = 5
    truth = tmp_path / "bad_truth.json"
    truth.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--model", str(model), "--truth", str(truth)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {truth}: labels must be a non-empty list in 0..1, the columns of beta_true\n"
    )


def test_evaluate_truth_with_fractional_labels_exit_1_naming_the_file(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit", "--data", str(sim_dir / "train.csv"), "--K", "2", "--seed", "1",
                "--out", str(model)]) == 0
    doc = json.loads((sim_dir / "truth.json").read_text())
    doc["labels"] = [0.9, 1.9] * (len(doc["labels"]) // 2)
    truth = tmp_path / "bad_truth.json"
    truth.write_text(json.dumps(doc))
    out = tmp_path / "metrics.json"
    capsys.readouterr()
    assert run(["evaluate", "--model", str(model), "--truth", str(truth), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {truth}: labels must be integers, got float values\n")
    assert not out.exists()


def test_evaluate_header_only_predictions_exit_1_naming_the_file(tmp_path, capsys):
    preds = tmp_path / "empty_preds.csv"
    preds.write_text("group,y_true,y_pred,log_density,used_fallback\n")
    out = tmp_path / "metrics.json"
    assert run(["evaluate", "--predictions", str(preds), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {preds}: no prediction rows\n"
    assert not out.exists()
