"""Self-test of the benchmark at toy sizes: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gmr  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TOY = {
    "desk_sweep": harness.DeskSweep(reps=1, sigmas=(2.0, 6.0), restarts=2),
    "large_pipeline": harness.LargePipeline(n=8000, K=3, p=3, G=40, restarts=2),
    "mid_selectk": harness.MidSelectK(datasets=3, n=4000, G=20, k_grid=(2, 4, 5), restarts=2),
}

NAMED = {
    "desk_sweep": {"reps_per_s", "nmi_mean", "rmse_gmr_mean"},
    "large_pipeline": {
        "simulate_s", "fit_s", "predict_s", "evaluate_s", "pipeline_s", "loglik", "nmi",
    },
    "mid_selectk": {"selectk_s", "selectk_rmse", "true_k_share"},
}


def test_benchmark_json_is_generated_from_the_harness():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == run.spec()
    assert set(run.WORKLOAD_NAMES) == set(harness.WORKLOADS)
    assert set(run.LISTED_WORKLOADS) <= set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", sorted(TOY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = harness.run(TOY[name], seed=3, seconds=0.1, trace=trace, workdir=tmp_path,
                         setup_samples=1)
    assert result.correct, result.problems
    assert result.attempted >= 1 and result.failed == 0
    wanted = spans.per_layer_spec() if trace else harness.END_TO_END
    assert {m: u for m, (_, u) in result.metrics.items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for value, _ in result.metrics.values():
        assert isinstance(value, (int, float))
    assert NAMED[name] | {"setup_s", "peak_rss_mb"} == set(result.named)
    assert all(unit for _, unit in result.named.values())
    if trace:
        assert result.metrics["em.fit.calls"][0] >= 1
        assert result.metrics["em.iterations"][0] == result.metrics["em.m_step_pi.calls"][0]
        assert len(result.tracer.names) == sum(
            result.tracer.calls[s] for s in spans.SPAN_NAMES
        )


def test_shuffled_truth_labels_fail_the_pipeline_check(tmp_path):
    wl = TOY["large_pipeline"]
    state = wl.setup(5, tmp_path)
    seed, wd = state
    argv = wl.stage_argv(seed, wd)
    raw = {"simulate": wl.run_stage(argv["simulate"])}
    truth_path = wd / "sim" / "truth.json"
    truth = json.loads(truth_path.read_text())
    truth["labels"] = np.random.default_rng(0).permutation(truth["labels"]).tolist()
    truth_path.write_text(json.dumps(truth))
    for stage in ("fit", "predict", "evaluate"):
        raw[stage] = wl.run_stage(argv[stage])
    outcome = wl.evaluate(state, raw)
    assert outcome.failed >= 1
    assert any("nmi" in p for p in outcome.problems)


def test_select_k_check_wants_the_true_k_as_the_mode():
    wl = TOY["mid_selectk"]
    by_k = {0: 9.0, 1: 8.0, 2: 7.0, 4: 6.0, 5: 6.1}
    inputs = [(i, None) for i in range(3)]

    def reports(*picks):
        return [gmr.SelectionReport((2, 4, 5), by_k, by_k, k, k, 1) for k in picks]

    assert wl.evaluate(inputs, reports(4, 5, 4)).failed == 0
    failed = wl.evaluate(inputs, reports(5, 5, 4))
    assert failed.failed == 1 and "not the mode" in failed.problems[0]
    raised = wl.evaluate(inputs, reports(4, 4) + [gmr.GroupTooSmallError("g1")])
    assert raised.failed == len(wl.k_grid) and raised.problems


def test_desk_check_counts_failed_replications(tmp_path):
    wl = TOY["desk_sweep"]
    spec = wl.setup(3, tmp_path)
    records, _ = wl.run_pass(spec)
    records[0] = {**records[0], "error": "SingularSystemError: injected"}
    outcome = wl.evaluate(spec, (records, gmr.aggregate(records)))
    assert outcome.failed >= 1 and "injected" in outcome.problems[0]


def test_traced_patches_every_binding_and_restores_them():
    originals = [getattr(sys.modules[f"gmr.{m}"], a)
                 for m, a in spans.TRACED_FUNCTIONS if "." not in a]
    bound = {
        (module, key): value
        for module in list(sys.modules.values())
        if getattr(module, "__name__", "").split(".")[0] == "gmr"
        for key, value in vars(module).items()
        if any(value is fn for fn in originals)
    }
    names = {(m.__name__, k) for m, k in bound}
    assert {("gmr.select", "predict_groups"), ("gmr.cli", "predict_groups"),
            ("gmr.benchmark", "predict_groups"), ("gmr.em", "compute_group_stats"),
            ("gmr.select", "compute_group_stats")} <= names
    with spans.traced(spans.Tracer()):
        for (module, key), fn in bound.items():
            assert getattr(module, key).__wrapped__ is fn
        assert hasattr(gmr.ModelParams.__post_init__, "__wrapped__")
    for (module, key), fn in bound.items():
        assert getattr(module, key) is fn
    assert not hasattr(gmr.ModelParams.__post_init__, "__wrapped__")


def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
