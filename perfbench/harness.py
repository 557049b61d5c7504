"""Workloads of the gmr benchmark and the loop that measures them.

A workload prepares its inputs from a seed (`setup`), then runs one timed
pass of the operation a user waits for (`run_pass`).  Every pass is checked
right after it finishes, outside the timed section (`evaluate`): the checks
use tolerances, not byte hashes, so last-bit drift between versions of the
program does not read as a failure.  All passes of one run use the same
inputs, so their deterministic outputs must agree.

The three workloads sit at the scales of the project roadmap: desk (R=40),
mid (R=400) and large (R=4000, n=200k).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np
import scipy

import gmr
from gmr import benchmark as gbench
from gmr import cli as gcli
from gmr import em as gem
from gmr import predict as gpredict
from gmr import select as gselect
from gmr import simulate as gsim

import spans

# Gated end-to-end metrics; every workload reports all of them.  `bound` is
# the share of the parent's median by which a metric may worsen.
END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "rmse_over_sigma", "unit": "ratio", "better": "lower", "bound": 0.15},
)

SETUP_SAMPLES = 3

# Relative tolerance for the agreement of deterministic outputs between the
# passes of one run (same inputs, same process).
REPEAT_RTOL = 1e-9

_IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import gmr.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class PassOutcome:
    """Checked result of one pass.

    ``quality`` holds the pass's deterministic outputs, which must repeat
    across passes; ``stages`` holds wall times of the pass's stages.
    """

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    stages: dict[str, float] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = min(self.attempted, self.failed + 1)


@dataclass(frozen=True)
class DeskSweep:
    """`iter_records` at jobs=1 on the acceptance-suite cell, over five noise levels."""

    reps: int = 8
    n: int = 200
    K: int = 4
    p: int = 4
    G: int = 10
    sigmas: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0, 10.0)
    delta_beta: float = 8.0
    restarts: int = 10
    test_frac: float = 0.2

    name = "desk_sweep"
    why = (
        "acceptance-suite cell (R=40, n=200) over 5 noise levels: many us-scale EM "
        "iterations, so per-call dispatch dominates; no CSV I/O, no n-bound pass"
    )

    def setup(self, seed: int, workdir: Path):
        return gbench.BenchmarkSpec(
            n=self.n,
            K=self.K,
            p=self.p,
            G=self.G,
            sigma=self.sigmas,
            delta_beta=self.delta_beta,
            n_reps=self.reps,
            seed=seed,
            restarts=self.restarts,
            test_frac=self.test_frac,
        )

    def run_pass(self, spec):
        records = list(gbench.iter_records(spec, jobs=1))
        return records, gbench.aggregate(records)

    def evaluate(self, spec, raw) -> PassOutcome:
        records, rows = raw
        out = PassOutcome(attempted=len(records))
        for r in records:
            if r["error"] is not None:
                out.fail(f"replication sigma={r['sigma']} rep={r['rep']}: {r['error']}")
        nmis = [row["nmi"] for row in rows]
        rmses = [row["rmse_gmr"] for row in rows]
        if None in nmis or None in rmses:
            out.fail("a cell has no successful replication")
            return out
        # The gated figure averages per-cell medians: one failed clustering at
        # sigma=10 moves that cell's mean RMSE by up to 50%.
        ratios = [
            np.median([r["rmse_test"] / sigma for r in records
                       if r["sigma"] == sigma and r["error"] is None])
            for sigma in self.sigmas
        ]
        out.quality = {
            "nmi_mean": float(np.mean(nmis)),
            "rmse_gmr_mean": float(np.mean(rmses)),
            "rmse_over_sigma": float(np.mean(ratios)),
        }
        return out

    def named_metrics(self, pass_s: float, outcomes: list[PassOutcome]) -> dict:
        q = outcomes[0].quality
        return {
            "reps_per_s": (outcomes[0].attempted / pass_s, "1/s"),
            "nmi_mean": (q.get("nmi_mean", float("nan")), "1"),
            "rmse_gmr_mean": (q.get("rmse_gmr_mean", float("nan")), "y"),
        }


@dataclass(frozen=True)
class LargePipeline:
    """``gmr simulate -> fit -> predict -> evaluate`` through `gmr.cli.main`, in-process.

    The fit starts from k-means on per-group coefficients with an iteration
    cap.  With the default random starts, 3 restarts at K=8 often sit in a
    poor optimum that creeps along for all 200 iterations: fit time then
    ranged 1.1-11.9 s over seeds 1-8 and seed 6 ended at NMI 0.92, so the
    seed, not the program, would set the measured time and the check.  With
    k-means starts, converging restarts take 7-18 iterations (NMI 0.975-0.993
    over the same seeds); the cap bounds the occasional stuck one.
    """

    n: int = 200_000
    K: int = 8
    p: int = 8
    G: int = 500
    sigma: float = 6.0
    delta_beta: float = 8.0
    split: float = 0.2
    restarts: int = 3
    max_iter: int = 50
    nmi_min: float = 0.95
    rmse_rel_tol: float = 0.05

    name = "large_pipeline"
    why = (
        "CLI simulate/fit/predict/evaluate at n=200k, R=4000: CSV parsing and writing, "
        "the O(n*K*p) sigma2 pass and per-group loops dominate; few EM iterations"
    )

    STAGES = ("simulate", "fit", "predict", "evaluate")

    def setup(self, seed: int, workdir: Path):
        return seed, Path(tempfile.mkdtemp(prefix="pipeline-", dir=workdir))

    def stage_argv(self, seed: int, wd: Path) -> dict[str, list[str]]:
        sim = wd / "sim"
        return {
            "simulate": [
                "simulate", "--n", str(self.n), "--K", str(self.K), "--p", str(self.p),
                "--G", str(self.G), "--sigma", repr(self.sigma),
                "--delta-beta", repr(self.delta_beta), "--split", repr(self.split),
                "--seed", str(seed), "--out", str(sim),
            ],
            "fit": [
                "fit", "--data", str(sim / "train.csv"), "--K", str(self.K),
                "--restarts", str(self.restarts), "--init", "kmeans_on_group_coefs",
                "--max-iter", str(self.max_iter), "--seed", str(seed),
                "--out", str(wd / "model.json"),
            ],
            "predict": [
                "predict", "--model", str(wd / "model.json"),
                "--data", str(sim / "test.csv"), "--out", str(wd / "preds.csv"),
            ],
            "evaluate": [
                "evaluate", "--model", str(wd / "model.json"),
                "--truth", str(sim / "truth.json"), "--train", str(sim / "train.csv"),
                "--test", str(sim / "test.csv"), "--seed", str(seed),
                "--out", str(wd / "metrics.json"),
            ],
        }

    def run_stage(self, argv: list[str]) -> tuple[int, float]:
        """Run one CLI stage; its stdout chatter is dropped, stderr passes through."""
        t0 = time.perf_counter()
        with redirect_stdout(StringIO()):
            code = gcli.main(argv)
        return code, time.perf_counter() - t0

    def run_pass(self, state):
        seed, wd = state
        results = {}
        for stage, argv in self.stage_argv(seed, wd).items():
            results[stage] = self.run_stage(argv)
            if results[stage][0] != 0:
                break
        return results

    def evaluate(self, state, raw) -> PassOutcome:
        _, wd = state
        out = PassOutcome(attempted=len(self.STAGES))
        out.stages = {stage: seconds for stage, (_, seconds) in raw.items()}
        for stage in self.STAGES:
            if stage not in raw:
                out.fail(f"stage {stage} not run")
            elif raw[stage][0] != 0:
                out.fail(f"stage {stage} exited {raw[stage][0]}")
        if out.failed:
            return out
        metrics = json.loads((wd / "metrics.json").read_text())
        model = json.loads((wd / "model.json").read_text())
        test_rows = _data_lines(wd / "sim" / "test.csv")
        pred_rows = _data_lines(wd / "preds.csv")
        if pred_rows != test_rows:
            out.fail(f"predict wrote {pred_rows} rows for {test_rows} test rows")
        if not metrics["nmi"] >= self.nmi_min:
            out.fail(f"evaluate nmi {metrics['nmi']} < {self.nmi_min}")
        rel = abs(metrics["rmse_test"] - self.sigma) / self.sigma
        if not rel <= self.rmse_rel_tol:
            out.fail(f"rmse_test {metrics['rmse_test']} is {rel:.3f} away from sigma {self.sigma}")
        out.quality = {
            "nmi": float(metrics["nmi"]),
            "rmse_test": float(metrics["rmse_test"]),
            "rmse_over_sigma": float(metrics["rmse_test"]) / self.sigma,
            "loglik": float(model["log_likelihood"]),
            "prediction_rows": float(pred_rows),
        }
        return out

    def named_metrics(self, pass_s: float, outcomes: list[PassOutcome]) -> dict:
        stage_s = {}
        for stage in self.STAGES:
            times = [o.stages[stage] for o in outcomes if stage in o.stages]
            stage_s[stage] = statistics.median(times) if times else float("nan")
        q = outcomes[0].quality
        named = {f"{stage}_s": (stage_s[stage], "s") for stage in self.STAGES}
        named["pipeline_s"] = (sum(stage_s.values()), "s")
        named["loglik"] = (q.get("loglik", float("nan")), "nats")
        named["nmi"] = (q.get("nmi", float("nan")), "1")
        return named


@dataclass(frozen=True)
class MidSelectK:
    """`select_k` over K=2..6, once on each of several generated datasets.

    How many EM iterations a selection takes depends strongly on its dataset
    (up to 15% either way), so one pass covers several datasets; otherwise
    the seed, not the program, would set the measured time.
    """

    datasets: int = 16
    reps: int = 1
    n: int = 20_000
    K: int = 4
    p: int = 4
    G: int = 100
    sigma: float = 6.0
    delta_beta: float = 8.0
    k_grid: tuple[int, ...] = (2, 3, 4, 5, 6)
    restarts: int = 3
    test_frac: float = 0.2

    name = "mid_selectk"
    why = (
        "select_k over K=2..6 at n=20k, R=400: many short fits with K below and above "
        "the truth, each followed by predict_groups; the only path through select"
    )

    def setup(self, seed: int, workdir: Path):
        inputs = []
        for i in range(self.datasets):
            sub_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            cfg = gsim.SimConfig(
                n=self.n, K=self.K, p=self.p, G=self.G, sigma=self.sigma,
                delta_beta=self.delta_beta, seed=sub_seed,
            )
            inputs.append((sub_seed, gsim.generate(cfg)[0]))
        return inputs

    def run_pass(self, inputs):
        reports = []
        for sub_seed, data in inputs:
            try:
                reports.append(
                    gselect.select_k(
                        data,
                        self.k_grid,
                        cfg=gem.EmConfig(K=1, n_restarts=self.restarts),
                        test_frac=self.test_frac,
                        n_reps=self.reps,
                        seed=sub_seed,
                    )
                )
            except gmr.GmrError as exc:
                reports.append(exc)
        return reports

    def evaluate(self, inputs, raw) -> PassOutcome:
        fits_each = self.reps * len(self.k_grid)
        out = PassOutcome(attempted=fits_each * len(raw))
        reports = []
        for (sub_seed, _), report in zip(inputs, raw):
            if isinstance(report, Exception):
                out.problems.append(
                    f"dataset seed {sub_seed}: select_k raised {type(report).__name__}: {report}"
                )
                out.failed += fits_each
            else:
                reports.append(report)
        if not reports:
            return out
        # Criterion 05's form, over this pass's datasets: the true K is the
        # most frequent pick, and every mixture beats both baselines on
        # average.  One selection alone is no check: a K above the truth
        # splits a cluster into near-copies whose RMSE ties the true K's, and
        # 3 restarts sometimes leave the true-K fit in a poorer optimum.
        picks = Counter(r.best_mixture_k for r in reports)
        if picks[self.K] <= max((n for k, n in picks.items() if k != self.K), default=0):
            out.fail(f"best_mixture_k picks {dict(picks)}: the true K={self.K} is not the mode")
        mean_rmse = {k: float(np.mean([r.rmse_by_k[k] for r in reports])) for k in reports[0].rmse_by_k}
        for k in self.k_grid:
            if not (mean_rmse[k] < mean_rmse[0] and mean_rmse[k] < mean_rmse[1]):
                out.fail(f"K={k} mean RMSE {mean_rmse[k]} does not beat the baselines")
        best_rmse = [r.rmse_by_k[r.best_mixture_k] for r in reports]
        out.quality = {
            "selectk_rmse": float(np.mean(best_rmse)),
            "rmse_over_sigma": float(np.mean(best_rmse)) / self.sigma,
            "true_k_share": picks[self.K] / len(reports),
        }
        return out

    def named_metrics(self, pass_s: float, outcomes: list[PassOutcome]) -> dict:
        q = outcomes[0].quality
        return {
            "selectk_s": (pass_s / self.datasets, "s"),
            "selectk_rmse": (q.get("selectk_rmse", float("nan")), "y"),
            "true_k_share": (q.get("true_k_share", float("nan")), "ratio"),
        }


WORKLOADS = {w.name: w for w in (DeskSweep(), LargePipeline(), MidSelectK())}


def _data_lines(path: Path) -> int:
    """Rows of a CSV with a header line and one row per line."""
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 1


@dataclass
class RunResult:
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, str]]  # what the last output line reports
    named: dict[str, tuple[float, str]]  # every metric by the workload's own names
    tracer: spans.Tracer | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def _import_seconds() -> float:
    """``import gmr.cli`` in a fresh interpreter, timed inside it."""
    src = Path(gmr.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(src)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def warm_up() -> None:
    """One tiny generate/fit/predict, so lazy loading is paid in set-up."""
    d, _ = gsim.generate(gsim.SimConfig(n=120, K=2, p=2, G=6, sigma=1.0, delta_beta=8.0, seed=0))
    gpredict.predict_groups(gem.fit(d, gem.EmConfig(K=2, n_restarts=2, seed=0)), d)


def _measure(workload, state, budget_s: float, outcomes: list, durations: list) -> None:
    """Run passes until the measured time would exceed ``budget_s``; at least one."""
    while True:
        t0 = time.perf_counter()
        raw = workload.run_pass(state)
        durations.append(time.perf_counter() - t0)
        outcomes.append(workload.evaluate(state, raw))
        if sum(durations) + statistics.median(durations) > budget_s:
            return


def _compare_repeats(outcomes: list[PassOutcome]) -> None:
    first = outcomes[0].quality
    for i, o in enumerate(outcomes[1:], start=1):
        for key, value in first.items():
            other = o.quality.get(key)
            if other is None or abs(other - value) > REPEAT_RTOL * max(1.0, abs(value)):
                o.fail(f"pass {i} gave {key}={other}, pass 0 gave {value}")


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path,
        setup_samples: int = SETUP_SAMPLES) -> RunResult:
    """Set up, measure for about ``seconds``, check every pass, and collect metrics.

    With ``trace`` the untraced passes get half the time and one traced pass
    follows; its per-layer metrics replace the end-to-end ones.
    """
    setup_times = []
    state = None
    for _ in range(setup_samples):
        t_import = _import_seconds()
        t0 = time.perf_counter()
        warm_up()
        state = workload.setup(seed, workdir)
        setup_times.append(t_import + time.perf_counter() - t0)

    outcomes: list[PassOutcome] = []
    durations: list[float] = []
    _measure(workload, state, seconds / 2 if trace else seconds, outcomes, durations)
    pass_s = statistics.median(durations)

    named = workload.named_metrics(pass_s, outcomes)
    tracer = None
    layer = {}
    if trace:
        tracer = spans.Tracer()
        with spans.traced(tracer) as restarts_failed:
            t0 = time.perf_counter()
            raw = workload.run_pass(state)
            traced_s = time.perf_counter() - t0
            abandoned = restarts_failed()
        traced_outcome = workload.evaluate(state, raw)
        if tracer.counters["em.ll_trace_decreases"]:
            traced_outcome.fail(
                f"{tracer.counters['em.ll_trace_decreases']} fits have a log-likelihood "
                "trace that decreases beyond the criterion-08 slack"
            )
        outcomes.append(traced_outcome)
        layer = spans.layer_metrics(tracer, abandoned, traced_s / pass_s - 1.0)

    _compare_repeats(outcomes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "pass_s": (pass_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "rmse_over_sigma": (outcomes[0].quality.get("rmse_over_sigma", float("nan")), "ratio"),
    }
    named = {"setup_s": end_to_end["setup_s"], "peak_rss_mb": end_to_end["peak_rss_mb"], **named}
    return RunResult(
        attempted=sum(o.attempted for o in outcomes),
        failed=sum(o.failed for o in outcomes),
        problems=[p for o in outcomes for p in o.problems],
        metrics=layer if trace else end_to_end,
        named=named,
        tracer=tracer,
    )


def environment() -> dict:
    """Interpreter, libraries, BLAS build, CPU, and source revision."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(Path(gmr.__file__).resolve().parents[2]),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` directly."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
