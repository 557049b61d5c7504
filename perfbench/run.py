"""Benchmark for gmr: one workload (or all three) per process, checked and measured.

Run from the root of a source checkout; gmr is imported from ``src/``::

    python3 perfbench/run.py --workload mid_selectk --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

Workloads (see `harness`): ``large_pipeline`` and ``mid_selectk`` are listed
in BENCHMARK.json; ``desk_sweep`` runs by name and under ``all`` but is not
listed, because machine noise on small-array code spread its pass time across
seeds as wide as the largest bound allowed.  Each run prints the environment,
every metric under the workload's own names with its unit, and, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the gated end-to-end ones;
with ``--trace 1`` they are the per-layer ones of one traced pass, and every
span of that pass is written to ``perfbench/out/``.  Under ``all`` peak RSS is
the process's peak so far.  BLAS is pinned to one thread before numpy is
imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

RUN_SECONDS = 50
WORKLOAD_NAMES = ("desk_sweep", "large_pipeline", "mid_selectk")
LISTED_WORKLOADS = ("large_pipeline", "mid_selectk")


def _pin_environment() -> dict:
    """Pin BLAS threads and gmr's log level; must run before numpy is imported."""
    numpy_was_loaded = "numpy" in sys.modules
    os.environ.update(BLAS_PIN)
    os.environ["GMR_LOG"] = "warn"
    return {**BLAS_PIN, "pinned_before_numpy_import": not numpy_was_loaded}


def spec() -> dict:
    """Contents of BENCHMARK.json, built from the harness's own definitions."""
    import harness
    import spans

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": harness.WORKLOADS[name].why} for name in LISTED_WORKLOADS
        ],
        "end_to_end": [dict(m) for m in harness.END_TO_END],
        "per_layer": spans.per_layer_spec(),
    }


def _result_line(result) -> str:
    return json.dumps(
        {
            "correct": result.correct,
            "attempted": result.attempted,
            "failed": result.failed,
            # A metric a failed pass could not produce is null, never NaN.
            "metrics": {
                name: {"value": None if value != value else value, "unit": unit}
                for name, (value, unit) in result.metrics.items()
            },
        }
    )


def _run_one(name: str, args, workdir: Path):
    import harness

    result = harness.run(harness.WORKLOADS[name], args.seed, args.seconds, args.trace, workdir)
    for metric, (value, unit) in result.named.items():
        print(f"{name} {metric} = {value!r} {unit}")
    for problem in result.problems:
        print(f"{name} CHECK FAILED: {problem}")
    if result.tracer is not None:
        path = OUT / f"spans-{name}-seed{args.seed}.json.gz"
        result.tracer.write(path)
        print(f"{name} spans: {len(result.tracer.names)} written to {path.relative_to(ROOT)}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_spec and args.workload is None:
        parser.error("--workload is required")

    if not (SRC / "gmr" / "__init__.py").is_file():
        print(f"error: no gmr sources at {SRC}; run from a gmr checkout", file=sys.stderr)
        return 2
    pin = _pin_environment()
    sys.path.insert(0, str(SRC))

    import harness

    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0

    env = {**harness.environment(), "blas_thread_pin": pin}
    print("environment " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT) as tmp:
        results = {name: _run_one(name, args, Path(tmp)) for name in names}
    if args.workload != "all":
        print(_result_line(results[args.workload]))
        return 0
    for name, result in results.items():
        print(f"{name} result {_result_line(result)}")
    combined = harness.RunResult(
        attempted=sum(r.attempted for r in results.values()),
        failed=sum(r.failed for r in results.values()),
        problems=[p for r in results.values() for p in r.problems],
        metrics={
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r.metrics.items()
        },
        named={},
    )
    print(_result_line(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
