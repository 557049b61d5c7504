"""In-memory span recorder and the patching that puts it around gmr's public functions.

Spans are recorded from the benchmark's side only: `traced` replaces each
listed public function, in every ``gmr`` module namespace that binds it, by a
wrapper that opens a span, calls the original and closes the span.  Nothing
inside ``src/`` changes.  Spans keep a parent link, so self time is a span's
duration minus the durations of its direct children (calls are strictly
nested in one thread, so the children never overlap).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import logging
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute) of every wrapped function.  A dotted attribute names a
# method on a class, patched on the class itself.
TRACED_FUNCTIONS = (
    ("em", "fit"),
    ("em", "init_responsibilities"),
    ("em", "m_step_pi"),
    ("em", "m_step_beta"),
    ("em", "m_step_sigma2"),
    ("em", "log_joint"),
    ("em", "log_marginal_likelihood"),
    ("em", "e_step"),
    ("data", "compute_group_stats"),
    ("data", "ModelParams.__post_init__"),
    ("data", "Responsibilities.__post_init__"),
    ("io", "read_dataset_csv"),
    ("io", "write_dataset_csv"),
    ("io", "write_model_json"),
    ("io", "read_model_json"),
    ("io", "write_predictions_csv"),
    ("io", "read_truth_json"),
    ("predict", "predict_groups"),
    ("simulate", "generate"),
    ("simulate", "train_test_split"),
    ("select", "select_k"),
    ("select", "baseline_ols"),
    ("benchmark", "iter_records"),
    ("benchmark", "aggregate"),
    ("metrics", "nmi"),
    ("metrics", "confusion"),
    ("metrics", "beta_error"),
    ("metrics", "rmse"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_fit"),
    ("cli", "cmd_predict"),
    ("cli", "cmd_evaluate"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED_FUNCTIONS)

_BYTES_PER_FLOAT = 8


class Tracer:
    """Spans of one traced pass, kept in memory until `write` is called.

    Span i has ``names[i]``, ``parents[i]`` (-1 for a root) and start/end
    times in nanoseconds.  Per-name totals and counters are accumulated as
    spans close, so the summary needs no second pass over the spans.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self._open: list[int] = []
        self._child_ns: list[int] = []
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.edge_ns: Counter = Counter()  # (parent name, child name) -> total ns
        self.counters: Counter = Counter()

    def open(self, name: str) -> None:
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0)
        self._open.append(len(self.names) - 1)
        self._child_ns.append(0)
        self.starts.append(time.perf_counter_ns())

    def close(self) -> None:
        end = time.perf_counter_ns()
        idx = self._open.pop()
        child = self._child_ns.pop()
        self.ends[idx] = end
        dur = end - self.starts[idx]
        name = self.names[idx]
        self.calls[name] += 1
        self.total_ns[name] += dur
        self.self_ns[name] += dur - child
        if self._open:
            self._child_ns[-1] += dur
            self.edge_ns[(self.names[self._open[-1]], name)] += dur

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.names[self._open[-1]] if self._open else None

    def write(self, path) -> None:
        """Write every span, columnar, as gzipped JSON."""
        doc = {
            "names": self.names,
            "parents": self.parents,
            "start_ns": self.starts,
            "end_ns": self.ends,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _after_fit(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["em.winner_iters"] += result.n_iter
    if tracer.current() == "select.select_k":
        tracer.counters["select.fits"] += 1
    trace = result.ll_trace
    # Criterion 08's slack: each step may drop by at most 1e-8 * (1 + |ll|).
    slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
    if (np.diff(trace) < -slack).any():
        tracer.counters["em.ll_trace_decreases"] += 1


def _after_m_step_sigma2(tracer: Tracer, args, kwargs, result) -> None:
    # Arrays the call reads (y, X, beta, tau) and the (n, K) intermediates
    # it materializes (X @ beta, the residual, its square); computed from
    # shapes, not measured.
    _, X, _ = _arg(args, kwargs, 0, "d").stacked
    R, K = _arg(args, kwargs, 1, "tau").tau.shape
    n, p = X.shape
    floats = n + n * p + p * K + R * K + 3 * n * K + R * K
    tracer.counters["em.m_step_sigma2.bytes_computed"] += _BYTES_PER_FLOAT * floats


def _after_log_joint(tracer: Tracer, args, kwargs, result) -> None:
    # Group moments read (sigma_hat, rho_hat, y_sq_mean) plus beta and the
    # (R, K) temporaries of the moment formula; computed from shapes.
    stats = _arg(args, kwargs, 0, "stats")
    R, p = stats.rho_hat.shape
    K = result.shape[1]
    floats = R * p * p + R * p + R + p * K + 6 * R * K
    tracer.counters["em.log_joint.bytes_computed"] += _BYTES_PER_FLOAT * floats


def _after_read_dataset(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["io.read_dataset_csv.rows"] += result.n


def _after_write_dataset(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["io.write_dataset_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _after_predict_groups(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["predict.predict_groups.rows"] += len(result.y_pred)


def _count_record(tracer: Tracer, record: dict) -> None:
    tracer.counters["benchmark.replications"] += 1
    if record["error"] is not None:
        tracer.counters["benchmark.replications_failed"] += 1


_AFTER = {
    "em.fit": _after_fit,
    "em.m_step_sigma2": _after_m_step_sigma2,
    "em.log_joint": _after_log_joint,
    "io.read_dataset_csv": _after_read_dataset,
    "io.write_dataset_csv": _after_write_dataset,
    "predict.predict_groups": _after_predict_groups,
}


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        # Only iter_records is a generator.  The span covers its whole life,
        # from first record to exhaustion; the consumer runs between records,
        # so drain it promptly.
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            tracer.open(name)
            try:
                for record in fn(*args, **kwargs):
                    _count_record(tracer, record)
                    yield record
            finally:
                tracer.close()

        return traced_gen

    after = _AFTER.get(name)

    @functools.wraps(fn)
    def traced_fn(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer, args, kwargs, result)
        return result

    return traced_fn


class _AbandonCounter(logging.Handler):
    """Counts the debug records `gmr.em` writes when it abandons a restart."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if "abandoned" in str(record.msg) and record.levelno == logging.DEBUG:
            self.count += 1


@contextmanager
def traced(tracer: Tracer):
    """Patch every listed function in every loaded ``gmr`` namespace; undo on exit.

    Yields a callable returning the number of abandoned restarts seen so far.
    """
    import gmr.cli  # noqa: F401  (the package itself loads neither cli nor io)

    modules = [m for key, m in sys.modules.items() if key == "gmr" or key.startswith("gmr.")]
    undo: list[tuple[object, str, object]] = []
    for module_name, attr in TRACED_FUNCTIONS:
        home = sys.modules[f"gmr.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name)
            original = cls.__dict__[method]
            undo.append((cls, method, original))
            setattr(cls, method, _wrap(tracer, name, original))
            continue
        original = getattr(home, attr)
        wrapper = _wrap(tracer, name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)

    em_logger = logging.getLogger("gmr.em")
    saved = (em_logger.level, em_logger.propagate)
    counter = _AbandonCounter()
    passthrough = logging.StreamHandler(sys.stderr)
    passthrough.setLevel(logging.WARNING)
    em_logger.addHandler(counter)
    em_logger.addHandler(passthrough)
    # Debug records must not reach the root handler the CLI installs.
    em_logger.setLevel(logging.DEBUG)
    em_logger.propagate = False
    try:
        yield lambda: counter.count
    finally:
        em_logger.removeHandler(counter)
        em_logger.removeHandler(passthrough)
        em_logger.setLevel(saved[0])
        em_logger.propagate = saved[1]
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


PER_ITERATION_EXCLUDED = ("data.compute_group_stats", "em.init_responsibilities")


def layer_metrics(tracer: Tracer, restarts_failed: int, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced pass: ``name -> (value, unit)``.

    Every name in `per_layer_spec` is present; a layer the workload does not
    exercise reports zeros.
    """
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (tracer.calls[name], "count")
        out[f"{name}.total_s"] = (tracer.total_ns[name] / 1e9, "s")
        out[f"{name}.self_s"] = (tracer.self_ns[name] / 1e9, "s")

    def rate(count, name):
        total_s = tracer.total_ns[name] / 1e9
        return count / total_s if total_s > 0 else 0.0

    c = tracer.counters
    iterations = tracer.calls["em.m_step_pi"]
    # Time inside fit that is spent per iteration: everything but the group
    # moments and the initializations, which run once per fit or restart.
    per_iter_ns = tracer.total_ns["em.fit"] - sum(
        tracer.edge_ns[("em.fit", child)] for child in PER_ITERATION_EXCLUDED
    )
    out["em.iterations"] = (iterations, "count")
    out["em.restarts"] = (tracer.calls["em.init_responsibilities"], "count")
    out["em.restarts_failed"] = (restarts_failed, "count")
    out["em.us_per_iteration"] = (per_iter_ns / 1e3 / iterations if iterations else 0.0, "us")
    out["em.winner_iter_ratio"] = (c["em.winner_iters"] / iterations if iterations else 0.0, "ratio")
    out["em.m_step_sigma2.bytes_computed"] = (c["em.m_step_sigma2.bytes_computed"], "B")
    out["em.log_joint.bytes_computed"] = (c["em.log_joint.bytes_computed"], "B")
    out["io.read_dataset_csv.rows_per_s"] = (
        rate(c["io.read_dataset_csv.rows"], "io.read_dataset_csv"), "1/s")
    out["io.write_dataset_csv.bytes_per_s"] = (
        rate(c["io.write_dataset_csv.bytes"], "io.write_dataset_csv"), "B/s")
    out["predict.predict_groups.rows_per_s"] = (
        rate(c["predict.predict_groups.rows"], "predict.predict_groups"), "1/s")
    out["select.fits"] = (c["select.fits"], "count")
    out["benchmark.replications"] = (c["benchmark.replications"], "count")
    out["benchmark.replications_failed"] = (c["benchmark.replications_failed"], "count")
    out["tracing_overhead_frac"] = (overhead_frac, "ratio")
    return out


# Rates, the useful-work ratio and the work a pass must get done are better
# higher; calls, times, bytes and failures are better lower.
_HIGHER = ("em.winner_iter_ratio", "select.fits", "benchmark.replications")


def per_layer_spec() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json, in output order."""
    return [
        {
            "name": name,
            "unit": unit,
            "better": "higher" if name.endswith("_per_s") or name in _HIGHER else "lower",
        }
        for name, (_, unit) in layer_metrics(Tracer(), 0, 0.0).items()
    ]
