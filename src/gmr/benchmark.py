"""Monte Carlo benchmark harness: sweep a parameter grid, replicate, aggregate.

Every grid cell runs ``n_reps`` independent replications of
generate -> split -> fit -> predict -> evaluate.  Replication seeds are
derived from the master seed and the (cell, rep) coordinates, so results do
not depend on execution order and a worker pool produces exactly the
sequential output.  A `GmrError` inside a replication is recorded on its
record rather than aborting the sweep; any other exception propagates.
`gmr evaluate` scores a fit with the same `_label_scores` and `_holdout_rmse`.
"""

from __future__ import annotations

import functools
import itertools
import logging
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .data import GroupedDataset, _check_integer, _check_real, _check_seed, _from_dict
from .em import EmConfig, FitResult, fit
from .errors import GmrError
from .metrics import beta_error, confusion, nmi, rmse
from .predict import map_predict_fmr, predict_groups
from .simulate import GroundTruth, SimConfig, _group_id, generate, train_test_split

__all__ = ["BenchmarkSpec", "aggregate", "aggregate_columns", "iter_records"]

logger = logging.getLogger(__name__)

_GRID_FIELDS = ("K", "p", "G", "n", "sigma", "delta_beta")
_METRIC_NAMES = ("nmi", "beta_error", "rmse", "iterations")
_METRIC_COLUMNS = {
    "nmi": ("nmi",),
    "beta_error": ("beta_error",),
    "rmse": ("rmse_train", "rmse_gmr", "rmse_fmr"),
    "iterations": ("n_iter", "converged_frac"),
}
# Aggregate columns that average a record field of another name.
_RECORD_FIELDS = {"rmse_gmr": "rmse_test", "converged_frac": "converged"}


def _as_tuple(value) -> tuple:
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(value)
    return (value,)


@dataclass(frozen=True)
class BenchmarkSpec:
    """A benchmark sweep: one value list per model parameter, crossed.

    ``metrics`` selects which metric groups appear in the aggregate table.
    Dropping ``"rmse"`` also skips the per-group hold-out split: the fit then
    uses every observation and the rmse fields stay None.  That keeps cells
    with single-observation groups (n close to G) runnable.  The EM settings
    apply to every fit.
    """

    n: tuple[int, ...]
    K: tuple[int, ...]
    p: tuple[int, ...]
    G: tuple[int, ...]
    sigma: tuple[float, ...]
    delta_beta: tuple[float, ...]
    n_reps: int = 50
    test_frac: float = 0.2
    seed: int | None = None
    metrics: tuple[str, ...] = _METRIC_NAMES
    restarts: int = EmConfig.n_restarts  # the EM defaults, read off EmConfig's fields
    max_iter: int = EmConfig.max_iter
    epsilon: float = EmConfig.epsilon
    init: str = EmConfig.init

    def __post_init__(self):
        for name in _GRID_FIELDS:
            values = _as_tuple(getattr(self, name))
            rule = _check_real if name in ("sigma", "delta_beta") else _check_integer
            for value in values:
                rule(name, value)
            if not values or any(v <= 0 for v in values):
                raise ValueError(f"grid values for {name} must be positive and non-empty")
            object.__setattr__(self, name, values)
        _check_integer("n_reps", self.n_reps)
        _check_seed(self)
        _check_real("test_frac", self.test_frac)
        if self.n_reps < 1:
            raise ValueError("n_reps must be at least 1")
        if not 0.0 < self.test_frac < 1.0:
            raise ValueError("test_frac must lie strictly between 0 and 1")
        bad = set(self.metrics) - set(_METRIC_NAMES)
        if bad:
            raise ValueError(f"unknown metrics: {sorted(bad)}; choose from {_METRIC_NAMES}")
        object.__setattr__(self, "metrics", tuple(self.metrics))
        self._em_template()  # reject bad EM settings before any fit

    def _em_template(self) -> EmConfig:
        """EM settings of every fit; each replication sets its own K and seed."""
        return EmConfig(
            K=1, n_restarts=self.restarts, max_iter=self.max_iter, epsilon=self.epsilon,
            init=self.init,
        )

    from_dict = classmethod(_from_dict)  # the spec from a dict; unknown keys raise ValueError

    def cells(self) -> list[dict]:
        """Grid cells in a fixed, documented order (K, p, G, n, sigma, delta_beta)."""
        combos = itertools.product(
            self.K, self.p, self.G, self.n, self.sigma, self.delta_beta
        )
        return [dict(zip(_GRID_FIELDS, combo)) for combo in combos]


def _label_scores(result: FitResult, truth: GroundTruth) -> dict:
    """``nmi`` and ``beta_error`` of a fit's hard labels against the generating truth.

    Labels are paired by group id, so the order of the fit's groups does not
    matter; an id the truth lacks is a `GmrError`, a different count a
    `LengthMismatchError` (from `confusion`).
    """
    true, est = truth.labels, result.tau.hard_labels()
    if len(result.group_ids) == true.size:
        position = {_group_id(r): r for r in range(true.size)}
        unknown = [gid for gid in result.group_ids if gid not in position]
        if unknown:
            raise GmrError(f"group {unknown[0]!r} of the fit is not a group of the truth")
        true = true[[position[gid] for gid in result.group_ids]]
    f = confusion(true, est, n_true=truth.beta_true.shape[1], n_est=result.params.K)
    return {"nmi": nmi(true, est),
            "beta_error": beta_error(truth.beta_true, result.params.beta, f)}


def _holdout_rmse(result: FitResult, data: GroupedDataset) -> float:
    """RMSE of the fit's posterior-mean predictions of ``data``; unseen groups mix with pi."""
    preds = predict_groups(result, data, on_unknown="prior")
    return rmse(preds.y_true, preds.y_pred)


def _replicate(spec: BenchmarkSpec, cell_idx: int, cell: dict, rep: int) -> dict:
    unset = ("seed", "nmi", "beta_error", "rmse_train", "rmse_test", "rmse_fmr", "n_iter",
             "converged", "error")
    record = {**cell, "rep": rep, **dict.fromkeys(unset)}
    seq = np.random.SeedSequence(spec.seed, spawn_key=(cell_idx, rep))
    tag, s_gen, s_split, s_fit = (int(v) for v in seq.generate_state(4))
    record["seed"] = tag
    want_rmse = "rmse" in spec.metrics
    try:
        sim = SimConfig(**cell, seed=s_gen)  # a cell holds exactly the grid fields
        data, truth = generate(sim)
        train = data
        if want_rmse:
            train, test = train_test_split(data, spec.test_frac, s_split)
        result = fit(train, replace(spec._em_template(), K=sim.K, seed=s_fit))
        record.update(_label_scores(result, truth))
        if want_rmse:
            record["rmse_train"] = _holdout_rmse(result, train)
            record["rmse_test"] = _holdout_rmse(result, test)
            y_test, x_test, _ = test.stacked
            record["rmse_fmr"] = rmse(y_test, map_predict_fmr(result.params, x_test))
        record["n_iter"] = result.n_iter
        record["converged"] = result.converged
    except GmrError as exc:  # a failed replication is data, not a crash
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def iter_records(spec: BenchmarkSpec, jobs: int = 1) -> Iterator[dict]:
    """Yield one record per replication, in deterministic (cell, rep) order.

    With ``jobs`` above 1, a pool of at most one worker per replication runs them.
    """
    replicate = functools.partial(_replicate, spec)
    cells = spec.cells()
    tasks = [(i, cell, rep) for i, cell in enumerate(cells) for rep in range(spec.n_reps)]
    logger.info("benchmark: %d cells x %d reps", len(cells), spec.n_reps)
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        yield from itertools.starmap(replicate, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, so `import gmr.cli` loads no multiprocessing

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(replicate, *zip(*tasks), chunksize=max(1, len(tasks) // (jobs * 4)))


def aggregate(records: Iterable[dict]) -> list[dict]:
    """Collapse records into one row per cell: means over successful replications."""
    by_cell: dict[tuple, list[dict]] = {}
    for record in records:
        key = tuple(record[f] for f in _GRID_FIELDS)
        by_cell.setdefault(key, []).append(record)

    rows = []
    for key, cell_records in by_cell.items():
        ok = [r for r in cell_records if r["error"] is None]
        row = dict(zip(_GRID_FIELDS, key))
        row["n_reps"] = len(cell_records)
        row["n_failed"] = len(cell_records) - len(ok)
        for column in itertools.chain.from_iterable(_METRIC_COLUMNS.values()):
            field_name = _RECORD_FIELDS.get(column, column)
            values = [float(r[field_name]) for r in ok if r[field_name] is not None]
            row[column] = float(np.mean(values)) if values else None
        rows.append(row)
    return rows


def aggregate_columns(spec: BenchmarkSpec) -> list[str]:
    """Column order for the aggregate table, honoring the spec's metric choice."""
    cols = list(_GRID_FIELDS) + ["n_reps", "n_failed"]
    for name in _METRIC_NAMES:
        if name in spec.metrics:
            cols.extend(_METRIC_COLUMNS[name])
    return cols
