"""Choosing the number of clusters by repeated hold-out validation.

Each repetition draws a fresh per-group train/test split, fits every
candidate K on the training half and scores hold-out RMSE with the posterior
prediction.  Two baselines anchor the curve: predicting the pooled training
mean (reported under K=0) and a single pooled regression (K=1).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .data import GroupedDataset, Responsibilities, compute_group_stats, validate_dataset
from .em import EmConfig, fit, m_step_beta
from .metrics import rmse
from .predict import predict_groups
from .simulate import train_test_split

__all__ = ["SelectionReport", "baseline_mean", "baseline_ols", "select_k"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionReport:
    """Hold-out RMSE per candidate K, with baselines.

    ``rmse_by_k`` maps every scored K to its mean hold-out RMSE; keys 0 and 1
    are the mean and single-regression baselines unless 1 was itself in the
    candidate grid.  ``best_k`` is the global argmin (ties go to the smaller
    K) and ``best_mixture_k`` the argmin restricted to grid entries with
    K >= 2 (``None`` if the grid has none).
    """

    k_grid: tuple[int, ...]
    rmse_by_k: dict[int, float]
    sd_by_k: dict[int, float]
    best_k: int
    best_mixture_k: int | None
    n_reps: int


def baseline_mean(train: GroupedDataset, test: GroupedDataset) -> float:
    """Hold-out RMSE of always predicting the pooled training mean."""
    y_test = test.responses
    return rmse(y_test, np.full(y_test.shape, train.responses.mean()))


def baseline_ols(train: GroupedDataset, test: GroupedDataset, ridge: float = 1e-10) -> float:
    """Hold-out RMSE of a single pooled regression.

    The coefficients solve the same weighted normal equations as the EM beta
    update with all responsibility on one cluster, including its ridge
    escalation policy, so this matches a K=1 fit.
    """
    stats = compute_group_stats(train)
    tau_one = Responsibilities(np.ones((train.R, 1)))
    beta = m_step_beta(stats, tau_one, ridge)
    y_test, x_test, _ = test.stacked
    return rmse(y_test, x_test @ beta[:, 0])


def _argmin_small_k(values: dict[int, float]) -> int:
    best_k = None
    best_v = np.inf
    for k in sorted(values):
        if values[k] < best_v:
            best_k, best_v = k, values[k]
    return best_k


def select_k(
    d: GroupedDataset,
    k_grid,
    cfg: EmConfig | None = None,
    test_frac: float = 0.2,
    n_reps: int = 10,
    seed=None,
) -> SelectionReport:
    """Score candidate cluster counts by repeated hold-out RMSE.

    Parameters
    ----------
    d : GroupedDataset
    k_grid : iterable of int
        Candidate K values (each >= 1).
    cfg : EmConfig or None
        Template for the EM fits; its ``K`` and ``seed`` fields are replaced
        per candidate and repetition.  ``None`` uses the defaults.
    test_frac : float
        Per-group hold-out fraction for each repetition.
    n_reps : int
        Number of independent splits.
    seed : int or None
        Drives the splits and all fits deterministically.

    Raises
    ------
    GroupTooSmallError
        If some group cannot be split.  ``d`` is validated first, once; its
        splits inherit the pass (see `validate_dataset` for the errors).
    """
    k_grid = tuple(sorted(set(int(k) for k in k_grid)))
    if not k_grid:
        raise ValueError("k_grid must not be empty")
    if any(k < 1 for k in k_grid):
        raise ValueError("candidate K values must be at least 1")
    if n_reps < 1:
        raise ValueError("n_reps must be at least 1")
    template = cfg if cfg is not None else EmConfig(K=1)
    validate_dataset(d)

    scores: dict[int, list[float]] = {k: [] for k in (0, 1) + k_grid}
    rep_seeds = np.random.SeedSequence(seed).spawn(n_reps)
    for rep, rep_seed in enumerate(rep_seeds):
        children = rep_seed.spawn(1 + len(k_grid))
        train, test = train_test_split(d, test_frac, children[0])
        scores[0].append(baseline_mean(train, test))
        if 1 not in k_grid:
            scores[1].append(baseline_ols(train, test, template.ridge))
        for k, fit_seed in zip(k_grid, children[1:]):
            fit_cfg = replace(template, K=k, seed=int(fit_seed.generate_state(1)[0]))
            result = fit(train, fit_cfg)
            preds = predict_groups(result, test)
            scores[k].append(rmse(preds.y_true, preds.y_pred))
        logger.debug("rep %d scored", rep)

    rmse_by_k = {k: float(np.mean(v)) for k, v in scores.items()}
    sd_by_k = {
        k: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0 for k, v in scores.items()
    }
    mixture_ks = [k for k in k_grid if k >= 2]
    return SelectionReport(
        k_grid=k_grid,
        rmse_by_k=rmse_by_k,
        sd_by_k=sd_by_k,
        best_k=_argmin_small_k(rmse_by_k),
        best_mixture_k=_argmin_small_k({k: rmse_by_k[k] for k in mixture_ks})
        if mixture_ks
        else None,
        n_reps=n_reps,
    )
