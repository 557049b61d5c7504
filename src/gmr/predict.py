"""Posterior-predictive inference for new observations with known groups.

A fitted model predicts a new observation of group r by mixing the K cluster
regressions with that group's posterior row: the predictive density is a
K-component Gaussian mixture and the point prediction is its mean.  Ignoring
the group and mixing with the prior weights instead gives the plain mixture
baseline used for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data import GroupedDataset, ModelParams
from .em import FitResult, _log_normalize
from .errors import DimensionMismatchError, UnknownGroupError

__all__ = [
    "GroupPredictions",
    "PredictiveMixture",
    "map_predict_fmr",
    "map_predict_gmr",
    "predict_groups",
    "predictive_density",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _log_mixture_density(y, weights, means, sigmas2) -> np.ndarray:
    """``log sum_k w_k N(y; means[..., k], sigmas2[k])`` for every entry of ``y``.

    ``means`` has ``y``'s shape plus a trailing axis of length K; zero
    weights drop out exactly.
    """
    z = y[..., None] - means
    log_comp = -0.5 * (_LOG_2PI + np.log(sigmas2)) - z * z / (2.0 * sigmas2)
    with np.errstate(divide="ignore"):  # zero weights drop out as -inf
        log_w = np.log(weights)
    return _log_normalize(log_w + log_comp)[0]


@dataclass(frozen=True)
class PredictiveMixture:
    """One-dimensional Gaussian mixture over a future response value."""

    weights: NDArray[np.float64]
    means: NDArray[np.float64]
    sigmas2: NDArray[np.float64]

    def __post_init__(self):
        w = np.array(self.weights, dtype=float)
        m = np.array(self.means, dtype=float)
        s2 = np.array(self.sigmas2, dtype=float)
        for name, arr in (("weights", w), ("means", m), ("sigmas2", s2)):
            if arr.ndim != 1 or arr.shape[0] != w.shape[0]:
                raise DimensionMismatchError(f"{name} must be a length-K vector")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if (w < 0).any() or abs(w.sum() - 1.0) > 1e-10:
            raise ValueError("weights must be nonnegative and sum to 1 within 1e-10")
        if (s2 <= 0).any():
            raise ValueError("sigmas2 must be strictly positive")

    def log_density(self, y) -> np.ndarray | float:
        """Log mixture density at y (scalar or vector), stable for tiny weights."""
        y_arr = np.asarray(y, dtype=float)
        out = _log_mixture_density(y_arr, self.weights, self.means, self.sigmas2)
        return float(out) if y_arr.ndim == 0 else out

    def density(self, y) -> np.ndarray | float:
        """Mixture density at y (scalar or vector)."""
        return np.exp(self.log_density(y))

    def mean(self) -> float:
        """Mixture mean, the point prediction."""
        return float(self.weights @ self.means)


def predictive_density(params: ModelParams, tau_row, x_new) -> PredictiveMixture:
    """Predictive mixture for one new feature vector in a group with posterior ``tau_row``.

    Component k has weight ``tau_row[k]``, mean ``beta_k' x_new`` and variance
    ``sigma2_k``.
    """
    tau_row = np.asarray(tau_row, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    if x_new.shape != (params.p,):
        raise DimensionMismatchError(f"x_new must have shape ({params.p},), got {x_new.shape}")
    if tau_row.shape != (params.K,):
        raise DimensionMismatchError(f"tau_row must have shape ({params.K},), got {tau_row.shape}")
    return PredictiveMixture(weights=tau_row, means=x_new @ params.beta, sigmas2=params.sigma2)


def map_predict_gmr(params: ModelParams, tau_row, x_new):
    """Posterior-mean prediction ``sum_k tau_row[k] * beta_k' x_new``.

    ``x_new`` may be a single p-vector or an (m, p) batch; the return value is
    a float or a length-m vector accordingly.
    """
    tau_row = np.asarray(tau_row, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    if tau_row.shape != (params.K,):
        raise DimensionMismatchError(f"tau_row must have shape ({params.K},), got {tau_row.shape}")
    if x_new.shape[-1] != params.p:
        raise DimensionMismatchError(f"x_new must have {params.p} features, got {x_new.shape}")
    out = (x_new @ params.beta) @ tau_row
    return float(out) if x_new.ndim == 1 else out


def map_predict_fmr(params: ModelParams, x_new):
    """Prior-weighted prediction ``sum_k pi_k * beta_k' x_new`` (group identity ignored)."""
    return map_predict_gmr(params, params.pi, x_new)


@dataclass(frozen=True)
class GroupPredictions:
    """Per-observation predictions in dataset order.

    ``log_density`` is the log predictive density evaluated at the observed
    response.  ``used_fallback`` marks observations whose group was unknown at
    training time and was therefore predicted with the prior weights.
    """

    group: tuple[str, ...]
    y_true: NDArray[np.float64]
    y_pred: NDArray[np.float64]
    log_density: NDArray[np.float64]
    used_fallback: NDArray[np.bool_]


def predict_groups(
    fit: FitResult, test: GroupedDataset, on_unknown: str = "error"
) -> GroupPredictions:
    """Predict every observation of ``test``, linking groups to the fit by id.

    Each observation in group r is predicted with the posterior row the fit
    assigned to r during training.  For group ids never seen in training,
    ``on_unknown`` selects the behavior: ``"error"`` raises, ``"prior"`` falls
    back to mixing with pi (the observations are flagged in the output).

    Raises
    ------
    UnknownGroupError
        If a test group id is unknown and ``on_unknown="error"``.
    DimensionMismatchError
        If the test feature dimension differs from the model's.
    """
    if on_unknown not in ("error", "prior"):
        raise ValueError(f"on_unknown must be 'error' or 'prior', got {on_unknown!r}")
    params = fit.params
    if test.p != params.p:
        raise DimensionMismatchError(
            f"test data has p={test.p} but the model has p={params.p}"
        )
    tau_by_id = dict(zip(fit.group_ids, fit.tau.tau))

    ids: list[str] = []
    pred_parts = []
    logden_parts = []
    fallback_parts = []
    for g in test.groups:
        row = tau_by_id.get(g.id)
        fallback = row is None
        if fallback:
            if on_unknown == "error":
                raise UnknownGroupError(g.id)
            row = params.pi
        means = g.features @ params.beta  # (n_g, K)
        pred_parts.append(means @ row)
        logden_parts.append(_log_mixture_density(g.responses, row, means, params.sigma2))
        fallback_parts.append(np.full(g.n, fallback))
        ids.extend([g.id] * g.n)

    y_true = np.concatenate([g.responses for g in test.groups])
    return GroupPredictions(
        group=tuple(ids),
        y_true=y_true,
        y_pred=np.concatenate(pred_parts),
        log_density=np.concatenate(logden_parts),
        used_fallback=np.concatenate(fallback_parts),
    )
