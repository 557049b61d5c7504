"""Posterior-predictive inference for new observations with known groups.

A fitted model predicts a new observation of group r by mixing the K cluster
regressions with that group's posterior row: the predictive density is a
K-component Gaussian mixture and the point prediction is its mean.  Ignoring
the group and mixing with the prior weights instead gives the plain mixture
baseline used for comparison.

`predict_groups` looks up every test group's posterior row once, then
evaluates groups of equal size together: one stacked product gives the
component means of a whole block of groups, another their point
predictions, and one log-sum-exp their predictive densities.  A block holds
at most ``BLOCK_ROWS`` rows, so memory stays bounded by the block, not by
the dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from numpy.typing import NDArray

from .data import GroupedDataset, ModelParams, _readonly, validate_dataset
from .em import FitResult, _log_sum_exp
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

# Most rows `predict_groups` evaluates in one block (a single group larger
# than this is a block of its own).
BLOCK_ROWS = 4096


def _log_mixture_density(y, weights, means, sigmas2) -> np.ndarray:
    """``log sum_k w_k N(y; means[..., k], sigmas2[k])`` for every entry of ``y``.

    ``means`` has ``y``'s shape plus a trailing axis of length K, and
    ``weights`` broadcasts against ``means``; zero weights drop out exactly.
    """
    z = y[..., None] - means
    log_comp = -0.5 * (_LOG_2PI + np.log(sigmas2)) - z * z / (2.0 * sigmas2)
    with np.errstate(divide="ignore"):  # zero weights drop out as -inf
        log_w = np.log(weights)
    return _log_sum_exp(log_w + log_comp)[0]


@dataclass(frozen=True)
class PredictiveMixture:
    """One-dimensional Gaussian mixture over a future response value."""

    weights: NDArray[np.float64]
    means: NDArray[np.float64]
    sigmas2: NDArray[np.float64]

    def __post_init__(self):
        w, m, s2 = _readonly(self.weights), _readonly(self.means), _readonly(self.sigmas2)
        for name, arr in (("weights", w), ("means", m), ("sigmas2", s2)):
            if arr.ndim != 1 or arr.shape[0] != w.shape[0]:
                raise DimensionMismatchError(f"{name} must be a length-K vector")
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

    Groups of equal size are evaluated together, in blocks of at most
    ``BLOCK_ROWS`` rows, and the results are written back in dataset order;
    each group gets the same bits as it would alone.

    Raises
    ------
    NonFiniteError
        If a test cell is NaN or infinite.  ``test`` is validated first; see
        `validate_dataset` for the other errors.
    UnknownGroupError
        If a test group id is unknown and ``on_unknown="error"``; names the
        first such id in test order.
    DimensionMismatchError
        If the test feature dimension differs from the model's.
    """
    if on_unknown not in ("error", "prior"):
        raise ValueError(f"on_unknown must be 'error' or 'prior', got {on_unknown!r}")
    validate_dataset(test)
    params = fit.params
    if test.p != params.p:
        raise DimensionMismatchError(
            f"test data has p={test.p} but the model has p={params.p}"
        )
    position = {gid: i for i, gid in enumerate(fit.group_ids)}
    rows = np.array([position.get(gid, -1) for gid in test.group_ids])
    unknown = rows < 0
    if unknown.any() and on_unknown == "error":
        raise UnknownGroupError(test.group_ids[int(np.argmax(unknown))])
    # One C-contiguous row per test group, whatever the memory order of tau.
    weights = np.where(unknown[:, None], params.pi, fit.tau.tau[rows])

    n_r = test.n_r
    offsets = np.zeros(test.R, dtype=np.intp)
    np.cumsum(n_r[:-1], out=offsets[1:])
    y_pred = np.empty(test.n)
    log_density = np.empty(test.n)
    for n in np.unique(n_r):
        idx = np.flatnonzero(n_r == n)
        step = max(1, BLOCK_ROWS // int(n))
        for start in range(0, idx.size, step):
            block = idx[start : start + step]
            X = np.stack([test.groups[r].features for r in block])  # (G, n, p)
            y = np.stack([test.groups[r].responses for r in block])  # (G, n)
            w = weights[block]  # (G, K)
            means = X @ params.beta  # (G, n, K)
            at = offsets[block, None] + np.arange(n)
            y_pred[at] = (means @ w[:, :, None])[..., 0]
            log_density[at] = _log_mixture_density(y, w[:, None, :], means, params.sigma2)

    return GroupPredictions(
        group=tuple(chain.from_iterable(repeat(g.id, g.n) for g in test.groups)),
        y_true=np.concatenate([g.responses for g in test.groups]),
        y_pred=y_pred,
        log_density=log_density,
        used_fallback=np.repeat(unknown, n_r),
    )
