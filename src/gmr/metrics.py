"""Evaluation metrics: label agreement, coefficient recovery, prediction error."""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatchError, LengthMismatchError

__all__ = ["beta_error", "confusion", "nmi", "rmse"]


def _as_labels(x, name: str) -> np.ndarray:
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    return arr


def confusion(true_labels, est_labels, n_true: int | None = None, n_est: int | None = None) -> NDArray[np.float64]:
    """Normalized confusion matrix F with F[k, l] = (1/R) #{r: true=k and est=l}.

    Labels are nonnegative integers.  ``n_true``/``n_est`` fix the matrix
    shape when some clusters are absent from the labelings (needed to align F
    with coefficient matrices); they default to ``max(label) + 1``.
    """
    t = _as_labels(true_labels, "true_labels").astype(np.int64)
    e = _as_labels(est_labels, "est_labels").astype(np.int64)
    if t.shape != e.shape:
        raise LengthMismatchError(f"label lengths differ: {t.size} vs {e.size}")
    if (t < 0).any() or (e < 0).any():
        raise ValueError("labels must be nonnegative integers")
    kt = int(t.max()) + 1 if n_true is None else n_true
    ke = int(e.max()) + 1 if n_est is None else n_est
    if t.max() >= kt or e.max() >= ke:
        raise ValueError("labels out of range for the requested matrix shape")
    f = np.zeros((kt, ke))
    np.add.at(f, (t, e), 1.0)
    return f / t.size


def beta_error(true_beta, est_beta, f) -> float:
    """Average squared coefficient error over groups, via the confusion matrix.

    With D[k, l] the squared distance between true column k and estimated
    column l, returns ``sum_{k,l} D[k, l] * F[k, l]``, which equals the direct
    per-group average ``(1/R) sum_r ||beta_est(r) - beta_true(r)||^2``.
    """
    bt = np.asarray(true_beta, dtype=float)
    be = np.asarray(est_beta, dtype=float)
    f = np.asarray(f, dtype=float)
    if bt.ndim != 2 or be.ndim != 2 or bt.shape[0] != be.shape[0]:
        raise DimensionMismatchError("coefficient matrices must be p x K with a shared p")
    if f.shape != (bt.shape[1], be.shape[1]):
        raise DimensionMismatchError(
            f"confusion matrix shape {f.shape} does not match "
            f"({bt.shape[1]}, {be.shape[1]}) coefficient columns"
        )
    diff = bt[:, :, None] - be[:, None, :]  # (p, K_true, K_est)
    d = (diff * diff).sum(axis=0)
    return float((d * f).sum())


def nmi(true_labels, est_labels) -> float:
    """Normalized mutual information between two labelings, in [0, 1].

    Plug-in mutual information with natural-log entropies, normalized by the
    geometric mean ``sqrt(H(U) H(V))``.  Invariant to relabeling either side.
    If both labelings are single-class the partitions agree trivially and the
    value is 1; if exactly one is single-class there is nothing to co-vary
    with and the value is 0.
    """
    u = _as_labels(true_labels, "true_labels")
    v = _as_labels(est_labels, "est_labels")
    if u.shape != v.shape:
        raise LengthMismatchError(f"label lengths differ: {u.size} vs {v.size}")
    # Codes from np.unique leave no empty row or column in the joint table.
    p = confusion(np.unique(u, return_inverse=True)[1], np.unique(v, return_inverse=True)[1])
    if p.shape == (1, 1):
        return 1.0
    if 1 in p.shape:
        return 0.0
    pu, pv = p.sum(axis=1), p.sum(axis=0)
    hu, hv = -np.sum(pu * np.log(pu)), -np.sum(pv * np.log(pv))
    mask = p > 0
    mi = np.sum(p[mask] * np.log(p[mask] / np.outer(pu, pv)[mask]))
    # mi can stray past the bound or below 0 only by rounding; clamp.
    return float(min(1.0, max(0.0, mi / np.sqrt(hu * hv))))


def rmse(y_true, y_pred) -> float:
    """Root mean squared error between two equal-length vectors."""
    yt = np.asarray(y_true, dtype=float)
    yp = np.asarray(y_pred, dtype=float)
    if yt.ndim != 1 or yp.ndim != 1 or yt.size == 0:
        raise ValueError("inputs must be non-empty 1-d vectors")
    if yt.shape != yp.shape:
        raise LengthMismatchError(f"lengths differ: {yt.size} vs {yp.size}")
    diff = yt - yp
    return float(np.sqrt(np.mean(diff * diff)))
