"""Synthetic grouped-regression benchmarks.

The generator draws a correlation-structured design, places the true
coefficient vectors at the vertices of a randomly rotated regular simplex
(all pairwise distances equal, all norms equal), partitions each cluster's
observations into groups of near-equal size, and emits Gaussian responses.
Everything is deterministic given the seed and the installed numpy: the
simplex rotation is numpy's own draw (`_haar_rotation`), operation for
operation the one scipy 1.17.1's `special_ortho_group` makes, so data drawn
when the rotation still came from scipy are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .data import Group, GroupedDataset, _check_fields, _check_integer, _check_real, _check_seed, _readonly
from .errors import GroupTooSmallError, InfeasibleError, TooManyGroupsError

__all__ = [
    "GroundTruth",
    "SimConfig",
    "generate",
    "partition_groups",
    "simplex_betas",
    "train_test_split",
    "wishart_covariance",
]


@dataclass(frozen=True)
class SimConfig:
    """Specification of one synthetic experiment.

    Parameters
    ----------
    n : int
        Total number of observations, at least one per group (``K * G``).
    K : int
        Number of clusters; needs ``K <= p + 1`` so that K equidistant
        coefficient vectors exist.
    p : int
        Feature dimension.
    G : int
        Groups per cluster, so there are ``R = K * G`` groups overall.
    sigma : float
        Noise standard deviation, shared by all clusters.
    delta_beta : float
        Common pairwise distance between the true coefficient vectors.
    wishart_df : int or None
        Degrees of freedom for the design covariance draw; ``None`` means
        ``p + 2``.
    seed : int or None
        Master seed, 0 or more.
    """

    n: int
    K: int
    p: int
    G: int
    sigma: float
    delta_beta: float
    wishart_df: int | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_fields(self, _check_integer, ("n", "K", "p", "G", "wishart_df"), optional=("wishart_df",))
        _check_seed(self)
        _check_fields(self, _check_real, ("sigma", "delta_beta"))
        if self.K < 1 or self.p < 1 or self.G < 1:
            raise ValueError("K, p and G must all be at least 1")
        if self.K > self.p + 1:
            raise InfeasibleError(
                f"{self.K} equidistant coefficient vectors do not fit in "
                f"dimension {self.p} (need K <= p + 1)"
            )
        if self.n < self.K * self.G:
            raise TooManyGroupsError(f"n={self.n} cannot fill {self.K * self.G} groups")
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if self.delta_beta < 0:
            raise ValueError("delta_beta must be nonnegative")
        if self.wishart_df is None:
            object.__setattr__(self, "wishart_df", self.p + 2)
        if self.wishart_df < self.p:
            raise ValueError("wishart_df must be at least p")


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows: coefficients, labels, noise and design scale.

    Float ``labels`` raise ValueError rather than be truncated to integers.
    """

    beta_true: NDArray[np.float64]  # (p, K), column k = cluster k
    labels: NDArray[np.int64]  # (R,), true cluster of each group
    sigma_true: NDArray[np.float64]  # (K,) noise standard deviations
    Sigma_x: NDArray[np.float64]  # (p, p) design covariance

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind == "f":  # an empty list reads as floats
            raise ValueError("labels must be integers, got float values")
        for name, dtype in (
            ("beta_true", float),
            ("labels", np.int64),
            ("sigma_true", float),
            ("Sigma_x", float),
        ):
            object.__setattr__(self, name, _readonly(getattr(self, name), dtype))


def simplex_betas(K: int, p: int, delta_beta: float, seed=None) -> NDArray[np.float64]:
    """K coefficient vectors in dimension p, all pairwise distances ``delta_beta``.

    Construction: center the K standard basis vectors of R^K, project them
    onto an orthonormal basis of their (K-1)-dimensional span, rescale so the
    common pairwise distance is ``delta_beta``, embed into the first K-1
    coordinates of R^p, and apply a seeded uniformly random rotation.  The
    result has equal column norms ``delta_beta * sqrt((K-1)/(2K))``.

    The rotation is `_haar_rotation` on ``np.random.default_rng(seed)``, so
    a seed gives the same vectors for a given numpy; they equal those drawn
    through scipy 1.17.1's `special_ortho_group`.  The geometry above holds
    for every rotation.

    Raises
    ------
    InfeasibleError
        If K > p + 1.
    """
    if K > p + 1:
        raise InfeasibleError(f"need K <= p + 1, got K={K}, p={p}")
    centered = np.eye(K) - 1.0 / K  # rows: centered basis vertices
    # Rank K-1; right singular vectors give an orthonormal basis of the span.
    _, _, vt = np.linalg.svd(centered)
    coords = centered @ vt[: K - 1].T  # (K, K-1), isometric to the vertices
    if K > 1:
        coords *= delta_beta / np.sqrt(2.0)  # basis vertices sit sqrt(2) apart
    beta = np.zeros((p, K))
    beta[: K - 1, :] = coords.T
    if p > 1:
        beta = _haar_rotation(p, np.random.default_rng(seed)) @ beta
    return beta


def _haar_rotation(p: int, rng: np.random.Generator) -> NDArray[np.float64]:
    """A uniformly (Haar) distributed p x p rotation, drawn from ``rng``.

    QR of a standard Gaussian matrix with each column of Q multiplied by the
    sign of R's diagonal entry is Haar on O(p) (Mezzadri 2007, "How to
    generate random matrices from the classical compact groups", Notices
    AMS 54); dividing the first row by the determinant (+-1) maps it onto
    SO(p).  These are the operations of scipy 1.17.1's
    ``special_ortho_group.rvs(p, random_state=rng)``, in its order, so the
    bytes are the same.
    """
    z = rng.normal(size=(p, p))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= (d / abs(d))[None, :]
    q[0, :] /= np.linalg.det(q)
    return q


def wishart_covariance(p: int, df: int, seed=None) -> NDArray[np.float64]:
    """Random correlation matrix: a Wishart draw rescaled to unit diagonal."""
    if df < p:
        raise ValueError(f"df must be at least p, got df={df}, p={p}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((df, p))
    w = a.T @ a
    scale = np.sqrt(np.diag(w))
    sigma = w / np.outer(scale, scale)
    return (sigma + sigma.T) / 2.0


def partition_groups(count: int, G: int) -> NDArray[np.int64]:
    """Split ``count`` observations into G group sizes as evenly as possible.

    Every group gets ``count // G``; the remainder goes one observation at a
    time to the lowest-index groups.
    """
    if count < G:
        raise TooManyGroupsError(f"cannot fill {G} groups with {count} observations")
    base, rem = divmod(count, G)
    sizes = np.full(G, base, dtype=np.int64)
    sizes[:rem] += 1
    return sizes


def _group_id(r: int) -> str:
    """Id of the r-th group `generate` draws, which is ``truth.labels[r]``'s group."""
    return f"g{r}"


def generate(cfg: SimConfig) -> tuple[GroupedDataset, GroundTruth]:
    """Draw one synthetic dataset and its ground truth.

    The design covariance and the coefficient vectors are drawn once, then
    cluster k contributes G groups whose sizes come from `partition_groups`
    applied to its share of the n observations.  Features are ``N(0, Sigma)``
    and responses ``y = beta_k' x + eps`` with ``eps ~ N(0, sigma^2)``.
    Group ids are ``"g0", "g1", ...`` in cluster-major order.
    """
    root = np.random.SeedSequence(cfg.seed)
    s_cov, s_beta, s_obs = root.spawn(3)
    sigma_x = wishart_covariance(cfg.p, cfg.wishart_df, s_cov)
    beta = simplex_betas(cfg.K, cfg.p, cfg.delta_beta, s_beta)
    chol = np.linalg.cholesky(sigma_x)

    rng = np.random.default_rng(s_obs)
    groups: list[Group] = []
    labels: list[int] = []
    # Observations split as evenly as possible across clusters (exact when
    # K divides n, which covers the benchmark grids), then across groups.
    for k, count in enumerate(partition_groups(cfg.n, cfg.K)):
        for size in partition_groups(int(count), cfg.G):
            x = rng.standard_normal((size, cfg.p)) @ chol.T
            eps = cfg.sigma * rng.standard_normal(size)
            y = x @ beta[:, k] + eps
            groups.append(Group(id=_group_id(len(groups)), responses=y, features=x))
            labels.append(k)
    truth = GroundTruth(
        beta_true=beta,
        labels=labels,
        sigma_true=np.full(cfg.K, float(cfg.sigma)),
        Sigma_x=sigma_x,
    )
    return GroupedDataset(tuple(groups)), truth


def _test_rows(d: GroupedDataset, test_frac: float, seed=None) -> NDArray[np.bool_]:
    """The rows `train_test_split` holds out, as a mask in dataset row order.

    Each group in turn draws ``rng.permutation(n_r)`` and holds out its first
    ``round(test_frac * n_r)`` entries, clamped to ``[1, n_r - 1]``.
    """
    if not 0.0 < test_frac < 1.0:
        raise ValueError(f"test_frac must lie strictly between 0 and 1, got {test_frac}")
    too_small = [g.id for g in d.groups if g.n < 2]
    if too_small:
        raise GroupTooSmallError(
            f"groups too small to split: {', '.join(map(repr, too_small[:5]))}"
        )
    rng = np.random.default_rng(seed)
    held = np.zeros(d.n, dtype=bool)
    for g, start in zip(d.groups, d.offsets):
        m = min(max(int(round(test_frac * g.n)), 1), g.n - 1)
        held[start + rng.permutation(g.n)[:m]] = True
    return held


def train_test_split(
    d: GroupedDataset, test_frac: float, seed=None
) -> tuple[GroupedDataset, GroupedDataset]:
    """Hold out a fraction of each group, uniformly without replacement.

    The per-group test size is ``round(test_frac * n_r)`` clamped to
    ``[1, n_r - 1]``, so both halves keep every group id (in the original
    order) and every group's rows in their original order.  Requires every
    group to have at least 2 observations.
    """
    held = _test_rows(d, test_frac, seed)
    train_groups: list[Group] = []
    test_groups: list[Group] = []
    for g, test in zip(d.groups, np.split(held, d.offsets[1:])):
        train_groups.append(Group(g.id, g.responses[~test], g.features[~test]))
        test_groups.append(Group(g.id, g.responses[test], g.features[test]))
    return GroupedDataset(tuple(train_groups)), GroupedDataset(tuple(test_groups))
