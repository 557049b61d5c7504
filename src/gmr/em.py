"""EM estimation of a mixture of Gaussian linear regressions over grouped data.

Model: K clusters, cluster k has coefficients beta_k and noise variance
sigma2_k.  Every observation of group r shares one latent cluster z_r, so a
group's likelihood under cluster k is the product of its n_r per-observation
Gaussian densities.  That product underflows already for moderate group sizes,
so the E-step works on log densities throughout and normalizes with
log-sum-exp.

The M-steps are closed forms in the group statistics cached on the dataset
(`compute_group_stats`): pi is the mean responsibility, beta_k solves a
weighted normal-equation system pooled over groups, and sigma2_k is a weighted
average of per-group mean squared residuals.  Those residuals come from each
group's (p+1) x (p+1) triangular factor (`GroupedDataset.factors`).  Group
weights enter only through w_rk = n_r * tau_rk and its column normalization,
so an iteration costs O(R K p^2) regardless of the raw observation count.

All restarts of a fit start through `init_responsibilities` (k-means starts
share one group solve, kept on the dataset) and iterate in lockstep
(`_run_restarts`).  Their responsibilities form one (S, K, R) stack over the S
restarts still active; it is cluster-major, because numpy reduces a short last
axis row by row, several times slower than across contiguous rows, and the
E-step reduces over clusters.  The private kernels take such a leading restart
axis wherever they say (..., K, R).  Each iteration makes one pooled
(S*K, p, p) system build, one batched Cholesky factorization in `_solve_spd`,
the one solver of every normal-equation stack, one residual product shared by
the sigma2 update and the E-step, and one log-sum-exp over the cluster axis.
A restart leaves the active set when it converges, reaches ``max_iter``,
empties a cluster or keeps a singular system through `_solve_spd`'s ridge
ladder; the others go on without it and compute exactly what they would
compute alone.  Nothing is validated inside the loop: each restart's final
state is validated once, as the `FitResult` it ends as, when it leaves the
stack.  The public `m_step_pi`, `m_step_beta`, `m_step_sigma2`, `log_joint`
and `e_step` are the one-restart case of the same private kernels, so each
formula lives in one place.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np
from numpy.typing import NDArray

from .data import (
    GroupedDataset,
    ModelParams,
    Responsibilities,
    _check_fields,
    _check_integer,
    _check_real,
    _check_seed,
    _readonly,
    compute_group_stats,
)
from .errors import (
    AllRestartsFailedError,
    DimensionMismatchError,
    EmptyClusterError,
    GmrError,
    NonFiniteError,
    SingularSystemError,
    TooFewGroupsError,
)

__all__ = [
    "EmConfig",
    "FitResult",
    "e_step",
    "fit",
    "init_responsibilities",
    "log_joint",
    "log_marginal_likelihood",
    "m_step_beta",
    "m_step_pi",
    "m_step_sigma2",
]

logger = logging.getLogger(__name__)

# A cluster whose pooled weight falls below this fraction of the total
# observation count is declared empty and the restart abandoned.
EMPTY_CLUSTER_REL_TOL = 1e-12

# Ridge escalation ceiling for the normal-equation solves (relative to the
# mean diagonal of the system matrix).
RIDGE_MAX_REL = 1e-4
_SINGULAR = f"normal equations singular even at relative ridge {RIDGE_MAX_REL}"

# Relative variance floor applied when EmConfig.sigma2_floor is not given.
VAR_FLOOR_REL = 1e-8

# Per-group ridge used when extracting coefficient vectors for the k-means
# initialization (groups can be smaller than p, so their moment matrices are
# routinely rank deficient).
GROUP_COEF_RIDGE_REL = 1e-6

KMEANS_ITERS = 50

# A restart in which some cluster holds fewer groups' worth of responsibility
# than this (three groups, to the nearest whole group) is a spurious maximizer
# and loses to any restart without one (see `fit`).
MIN_CLUSTER_GROUPS = 2.5

# In the order `gmr fit --help` lists the choices of --init.
InitStrategy = Literal["random_hard", "random_soft", "kmeans_on_group_coefs"]
_HARD_STRATEGIES = ("random_hard", "kmeans_on_group_coefs")

@dataclass(frozen=True)
class EmConfig:
    """Settings for `fit`.

    Parameters
    ----------
    K : int
        Number of clusters, at least 1.
    epsilon : float
        Convergence threshold on the absolute sup-norm change of the
        responsibility matrix between consecutive iterations.
    max_iter : int
        Iteration cap per restart.
    n_restarts : int
        Independent initializations, iterated in lockstep; the restart with
        the highest final observed-data log-likelihood wins, among the
        restarts without a spurious cluster if there are any (see `fit`).
        Each restart's result is the one it would reach alone.
    init : str
        Initialization strategy, see `init_responsibilities`.
    sigma2_floor : float or None
        Minimum noise variance.  ``None`` means ``1e-8 * var(y)`` computed
        from the dataset at fit time.
    ridge : float
        Regularizer for the beta solve, relative to ``trace(system)/p``.
        Escalated by factors of 10 up to 1e-4 before a system is declared
        singular.
    seed : int or None
        Master seed, 0 or more; per-restart seeds derive from it deterministically.

    Counts must be integers and ``epsilon``, ``ridge`` and ``sigma2_floor``
    finite numbers (``bool`` is neither); a violation raises ``ValueError``
    naming the field.
    """

    K: int
    epsilon: float = 1e-6
    max_iter: int = 200
    n_restarts: int = 10
    init: InitStrategy = "random_hard"
    sigma2_floor: float | None = None
    ridge: float = 1e-10
    seed: int | None = None

    def __post_init__(self):
        _check_fields(self, _check_integer, ("K", "max_iter", "n_restarts"))
        _check_seed(self)
        _check_fields(self, _check_real, ("epsilon", "ridge", "sigma2_floor"),
                      optional=("sigma2_floor",))
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.n_restarts < 1:
            raise ValueError("n_restarts must be at least 1")
        if self.init not in get_args(InitStrategy):
            raise ValueError(f"unknown init strategy {self.init!r}")
        if self.sigma2_floor is not None and not self.sigma2_floor > 0:
            raise ValueError("sigma2_floor must be positive when given")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    """Final state of one EM restart; `fit` returns the winning one.

    ``ll_trace`` holds the observed-data log-likelihood after each iteration's
    M-step and is non-decreasing within a slack of ``1e-8 * (1 + |ll|)`` per
    step.  ``group_ids`` records the training group order so that rows of
    ``tau`` can be linked to new data later (models loaded from disk carry
    ``ll_trace=None``).
    """

    params: ModelParams
    tau: Responsibilities
    group_ids: tuple[str, ...]
    log_likelihood: float
    n_iter: int
    converged: bool
    ll_trace: NDArray[np.float64] | None


def _mean_sq_residuals(factors: np.ndarray, coefs: np.ndarray) -> NDArray[np.float64]:
    """Per-group mean squared residual under each cluster's coefficients, (..., K, R).

    ``coefs`` is (..., K, p).  ``E_kr = ||T_r [coefs_k; -1]||^2`` with T_r the
    triangular factor of group r's scaled rows ``[X_r | y_r] / sqrt(n_r)``; one
    (K, p+1) x (p+1, R*(p+1)) product per restart serves all its groups and
    clusters.  A stack gets one such product per restart, not one product of
    all S*K rows: BLAS picks its kernel, and so its rounding, by matrix size,
    and a restart's result must not depend on how many others share its stack.
    """
    R, q, _ = factors.shape
    augmented = np.empty((*coefs.shape[:-2], q, coefs.shape[-2]))  # (..., p + 1, K)
    augmented[..., :-1, :] = np.swapaxes(coefs, -1, -2)
    augmented[..., -1, :] = -1.0
    v = np.swapaxes(augmented, -1, -2) @ factors.reshape(R * q, q).T
    v = v.reshape(*v.shape[:-1], R, q)
    return np.einsum("...rq,...rq->...r", v, v)


def _log_sum_exp(
    scores: np.ndarray, axis: int = -1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-sum-exp over ``axis``, with the exponentials and their sums it was built from.

    Each slice is shifted by its maximum before exponentiating, so nothing
    overflows and the largest term is exactly 1.  Entries of ``-inf`` give
    exponentials of 0; every slice needs at least one finite entry.  The sums
    keep ``axis`` as a dimension of length 1.
    """
    top = np.max(scores, axis=axis, keepdims=True)
    e = np.exp(scores - top)
    total = e.sum(axis=axis, keepdims=True)
    return np.squeeze(top + np.log(total), axis), e, total


def _log_normalize(scores: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Log-sum-exp over ``axis``, and the scores normalized to weights (see `_log_sum_exp`)."""
    lse, e, total = _log_sum_exp(scores, axis)
    return lse, e / total


def _log_joint(n_r: np.ndarray, pi: np.ndarray, sigma2: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Cluster-major log joint (..., K, R) from pi and sigma2 (..., K) and E (..., K, R)."""
    n_r = n_r.astype(float)
    with np.errstate(divide="ignore"):  # pi_k == 0 legitimately maps to -inf
        log_pi = np.log(pi)
    norm_const = -0.5 * np.log(2.0 * np.pi * sigma2)
    return log_pi[..., None] + n_r * norm_const[..., None] - n_r * E / (2.0 * sigma2[..., None])


def log_joint(stats: GroupedDataset, params: ModelParams) -> NDArray[np.float64]:
    """Log joint density of (group r, cluster k) up to the fixed features.

    Entry (r, k) is ``log pi_k + sum_i log phi_{sigma_k}(y_ri - beta_k' x_ri)``
    where phi_s is the normal density with standard deviation s.  The residual
    sum comes from the cached group factors: with E_rk the mean squared
    residual of group r under beta_k (see `GroupedDataset.factors`),

        entry(r, k) = log pi_k - (n_r / 2) log(2 pi sigma2_k)
                      - n_r E_rk / (2 sigma2_k).

    Raises
    ------
    NonFiniteError
        If any sigma2 entry is not strictly positive.
    DimensionMismatchError
        If the feature dimensions of stats and params disagree.
    """
    if (params.sigma2 <= 0).any():
        raise NonFiniteError("sigma2 entries must be strictly positive")
    if stats.p != params.p:
        raise DimensionMismatchError(
            f"stats have p={stats.p} but params have p={params.p}"
        )
    E = _mean_sq_residuals(stats.factors, params.beta.T)
    return _log_joint(stats.n_r, params.pi, params.sigma2, E).T


def e_step(log_joint_matrix: NDArray[np.float64]) -> Responsibilities:
    """Normalize log joint scores into per-group posterior rows.

    ``tau[r, k] = exp(lj[r, k] - logsumexp_k lj[r, :])``; each row sums to 1.
    Entries of ``-inf`` (impossible clusters) are handled exactly; rows must
    contain at least one finite entry.
    """
    return Responsibilities(_log_normalize(np.asarray(log_joint_matrix, dtype=float))[1])


def log_marginal_likelihood(log_joint_matrix: NDArray[np.float64]) -> float:
    """Observed-data log-likelihood: sum over groups of logsumexp over clusters."""
    return float(_log_sum_exp(np.asarray(log_joint_matrix, dtype=float))[0].sum())


def _m_step_pi(tau: np.ndarray) -> np.ndarray:
    """Mixture weights (..., K) of cluster-major responsibilities (..., K, R)."""
    return tau.mean(axis=-1)


def m_step_pi(tau: Responsibilities) -> NDArray[np.float64]:
    """Update mixture weights: column means of the responsibility matrix."""
    return _m_step_pi(tau.tau.T)


def _ridged_solve(A: np.ndarray, b: np.ndarray, rel_ridge: float) -> np.ndarray:
    """Cholesky solve of ``(A + lambda I) x = b`` with ``lambda = rel_ridge * trace(A)/p``.

    A is (..., p, p) and b (..., p); each system of a stack gets its own
    lambda and its single-call arithmetic, so a batch and a loop agree to the
    last bit.  Raises ``LinAlgError`` if some shifted system is not definite.
    """
    p = b.shape[-1]
    scale = np.trace(A, axis1=-2, axis2=-1) / p
    L = np.linalg.cholesky(A + (rel_ridge * scale)[..., None, None] * np.eye(p))
    half = np.linalg.solve(L, b[..., None])
    return np.linalg.solve(np.swapaxes(L, -1, -2), half)[..., 0]


def _solve_spd(A: np.ndarray, b: np.ndarray, rel_ridge: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve the symmetric PSD systems ``(A + lambda I) x = b``, A (..., p, p) and b (..., p).

    ``lambda = rel_ridge * trace(A)/p``.  One batched Cholesky call factors the
    whole stack.  If it fails, each slice of the leading axis is solved on its
    own, down to single systems, so only a system that does not factor climbs
    the ridge ladder: its relative ridge escalates by factors of 10 up to
    ``RIDGE_MAX_REL`` (``rel_ridge=0`` enters the ladder at 1e-10).  Returns x
    and a boolean mask (...) of the systems solved; an unsolved system, one
    still singular at the top of the ladder, gets x = 0.
    """
    try:
        return _ridged_solve(A, b, rel_ridge), np.ones(b.shape[:-1], dtype=bool)
    except np.linalg.LinAlgError:
        pass
    if b.ndim > 1:
        x, solved = zip(*(_solve_spd(A[i], b[i], rel_ridge) for i in range(b.shape[0])))
        return np.array(x), np.array(solved)
    lam = rel_ridge
    while True:
        lam = 1e-10 if lam == 0 else lam * 10.0
        if lam > RIDGE_MAX_REL * 1.5:
            return np.zeros_like(b), np.False_
        try:
            return _ridged_solve(A, b, lam), np.True_
        except np.linalg.LinAlgError:
            pass


def _cluster_weights(n_r: np.ndarray, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized group weights (..., K, R) and their sums (..., K).

    ``w_rk = n_r tau_rk`` for cluster-major ``tau``; each cluster's row is
    divided by its sum ``w_plus``, and a row with no weight stays zero.
    """
    w = n_r.astype(float) * tau
    w_plus = w.sum(axis=-1)
    return w / np.where(w_plus > 0, w_plus, 1.0)[..., None], w_plus


def _empty_clusters(w_plus: np.ndarray, n_total: float) -> dict[int, EmptyClusterError]:
    """The error of each restart in a stack of pooled weights (S, K) that lost a cluster.

    A cluster is lost when its weight falls below ``1e-12 * n_total``; the
    error names the restart's lightest cluster.  Keys are stack positions.
    """
    lost = {}
    for s in np.flatnonzero((w_plus < EMPTY_CLUSTER_REL_TOL * n_total).any(axis=-1)):
        k = int(np.argmin(w_plus[s]))
        lost[int(s)] = EmptyClusterError(
            f"cluster {k} holds weight {w_plus[s, k]:.3e} of {n_total:.0f} observations"
        )
    return lost


def _pooled_systems(d: GroupedDataset, w_check: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normal-equation matrices (..., K, p, p) and right-hand sides (..., K, p).

    ``w_check`` holds the normalized weights (..., K, R) of `_cluster_weights`.
    """
    R, p = d.R, d.p
    pooled_sigma = w_check @ d.sigma_hat.reshape(R, p * p)
    return pooled_sigma.reshape(*w_check.shape[:-1], p, p), w_check @ d.rho_hat


def m_step_beta(
    stats: GroupedDataset, tau: Responsibilities, ridge: float = 1e-10
) -> NDArray[np.float64]:
    """Update coefficients: per-cluster weighted normal equations.

    With weights ``w_rk = n_r tau_rk`` normalized over groups to ``w_check``,
    cluster k solves

        (sum_r w_check[r, k] sigma_hat[r] + lambda I) beta_k
            = sum_r w_check[r, k] rho_hat[r]

    via a symmetric positive-definite factorization.  This equals the normal
    equations of a per-observation least squares problem where every
    observation of group r carries weight ``tau_rk``.  All K systems go
    through `_solve_spd` at ``lambda = ridge * trace/p``.

    Raises
    ------
    EmptyClusterError
        If some cluster's pooled weight ``sum_r w_rk`` falls below
        ``1e-12 * sum_r n_r``; the caller should abandon the restart.
    SingularSystemError
        If a system stays unfactorizable through the ridge escalation.
    """
    w_check, w_plus = _cluster_weights(stats.n_r, tau.tau.T)
    lost = _empty_clusters(w_plus[None], float(stats.n_r.sum()))
    if lost:
        raise lost[0]
    beta, solved = _solve_spd(*_pooled_systems(stats, w_check), ridge)
    if not solved.all():
        raise SingularSystemError(_SINGULAR)
    return beta.T


def _m_step_sigma2(w_check: np.ndarray, E: np.ndarray, floor: float) -> np.ndarray:
    """Noise variances (..., K) from normalized weights and mean squared residuals (..., K, R)."""
    return np.maximum(floor, np.einsum("...kr,...kr->...k", w_check, E))


def m_step_sigma2(
    d: GroupedDataset,
    tau: Responsibilities,
    beta: NDArray[np.float64],
    floor: float,
) -> NDArray[np.float64]:
    """Update noise variances: weighted average of mean squared residuals.

    ``sigma2_k = max(floor, sum_r w_check[r, k] * E_rk)`` where E_rk is group
    r's mean squared residual under the freshly updated beta, read off the
    dataset's cached triangular factors (`GroupedDataset.factors`).  The floor
    keeps every variance strictly positive even when a cluster interpolates
    its groups exactly.
    """
    w_check, _ = _cluster_weights(d.n_r, tau.tau.T)
    E = _mean_sq_residuals(d.factors, np.asarray(beta, dtype=float).T)
    return _m_step_sigma2(w_check, E, floor)


def _fill_empty_clusters(labels: np.ndarray, K: int, pick) -> np.ndarray:
    """Move into each empty cluster the group ``pick(donors, labels)`` chooses.

    ``donors`` are the groups whose cluster holds at least two, so a move never
    empties a cluster and one pass over the clusters empty at the start fills them.
    """
    labels = labels.copy()
    counts = np.bincount(labels, minlength=K)
    for k in np.flatnonzero(counts == 0):
        i = pick(np.flatnonzero(counts[labels] >= 2), labels)
        counts[labels[i]] -= 1
        labels[i] = k
        counts[k] += 1
    return labels


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (R, C) from each of R points to each of C centers."""
    return ((points[:, None, :] - centers) ** 2).sum(axis=2)


def _kmeans(points: np.ndarray, K: int, rng: np.random.Generator) -> np.ndarray:
    """Plain k-means with k-means++ seeding; returns labels with no empty cluster."""
    R = points.shape[0]
    centers = np.empty((K, points.shape[1]))
    centers[0] = points[rng.integers(R)]
    closest = _sq_dists(points, centers[:1])[:, 0]
    for j in range(1, K):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(R, p=closest / total)
        else:  # all points coincide with a chosen center
            idx = rng.integers(R)
        centers[j] = points[idx]
        closest = np.minimum(closest, _sq_dists(points, centers[j : j + 1])[:, 0])

    def farthest(donors, labels):  # the first donor farthest from its center in the current d2
        return donors[np.argmax(d2[donors, labels[donors]])]

    d2 = _sq_dists(points, centers)
    labels = d2.argmin(axis=1)
    for _ in range(KMEANS_ITERS):
        labels = _fill_empty_clusters(labels, K, farthest)
        for k in range(K):
            centers[k] = points[labels == k].mean(axis=0)
        d2 = _sq_dists(points, centers)
        new_labels = d2.argmin(axis=1)
        if (new_labels == labels).all():
            break
        labels = new_labels
    return _fill_empty_clusters(labels, K, farthest)


def _group_coefs(stats: GroupedDataset) -> np.ndarray:
    """Per-group ridge coefficients (R, p) that the k-means start clusters.

    Group r solves ``(sigma_hat_r + lambda I) c = rho_hat_r`` with
    ``lambda = 1e-6 * trace(sigma_hat_r)/p``.  They depend only on the
    dataset, so the first solve is kept on it for every later start of any
    fit; a failed one is not kept, so each start raises its own error.
    """
    if not hasattr(stats, "_group_coefs"):
        coefs, solved = _solve_spd(stats.sigma_hat, stats.rho_hat, GROUP_COEF_RIDGE_REL)
        if not solved.all():
            raise SingularSystemError(_SINGULAR)
        object.__setattr__(stats, "_group_coefs", _readonly(coefs))
    return stats._group_coefs


def init_responsibilities(
    R: int,
    K: int,
    strategy: InitStrategy = "random_hard",
    seed=None,
    stats: GroupedDataset | None = None,
) -> Responsibilities:
    """Draw an initial responsibility matrix.

    Strategies
    ----------
    random_soft
        Each row uniform on the probability simplex.
    random_hard
        Each group assigned one cluster uniformly at random, followed by a
        repair pass that guarantees every cluster owns at least one group.
    kmeans_on_group_coefs
        Solve a small ridge regression per group (ridge
        ``1e-6 * trace(sigma_hat_r)/p``), cluster the coefficient vectors with
        k-means (k-means++ seeding, 50 iterations), and convert the labels to
        indicator rows.  Requires ``stats``, the dataset whose coefficients
        are solved once and kept on it (see `_group_coefs`).

    Raises
    ------
    TooFewGroupsError
        If R < K under a hard strategy (indicator rows could not cover all
        clusters).
    """
    rng = np.random.default_rng(seed)
    if strategy == "random_soft":
        return Responsibilities(rng.dirichlet(np.ones(K), size=R))
    if R < K:
        raise TooFewGroupsError(f"{strategy} needs R >= K, got R={R}, K={K}")
    if strategy == "random_hard":
        labels = rng.integers(K, size=R)
        labels = _fill_empty_clusters(labels, K, lambda d, _: d[rng.integers(d.size)])
        return Responsibilities(np.eye(K)[labels])
    if strategy == "kmeans_on_group_coefs":
        if stats is None:
            raise ValueError("kmeans_on_group_coefs requires group stats")
        return Responsibilities(np.eye(K)[_kmeans(_group_coefs(stats), K, rng)])
    raise ValueError(f"unknown init strategy {strategy!r}")


def _abandon(outcomes: list, lost: dict, live: np.ndarray, *stacks: np.ndarray) -> tuple:
    """Record each lost restart's error and drop it from ``live`` and from every stack."""
    keep = np.ones(live.size, dtype=bool)
    for s, exc in lost.items():
        outcomes[live[s]] = exc
        keep[s] = False
    return live[keep], *(a[keep] for a in stacks)


def _run_restarts(
    d: GroupedDataset, cfg: EmConfig, strategy: InitStrategy, floor: float, seeds
) -> list[FitResult | GmrError]:
    """Run one EM restart per seed, all in lockstep; returns their outcomes in seed order.

    A restart that converges or reaches ``cfg.max_iter`` ends as a
    `FitResult`, its final state validated once as `ModelParams` and
    `Responsibilities` when it leaves the stack; one that empties a cluster
    or keeps a singular system through the ridge ladder of `_solve_spd` ends
    as that error.  Either way it leaves the active set.  Every product,
    factorization and reduction acts on one restart's slice of the stack, so
    a restart computes exactly what it would alone: the call with one seed
    is the one-restart fit.  Every restart starts through
    `init_responsibilities`; k-means starts solve the group coefficients
    once, kept on the dataset (`_group_coefs`).
    """
    outcomes: list = [None] * len(seeds)
    taus = []
    for i, seed in enumerate(seeds):
        try:
            taus.append(init_responsibilities(d.R, cfg.K, strategy, seed, stats=d).tau)
        except SingularSystemError as exc:
            outcomes[i] = exc
    live = np.flatnonzero([outcome is None for outcome in outcomes])
    if not taus:
        return outcomes
    # The memory keeps init's (S, R, K) order until the first E-step, as a
    # restart run alone would.
    tau = np.stack(taus).swapaxes(1, 2)
    n_total = float(d.n_r.sum())
    traces: list[list[float]] = [[] for _ in seeds]
    for t in range(1, cfg.max_iter + 1):
        pi = _m_step_pi(tau)
        w_check, w_plus = _cluster_weights(d.n_r, tau)
        lost = _empty_clusters(w_plus, n_total)
        if lost:
            live, tau, pi, w_check = _abandon(outcomes, lost, live, tau, pi, w_check)
        coefs, solved = _solve_spd(*_pooled_systems(d, w_check), cfg.ridge)
        if not solved.all():
            unsolved = np.flatnonzero(~solved.all(axis=-1))
            lost = {s: SingularSystemError(_SINGULAR) for s in unsolved}
            live, tau, pi, w_check, coefs = _abandon(
                outcomes, lost, live, tau, pi, w_check, coefs
            )
        E = _mean_sq_residuals(d.factors, coefs)
        sigma2 = _m_step_sigma2(w_check, E, floor)
        row_ll, posterior = _log_normalize(_log_joint(d.n_r, pi, sigma2, E), axis=-2)
        delta = np.abs(posterior - tau).max(axis=(1, 2))
        for i, ll in zip(live, row_ll.sum(axis=-1).tolist()):
            traces[i].append(ll)
        converged = delta < cfg.epsilon
        done = converged | (t == cfg.max_iter)
        for s in np.flatnonzero(done):
            trace = _readonly(traces[live[s]])
            outcomes[live[s]] = FitResult(
                params=ModelParams(pi=pi[s], beta=coefs[s].T, sigma2=sigma2[s]),
                tau=Responsibilities(posterior[s].T),
                group_ids=d.group_ids,
                log_likelihood=float(trace[-1]),
                n_iter=trace.size,
                converged=bool(converged[s]),
                ll_trace=trace,
            )
        live, tau = live[~done], posterior[~done]
        if not live.size:
            break
    return outcomes


def _variance_floor(d: GroupedDataset, cfg: EmConfig) -> float:
    """The sigma2 floor of a fit: ``cfg.sigma2_floor``, else ``1e-8 * var(y)`` over all rows.

    A constant response would zero the relative floor, so it then is 1e-8.  A
    given floor above var(y) is kept, with a warning: it likely holds every
    cluster's variance, so the fit barely moves from its start.
    """
    var_y = float(np.var(d.responses))
    if cfg.sigma2_floor is not None:
        if cfg.sigma2_floor > var_y:
            logger.warning(
                "sigma2_floor=%g exceeds the responses' variance %g", cfg.sigma2_floor, var_y
            )
        return cfg.sigma2_floor
    return VAR_FLOOR_REL * var_y if var_y > 0 else VAR_FLOOR_REL


def _min_cluster_groups(result: FitResult) -> float:
    """Groups' worth of responsibility in the lightest cluster, ``min_k sum_r tau_rk``."""
    return float(result.tau.tau.sum(axis=0).min())


def fit(d: GroupedDataset, cfg: EmConfig) -> FitResult:
    """Fit the mixture by EM with restarts; the best final log-likelihood wins.

    Each restart initializes responsibilities, then iterates the update cycle
    (pi, beta, sigma2, responsibilities) until the responsibility matrix moves
    less than ``cfg.epsilon`` in sup norm or ``cfg.max_iter`` is reached.  All
    restarts iterate in lockstep as one batched kernel over the restarts
    still active (see `_run_restarts`); each reaches exactly the result it
    would reach alone.  Restarts that lose a cluster or hit an unsolvable
    system leave the active set and are recorded and skipped.  ``K > R`` is
    allowed but cannot use a hard initialization, so such fits fall back to
    ``random_soft`` with a warning.

    The winner is the restart with the highest final log-likelihood among
    those without a spurious cluster, or among all restarts if every one has
    such a cluster.  A cluster is spurious when it holds less than
    ``MIN_CLUSTER_GROUPS`` (2.5) groups' worth of responsibility,
    ``sum_r tau_rk``: fewer than three groups to the nearest whole group.
    Its coefficients and variance are then mostly the least-squares fit of
    one or two groups, which scores their rows better than any regression
    shared with other groups could.  With a few rows per group such local
    maxima (one or two groups in a small-variance cluster, a wide-variance
    cluster absorbing the rest) beat the generating partition on likelihood
    while they cluster and predict worse.

    Nothing is validated inside the iterations; each restart's parameters
    and responsibilities are checked once, as `ModelParams` and
    `Responsibilities`, when it leaves the stack, and the winner is returned
    as it left.

    Raises
    ------
    AllRestartsFailedError
        If every restart was abandoned; carries the per-restart reasons.
    """
    compute_group_stats(d)
    strategy = cfg.init
    if cfg.K > d.R:
        logger.warning(
            "K=%d exceeds the number of groups R=%d; the posterior cannot "
            "populate every cluster",
            cfg.K,
            d.R,
        )
        if strategy in _HARD_STRATEGIES:
            logger.warning("falling back to random_soft initialization")
            strategy = "random_soft"
    floor = _variance_floor(d, cfg)

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_restarts)
    results: list[FitResult] = []
    failures: list[tuple[int, str]] = []
    for i, outcome in enumerate(_run_restarts(d, cfg, strategy, floor, seeds)):
        if isinstance(outcome, GmrError):
            logger.debug("restart %d abandoned: %s", i, outcome)
            failures.append((i, f"{type(outcome).__name__}: {outcome}"))
            continue
        logger.debug(
            "restart %d: ll=%.6f iters=%d converged=%s min_cluster_groups=%.2f",
            i,
            outcome.log_likelihood,
            outcome.n_iter,
            outcome.converged,
            _min_cluster_groups(outcome),
        )
        results.append(outcome)
    if not results:
        raise AllRestartsFailedError(failures)
    if failures:
        logger.info("%d of %d restarts abandoned", len(failures), cfg.n_restarts)
    sound = [r for r in results if _min_cluster_groups(r) >= MIN_CLUSTER_GROUPS]
    best = max(sound or results, key=lambda r: r.log_likelihood)
    top_ll = max(r.log_likelihood for r in results)
    if best.log_likelihood < top_ll:
        logger.debug(
            "passed over a spurious maximizer (ll=%.6f) for ll=%.6f", top_ll, best.log_likelihood
        )
    return best
