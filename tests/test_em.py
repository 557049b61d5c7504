"""EM engine: E-step, M-steps, initialization, and the full fit loop."""

import logging
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

import gmr.em as em
from gmr import (
    AllRestartsFailedError,
    EmConfig,
    EmptyClusterError,
    Group,
    GroupedDataset,
    ModelParams,
    Responsibilities,
    SimConfig,
    SingularSystemError,
    TooFewGroupsError,
    compute_group_stats,
    e_step,
    fit,
    generate,
    init_responsibilities,
    log_joint,
    log_marginal_likelihood,
    m_step_beta,
    m_step_pi,
    m_step_sigma2,
)


def make_dataset(groups):
    return GroupedDataset(tuple(Group(i, y, X) for i, (y, X) in enumerate(groups)))


def random_dataset(rng, R, p, n_lo=1, n_hi=6):
    groups = []
    for _ in range(R):
        n = int(rng.integers(n_lo, n_hi + 1))
        groups.append((rng.normal(size=n), rng.normal(size=(n, p))))
    return make_dataset(groups)


def random_tau(rng, R, K):
    raw = rng.dirichlet(np.ones(K), size=R)
    return Responsibilities(raw)


def brute_log_joint(d, params):
    """Per-observation reference: log pi_k + sum_i log phi(y_i; beta_k.x_i, sigma_k)."""
    R, K = d.R, params.K
    out = np.empty((R, K))
    for r, g in enumerate(d.groups):
        for k in range(K):
            mu = g.features @ params.beta[:, k]
            lp = scipy_stats.norm.logpdf(g.responses, mu, math.sqrt(params.sigma2[k]))
            with np.errstate(divide="ignore"):
                out[r, k] = np.log(params.pi[k]) + lp.sum()
    return out


# ---------------------------------------------------------------- log_joint


def test_log_joint_single_component_is_group_log_density():
    rng = np.random.default_rng(0)
    d = random_dataset(rng, R=3, p=2)
    params = ModelParams([1.0], rng.normal(size=(2, 1)), [1.7])
    lj = log_joint(compute_group_stats(d), params)
    assert_allclose(lj, brute_log_joint(d, params), rtol=1e-10, atol=1e-10)


def test_log_joint_identical_components_give_equal_columns():
    rng = np.random.default_rng(1)
    d = random_dataset(rng, R=4, p=2)
    b = rng.normal(size=2)
    params = ModelParams([0.5, 0.5], np.column_stack([b, b]), [2.0, 2.0])
    lj = log_joint(compute_group_stats(d), params)
    assert_allclose(lj[:, 0], lj[:, 1], atol=1e-12)


def test_log_joint_standard_normal_point():
    d = make_dataset([([0.0], [[1.0]])])
    params = ModelParams([1.0], [[0.0]], [1.0])
    lj = log_joint(compute_group_stats(d), params)
    # standard normal log-density at 0, checked against a scalar Gaussian oracle
    assert_allclose(lj[0, 0], -0.9189385332046727, atol=1e-12)
    assert_allclose(lj[0, 0], scipy_stats.norm.logpdf(0.0), atol=1e-12)


def test_log_joint_matches_per_observation_reference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        R, p, K = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d = random_dataset(rng, R, p)
        pi = rng.dirichlet(np.ones(K))
        params = ModelParams(pi, rng.normal(size=(p, K)), rng.uniform(0.5, 3.0, size=K))
        lj = log_joint(compute_group_stats(d), params)
        assert_allclose(lj, brute_log_joint(d, params), rtol=1e-9, atol=1e-9)


def test_log_joint_and_sigma2_stay_exact_at_large_response_offsets():
    # 20 groups of 8 rows with an intercept and noise sd 1e-3: the moment form
    # mean(y^2) - 2 rho'b + b' Sigma b cancels away every significant digit of
    # the mean squared residual (about 1e-6) once the responses sit at 1e5.
    rng = np.random.default_rng(19)
    for offset in (1e5, 1e6):
        truth = np.array([offset, 2.0])
        groups = []
        for _ in range(20):
            X = np.column_stack([np.ones(8), rng.normal(size=8)])
            groups.append((X @ truth + 1e-3 * rng.normal(size=8), X))
        d = make_dataset(groups)
        beta = np.column_stack([truth, truth + [2e-3, -1e-3]])
        params = ModelParams([0.5, 0.5], beta, [1e-6, 2e-6])
        lj = log_joint(compute_group_stats(d), params)
        assert_allclose(lj, brute_log_joint(d, params), rtol=0, atol=1e-4)

        tau = random_tau(rng, d.R, K=2)
        y, X, _ = d.stacked
        w = np.repeat(tau.tau, d.n_r, axis=0)
        direct = (w * (y[:, None] - X @ beta) ** 2).sum(axis=0) / w.sum(axis=0)
        assert_allclose(m_step_sigma2(d, tau, beta, floor=1e-300), direct, rtol=1e-6)


@pytest.mark.parametrize("R, K, p", [(40, 4, 4), (4000, 8, 8)])  # desk and large_pipeline shapes
@pytest.mark.parametrize("S", [1, 3, 10])
def test_mean_sq_residuals_of_a_stack_equal_each_restart_alone(R, K, p, S):
    # BLAS picks its kernel, and so its rounding, by matrix size: each
    # restart's residuals must not depend on how many restarts share its
    # stack, nor on whether the product goes to a fresh array or to a slice
    # of the kernel's buffer.
    rng = np.random.default_rng(R + S)
    d = compute_group_stats(random_dataset(rng, R=R, p=p, n_lo=1, n_hi=12))
    layout = em._constants(d).layout
    assert layout.shape == (p + 1, (p + 1) * R)
    coefs = rng.normal(size=(S, K, p))
    stacked = em._mean_sq_residuals(layout, coefs)
    buffered = em._mean_sq_residuals(layout, coefs, np.empty((S + 2, K, layout.shape[1]))[:S])
    assert stacked.shape == (S, K, R)
    y, X, offsets = d.stacked
    for s in range(S):
        alone = em._mean_sq_residuals(layout, coefs[s])
        assert (stacked[s] == alone).all() and (buffered[s] == alone).all()
        direct = np.add.reduceat((y[:, None] - X @ coefs[s].T) ** 2, offsets) / d.n_r[:, None]
        assert_allclose(alone, direct.T, rtol=1e-10)


@pytest.mark.parametrize("R, K, p", [(40, 4, 4), (4000, 8, 8)])  # desk and large_pipeline shapes
@pytest.mark.parametrize("S", [1, 3, 10])
def test_tau_products_of_a_stack_equal_each_restart_alone(R, K, p, S):
    # pi, the pooled weights and the pooled systems come from one product of
    # tau per restart, so they must not depend on how many restarts share the
    # stack, neither in init's (S, R, K) memory order nor in the E-step's.
    rng = np.random.default_rng(R + S)
    d = compute_group_stats(random_dataset(rng, R=R, p=p, n_lo=1, n_hi=12))
    c = em._constants(d)
    init_order = rng.dirichlet(np.ones(K), size=(S, R)).swapaxes(1, 2)
    for tau in (init_order, np.ascontiguousarray(init_order)):
        pi = em._m_step_pi(tau)
        w_plus, A, b = em._pooled_systems(c, tau)
        assert A.shape == (S, K, p, p) and b.shape == (S, K, p)
        for s in range(S):
            w_alone, A_alone, b_alone = em._pooled_systems(c, tau[s])
            assert (pi[s] == em._m_step_pi(tau[s])).all() and (w_plus[s] == w_alone).all()
            assert (A[s] == A_alone).all() and (b[s] == b_alone).all()
            w = d.n_r * tau[s]
            assert_allclose(w_alone, w.sum(axis=-1), rtol=1e-12)
            pooled = np.einsum("kr,rij->kij", w, d.sigma_hat) / w_alone[:, None, None]
            assert_allclose(A_alone, pooled, rtol=1e-10)
            assert_allclose(b_alone, w @ d.rho_hat / w_alone[:, None], rtol=1e-10)
            assert (A_alone == np.swapaxes(A_alone, -1, -2)).all()


# ------------------------------------------------------------------ e_step


def test_e_step_equal_evidence():
    tau = e_step(np.array([[0.0, 0.0]]))
    assert_allclose(tau.tau, [[0.5, 0.5]])


def test_e_step_dominated_component():
    tau = e_step(np.array([[0.0, -1e9]]))
    assert tau.tau[0, 0] == 1.0
    assert tau.tau[0, 1] <= 1e-300


def test_e_step_direct_normalization():
    tau = e_step(np.log(np.array([[2.0, 6.0]])))
    assert_allclose(tau.tau, [[0.25, 0.75]], atol=1e-15)


def test_e_step_rows_sum_to_one():
    rng = np.random.default_rng(3)
    lj = rng.normal(scale=50, size=(20, 4))
    tau = e_step(lj)
    assert_allclose(tau.tau.sum(axis=1), 1.0, atol=1e-12)


# ------------------------------------------------------- log marginal


def test_log_marginal_single_component():
    lj = np.array([[-1.5], [-2.5], [0.5]])
    assert_allclose(log_marginal_likelihood(lj), -3.5, atol=1e-12)


def test_log_marginal_additive_over_groups():
    rng = np.random.default_rng(4)
    lj = rng.normal(size=(3, 2))
    both = log_marginal_likelihood(np.vstack([lj, lj[1:2]]))
    assert_allclose(both, log_marginal_likelihood(lj) + log_marginal_likelihood(lj[1:2]))


def test_log_marginal_direct_sum():
    lj = np.log(np.array([[0.3, 0.2]]))
    assert_allclose(log_marginal_likelihood(lj), math.log(0.5), atol=1e-12)


# ---------------------------------------------------------------- m_step_pi


def test_m_step_pi_counting():
    tau = Responsibilities([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert_allclose(m_step_pi(tau), [2 / 3, 1 / 3])


def test_m_step_pi_uniform():
    tau = Responsibilities(np.full((5, 2), 0.5))
    assert_allclose(m_step_pi(tau), [0.5, 0.5])


def test_m_step_pi_column_means():
    tau = Responsibilities([[0.9, 0.1], [0.3, 0.7]])
    assert_allclose(m_step_pi(tau), [0.6, 0.4], atol=1e-15)


# -------------------------------------------------------------- m_step_beta


def brute_wls(d, tau, k):
    """Per-observation weighted least squares with weight tau[r, k] on group r."""
    y, X, _ = d.stacked
    w = np.repeat(tau.tau[:, k], d.n_r)
    A = (X * w[:, None]).T @ X
    b = (X * w[:, None]).T @ y
    return np.linalg.solve(A, b)


def test_m_step_beta_single_cluster_is_pooled_ols():
    rng = np.random.default_rng(5)
    d = random_dataset(rng, R=4, p=2, n_lo=2, n_hi=5)
    tau = Responsibilities(np.ones((4, 1)))
    beta = m_step_beta(compute_group_stats(d), tau, ridge=0.0)
    y, X, _ = d.stacked
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert_allclose(beta[:, 0], ols, rtol=1e-8, atol=1e-10)


def test_m_step_beta_recovers_noiseless_coefficients():
    rng = np.random.default_rng(6)
    p, K = 2, 2
    true = rng.normal(size=(p, K))
    groups, labels = [], [0, 1, 0, 1]
    for lab in labels:
        X = rng.normal(size=(4, p))
        groups.append((X @ true[:, lab], X))
    d = make_dataset(groups)
    tau = Responsibilities(np.eye(K)[labels])
    beta = m_step_beta(compute_group_stats(d), tau)
    assert_allclose(beta, true, atol=1e-8)


def test_m_step_beta_matches_weighted_ols_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        R, p = 3, 2
        d = random_dataset(rng, R, p, n_lo=2, n_hi=2)
        tau = random_tau(rng, R, K=2)
        beta = m_step_beta(compute_group_stats(d), tau, ridge=0.0)
        for k in range(2):
            assert_allclose(beta[:, k], brute_wls(d, tau, k), rtol=1e-9, atol=1e-9)


def test_m_step_beta_empty_cluster():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, R=3, p=1)
    tau = Responsibilities([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(EmptyClusterError):
        m_step_beta(compute_group_stats(d), tau)


def test_m_step_beta_singular_system():
    # all-zero features leave nothing for the relative ridge to scale
    d = make_dataset([([1.0, 2.0], [[0.0], [0.0]])])
    tau = Responsibilities(np.ones((1, 1)))
    with pytest.raises(SingularSystemError):
        m_step_beta(compute_group_stats(d), tau)


def test_m_step_beta_ridge_rescues_duplicate_columns():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(6, 1))
    d = make_dataset([(rng.normal(size=6), np.hstack([X, X]))])
    tau = Responsibilities(np.ones((1, 1)))
    beta = m_step_beta(compute_group_stats(d), tau)
    assert np.isfinite(beta).all()


def per_system_beta(stats, tau, ridge):
    """Reference for `m_step_beta`: each cluster's system through `_solve_spd`."""
    _, pooled_sigma, pooled_rho = em._pooled_systems(em._constants(stats), tau.tau.T)
    return np.column_stack(
        [em._solve_spd(pooled_sigma[k], pooled_rho[k], ridge)[0] for k in range(tau.K)]
    )


def test_m_step_beta_batched_solve_matches_per_system_ladder(monkeypatch):
    rng = np.random.default_rng(20)
    d = random_dataset(rng, R=12, p=3, n_lo=3, n_hi=8)
    stats = compute_group_stats(d)
    tau = random_tau(rng, d.R, K=4)
    for ridge in (1e-10, 0.0):
        assert_allclose(m_step_beta(stats, tau, ridge), per_system_beta(stats, tau, ridge),
                        rtol=1e-12, atol=0)

    # Cluster 1 owns four groups of four rows whose first two columns are the
    # same +-1 column, so its system is exactly singular (pivot 1 - 1 = 0):
    # the batched factorization raises and every system goes down the ladder.
    groups, labels = [], []
    for k in range(3):
        for _ in range(4):
            X = rng.normal(size=(4, 3))
            if k == 1:
                X[:, 1] = X[:, 0] = rng.choice([-1.0, 1.0], size=4)
            groups.append((rng.normal(size=4), X))
            labels.append(k)
    stats = compute_group_stats(make_dataset(groups))
    tau = Responsibilities(np.eye(3)[labels])
    expected = per_system_beta(stats, tau, 0.0)
    calls = []
    real = em._solve_spd
    monkeypatch.setattr(em, "_solve_spd", lambda *a: calls.append(a) or real(*a))
    assert_allclose(m_step_beta(stats, tau, ridge=0.0), expected, rtol=1e-12, atol=0)
    assert len([a for a in calls if a[0].ndim == 2]) == 3


def test_solve_spd_batch_matches_per_system_ladder(monkeypatch):
    # The k-means start's per-group systems: 60 groups, many with n_r < p, so
    # most moment matrices are rank deficient and only the ridge makes them
    # definite.
    rng = np.random.default_rng(21)
    stats = compute_group_stats(random_dataset(rng, R=60, p=4, n_lo=1, n_hi=8))
    assert (stats.n_r < 4).sum() >= 10
    ridge = em.GROUP_COEF_RIDGE_REL
    expected = np.array(
        [em._solve_spd(stats.sigma_hat[r], stats.rho_hat[r], ridge)[0] for r in range(60)]
    )
    calls = []
    real = em._solve_spd
    monkeypatch.setattr(em, "_solve_spd", lambda *a: calls.append(a) or real(*a))
    got, solved = em._solve_spd(stats.sigma_hat, stats.rho_hat, ridge)
    assert len(calls) == 1  # one batched factorization, no ladder
    assert solved.all()
    assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_solve_spd_marks_exactly_the_systems_the_ladder_cannot_save(monkeypatch):
    # An (S=3, K=2) stack of definite systems, except restart 1's second
    # system: all zeros, so no relative ridge makes it definite.
    rng = np.random.default_rng(24)
    M = rng.normal(size=(3, 2, 5, 3))
    A = np.swapaxes(M, -1, -2) @ M
    A[1, 1] = 0.0
    b = rng.normal(size=(3, 2, 3))
    for ridge in (0.0, 1e-10):
        x, solved = em._solve_spd(A, b, ridge)
        assert solved.tolist() == [[True, True], [True, False], [True, True]]
        for s in (0, 2):
            assert (x[s] == em._ridged_solve(A[s], b[s], ridge)).all()
        assert (x[1, 0] == em._ridged_solve(A[1, 0], b[1, 0], ridge)).all()
        assert (x[1, 1] == 0).all()

    # A ridge above the ladder's ceiling gets exactly one attempt.
    attempts = []
    real = em._ridged_solve
    monkeypatch.setattr(em, "_ridged_solve", lambda *a: attempts.append(a) or real(*a))
    x, solved = em._solve_spd(A[1, 0], b[1, 0], 1e-3)
    assert solved and len(attempts) == 1
    assert (x == real(A[1, 0], b[1, 0], 1e-3)).all()
    attempts.clear()
    x, solved = em._solve_spd(A[1, 1], b[1, 1], 1e-3)
    assert not solved and len(attempts) == 1
    assert (x == 0).all()


# ------------------------------------------------------------ m_step_sigma2


def test_m_step_sigma2_floor_on_exact_fit():
    rng = np.random.default_rng(10)
    true = np.array([[1.5], [-0.5]])
    groups = []
    for _ in range(3):
        X = rng.normal(size=(3, 2))
        groups.append((X @ true[:, 0], X))
    d = make_dataset(groups)
    tau = Responsibilities(np.ones((3, 1)))
    s2 = m_step_sigma2(d, tau, true, floor=1e-6)
    assert_allclose(s2, [1e-6])


def test_m_step_sigma2_mean_square():
    d = make_dataset([([1.0, -1.0], [[0.0], [0.0]])])
    tau = Responsibilities(np.ones((1, 1)))
    s2 = m_step_sigma2(d, tau, np.zeros((1, 1)), floor=1e-12)
    assert_allclose(s2, [1.0])


def test_m_step_sigma2_weighted_average():
    # groups with mean squared residuals 1 and 3 under beta = 0
    d = make_dataset(
        [
            ([1.0, -1.0], [[0.0], [0.0]]),
            ([math.sqrt(3), -math.sqrt(3)], [[0.0], [0.0]]),
        ]
    )
    tau = Responsibilities([[0.25, 0.75], [0.75, 0.25]])
    s2 = m_step_sigma2(d, tau, np.zeros((1, 2)), floor=1e-12)
    assert_allclose(s2, [2.5, 1.5], atol=1e-12)


# ----------------------------------------------------- init_responsibilities


def test_init_random_hard_one_hot_and_nonempty():
    for seed in range(10):
        tau = init_responsibilities(4, 2, strategy="random_hard", seed=seed)
        assert set(np.unique(tau.tau)) <= {0.0, 1.0}
        assert (tau.tau.sum(axis=0) > 0).all()


def test_init_random_soft_rows_sum_to_one():
    tau = init_responsibilities(6, 3, strategy="random_soft", seed=0)
    assert_allclose(tau.tau.sum(axis=1), 1.0, atol=1e-12)
    assert not np.isin(tau.tau, (0.0, 1.0)).all()


def test_init_hard_needs_enough_groups():
    with pytest.raises(TooFewGroupsError):
        init_responsibilities(2, 3, strategy="random_hard", seed=0)
    init_responsibilities(2, 3, strategy="random_soft", seed=0)


def test_init_kmeans_requires_stats():
    with pytest.raises(ValueError):
        init_responsibilities(4, 2, strategy="kmeans_on_group_coefs", seed=0)


def test_init_kmeans_recovers_separated_partition():
    rng = np.random.default_rng(12)
    true = np.array([[10.0, -10.0], [10.0, -10.0]])
    labels = [0, 0, 0, 1, 1, 1]
    groups = []
    for lab in labels:
        X = rng.normal(size=(6, 2))
        groups.append((X @ true[:, lab] + 0.01 * rng.normal(size=6), X))
    d = make_dataset(groups)
    stats = compute_group_stats(d)
    tau = init_responsibilities(6, 2, strategy="kmeans_on_group_coefs", seed=0, stats=stats)
    got = tau.hard_labels()

    # oracle: exhaustive enumeration of 2-partitions by k-means objective
    coefs = np.array([np.linalg.solve(stats.sigma_hat[r], stats.rho_hat[r]) for r in range(6)])
    best_cost, best_assign = np.inf, None
    for mask in range(1, 2**5):  # group 0 fixed to side 0
        assign = np.array([0] + [(mask >> i) & 1 for i in range(5)])
        if len(set(assign)) < 2:
            continue
        cost = sum(
            ((coefs[assign == c] - coefs[assign == c].mean(axis=0)) ** 2).sum()
            for c in (0, 1)
        )
        if cost < best_cost:
            best_cost, best_assign = cost, assign
    same = (got == best_assign).all() or (got == 1 - best_assign).all()
    assert same


def test_init_kmeans_zero_feature_group_raises_through_ladder(monkeypatch):
    # An all-zero feature group has a zero moment matrix, so the relative
    # ridge adds nothing: the batched factorization fails, the per-group
    # ladder escalates in vain and reports the singular system.
    rng = np.random.default_rng(22)
    groups = [(rng.normal(size=5), rng.normal(size=(5, 2))) for _ in range(5)]
    groups.append((rng.normal(size=3), np.zeros((3, 2))))
    stats = compute_group_stats(make_dataset(groups))
    calls = []
    real = em._solve_spd
    monkeypatch.setattr(em, "_solve_spd", lambda *a: calls.append(a) or real(*a))
    with pytest.raises(SingularSystemError):
        init_responsibilities(6, 2, strategy="kmeans_on_group_coefs", seed=0, stats=stats)
    assert len([a for a in calls if a[0].ndim == 2]) == 6


def test_kmeans_fills_the_clusters_that_coinciding_points_leave_empty():
    # Two distinct points give at most two nearest centers, so a third
    # non-empty cluster comes only from the fill; k-means++ often runs out of
    # distinct points before its third center.
    points = np.array([[0.0, 0.0]] * 6 + [[1.0, 1.0]] * 2)
    for seed in range(20):
        labels = em._kmeans(points, 3, np.random.default_rng(seed))
        assert np.bincount(labels, minlength=3).min() >= 1
        assert (em._kmeans(points, 3, np.random.default_rng(seed)) == labels).all()


def test_kmeans_starts_of_a_fit_share_one_solve_of_the_group_systems(monkeypatch):
    d, _ = generate(SimConfig(n=600, K=3, p=3, G=10, sigma=4.0, delta_beta=6.0, seed=4))
    solves, starts = [], []
    real_solve, real_init = em._solve_spd, em.init_responsibilities

    def solve(A, b, rel_ridge):
        if rel_ridge == em.GROUP_COEF_RIDGE_REL:
            solves.append(A)
        return real_solve(A, b, rel_ridge)

    def init(*args, **kwargs):
        starts.append((args, real_init(*args, **kwargs)))
        return starts[-1][1]

    monkeypatch.setattr(em, "_solve_spd", solve)
    monkeypatch.setattr(em, "init_responsibilities", init)
    cfg = EmConfig(K=3, n_restarts=5, init="kmeans_on_group_coefs", seed=8)
    fit(d, cfg)
    assert len(solves) == 1 and len(starts) == 5
    # Each restart starts through init_responsibilities with its own spawned seed.
    for (args, tau), child in zip(starts, np.random.SeedSequence(8).spawn(5)):
        R, K, strategy, seed = args
        assert (R, K, strategy) == (d.R, 3, "kmeans_on_group_coefs")
        assert (seed.entropy, seed.spawn_key) == (child.entropy, child.spawn_key)
        alone = real_init(d.R, 3, "kmeans_on_group_coefs", child, stats=d)
        assert np.array_equal(tau.tau, alone.tau)
    # The solve is kept on the dataset: a second fit solves nothing.
    fit(d, cfg)
    assert len(solves) == 1 and len(starts) == 10


def test_kmeans_starts_that_cannot_solve_the_group_systems_fail_every_restart():
    rng = np.random.default_rng(22)
    groups = [(rng.normal(size=5), rng.normal(size=(5, 2))) for _ in range(5)]
    groups.append((rng.normal(size=3), np.zeros((3, 2))))
    with pytest.raises(AllRestartsFailedError) as excinfo:
        fit(make_dataset(groups), EmConfig(K=2, n_restarts=3, init="kmeans_on_group_coefs"))
    assert [i for i, _ in excinfo.value.reasons] == [0, 1, 2]
    assert all(r.startswith("SingularSystemError") for _, r in excinfo.value.reasons)


# -------------------------------------------------------------------- fit


def test_fit_single_cluster_is_pooled_ols():
    rng = np.random.default_rng(13)
    d = random_dataset(rng, R=5, p=2, n_lo=3, n_hi=6)
    res = fit(d, EmConfig(K=1, seed=0))
    y, X, _ = d.stacked
    ols, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert_allclose(res.params.beta[:, 0], ols, rtol=1e-6, atol=1e-8)
    assert_allclose(res.params.pi, [1.0])
    assert_allclose(res.params.sigma2[0], np.mean((y - X @ ols) ** 2), rtol=1e-6)
    assert res.n_iter <= 2
    assert res.converged


def test_fit_noiseless_separable_toy():
    # two exact lines y=x and y=2x over four groups
    xs = [np.array([1.0, 2.0]), np.array([3.0, -1.0]), np.array([0.5, 2.5]), np.array([-2.0, 1.0])]
    slopes = [1.0, 1.0, 2.0, 2.0]
    d = make_dataset([(s * x, x[:, None]) for s, x in zip(slopes, xs)])
    res = fit(d, EmConfig(K=2, seed=0))
    hard = res.tau.hard_labels()
    assert hard[0] == hard[1] and hard[2] == hard[3] and hard[0] != hard[2]
    assert_allclose(np.sort(res.params.beta[0]), [1.0, 2.0], atol=1e-6)
    assert set(np.round(res.tau.tau.ravel(), 6)) <= {0.0, 1.0}


def test_fit_k_exceeding_groups_warns_and_runs(caplog):
    rng = np.random.default_rng(14)
    d = random_dataset(rng, R=2, p=1, n_lo=3, n_hi=5)
    with caplog.at_level(logging.WARNING, logger="gmr.em"):
        res = fit(d, EmConfig(K=3, seed=1))
    assert any("exceeds the number of groups" in m for m in caplog.messages)
    assert res.params.K == 3


def test_fit_ll_trace_monotone_and_final():
    rng = np.random.default_rng(15)
    d = random_dataset(rng, R=8, p=2, n_lo=3, n_hi=6)
    res = fit(d, EmConfig(K=2, seed=2))
    trace = res.ll_trace
    slack = 1e-8 * (1.0 + np.abs(trace[:-1]))
    assert (np.diff(trace) >= -slack).all()
    assert_allclose(trace[-1], res.log_likelihood)
    assert res.n_iter == len(trace)


def test_fit_deterministic_under_seed():
    rng = np.random.default_rng(16)
    d = random_dataset(rng, R=6, p=2, n_lo=2, n_hi=5)
    a = fit(d, EmConfig(K=2, seed=7))
    b = fit(d, EmConfig(K=2, seed=7))
    assert a.log_likelihood == b.log_likelihood
    assert (a.tau.tau == b.tau.tau).all()
    assert (a.params.beta == b.params.beta).all()


def test_fit_constant_response_uses_absolute_floor():
    d = make_dataset([(np.ones(4), np.ones((4, 1))), (np.ones(3), np.ones((3, 1)))])
    res = fit(d, EmConfig(K=1, seed=0))
    assert res.params.sigma2[0] == pytest.approx(1e-8)


def test_fit_all_restarts_failed():
    d = make_dataset([([1.0, 2.0], [[0.0], [0.0]]), ([3.0], [[0.0]])])
    with pytest.raises(AllRestartsFailedError) as exc_info:
        fit(d, EmConfig(K=1, n_restarts=2, seed=0))
    assert len(exc_info.value.reasons) == 2


def _restarts(d, cfg):
    """Every restart `fit` runs for ``cfg``, in order, each run alone; none abandoned."""
    compute_group_stats(d)
    floor = em._variance_floor(d, cfg)
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.n_restarts)
    return [em._run_restarts(d, cfg, cfg.init, floor, [c])[0] for c in children]


def test_fit_passes_over_spurious_maximizer():
    # Four clusters of five groups with eight rows each; the coefficient
    # vectors are tetrahedron corners 8 apart and the noise sd is 6.  The
    # highest likelihood among these restarts gives a cluster to one group.
    rng = np.random.default_rng(11)
    corners = np.array([[1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) * 4.0 / math.sqrt(2)
    groups = []
    for k in range(4):
        for _ in range(5):
            X = rng.normal(size=(8, 3))
            groups.append((X @ corners[:, k] + 6.0 * rng.normal(size=8), X))
    d = make_dataset(groups)
    cfg = EmConfig(K=4, n_restarts=4, seed=1)
    restarts = _restarts(d, cfg)
    top = max(restarts, key=lambda r: r.log_likelihood)
    assert top.tau.tau.sum(axis=0).min() < 1.5
    sound = [r for r in restarts if r.tau.tau.sum(axis=0).min() >= em.MIN_CLUSTER_GROUPS]
    expected = max(sound, key=lambda r: r.log_likelihood)

    res = fit(d, cfg)
    assert res.log_likelihood == expected.log_likelihood < top.log_likelihood
    assert (res.tau.tau == expected.tau.tau).all()


def test_fit_keeps_best_likelihood_when_every_restart_is_spurious():
    # Two clusters over four groups: one of them always holds two groups or fewer.
    rng = np.random.default_rng(18)
    d = random_dataset(rng, R=4, p=1, n_lo=3, n_hi=6)
    cfg = EmConfig(K=2, n_restarts=5, seed=3)
    restarts = _restarts(d, cfg)
    assert all(r.tau.tau.sum(axis=0).min() < em.MIN_CLUSTER_GROUPS for r in restarts)
    assert fit(d, cfg).log_likelihood == max(r.log_likelihood for r in restarts)


# ------------------------------------------------------- lockstep restarts


def _lockstep_and_alone(d, cfg):
    """`fit`'s restarts run together, and each one run alone, for ``cfg``."""
    compute_group_stats(d)
    strategy = "random_soft" if cfg.K > d.R else cfg.init  # fit's K > R fallback
    floor = em._variance_floor(d, cfg)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.n_restarts)
    together = em._run_restarts(d, cfg, strategy, floor, seeds)
    alone = [em._run_restarts(d, cfg, strategy, floor, [s])[0] for s in seeds]
    return together, alone


def _assert_same_outcome(a, b):
    assert type(a) is type(b)
    if not isinstance(a, em.FitResult):
        assert str(a) == str(b)
        return
    assert (a.ll_trace.size, a.converged) == (b.ll_trace.size, b.converged)
    assert_allclose(a.log_likelihood, b.log_likelihood, rtol=1e-12, atol=0)
    assert_allclose(a.tau.tau, b.tau.tau, rtol=0, atol=1e-12)


def _two_lines(seed, groups_per_line, rows, noise):
    # Groups of ``rows`` rows on the lines y = -3 x1 + 2 x2 and y = 3 x1 - 2 x2.
    rng = np.random.default_rng(seed)
    groups = []
    for b in ([-3.0, 2.0], [3.0, -2.0]):
        for _ in range(groups_per_line):
            X = rng.normal(size=(rows, 2))
            groups.append((X @ b + noise * rng.normal(size=rows), X))
    return make_dataset(groups)


@pytest.mark.parametrize("init", ["random_hard", "random_soft", "kmeans_on_group_coefs"])
def test_each_lockstep_restart_matches_its_run_alone(init):
    d, _ = generate(SimConfig(n=600, K=3, p=3, G=10, sigma=4.0, delta_beta=6.0, seed=4))
    together, alone = _lockstep_and_alone(d, EmConfig(K=3, n_restarts=10, init=init, seed=5))
    for a, b in zip(together, alone):
        _assert_same_outcome(a, b)
    # The restarts left the active set at different iterations.
    assert len({o.ll_trace.size for o in together}) >= 3


def test_each_lockstep_restart_matches_its_run_alone_when_k_exceeds_r():
    # Eight clusters over five groups run from random_soft starts; one
    # restart stops at max_iter.
    d = random_dataset(np.random.default_rng(1), R=5, p=2, n_lo=3, n_hi=8)
    together, alone = _lockstep_and_alone(d, EmConfig(K=8, n_restarts=10, seed=5))
    for a, b in zip(together, alone):
        _assert_same_outcome(a, b)
    assert [o.converged for o in together].count(False) == 1


def test_lockstep_restarts_do_not_depend_on_their_siblings():
    d, _ = generate(SimConfig(n=600, K=3, p=3, G=10, sigma=2.0, delta_beta=6.0, seed=4))
    compute_group_stats(d)
    floor = em._variance_floor(d, EmConfig(K=3))
    ten = em._run_restarts(d, EmConfig(K=3, n_restarts=10, seed=6), "random_hard", floor,
                           np.random.SeedSequence(6).spawn(10))
    three = em._run_restarts(d, EmConfig(K=3, n_restarts=3, seed=6), "random_hard", floor,
                             np.random.SeedSequence(6).spawn(3))
    for a, b in zip(ten[:3], three):
        assert (a.ll_trace == b.ll_trace).all() and a.converged == b.converged
        for name in ("pi", "beta", "sigma2"):
            assert (getattr(a.params, name) == getattr(b.params, name)).all()
        assert (a.tau.tau == b.tau.tau).all()


@pytest.mark.parametrize("init", ["random_hard", "random_soft", "kmeans_on_group_coefs"])
def test_one_kernel_iteration_equals_the_public_steps(init):
    # Each formula lives in one place: an iteration of the lockstep kernel
    # from tau_0 gives the bits of m_step_pi -> m_step_beta -> m_step_sigma2
    # -> log_joint -> e_step from the same tau_0.
    d, _ = generate(SimConfig(n=600, K=3, p=3, G=10, sigma=4.0, delta_beta=6.0, seed=4))
    compute_group_stats(d)
    cfg = EmConfig(K=4, n_restarts=3, max_iter=1, init=init, seed=5)
    floor = em._variance_floor(d, cfg)
    seeds = np.random.SeedSequence(5).spawn(3)
    for seed, out in zip(seeds, em._run_restarts(d, cfg, init, floor, seeds)):
        tau0 = init_responsibilities(d.R, cfg.K, init, seed, stats=d)
        pi = m_step_pi(tau0)
        beta = m_step_beta(d, tau0, cfg.ridge)
        sigma2 = m_step_sigma2(d, tau0, beta, floor)
        lj = log_joint(d, ModelParams(pi, beta, sigma2))
        assert (out.params.pi == pi).all() and (out.params.beta == beta).all()
        assert (out.params.sigma2 == sigma2).all()
        assert (out.tau.tau == e_step(lj).tau).all()
        assert out.log_likelihood == log_marginal_likelihood(lj)


def test_residual_products_in_chunks_change_no_restart(monkeypatch):
    # A large residual product is formed a few restarts at a time
    # (`PRODUCT_BYTES`); no restart's outcome may move by a bit.
    d, _ = generate(SimConfig(n=600, K=3, p=3, G=10, sigma=4.0, delta_beta=6.0, seed=4))
    compute_group_stats(d)
    cfg = EmConfig(K=3, n_restarts=5, init="random_soft", seed=6)
    floor = em._variance_floor(d, cfg)
    seeds = np.random.SeedSequence(6).spawn(5)
    whole = em._run_restarts(d, cfg, "random_soft", floor, seeds)
    assert len({o.n_iter for o in whole}) >= 3
    real = em._mean_sq_residuals
    for rows in (1, 2):
        sizes = []
        monkeypatch.setattr(em, "PRODUCT_BYTES", rows * 8 * cfg.K * (d.p + 1) * d.R)
        monkeypatch.setattr(em, "_mean_sq_residuals",
                            lambda *a: sizes.append(len(a[1])) or real(*a))
        for a, b in zip(whole, em._run_restarts(d, cfg, "random_soft", floor, seeds)):
            assert (a.ll_trace == b.ll_trace).all() and (a.tau.tau == b.tau.tau).all()
            for name in ("pi", "beta", "sigma2"):
                assert (getattr(a.params, name) == getattr(b.params, name)).all()
        assert max(sizes) == rows


def test_restart_that_empties_a_cluster_leaves_its_siblings_running(caplog):
    # Restarts 2 and 4 lose a cluster in their third iteration, after
    # restart 0 has converged, so they sit at stack positions 1 and 3; the
    # other four converge after 2 to 30 iterations.
    d = _two_lines(0, groups_per_line=3, rows=20, noise=0.01)
    cfg = EmConfig(K=3, n_restarts=6, init="random_soft", seed=0)
    together, alone = _lockstep_and_alone(d, cfg)
    for a, b in zip(together, alone):
        _assert_same_outcome(a, b)
    lost = [i for i, o in enumerate(together) if isinstance(o, EmptyClusterError)]
    assert lost == [2, 4]
    assert all(together[i].converged for i in (0, 1, 3, 5))
    assert together[0].ll_trace.size < 3
    short = EmConfig(K=3, n_restarts=6, init="random_soft", max_iter=2, seed=0)
    floor = em._variance_floor(d, cfg)
    seeds = np.random.SeedSequence(0).spawn(6)
    for i in lost:  # still running after two iterations
        assert isinstance(em._run_restarts(d, short, "random_soft", floor, [seeds[i]])[0],
                          em.FitResult)

    with caplog.at_level(logging.DEBUG, logger="gmr.em"):
        res = fit(d, cfg)
    abandoned = [m for m in caplog.messages if "abandoned:" in m]
    assert abandoned == [f"restart {i} abandoned: {together[i]}" for i in lost]
    best = max((o for o in together if isinstance(o, em.FitResult)),
               key=lambda o: o.log_likelihood)
    assert res.log_likelihood == best.log_likelihood
    assert (res.tau.tau == best.tau.tau).all()


def test_only_the_restart_with_a_singular_system_meets_the_ridge_ladder(monkeypatch):
    # Group 0's two feature columns are the same +-1 column, so a cluster
    # holding group 0 alone has an exactly singular system at ridge 0.
    rng = np.random.default_rng(23)
    x = rng.choice([-1.0, 1.0], size=4)
    groups = [(rng.normal(size=4), np.column_stack([x, x]))]
    groups += [(rng.normal(size=4), rng.normal(size=(4, 2))) for _ in range(5)]
    d = compute_group_stats(make_dataset(groups))
    cfg = EmConfig(K=2, n_restarts=4, seed=7, ridge=0.0, max_iter=1)
    seeds = np.random.SeedSequence(7).spawn(4)
    taus = [init_responsibilities(d.R, 2, "random_hard", s).tau for s in seeds]
    isolating = [i for i, t in enumerate(taus) if (t.argmax(axis=1) == t[0].argmax()).sum() == 1]
    assert len(isolating) == 1
    _, expected, _ = em._pooled_systems(em._constants(d), taus[isolating[0]].T)

    calls = []
    real = em._solve_spd
    monkeypatch.setattr(em, "_solve_spd", lambda *a: calls.append(a) or real(*a))
    together = em._run_restarts(d, cfg, "random_hard", 1e-8, seeds)
    calls = [a for a in calls if a[0].ndim == 2]
    assert len(calls) == 2
    for (A, _, _), A_k in zip(calls, expected):
        assert (A == A_k).all()
    monkeypatch.setattr(em, "_solve_spd", real)
    for s, outcome in zip(seeds, together):
        _assert_same_outcome(outcome, em._run_restarts(d, cfg, "random_hard", 1e-8, [s])[0])


def test_all_restarts_failed_reasons_keep_restart_order():
    # Every restart loses a cluster: restart 0 in its fourth iteration,
    # restarts 1 and 2 in their third.
    d = _two_lines(49, groups_per_line=3, rows=20, noise=0.01)
    cfg = EmConfig(K=3, n_restarts=3, init="random_soft", seed=49)
    together, _ = _lockstep_and_alone(d, cfg)
    with pytest.raises(AllRestartsFailedError) as exc_info:
        fit(d, cfg)
    assert exc_info.value.reasons == [
        (i, f"EmptyClusterError: {exc}") for i, exc in enumerate(together)
    ]


def test_fit_group_ids_follow_dataset_order():
    d = GroupedDataset(
        tuple(
            Group(name, [1.0, 2.0], [[1.0], [2.0]])
            for name in ("store-b", "store-a", "store-c")
        )
    )
    res = fit(d, EmConfig(K=1, seed=0))
    assert res.group_ids == ("store-b", "store-a", "store-c")


_RIDGE_SWAMPS_SLOPES = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the beta solve adds ridge * trace(S) / p to each pooled "
    "system S, which exceeds S's smallest eigenvalue once a feature carries a large "
    "offset or a much smaller scale, so the fitted slopes collapse toward 0",
)


@pytest.mark.parametrize(
    "offset, scale",
    [
        pytest.param(0.0, [1.0], id="offset-0"),
        pytest.param(1e3, [1.0], id="offset-1e3", marks=_RIDGE_SWAMPS_SLOPES),
        pytest.param(1e4, [1.0], id="offset-1e4", marks=_RIDGE_SWAMPS_SLOPES),
        pytest.param(1e6, [1.0], id="offset-1e6", marks=_RIDGE_SWAMPS_SLOPES),
        pytest.param(0.0, [1.0, 1e-6], id="scale-1e-6", marks=_RIDGE_SWAMPS_SLOPES),
    ],
)
def test_fit_slopes_are_exact_at_feature_offsets_and_scales(offset, scale):
    # 40 groups of 8 rows with features [1, offset + z * scale], z ~ N(0, I),
    # and responses 5 + 2 * sum(z) in the first 20 groups, 5 - 2 * sum(z) in
    # the rest, plus N(0, 0.1^2) noise.  Each fitted slope, times its column's
    # scale, must match least squares on its true cluster.
    rng = np.random.default_rng(1)
    scale = np.array(scale)
    groups = []
    for sign in np.repeat([2.0, -2.0], 20):
        z = rng.normal(size=(8, scale.size))
        X = np.column_stack([np.ones(8), offset + z * scale])
        groups.append((5.0 + sign * z.sum(axis=1) + 0.1 * rng.normal(size=8), X))
    exact = np.column_stack(
        [
            np.linalg.lstsq(
                np.vstack([X for _, X in half]), np.concatenate([y for y, _ in half]), rcond=None
            )[0]
            for half in (groups[:20], groups[20:])
        ]
    )
    beta = fit(make_dataset(groups), EmConfig(K=2, n_restarts=3, seed=1)).params.beta

    def slopes(b):  # in the units of z, clusters ordered by their first slope
        rescaled = b[1:] * scale[:, None]
        return rescaled[:, np.argsort(rescaled[0])]

    assert_allclose(slopes(beta), slopes(exact), rtol=0, atol=1e-3)


def test_em_config_validation():
    with pytest.raises(ValueError):
        EmConfig(K=0)
    with pytest.raises(ValueError):
        EmConfig(K=2, epsilon=0.0)
    with pytest.raises(ValueError):
        EmConfig(K=2, max_iter=0)
    with pytest.raises(ValueError):
        EmConfig(K=2, n_restarts=0)
    with pytest.raises(ValueError):
        EmConfig(K=2, init="nope")
    with pytest.raises(ValueError):
        EmConfig(K=2, sigma2_floor=0.0)


@pytest.mark.parametrize(
    "field, value", [("K", 2.0), ("max_iter", 2.5), ("n_restarts", True), ("seed", 1.5)]
)
def test_em_config_rejects_non_integer_counts(field, value):
    EmConfig(K=np.int64(2), max_iter=np.int32(5), seed=np.uint32(3))  # numpy integers pass
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        EmConfig(**{"K": 2, field: value})


@pytest.mark.parametrize(
    "field, value",
    [("epsilon", True), ("epsilon", None), ("ridge", "x"), ("sigma2_floor", False)],
)
def test_em_config_rejects_settings_that_are_not_numbers(field, value):
    EmConfig(K=2, epsilon=np.float32(1e-3), ridge=0, sigma2_floor=np.float64(1e-6))  # reals pass
    with pytest.raises(ValueError, match=f"^{field} must be a number$"):
        EmConfig(**{"K": 2, field: value})
