"""Hold-out baselines and cluster-count selection."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmr import (
    EmConfig,
    Group,
    GroupedDataset,
    NonFiniteError,
    SimConfig,
    baseline_mean,
    baseline_ols,
    fit,
    generate,
    predict_groups,
    rmse,
    select_k,
    train_test_split,
    validate_dataset,
)


def make_dataset(groups):
    return GroupedDataset(tuple(Group(i, y, X) for i, (y, X) in enumerate(groups)))


def test_baseline_mean_constant_responses():
    d = make_dataset([(np.full(4, 2.0), np.ones((4, 1)))])
    assert baseline_mean(d, d) == 0.0


def test_baseline_mean_hand_value():
    train = make_dataset([([1.0, -1.0], [[0.0], [0.0]])])
    test = make_dataset([([1.0, -1.0], [[0.0], [0.0]])])
    assert baseline_mean(train, test) == pytest.approx(1.0)


def test_baseline_mean_is_rmse_against_train_mean():
    rng = np.random.default_rng(0)
    train = make_dataset([(rng.normal(size=5), rng.normal(size=(5, 2)))])
    test = make_dataset([(rng.normal(size=4), rng.normal(size=(4, 2)))])
    mean = train.stacked[0].mean()
    expected = rmse(test.stacked[0], np.full(4, mean))
    assert baseline_mean(train, test) == pytest.approx(expected, rel=1e-12)


def test_baseline_ols_noiseless_single_cluster():
    rng = np.random.default_rng(1)
    beta = np.array([2.0, -1.0])
    groups = [(X @ beta, X) for X in (rng.normal(size=(5, 2)) for _ in range(3))]
    d = make_dataset(groups)
    assert baseline_ols(d, d) == pytest.approx(0.0, abs=1e-8)


def test_baseline_ols_equals_single_cluster_fit_pathway():
    rng = np.random.default_rng(2)
    groups = [(rng.normal(size=6), rng.normal(size=(6, 2))) for _ in range(4)]
    train = make_dataset(groups)
    test = make_dataset([(rng.normal(size=3), rng.normal(size=(3, 2))) for _ in range(2)])
    via_fit = fit(train, EmConfig(K=1, seed=0))
    preds = predict_groups(via_fit, test, on_unknown="prior")
    expected = rmse(preds.y_true, preds.y_pred)
    assert baseline_ols(train, test) == pytest.approx(expected, abs=1e-8)


def clustered_dataset(seed=3):
    cfg = SimConfig(n=240, K=2, p=2, G=6, sigma=1.0, delta_beta=8.0, seed=seed)
    return generate(cfg)[0]


def test_select_k_prefers_true_cluster_count():
    d = clustered_dataset()
    report = select_k(d, [1, 2, 3], cfg=EmConfig(K=1, n_restarts=4), n_reps=3, seed=4)
    assert report.best_k == 2
    assert report.best_mixture_k == 2
    assert report.k_grid == (1, 2, 3)
    assert set(report.rmse_by_k) == {0, 1, 2, 3}
    assert set(report.sd_by_k) == {0, 1, 2, 3}
    assert report.n_reps == 3
    assert all(v >= 0 for v in report.sd_by_k.values())


def test_select_k_grid_of_one_matches_ols_baseline():
    d = clustered_dataset(seed=5)
    report = select_k(d, [1], n_reps=3, seed=6)
    # mirror the internal split stream to rebuild the same repetitions
    scores = []
    for rep_seed in np.random.SeedSequence(6).spawn(3):
        children = rep_seed.spawn(2)
        train, test = train_test_split(d, 0.2, children[0])
        scores.append(baseline_ols(train, test))
    assert report.rmse_by_k[1] == pytest.approx(float(np.mean(scores)), abs=1e-8)


def test_select_k_single_cluster_data_stays_flat():
    rng = np.random.default_rng(7)
    beta = np.array([1.0, 2.0])
    groups = [
        (X @ beta + 0.5 * rng.normal(size=8), X)
        for X in (rng.normal(size=(8, 2)) for _ in range(6))
    ]
    d = make_dataset(groups)
    report = select_k(d, [1, 2, 3], cfg=EmConfig(K=1, n_restarts=3), n_reps=3, seed=8)
    vals = [report.rmse_by_k[k] for k in (1, 2, 3)]
    assert max(vals) - min(vals) < 0.5 * min(vals)


def test_select_k_deterministic_per_seed():
    d = clustered_dataset(seed=9)
    a = select_k(d, [1, 2], cfg=EmConfig(K=1, n_restarts=2), n_reps=2, seed=10)
    b = select_k(d, [1, 2], cfg=EmConfig(K=1, n_restarts=2), n_reps=2, seed=10)
    assert a.rmse_by_k == b.rmse_by_k
    assert a.sd_by_k == b.sd_by_k


def test_select_k_single_rep_sd_is_zero():
    d = clustered_dataset(seed=11)
    report = select_k(d, [2], cfg=EmConfig(K=1, n_restarts=2), n_reps=1, seed=12)
    assert report.sd_by_k[2] == 0.0


def test_select_k_rejects_bad_grid():
    d = clustered_dataset(seed=13)
    with pytest.raises(ValueError):
        select_k(d, [], seed=0)
    with pytest.raises(ValueError):
        select_k(d, [0, 2], seed=0)
    with pytest.raises(ValueError):
        select_k(d, [2], n_reps=0, seed=0)


def test_select_k_scans_its_dataset_once_and_no_split(monkeypatch):
    # select_k validates its dataset up front, and each split inherits the
    # pass: every fit, baseline_ols and prediction finds it remembered.
    import gmr.data
    import gmr.predict
    import gmr.select

    calls, scans = [], []
    real = gmr.data.validate_dataset

    def counting(d):
        calls.append(d)
        if not getattr(d, "_valid", False):
            scans.append(d)
        real(d)

    for module in (gmr.data, gmr.predict, gmr.select):
        monkeypatch.setattr(module, "validate_dataset", counting)
    d, _ = generate(SimConfig(n=600, K=2, p=2, G=10, sigma=1.0, delta_beta=6.0, seed=0))
    select_k(d, [2, 3], EmConfig(K=1, n_restarts=2), n_reps=2, seed=0)
    assert len(calls) == 1 + 2 * (3 + 2)  # d; per rep: baseline_ols and two fits, two predictions
    assert scans == [d]


def test_a_split_inherits_validity_and_an_invalid_one_is_still_refused():
    y = np.arange(8.0)
    d = make_dataset([(y, np.ones((8, 1))), (y + 1.0, np.ones((8, 1)))])
    validate_dataset(d)
    assert all(half._valid for half in train_test_split(d, 0.5, seed=0))

    y[1] = np.nan  # a new dataset, never validated
    d = make_dataset([(y, np.ones((8, 1))), (y + 1.0, np.ones((8, 1)))])
    halves = train_test_split(d, 0.5, seed=0)
    assert not any(getattr(half, "_valid", False) for half in halves)
    (bad,) = [h for h in halves if np.isnan(h.groups[0].responses).any()]
    with pytest.raises(NonFiniteError, match="contains NaN"):
        validate_dataset(bad)
    with pytest.raises(NonFiniteError, match="contains NaN"):
        select_k(d, [2], EmConfig(K=1, n_restarts=1), n_reps=1, seed=0)
