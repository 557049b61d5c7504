"""Posterior-predictive density and point predictions."""

import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

from gmr import (
    DimensionMismatchError,
    EmConfig,
    FitResult,
    Group,
    GroupedDataset,
    ModelParams,
    NonFiniteError,
    Responsibilities,
    SimConfig,
    UnknownGroupError,
    fit,
    generate,
    map_predict_fmr,
    map_predict_gmr,
    predict_groups,
    predictive_density,
    train_test_split,
)
from gmr.io import read_model_json, write_model_json
from gmr.predict import BLOCK_ROWS


def two_cluster_params():
    return ModelParams([0.6, 0.4], [[1.0, -1.0], [0.5, 2.0]], [1.0, 4.0])


def test_density_one_hot_is_single_gaussian():
    params = two_cluster_params()
    x = np.array([2.0, -1.0])
    mix = predictive_density(params, [0.0, 1.0], x)
    mu = float(x @ params.beta[:, 1])
    ys = np.linspace(-5, 5, 9)
    assert_allclose(mix.log_density(ys), scipy_stats.norm.logpdf(ys, mu, 2.0), atol=1e-12)
    assert_allclose(mix.mean(), mu)


def test_density_prior_posterior_matches_fmr_mixture():
    params = two_cluster_params()
    x = np.array([1.0, 1.0])
    mix = predictive_density(params, params.pi, x)
    assert_allclose(mix.weights, params.pi)
    assert_allclose(mix.mean(), map_predict_fmr(params, x))


def test_density_half_half_value():
    params = ModelParams([0.5, 0.5], [[0.0, 2.0]], [1.0, 1.0])
    mix = predictive_density(params, [0.5, 0.5], [1.0])
    # phi(1)*0.5 + phi(-1)*0.5 = phi(1), standard normal pdf oracle
    assert_allclose(mix.density(1.0), 0.24197072451914337, atol=1e-15)


def test_density_integrates_to_one():
    params = two_cluster_params()
    mix = predictive_density(params, [0.3, 0.7], [1.0, 2.0])
    ys = np.linspace(-40, 40, 20001)
    total = np.trapezoid(mix.density(ys), ys)
    assert_allclose(total, 1.0, atol=1e-8)


def test_density_shape_checks():
    params = two_cluster_params()
    with pytest.raises(DimensionMismatchError):
        predictive_density(params, [1.0], [1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        predictive_density(params, [0.5, 0.5], [1.0, 2.0, 3.0])


def test_map_gmr_one_hot():
    params = two_cluster_params()
    x = np.array([3.0, 1.0])
    assert_allclose(map_predict_gmr(params, [1.0, 0.0], x), x @ params.beta[:, 0])


def test_map_gmr_average():
    params = ModelParams([0.5, 0.5], [[0.0, 4.0]], [1.0, 1.0])
    assert_allclose(map_predict_gmr(params, [0.5, 0.5], [1.0]), 2.0)


def test_map_gmr_weighted_sum():
    params = ModelParams([0.5, 0.5], [[1.0, -1.0]], [1.0, 1.0])
    assert_allclose(map_predict_gmr(params, [0.25, 0.75], [1.0]), -0.5, atol=1e-15)


def test_map_gmr_matrix_input():
    params = two_cluster_params()
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    got = map_predict_gmr(params, [0.3, 0.7], X)
    assert got.shape == (3,)
    for i in range(3):
        assert_allclose(got[i], map_predict_gmr(params, [0.3, 0.7], X[i]))


def test_map_fmr_single_cluster():
    params = ModelParams([1.0], [[2.0], [1.0]], [1.0])
    assert_allclose(map_predict_fmr(params, [1.0, 3.0]), 5.0)


def test_map_fmr_symmetry():
    params = ModelParams([0.5, 0.5], [[3.0, -3.0]], [1.0, 1.0])
    assert_allclose(map_predict_fmr(params, [1.0]), 0.0, atol=1e-15)


def test_map_fmr_weighted_sum():
    params = ModelParams([0.6, 0.4], [[5.0, 0.0]], [1.0, 1.0])
    assert_allclose(map_predict_fmr(params, [1.0]), 3.0, atol=1e-15)


def test_map_gmr_at_prior_equals_fmr():
    rng = np.random.default_rng(0)
    for _ in range(10):
        p, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        pi = rng.dirichlet(np.ones(K))
        params = ModelParams(pi, rng.normal(size=(p, K)), rng.uniform(0.5, 2.0, size=K))
        x = rng.normal(size=p)
        assert_allclose(
            map_predict_gmr(params, pi, x), map_predict_fmr(params, x), atol=1e-12
        )


def noiseless_fit():
    xs = [
        np.array([1.0, 2.0, -1.0]),
        np.array([3.0, -1.0, 0.5]),
        np.array([0.5, 2.5, 1.5]),
        np.array([-2.0, 1.0, 4.0]),
    ]
    slopes = [1.0, 1.0, 2.0, 2.0]
    groups = tuple(
        Group(f"g{i}", s * x, x[:, None]) for i, (s, x) in enumerate(zip(slopes, xs))
    )
    d = GroupedDataset(groups)
    return d, fit(d, EmConfig(K=2, seed=0))


def test_predict_groups_recovers_training_responses():
    d, res = noiseless_fit()
    preds = predict_groups(res, d, on_unknown="error")
    assert_allclose(preds.y_pred, preds.y_true, atol=1e-6)
    assert preds.group == ("g0",) * 3 + ("g1",) * 3 + ("g2",) * 3 + ("g3",) * 3
    assert not preds.used_fallback.any()
    assert np.isfinite(preds.log_density).all()


def test_predict_groups_unknown_group_raises():
    d, res = noiseless_fit()
    new = GroupedDataset((Group("new", [1.0], [[1.0]]),))
    with pytest.raises(UnknownGroupError):
        predict_groups(res, new, on_unknown="error")


def test_predict_groups_prior_fallback_matches_fmr():
    d, res = noiseless_fit()
    new = GroupedDataset((Group("new", [1.0, 2.0], [[1.0], [2.0]]),))
    preds = predict_groups(res, new, on_unknown="prior")
    assert preds.used_fallback.all()
    expected = map_predict_fmr(res.params, np.array([[1.0], [2.0]]))
    assert_allclose(preds.y_pred, expected, atol=1e-12)


def test_predict_groups_log_density_matches_mixture():
    d, res = noiseless_fit()
    preds = predict_groups(res, d, on_unknown="error")
    tau_row = res.tau.tau[0]
    x = d.groups[0].features[0]
    y = d.groups[0].responses[0]
    mix = predictive_density(res.params, tau_row, x)
    assert_allclose(preds.log_density[0], mix.log_density(float(y)), atol=1e-12)


def test_predict_groups_rejects_wrong_width():
    d, res = noiseless_fit()
    bad = GroupedDataset((Group("g0", [1.0], [[1.0, 2.0]]),))
    with pytest.raises(DimensionMismatchError):
        predict_groups(res, bad, on_unknown="error")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("cell", ["responses", "features"])
def test_predict_groups_rejects_non_finite_test_cells(bad, cell):
    d, res = noiseless_fit()
    y, X = np.array([1.0, 2.0]), np.array([[1.0], [2.0]])
    (y if cell == "responses" else X)[1] = bad
    test = GroupedDataset((Group("g0", y, X),))
    with pytest.raises(NonFiniteError, match="group 'g0' contains NaN or infinite values"):
        predict_groups(res, test, on_unknown="error")


def block_fixture():
    """A fit over 1500 groups and a test set that exercises every blocking case.

    The test set holds 1-row groups, more rows of one size (3) than a block
    holds, a group larger than a block, unknown ids mixed in, and the known
    groups in a different order from the fit's.  The posteriors are stored in
    Fortran order, as `fit` leaves them.
    """
    rng = np.random.default_rng(7)
    K, p = 3, 2
    params = ModelParams(rng.dirichlet(np.ones(K)), rng.normal(size=(p, K)), [0.5, 1.0, 2.0])
    ids = tuple(f"g{i}" for i in range(1500))
    tau = np.asfortranarray(rng.dirichlet(np.ones(K), size=len(ids)))
    res = FitResult(params, Responsibilities(tau), ids, 0.0, 1, True, None)
    sizes = [3] * 1400 + [1] * 30 + [7] * 5 + [BLOCK_ROWS + 5]
    names = list(rng.permutation(ids)[: len(sizes)])
    for j in rng.choice(len(sizes), size=25, replace=False):
        names[j] = f"new{j}"
    groups = tuple(
        Group(name, rng.normal(size=n), rng.normal(size=(n, p)))
        for name, n in zip(names, rng.permutation(sizes))
    )
    return res, GroupedDataset(groups)


def test_blocked_predictions_equal_each_group_predicted_alone():
    res, test = block_fixture()
    assert 3 * int((test.n_r == 3).sum()) > BLOCK_ROWS
    preds = predict_groups(res, test, on_unknown="prior")
    start = 0
    for g in test.groups:
        alone = predict_groups(res, GroupedDataset((g,)), on_unknown="prior")
        part = slice(start, start + g.n)
        assert np.array_equal(preds.y_pred[part], alone.y_pred)
        assert np.array_equal(preds.log_density[part], alone.log_density)
        assert np.array_equal(preds.y_true[part], g.responses)
        assert preds.group[part] == (g.id,) * g.n
        assert (preds.used_fallback[part] == g.id.startswith("new")).all()
        start += g.n
    assert start == len(preds.group) == preds.y_pred.size == test.n


def test_predict_groups_error_names_first_unknown_id_in_test_order():
    res, test = block_fixture()
    first = next(g.id for g in test.groups if g.id.startswith("new"))
    with pytest.raises(UnknownGroupError) as excinfo:
        predict_groups(res, test, on_unknown="error")
    assert excinfo.value.args == (first,)


def test_fit_and_its_model_json_predict_the_same_bits(tmp_path):
    path = tmp_path / "model.json"
    for seed in range(10):
        d, _ = generate(SimConfig(n=200, K=4, p=4, G=10, sigma=6.0, delta_beta=8.0, seed=seed))
        train, test = train_test_split(d, 0.2, seed)
        assert (test.n_r == 1).all()
        res = fit(train, EmConfig(K=4, seed=seed))
        write_model_json(res, path)
        in_memory = predict_groups(res, test)
        from_json = predict_groups(read_model_json(path), test)
        assert np.array_equal(in_memory.y_pred, from_json.y_pred)
        assert np.array_equal(in_memory.log_density, from_json.log_density)


def test_predict_groups_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(3)
    K, p, n_g = 4, 3, 50
    R = 25 * BLOCK_ROWS // n_g  # 25 blocks of 50-row groups
    ids = tuple(f"g{i}" for i in range(R))
    params = ModelParams(np.full(K, 1 / K), rng.normal(size=(p, K)), np.ones(K))
    res = FitResult(params, Responsibilities(rng.dirichlet(np.ones(K), size=R)), ids,
                    0.0, 1, True, None)
    test = GroupedDataset(
        tuple(Group(i, rng.normal(size=n_g), rng.normal(size=(n_g, p))) for i in ids)
    )
    test.n_r  # cached on the dataset, not counted against predict_groups
    tracemalloc.start()
    try:
        preds = predict_groups(res, test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (preds.y_true, preds.y_pred, preds.log_density,
                                     preds.used_fallback)) + sys.getsizeof(preds.group)
    # Beyond the outputs: a few arrays of one block's rows (features, means,
    # the density's temporaries), and per test group its posterior row and
    # its entry in the id lookup.  An (n, K) array alone would take 3.3 MB.
    block_bound = 8 * BLOCK_ROWS * (p + K) * 8
    assert test.n >= 20 * BLOCK_ROWS
    assert peak < outputs + block_bound + 256 * R, (peak, outputs)
