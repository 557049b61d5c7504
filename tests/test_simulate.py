"""Synthetic benchmark generation."""

import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmr import (
    Group,
    GroupedDataset,
    GroupTooSmallError,
    InfeasibleError,
    SimConfig,
    TooManyGroupsError,
    generate,
    partition_groups,
    simplex_betas,
    train_test_split,
    wishart_covariance,
)
from gmr.simulate import _haar_rotation, _test_rows


def test_config_rejects_unembeddable_simplex():
    with pytest.raises(InfeasibleError):
        SimConfig(n=100, K=4, p=2, G=5, sigma=1.0, delta_beta=1.0)


def test_config_rejects_too_few_observations():
    with pytest.raises(TooManyGroupsError):
        SimConfig(n=5, K=2, p=2, G=3, sigma=1.0, delta_beta=1.0)


def test_config_rejects_bad_scalars():
    with pytest.raises(ValueError):
        SimConfig(n=100, K=2, p=2, G=5, sigma=-1.0, delta_beta=1.0)
    with pytest.raises(ValueError):
        SimConfig(n=100, K=2, p=2, G=0, sigma=1.0, delta_beta=1.0)
    with pytest.raises(ValueError):
        SimConfig(n=100, K=2, p=2, G=5, sigma=1.0, delta_beta=1.0, wishart_df=1)


@pytest.mark.parametrize(
    "field, value", [("n", 100.0), ("G", 5.5), ("p", True), ("wishart_df", 4.0), ("seed", 1.5)]
)
def test_config_rejects_non_integer_counts(field, value):
    good = dict(n=100, K=2, p=2, G=5, sigma=1.0, delta_beta=1.0)
    SimConfig(**{**good, "n": np.int64(100), "seed": np.uint32(3)})  # numpy integers pass
    with pytest.raises(ValueError, match=f"^{field} must be an integer$"):
        SimConfig(**{**good, field: value})


@pytest.mark.parametrize(
    "field, value", [("sigma", True), ("sigma", "x"), ("delta_beta", None), ("delta_beta", False)]
)
def test_config_rejects_floats_that_are_not_numbers(field, value):
    good = dict(n=100, K=2, p=2, G=5, sigma=1.0, delta_beta=1.0)
    SimConfig(**{**good, "sigma": np.float32(1.5), "delta_beta": 2})  # numpy and Python reals pass
    with pytest.raises(ValueError, match=f"^{field} must be a number$"):
        SimConfig(**{**good, field: value})


def test_simplex_antipodal_pair():
    b = simplex_betas(2, 3, 6.0, seed=0)
    assert_allclose(b[:, 0], -b[:, 1], atol=1e-9)
    assert_allclose(np.linalg.norm(b[:, 0] - b[:, 1]), 6.0, atol=1e-9)
    assert_allclose(np.linalg.norm(b, axis=0), 3.0, atol=1e-9)


def test_simplex_equilateral_triangle():
    b = simplex_betas(3, 2, 3.0, seed=1)
    for i in range(3):
        for j in range(i + 1, 3):
            assert_allclose(np.linalg.norm(b[:, i] - b[:, j]), 3.0, atol=1e-9)
    # circumradius of an equilateral triangle with side 3 is sqrt(3)
    assert_allclose(np.linalg.norm(b, axis=0), np.sqrt(3.0), atol=1e-9)


def test_simplex_gram_distance_matrix():
    for K, p in [(2, 1), (2, 5), (3, 4), (4, 3), (5, 4)]:
        b = simplex_betas(K, p, 2.5, seed=K + p)
        sq = ((b.T[:, None, :] - b.T[None, :, :]) ** 2).sum(axis=2)
        expected = 2.5**2 * (1.0 - np.eye(K))
        assert_allclose(sq, expected, atol=1e-9)


def test_simplex_single_cluster_is_origin():
    assert_allclose(simplex_betas(1, 3, 5.0, seed=0), np.zeros((3, 1)))


def test_simplex_deterministic_per_seed():
    a = simplex_betas(3, 5, 1.0, seed=9)
    b = simplex_betas(3, 5, 1.0, seed=9)
    c = simplex_betas(3, 5, 1.0, seed=10)
    assert (a == b).all()
    assert not np.allclose(a, c)


@pytest.mark.parametrize("p", range(1, 13))
def test_haar_rotation_is_a_reproducible_rotation(p):
    for seed in (0, 1, 7, 123, 2**31):
        q = _haar_rotation(p, np.random.default_rng(seed))
        assert q.shape == (p, p)
        assert_allclose(q @ q.T, np.eye(p), rtol=0, atol=1e-12)
        assert abs(np.linalg.det(q) - 1.0) <= 1e-12
        assert q.tobytes() == _haar_rotation(p, np.random.default_rng(seed)).tobytes()


def test_wishart_is_correlation_matrix():
    for p in (1, 2, 5):
        s = wishart_covariance(p, df=p + 2, seed=p)
        assert_allclose(np.diag(s), np.ones(p), atol=1e-12)
        assert_allclose(s, s.T, atol=1e-15)
        assert np.linalg.eigvalsh(s).min() > 0


def test_wishart_p1_is_unit():
    assert_allclose(wishart_covariance(1, df=3, seed=0), [[1.0]])


def test_partition_even():
    assert partition_groups(40, 10).tolist() == [4] * 10


def test_partition_remainder_to_lowest_indices():
    assert partition_groups(43, 10).tolist() == [5, 5, 5, 4, 4, 4, 4, 4, 4, 4]


def test_partition_rejects_more_groups_than_observations():
    with pytest.raises(TooManyGroupsError):
        partition_groups(3, 4)


def test_generate_shapes_and_labels():
    cfg = SimConfig(n=90, K=3, p=3, G=4, sigma=1.0, delta_beta=2.0, seed=5)
    d, truth = generate(cfg)
    assert d.R == 12
    assert d.p == 3
    assert d.n == 90
    assert truth.labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    assert truth.beta_true.shape == (3, 3)
    assert truth.sigma_true.tolist() == [1.0] * 3
    assert d.group_ids == tuple(f"g{i}" for i in range(12))


def test_generate_noiseless_lies_on_cluster_planes():
    cfg = SimConfig(n=60, K=2, p=2, G=3, sigma=0.0, delta_beta=4.0, seed=6)
    d, truth = generate(cfg)
    for r, g in enumerate(d.groups):
        k = truth.labels[r]
        assert_allclose(g.responses, g.features @ truth.beta_true[:, k], atol=1e-10)


def test_generate_feature_covariance_converges():
    cfg = SimConfig(n=100_000, K=1, p=3, G=1, sigma=1.0, delta_beta=1.0, seed=7)
    d, truth = generate(cfg)
    X = d.stacked[1]
    emp = (X.T @ X) / X.shape[0]
    assert_allclose(emp, truth.Sigma_x, atol=0.02)


def test_generate_noise_scale_is_a_standard_deviation():
    cfg = SimConfig(n=200_000, K=1, p=2, G=1, sigma=3.0, delta_beta=1.0, seed=8)
    d, truth = generate(cfg)
    resid = d.groups[0].responses - d.groups[0].features @ truth.beta_true[:, 0]
    assert resid.std() == pytest.approx(3.0, rel=0.02)


def test_generate_deterministic_per_seed():
    cfg = SimConfig(n=40, K=2, p=2, G=2, sigma=1.0, delta_beta=3.0, seed=11)
    d1, t1 = generate(cfg)
    d2, t2 = generate(cfg)
    assert (d1.stacked[0] == d2.stacked[0]).all()
    assert (d1.stacked[1] == d2.stacked[1]).all()
    assert (t1.beta_true == t2.beta_true).all()
    d3, _ = generate(SimConfig(n=40, K=2, p=2, G=2, sigma=1.0, delta_beta=3.0, seed=12))
    assert not np.allclose(d1.stacked[0], d3.stacked[0])


def test_generate_uneven_total():
    cfg = SimConfig(n=103, K=2, p=2, G=5, sigma=1.0, delta_beta=2.0, seed=13)
    d, _ = generate(cfg)
    assert d.n == 103
    assert d.R == 10
    assert max(d.n_r) - min(d.n_r) <= 2  # one remainder step per level


def _groups_of_sizes(sizes, seed):
    rng = np.random.default_rng(seed)
    return GroupedDataset(tuple(
        Group(f"g{i}", rng.standard_normal(n), rng.standard_normal((n, 2)))
        for i, n in enumerate(sizes)
    ))


def _split_indices_by_loop(d, test_frac, seed):
    """Train and test row indices of each group, drawn one group at a time."""
    rng = np.random.default_rng(seed)
    halves = []
    for g in d.groups:
        m = min(max(int(round(test_frac * g.n)), 1), g.n - 1)
        perm = rng.permutation(g.n)
        halves.append((np.sort(perm[m:]), np.sort(perm[:m])))
    return halves


def test_split_clamps_tiny_groups():
    cfg = SimConfig(n=8, K=2, p=1, G=2, sigma=1.0, delta_beta=2.0, seed=14)
    d, _ = generate(cfg)
    assert d.n_r.tolist() == [2, 2, 2, 2]
    train, test = train_test_split(d, 0.2, seed=0)
    assert train.n_r.tolist() == [1, 1, 1, 1]
    assert test.n_r.tolist() == [1, 1, 1, 1]
    sizes = [2, 3, 5, 7]
    d = _groups_of_sizes(sizes, seed=14)
    for test_frac, held_out in ((0.01, [1, 1, 1, 1]), (0.5, [1, 2, 2, 4]), (0.99, [1, 2, 4, 6])):
        train, test = train_test_split(d, test_frac, seed=0)
        assert test.n_r.tolist() == held_out
        assert train.n_r.tolist() == [n - m for n, m in zip(sizes, held_out)]


@pytest.mark.parametrize("test_frac", [0.01, 0.25, 0.5, 0.99])
def test_split_reproduces_the_per_group_draw(test_frac):
    d = _groups_of_sizes([2, 3, 5, 7, 7, 5, 3, 2, 40], seed=19)
    halves = _split_indices_by_loop(d, test_frac, seed=6)
    expected = np.zeros(d.n, dtype=bool)
    for (_, test_idx), start in zip(halves, d.stacked[2]):
        expected[start + test_idx] = True
    held = _test_rows(d, test_frac, seed=6)
    assert held.dtype == bool and np.array_equal(held, expected)
    train, test = train_test_split(d, test_frac, seed=6)
    for g, gtr, gte, (train_idx, test_idx) in zip(d.groups, train.groups, test.groups, halves):
        assert gtr.id == gte.id == g.id
        assert gtr.responses.tobytes() == g.responses[train_idx].tobytes()
        assert gtr.features.tobytes() == g.features[train_idx].tobytes()
        assert gte.responses.tobytes() == g.responses[test_idx].tobytes()
        assert gte.features.tobytes() == g.features[test_idx].tobytes()


def test_split_is_a_partition_of_each_group():
    cfg = SimConfig(n=120, K=2, p=2, G=3, sigma=1.0, delta_beta=2.0, seed=15)
    d, _ = generate(cfg)
    train, test = train_test_split(d, 0.25, seed=1)
    assert train.group_ids == d.group_ids == test.group_ids
    for g, gtr, gte in zip(d.groups, train.groups, test.groups):
        assert gtr.n + gte.n == g.n
        assert gte.n == round(0.25 * g.n)
        merged = np.sort(np.concatenate([gtr.responses, gte.responses]))
        assert_allclose(merged, np.sort(g.responses))


def test_split_rejects_singleton_groups_and_bad_fractions():
    cfg = SimConfig(n=4, K=2, p=1, G=2, sigma=1.0, delta_beta=2.0, seed=16)
    d, _ = generate(cfg)  # groups of size 1
    with pytest.raises(GroupTooSmallError):
        train_test_split(d, 0.2, seed=0)
    big, _ = generate(SimConfig(n=40, K=2, p=1, G=2, sigma=1.0, delta_beta=2.0, seed=17))
    for frac in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            train_test_split(big, frac, seed=0)


def test_split_deterministic_per_seed():
    cfg = SimConfig(n=60, K=2, p=2, G=3, sigma=1.0, delta_beta=2.0, seed=18)
    d, _ = generate(cfg)
    a_train, a_test = train_test_split(d, 0.2, seed=5)
    b_train, b_test = train_test_split(d, 0.2, seed=5)
    assert (a_train.stacked[0] == b_train.stacked[0]).all()
    assert (a_test.stacked[0] == b_test.stacked[0]).all()


# sha256 of generate()'s y, X (little-endian float64) and labels (int64) for
# the datasets of acceptance criterion 05, drawn under numpy 2.4.6.
CRITERION_05_FINGERPRINTS = {
    500: "d597fa300c659549ee59128e91cd3edd72fee04793cacb1fe9f2de918370ac89",
    501: "bab0bdea052231ef0a9e5871c321655d68ac7710d0ffda78bc5bfc49f67cf284",
    502: "472698a3758e2e93df7269b0441ff142a99820a4938e57d8b355fe79dab7619f",
    503: "aca1af8570f2130655b48be39a4234cacb434e66553b925197a1a7a917a5495a",
    504: "4a368b3b5df0b79fe64377a171f21b9a5b4c941cc723c6ece57589b248615c6d",
    505: "930c7a531a6440d6551a39d166ab3d30426f210d15954af802c366e0dc74dd16",
    506: "8624c06b42a35fe26614ce60a34fbab87a1f96eb1355d9b258b5c7c882c9601e",
    507: "a0a5a27a1daa34404c0163d9e5e5c3cec340f3fc2ed0689efc01caec691df3ac",
    508: "de8f650c3e92c8156771d0857ab3ac02b71ad3a12a77741e225ee5b27587538e",
    509: "7b5ee317a6b4d1456dac5a02c1cb562ef2896163f3ad89e913528a1f72d94afa",
}


def test_criterion_05_data_fingerprints():
    # Seeds reproduce data only for a given numpy (see the module docstring
    # of gmr.simulate); a mismatch here means criterion 05 is judging other
    # data than the data it was checked on.
    drifted = []
    for seed, expected in CRITERION_05_FINGERPRINTS.items():
        d, truth = generate(SimConfig(n=200, K=4, p=3, G=5, sigma=6.0, delta_beta=8.0, seed=seed))
        y, X, _ = d.stacked
        digest = hashlib.sha256()
        for arr in (np.asarray(y, "<f8"), np.asarray(X, "<f8"), np.asarray(truth.labels, "<i8")):
            digest.update(arr.tobytes())
        if digest.hexdigest() != expected:
            drifted.append(seed)
    assert not drifted, (
        f"generate() draws other data for criterion 05 seeds {drifted} under numpy "
        f"{np.__version__}; the fingerprints were pinned under numpy 2.4.6"
    )
