"""Containers, validation, and per-group moment computation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmr import (
    DimensionMismatchError,
    DuplicateGroupIdError,
    EmptyGroupError,
    Group,
    GroupedDataset,
    ModelParams,
    NonFiniteError,
    Responsibilities,
    compute_group_stats,
    validate_dataset,
)


def make_dataset(groups):
    return GroupedDataset(tuple(Group(i, y, X) for i, (y, X) in enumerate(groups)))


def test_validate_accepts_well_formed():
    d = make_dataset(
        [
            ([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]]),
            ([3.0], [[2.0, 2.0]]),
        ]
    )
    validate_dataset(d)
    assert d.R == 2
    assert d.p == 2
    assert d.n == 3
    assert d.group_ids == ("0", "1")


def test_validate_rejects_empty_dataset():
    with pytest.raises(EmptyGroupError):
        validate_dataset(GroupedDataset(()))


def test_validate_rejects_empty_group():
    d = make_dataset([([1.0], [[1.0]]), ([], np.empty((0, 1)))])
    with pytest.raises(EmptyGroupError):
        validate_dataset(d)


def test_validate_rejects_nan_feature():
    d = make_dataset([([1.0, 2.0], [[1.0, np.nan], [0.0, 1.0]])])
    with pytest.raises(NonFiniteError):
        validate_dataset(d)


def test_validate_rejects_ragged_feature_width():
    d = make_dataset([([1.0], [[1.0, 2.0]]), ([1.0], [[1.0]])])
    with pytest.raises(DimensionMismatchError):
        validate_dataset(d)


def test_validate_rejects_duplicate_ids():
    d = GroupedDataset(
        (Group("a", [1.0], [[1.0]]), Group("a", [2.0], [[2.0]]))
    )
    with pytest.raises(DuplicateGroupIdError):
        validate_dataset(d)


class _IdCountingGroup(Group):
    """A group that counts reads of its id: the duplicate-id check reads each once per pass."""

    id_reads = 0

    def __getattribute__(self, name):
        if name == "id":
            type(self).id_reads += 1
        return super().__getattribute__(name)


def test_validation_runs_once_per_dataset_and_failures_repeat():
    from gmr import EmConfig, fit

    rng = np.random.default_rng(0)
    groups = tuple(
        _IdCountingGroup(f"g{r}", rng.normal(size=6), rng.normal(size=(6, 2))) for r in range(8)
    )
    d = GroupedDataset(groups)
    _IdCountingGroup.id_reads = 0
    validate_dataset(d)
    assert _IdCountingGroup.id_reads >= d.R  # one pass over the groups
    d.group_ids  # cached on first use, as fit's result needs it
    _IdCountingGroup.id_reads = 0
    for _ in range(3):
        validate_dataset(d)
        compute_group_stats(d)
        fit(d, EmConfig(K=2, n_restarts=1, seed=1))
    assert _IdCountingGroup.id_reads == 0

    bad = GroupedDataset(
        groups[:3] + (Group("nan", [1.0, np.nan], [[1.0, 2.0], [3.0, 4.0]]), groups[0])
    )
    for _ in range(3):
        with pytest.raises(NonFiniteError, match=r"^group 'nan' contains NaN or infinite values$"):
            compute_group_stats(bad)
    with pytest.raises(NonFiniteError):
        validate_dataset(bad)


def test_group_rejects_row_count_mismatch():
    with pytest.raises(DimensionMismatchError):
        Group("g", [1.0, 2.0], [[1.0]])


def test_group_id_coerced_to_str():
    assert Group(7, [1.0], [[1.0]]).id == "7"


def test_arrays_are_read_only():
    d = make_dataset([([1.0], [[1.0, 2.0]])])
    with pytest.raises(ValueError):
        d.groups[0].responses[0] = 0.0
    y, X, offsets = d.stacked
    with pytest.raises(ValueError):
        X[0, 0] = 0.0


def test_stacked_matches_group_blocks():
    rng = np.random.default_rng(0)
    groups = [(rng.normal(size=n), rng.normal(size=(n, 3))) for n in (2, 5, 1, 4)]
    d = make_dataset(groups)
    y, X, offsets = d.stacked
    assert_allclose(offsets, [0, 2, 7, 8])
    start = 0
    for g in d.groups:
        assert_allclose(y[start : start + g.n], g.responses)
        assert_allclose(X[start : start + g.n], g.features)
        start += g.n


def factor_gram(s, r):
    """Gram matrix of group r's triangular factor: its (x, y) second moments."""
    return s.factors[r].T @ s.factors[r]


def moment_block(sig, rho, y_sq_mean):
    return np.block([[sig, rho[:, None]], [rho[None, :], np.array([[y_sq_mean]])]])


def test_stats_single_point():
    d = make_dataset([([3.0], [[1.0, 0.0]])])
    s = compute_group_stats(d)
    assert_allclose(s.sigma_hat[0], [[1.0, 0.0], [0.0, 0.0]])
    assert_allclose(s.rho_hat[0], [3.0, 0.0])
    assert_allclose(factor_gram(s, 0), moment_block(s.sigma_hat[0], s.rho_hat[0], 9.0), atol=1e-12)


def test_stats_two_point_average():
    d = make_dataset([([2.0, -2.0], [[1.0, 1.0], [-1.0, -1.0]])])
    s = compute_group_stats(d)
    assert_allclose(s.sigma_hat[0], [[1.0, 1.0], [1.0, 1.0]])
    assert_allclose(s.rho_hat[0], [2.0, 2.0])


def test_stats_match_brute_force_loops():
    rng = np.random.default_rng(42)
    datasets = []
    for _ in range(20):
        n, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        datasets.append(make_dataset([(rng.normal(size=n), rng.normal(size=(n, p)))]))
    # Several groups per dataset, sized below, at and above p + 1 (with
    # repeated sizes), so zero-padded factors and batched QR calls feed the
    # moments.
    for p, sizes in ((1, (1, 2, 3, 2, 5)), (3, (1, 2, 4, 7, 2, 4)), (5, (3, 6, 9, 1, 6, 3))):
        datasets.append(
            make_dataset([(rng.normal(size=n), rng.normal(size=(n, p))) for n in sizes])
        )
    for d in datasets:
        s = compute_group_stats(d)
        for r, g in enumerate(d.groups):
            y, X, n = g.responses, g.features, g.n
            sig = sum(np.outer(X[i], X[i]) for i in range(n)) / n
            rho = sum(y[i] * X[i] for i in range(n)) / n
            assert_allclose(s.sigma_hat[r], sig, atol=1e-12)
            assert_allclose(s.rho_hat[r], rho, atol=1e-12)
            assert_allclose(factor_gram(s, r), moment_block(sig, rho, np.mean(y**2)), atol=1e-12)
            assert (np.tril(s.factors[r], -1) == 0).all()


def test_stats_invariant_under_duplication():
    rng = np.random.default_rng(3)
    y = rng.normal(size=4)
    X = rng.normal(size=(4, 2))
    s1 = compute_group_stats(make_dataset([(y, X)]))
    s2 = compute_group_stats(make_dataset([(np.tile(y, 3), np.tile(X, (3, 1)))]))
    assert_allclose(s1.sigma_hat, s2.sigma_hat, atol=1e-12)
    assert_allclose(s1.rho_hat, s2.rho_hat, atol=1e-12)
    assert_allclose(factor_gram(s1, 0), factor_gram(s2, 0), atol=1e-12)


def test_stats_sigma_hat_exactly_symmetric():
    rng = np.random.default_rng(11)
    d = make_dataset([(rng.normal(size=7), rng.normal(size=(7, 5)))])
    s = compute_group_stats(d)
    assert (s.sigma_hat[0] == s.sigma_hat[0].T).all()


def test_stats_are_computed_once_and_cached_on_the_dataset():
    rng = np.random.default_rng(5)
    d = make_dataset([(rng.normal(size=n), rng.normal(size=(n, 3))) for n in (2, 5, 5, 9)])
    first, second = compute_group_stats(d), compute_group_stats(d)
    assert first is d and second is d
    assert "factors" in vars(d)  # filled inside the call, not on first use
    cached = (d.factors, d.sigma_hat, d.rho_hat)
    compute_group_stats(d)
    for before, after in zip(cached, (d.factors, d.sigma_hat, d.rho_hat)):
        assert after is before
        assert not after.flags.writeable
    assert d.sigma_hat.shape == (4, 3, 3) and d.rho_hat.shape == (4, 3)
    assert d.rho_hat.flags.c_contiguous


@pytest.mark.parametrize(
    "groups, error",
    [
        ((), EmptyGroupError),
        ((Group("a", [1.0], [[1.0]]), Group("b", [], np.empty((0, 1)))), EmptyGroupError),
        ((Group("a", [1.0], [[1.0, 2.0]]), Group("b", [1.0], [[1.0]])), DimensionMismatchError),
        ((Group("a", [1.0], [[np.inf]]),), NonFiniteError),
        ((Group("a", [1.0], [[1.0]]), Group("a", [2.0], [[2.0]])), DuplicateGroupIdError),
    ],
)
def test_stats_reject_an_invalid_dataset_on_every_call(groups, error):
    d = GroupedDataset(groups)
    for _ in range(3):
        with pytest.raises(error):
            compute_group_stats(d)
    assert "factors" not in vars(d)


def test_model_params_validation():
    ModelParams([0.5, 0.5], [[1.0, 2.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        ModelParams([0.6, 0.6], [[1.0, 2.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        ModelParams([0.5, 0.5], [[1.0, 2.0]], [1.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        ModelParams([0.5, 0.5], [[1.0]], [1.0, 1.0])
    with pytest.raises(NonFiniteError):
        ModelParams([0.5, 0.5], [[np.inf, 2.0]], [1.0, 1.0])


def test_responsibilities_validation():
    tau = Responsibilities([[0.25, 0.75], [1.0, 0.0]])
    assert tau.R == 2 and tau.K == 2
    with pytest.raises(ValueError):
        Responsibilities([[0.5, 0.6]])
    with pytest.raises(ValueError):
        Responsibilities([[-0.1, 1.1]])
    with pytest.raises(NonFiniteError):
        Responsibilities([[np.nan, 1.0]])


def test_hard_labels_argmax_and_tie_break():
    tau = Responsibilities([[0.25, 0.75], [0.5, 0.5], [1.0, 0.0]])
    assert tau.hard_labels().tolist() == [1, 0, 0]
