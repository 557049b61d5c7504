"""Clustering and prediction metrics."""

import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from gmr import DimensionMismatchError, LengthMismatchError, beta_error, confusion, nmi, rmse


def test_confusion_identical_balanced():
    f = confusion([0, 0, 1, 1], [0, 0, 1, 1])
    assert_allclose(f, [[0.5, 0.0], [0.0, 0.5]])


def test_confusion_swapped_labels():
    f = confusion([0, 0, 1, 1], [1, 1, 0, 0])
    assert_allclose(f, [[0.0, 0.5], [0.5, 0.0]])


def test_confusion_direct_count():
    f = confusion([0, 0, 1, 1], [0, 1, 1, 1])
    assert_allclose(f, [[0.25, 0.25], [0.0, 0.5]])


def test_confusion_marginals_are_class_frequencies():
    rng = np.random.default_rng(0)
    true = rng.integers(0, 3, size=40)
    est = rng.integers(0, 4, size=40)
    f = confusion(true, est, n_true=3, n_est=4)
    assert_allclose(f.sum(), 1.0, atol=1e-12)
    assert_allclose(f.sum(axis=1), np.bincount(true, minlength=3) / 40)
    assert_allclose(f.sum(axis=0), np.bincount(est, minlength=4) / 40)


def test_confusion_length_mismatch():
    with pytest.raises(LengthMismatchError):
        confusion([0, 1], [0, 1, 1])


def test_confusion_explicit_sizes_pad_empty_classes():
    f = confusion([0, 0], [1, 1], n_true=2, n_est=3)
    assert f.shape == (2, 3)
    assert_allclose(f, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


def test_beta_error_perfect_estimate():
    beta = np.array([[1.0, -1.0], [2.0, 0.5]])
    f = confusion([0, 1], [0, 1])
    assert beta_error(beta, beta, f) == pytest.approx(0.0, abs=1e-15)


def test_beta_error_single_cluster():
    true = np.array([[1.0], [2.0]])
    est = np.array([[2.0], [0.0]])
    f = confusion([0, 0, 0], [0, 0, 0])
    assert beta_error(true, est, f) == pytest.approx(5.0)


def test_beta_error_equals_direct_group_average():
    rng = np.random.default_rng(1)
    for _ in range(30):
        R, p, kt, ke = 5, 2, 2, int(rng.integers(1, 4))
        true_beta = rng.normal(size=(p, kt))
        est_beta = rng.normal(size=(p, ke))
        true_lab = rng.integers(0, kt, size=R)
        est_lab = rng.integers(0, ke, size=R)
        f = confusion(true_lab, est_lab, n_true=kt, n_est=ke)
        direct = np.mean(
            [
                ((est_beta[:, est_lab[r]] - true_beta[:, true_lab[r]]) ** 2).sum()
                for r in range(R)
            ]
        )
        assert beta_error(true_beta, est_beta, f) == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_beta_error_dimension_checks():
    f = confusion([0, 1], [0, 1])
    with pytest.raises(DimensionMismatchError):
        beta_error(np.ones((2, 3)), np.ones((2, 2)), f)
    with pytest.raises(DimensionMismatchError):
        beta_error(np.ones((2, 2)), np.ones((3, 2)), f)


def test_nmi_identical():
    assert nmi([0, 1, 2, 0], [0, 1, 2, 0]) == pytest.approx(1.0)


def test_nmi_relabeled():
    assert nmi([0, 0, 1, 1, 2], [2, 2, 0, 0, 1]) == pytest.approx(1.0)


def test_nmi_independent_partitions():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-12)


def test_nmi_partial_agreement():
    # plug-in value computed by an explicit contingency-table oracle
    assert nmi([0, 0, 1, 1], [0, 1, 1, 1]) == pytest.approx(0.3455920299442113, abs=1e-12)


def test_nmi_single_class_conventions():
    assert nmi([1, 1, 1], [1, 1, 1]) == 1.0
    assert nmi([1, 1, 1], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [1, 1, 1]) == 0.0


@pytest.mark.parametrize(
    "single, multi", [([0] * 6, [1, 3, 2, 0, 1, 2]), ([0] * 9, [0, 2, 2, 2, 2, 3, 4, 5, 6])]
)
def test_nmi_is_exactly_zero_when_one_side_is_single_class(single, multi):
    # The single class's marginal entropy rounds to a few ulps, not to 0, so a
    # test on it gave 1.8e-08 for the first pair and a NaN square root for
    # the second.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert nmi(single, multi) == 0.0
        assert nmi(multi, single) == 0.0


def test_nmi_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 3, size=30)
        b = rng.integers(0, 4, size=30)
        v = nmi(a, b)
        assert 0.0 <= v <= 1.0
        assert nmi(b, a) == pytest.approx(v, abs=1e-12)
        perm = rng.permutation(4)
        assert nmi(a, perm[b]) == pytest.approx(v, abs=1e-12)


def test_nmi_length_mismatch():
    with pytest.raises(LengthMismatchError):
        nmi([0, 1], [0, 1, 1])


def test_rmse_identical():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_rmse_hand_value():
    assert rmse([3.0, 0.0], [0.0, 4.0]) == pytest.approx(3.5355339059327378)


def test_rmse_constant_offset():
    y = np.arange(5.0)
    assert rmse(y, y + 2.5) == pytest.approx(2.5)
    assert rmse(y, y - 2.5) == pytest.approx(2.5)


def test_rmse_length_mismatch():
    with pytest.raises(LengthMismatchError):
        rmse([1.0], [1.0, 2.0])
