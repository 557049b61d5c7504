"""Monte Carlo benchmark harness."""

import numpy as np
import pytest

import gmr.benchmark
from gmr import BenchmarkSpec, EmConfig, aggregate, aggregate_columns, iter_records


def small_spec(**overrides):
    base = dict(
        K=2, p=2, G=4, n=[80, 120], sigma=1.0, delta_beta=8.0,
        n_reps=2, restarts=2, seed=99,
    )
    base.update(overrides)
    return BenchmarkSpec.from_dict(base)


def test_cells_enumerate_in_documented_order():
    spec = small_spec(sigma=[1.0, 2.0])
    cells = spec.cells()
    assert len(cells) == 4
    assert [c["n"] for c in cells] == [80, 80, 120, 120]
    assert [c["sigma"] for c in cells] == [1.0, 2.0, 1.0, 2.0]


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        BenchmarkSpec.from_dict({"K": 2, "p": 2, "G": 2, "n": 40, "sigma": 1, "delta_beta": 1, "bogus": 3})


def test_records_have_full_schema_and_are_ordered():
    spec = small_spec()
    records = list(iter_records(spec))
    assert len(records) == 4
    assert [(r["n"], r["rep"]) for r in records] == [(80, 0), (80, 1), (120, 0), (120, 1)]
    for r in records:
        assert set(r) == {
            "K", "p", "G", "n", "sigma", "delta_beta", "rep", "seed",
            "nmi", "beta_error", "rmse_train", "rmse_test", "rmse_fmr",
            "n_iter", "converged", "error",
        }
        assert r["error"] is None
        assert 0.0 <= r["nmi"] <= 1.0


def test_records_deterministic_and_jobs_invariant():
    spec = small_spec()
    a = list(iter_records(spec, jobs=1))
    b = list(iter_records(spec, jobs=1))
    c = list(iter_records(spec, jobs=2))
    assert a == b == c


def test_a_pool_starts_at_most_one_worker_per_replication(monkeypatch):
    import concurrent.futures

    asked = []

    class InProcessPool:  # records its size and maps here, starting no process
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    spec = small_spec(n=80)  # one cell, two replications
    assert list(iter_records(spec, jobs=64)) == list(iter_records(spec, jobs=1))
    assert asked == [2]


def test_rep_seeds_differ_across_cells_and_reps():
    spec = small_spec()
    seeds = [r["seed"] for r in iter_records(spec)]
    assert len(set(seeds)) == len(seeds)


def test_infeasible_cell_recorded_not_fatal():
    spec = small_spec(K=4, p=[2, 4], G=4, n=160)  # K=4 with p=2 cannot embed
    records = list(iter_records(spec))
    bad = [r for r in records if r["p"] == 2]
    good = [r for r in records if r["p"] == 4]
    assert all(r["error"] is not None and r["nmi"] is None for r in bad)
    assert all(r["error"] is None for r in good)

    records = list(iter_records(small_spec(n=[6, 80])))  # 6 rows cannot fill K*G = 8 groups
    assert [r["error"] is None for r in records] == [False, False, True, True]
    assert records[0]["error"].startswith("TooManyGroupsError")


def test_unexpected_exception_in_replication_propagates(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise TypeError("a bug, not a failed replication")

    monkeypatch.setattr(gmr.benchmark, "fit", broken_fit)
    with pytest.raises(TypeError, match="a bug"):
        list(iter_records(small_spec()))


def test_aggregate_means_and_failure_counts():
    spec = small_spec()
    records = list(iter_records(spec))
    rows = aggregate(records)
    assert len(rows) == 2
    for row, n in zip(rows, (80, 120)):
        assert row["n"] == n
        assert row["n_reps"] == 2
        assert row["n_failed"] == 0
        ok = [r for r in records if r["n"] == n]
        assert row["nmi"] == pytest.approx(np.mean([r["nmi"] for r in ok]))
        assert row["rmse_gmr"] == pytest.approx(np.mean([r["rmse_test"] for r in ok]))
        assert row["converged_frac"] == 1.0


def test_dropping_rmse_metric_skips_split_and_allows_singleton_groups():
    # n == K*G forces one observation per group; the hold-out split cannot
    # be drawn there, but an nmi-only sweep must still run on the full sample.
    spec = small_spec(G=20, n=40, metrics=["nmi", "iterations"])
    records = list(iter_records(spec))
    assert all(r["error"] is None for r in records)
    assert all(r["rmse_test"] is None and r["rmse_fmr"] is None for r in records)
    assert all(r["nmi"] is not None and r["n_iter"] is not None for r in records)
    row = aggregate(records)[0]
    assert row["n_failed"] == 0
    assert row["rmse_gmr"] is None
    assert row["nmi"] is not None


def test_aggregate_all_failed_cell_has_null_means():
    spec = small_spec(K=4, p=2, G=4, n=160)
    rows = aggregate(iter_records(spec))
    assert rows[0]["n_failed"] == 2
    assert rows[0]["nmi"] is None


def test_aggregate_averages_every_declared_column_over_successful_records():
    # One cell, built by hand: one failed record and two successful ones, one
    # of them not converged.  No fit runs.
    cell = dict(K=2, p=2, G=4, n=80, sigma=1.0, delta_beta=8.0)
    metrics = ("nmi", "beta_error", "rmse_train", "rmse_test", "rmse_fmr", "n_iter", "converged")
    failed = {**cell, "rep": 0, "seed": 1, **dict.fromkeys(metrics), "error": "EmptyClusterError: x"}
    ok = [
        {**cell, "rep": 1, "seed": 2, "nmi": 0.5, "beta_error": 1.0, "rmse_train": 2.0,
         "rmse_test": 3.0, "rmse_fmr": 4.0, "n_iter": 7, "converged": True, "error": None},
        {**cell, "rep": 2, "seed": 3, "nmi": 0.25, "beta_error": 3.0, "rmse_train": 4.0,
         "rmse_test": 5.5, "rmse_fmr": 6.0, "n_iter": 200, "converged": False, "error": None},
    ]
    [row] = aggregate([failed, *ok])
    assert list(row) == [
        "K", "p", "G", "n", "sigma", "delta_beta", "n_reps", "n_failed",
        "nmi", "beta_error", "rmse_train", "rmse_gmr", "rmse_fmr", "n_iter", "converged_frac",
    ]
    assert row == {
        **cell, "n_reps": 3, "n_failed": 1,
        "nmi": 0.375, "beta_error": 2.0, "rmse_train": 3.0, "rmse_gmr": 4.25, "rmse_fmr": 5.0,
        "n_iter": 103.5, "converged_frac": 0.5,
    }
    assert list(row) == aggregate_columns(small_spec())


def test_spec_em_defaults_are_em_config_defaults():
    spec = BenchmarkSpec(n=80, K=2, p=2, G=4, sigma=1.0, delta_beta=8.0)
    assert spec._em_template() == EmConfig(K=1)


def test_aggregate_columns_follow_requested_metrics():
    spec = small_spec()
    cols = aggregate_columns(spec)
    assert cols[:6] == ["K", "p", "G", "n", "sigma", "delta_beta"]
    assert "rmse_gmr" in cols and "converged_frac" in cols
    only_nmi = small_spec(metrics=["nmi"])
    cols2 = aggregate_columns(only_nmi)
    assert "nmi" in cols2 and "rmse_gmr" not in cols2
