"""Data substrate tests: UCR-lite registry, generators, correlation
matrices, and the synthetic stock market."""
import numpy as np
import pytest

from repro.datasets import (SECTORS, UCR_LITE, cbf_dataset,
                            correlation_matrices, detrended_log_returns,
                            latent_curve_dataset, load_ucr_lite, stock_market)


class TestRegistry:
    def test_eighteen_datasets(self):
        assert sorted(UCR_LITE) == list(range(1, 19))

    @pytest.mark.parametrize("did", list(range(1, 17)))  # skip the 2 largest
    def test_load_matches_spec(self, did):
        name, n, length, classes, *_ = UCR_LITE[did]
        ds = load_ucr_lite(did, seed=0)
        assert ds.name == name
        assert ds.X.shape == (n, length)
        assert ds.y.shape == (n,)
        assert ds.n_classes == classes

    def test_deterministic(self):
        a = load_ucr_lite(6, seed=0)
        b = load_ucr_lite(6, seed=0)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_seed_changes_data(self):
        a = load_ucr_lite(6, seed=0)
        b = load_ucr_lite(6, seed=1)
        assert not np.array_equal(a.X, b.X)


class TestGenerators:
    def test_latent_curve_all_classes_present(self):
        ds = latent_curve_dataset("t", 50, 64, 7, seed=0)
        assert ds.n_classes == 7

    def test_latent_curve_within_class_correlation_higher(self):
        ds = latent_curve_dataset("t", 60, 200, 3, noise=0.5, shared=0.3,
                                  outlier_frac=0.0, seed=1)
        S, _ = correlation_matrices(ds.X)
        same = np.equal.outer(ds.y, ds.y)
        np.fill_diagonal(same, False)
        diff = ~np.equal.outer(ds.y, ds.y)
        assert S[same].mean() > S[diff].mean() + 0.2

    def test_cbf_three_classes(self):
        ds = cbf_dataset(n=90, length=128, seed=0)
        assert set(np.unique(ds.y)) <= {0, 1, 2}
        assert ds.X.shape == (90, 128)

    def test_cbf_classes_distinguishable(self):
        ds = cbf_dataset(n=150, length=128, seed=1)
        S, _ = correlation_matrices(ds.X)
        same = np.equal.outer(ds.y, ds.y)
        np.fill_diagonal(same, False)
        assert S[same].mean() > S[~np.equal.outer(ds.y, ds.y)].mean()


class TestCorrelation:
    def test_properties(self):
        ds = latent_curve_dataset("t", 40, 50, 3, seed=2)
        S, D = correlation_matrices(ds.X)
        assert np.allclose(S, S.T) and np.allclose(D, D.T)
        assert np.allclose(np.diag(S), 1.0)
        assert np.allclose(np.diag(D), 0.0)
        assert S.min() >= -1 and S.max() <= 1
        assert np.allclose(D, np.sqrt(2 * (1 - S)))

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(3)
        X = rng.random((20, 100))
        S, _ = correlation_matrices(X)
        assert np.allclose(S, np.corrcoef(X), atol=1e-10)

    def test_d_is_metric_range(self):
        ds = latent_curve_dataset("t", 30, 40, 2, seed=4)
        _, D = correlation_matrices(ds.X)
        assert D.min() >= 0 and D.max() <= 2.0 + 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raise(self, bad):
        X = np.random.default_rng(5).random((6, 10))
        X[2, 3] = bad
        with pytest.raises(ValueError, match="X must be finite"):
            correlation_matrices(X)

    @pytest.mark.parametrize("length", [0, 1])
    def test_fewer_than_two_time_points_raise(self, length):
        X = np.random.default_rng(6).random((6, length))
        with pytest.raises(ValueError, match="at least 2 time points"):
            correlation_matrices(X)

    @pytest.mark.parametrize("spread", [0.0, 1e-13])
    def test_zero_variance_row_raise(self, spread):
        """A constant row (std below the ``znorm`` threshold) has no
        correlation; unchecked, ``znorm`` zeroes it, and depending on the
        input the clustering silently uses S = 0 for it or assignment
        fails with "bubble similarity sums must be positive"."""
        X = np.random.default_rng(7).random((6, 10))
        X[4] = 3.0 + spread * np.arange(10)
        with pytest.raises(ValueError, match="zero-variance.*first row 4"):
            correlation_matrices(X)


class TestStocks:
    def test_shapes_and_sectors(self):
        prices, sectors = stock_market(n_stocks=60, n_days=100, seed=0)
        assert prices.shape == (60, 101)
        assert np.all(prices > 0)
        assert sectors.shape == (60,)
        assert sectors.max() < len(SECTORS)

    def test_detrended_returns_zero_daily_mean(self):
        prices, _ = stock_market(n_stocks=40, n_days=80, seed=1)
        r = detrended_log_returns(prices)
        assert r.shape == (40, 80)
        assert np.allclose(r.mean(axis=0), 0.0, atol=1e-12)

    def test_sector_correlation_structure(self):
        prices, sectors = stock_market(n_stocks=120, n_days=400, seed=2)
        S, _ = correlation_matrices(detrended_log_returns(prices))
        same = np.equal.outer(sectors, sectors)
        np.fill_diagonal(same, False)
        assert S[same].mean() > S[~np.equal.outer(sectors, sectors)].mean() + 0.05

    def test_deterministic(self):
        p1, s1 = stock_market(n_stocks=30, n_days=50, seed=5)
        p2, s2 = stock_market(n_stocks=30, n_days=50, seed=5)
        assert np.array_equal(p1, p2) and np.array_equal(s1, s2)
