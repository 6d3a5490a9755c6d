"""Autocorrelation estimation, decay fits and the Kruskal-Wallis test.

The chi-squared tail oracles are Simpson's rule over the density and, where
SciPy is installed, its regularized upper incomplete gamma; both are
independent of the closed form used by the implementation.
"""

import math

import numpy as np
import pytest

from decaygraph.analysis import (AutocorrEstimate, InsufficientDataError,
                                 chi2_sf, empirical_autocorr, fit_decay_rate,
                                 kruskal_wallis)
from decaygraph.data import SyntheticConfig, ou_stationary_draw, ou_step, synthesize
from decaygraph.rng import SplitMix64


def chi2_tail_quadrature(x, df, upper=400.0, n=400001):
    """Simpson integration of the chi-squared density over [x, upper]."""
    norm = 1.0 / (2.0 ** (df / 2.0) * math.gamma(df / 2.0))
    grid = np.linspace(x, upper, n)
    dens = norm * grid ** (df / 2.0 - 1.0) * np.exp(-grid / 2.0)
    h = grid[1] - grid[0]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float((h / 3.0) * (weights * dens).sum())


def make_estimate(lags, rate):
    lags = np.asarray(lags, dtype=float)
    return AutocorrEstimate(lags=lags, correlations=np.exp(-rate * lags),
                            pair_counts=np.full(len(lags), 100), n_excluded_bins=0)


# -- decay fit ----------------------------------------------------------------

def test_fit_recovers_unit_rate_exactly():
    fit = fit_decay_rate(make_estimate([0.5, 1.0, 2.0], 1.0))
    assert fit.decay_rate == pytest.approx(1.0, abs=1e-9)
    assert fit.residual == pytest.approx(0.0, abs=1e-9)
    assert fit.n_bins == 3


def test_fit_recovers_slow_rate_exactly():
    fit = fit_decay_rate(make_estimate([0.5, 1.0, 2.0, 4.0], 0.05))
    assert fit.decay_rate == pytest.approx(0.05, abs=1e-9)


def test_fit_machine_precision_across_rate_range():
    for rate in (0.01, 0.1, 1.0, 5.0, 20.0):
        # keep correlations above the fit threshold for every rate
        lags = np.array([0.5, 1.0, 2.0]) / max(rate, 1.0)
        fit = fit_decay_rate(make_estimate(lags, rate))
        assert fit.decay_rate == pytest.approx(rate, rel=1e-12)


def test_fit_needs_two_usable_bins():
    with pytest.raises(InsufficientDataError):
        fit_decay_rate(make_estimate([1.0], 1.0))
    # correlations below the threshold do not count as usable
    est = AutocorrEstimate(lags=np.array([1.0, 2.0]),
                           correlations=np.array([0.5, 0.001]),
                           pair_counts=np.array([50, 50]), n_excluded_bins=0)
    with pytest.raises(InsufficientDataError):
        fit_decay_rate(est)


# -- empirical autocorrelation ---------------------------------------------------

def test_constant_values_are_excluded_as_degenerate():
    series = [(np.array([0.0, 1.0, 2.0]), np.array([3.0, 3.0, 3.0]))] * 10
    with pytest.raises(InsufficientDataError):
        empirical_autocorr(series, n_bins=4, max_lag=3.0)


@pytest.mark.parametrize("n_bins", [0, -3])
def test_no_lag_bins_is_a_plain_value_error(n_bins):
    # not InsufficientDataError: analyze swallows that one per variable
    series = [(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 4.0]))] * 10
    with pytest.raises(ValueError, match=f"n_bins must be >= 1, got {n_bins}") as info:
        empirical_autocorr(series, n_bins=n_bins, max_lag=3.0)
    assert not isinstance(info.value, InsufficientDataError)


@pytest.mark.parametrize("max_lag", [0.0, -5.0, float("nan"), float("inf")])
def test_given_max_lag_that_is_not_positive_and_finite_is_a_plain_value_error(max_lag):
    # not InsufficientDataError: analyze swallows that one per variable
    series = [(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 4.0]))] * 10
    with pytest.raises(ValueError, match=f"max_lag must be positive and finite, got {max_lag}") as info:
        empirical_autocorr(series, n_bins=4, max_lag=max_lag)
    assert not isinstance(info.value, InsufficientDataError)


def test_data_derived_zero_lag_stays_insufficient_data():
    series = [(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 4.0]))] * 10
    with pytest.raises(InsufficientDataError, match="all pair lags are zero"):
        empirical_autocorr(series, n_bins=4)


def test_sparse_bins_are_excluded_and_counted():
    rng = np.random.default_rng(4)
    # plenty of short-lag pairs, a single long-lag pair
    series = []
    for _ in range(40):
        times = np.sort(rng.uniform(0.0, 2.0, 5))
        series.append((times, rng.normal(size=5)))
    series.append((np.array([0.0, 9.5]), rng.normal(size=2)))
    est = empirical_autocorr(series, n_bins=10, max_lag=10.0, min_pairs=5)
    assert est.n_excluded_bins >= 1
    assert np.all(est.pair_counts >= 5)
    assert np.all(est.lags <= 2.0)  # the lone long-lag bin was dropped


def test_deterministic_persistence_gives_unit_correlation():
    rng = np.random.default_rng(0)
    series = []
    for _ in range(50):
        level = rng.normal()
        times = np.sort(rng.uniform(0, 10, 6))
        series.append((times, np.full(6, level)))
    est = empirical_autocorr(series, n_bins=5, max_lag=8.0)
    np.testing.assert_allclose(est.correlations, 1.0, atol=1e-9)


def test_ou_lag_one_hour_matches_closed_form():
    # episodes with exactly two samples one hour apart: a single lag bin
    rng = SplitMix64(123)
    rate, sigma = 1.0, 1.0
    series = []
    for i in range(10000):
        r = rng.fork(f"pair:{i}")
        x0 = ou_stationary_draw(0.0, sigma, rate, r)
        x1 = ou_step(x0, 1.0, 0.0, sigma, rate, r)
        series.append((np.array([0.0, 1.0]), np.array([x0, x1])))
    est = empirical_autocorr(series, n_bins=1, max_lag=1.0)
    assert est.pair_counts[0] == 10000
    assert est.correlations[0] == pytest.approx(np.exp(-1.0), abs=0.05)


def test_recovery_from_generator_data():
    cfg = SyntheticConfig(n_variables=2, n_episodes=500, decay_rates=[0.05, 2.0],
                          obs_per_episode=25.0, horizon=48.0, seed=0,
                          label_coeffs=[1.0, -1.0])
    ds = synthesize(cfg)
    fits = []
    for v in range(2):
        series = []
        for ep in ds.episodes:
            steps = np.flatnonzero(ep.mask[:, v])
            if len(steps) >= 2:
                series.append((ep.times[steps], ep.values[steps, v]))
        est = empirical_autocorr(series, n_bins=6, max_lag=1.5)
        fits.append(fit_decay_rate(est).decay_rate)
    assert abs(fits[0] - 0.05) / 0.05 <= 0.3
    assert abs(fits[1] - 2.0) / 2.0 <= 0.3
    assert fits[1] > fits[0]


# -- Kruskal-Wallis ---------------------------------------------------------------

def test_identical_groups_give_zero_statistic():
    result = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_hand_computed_statistic():
    # ranks 1..9, rank sums 6/15/24: H = (12/90) * 279 - 30 = 7.2
    result = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert result.statistic == pytest.approx(7.2, abs=1e-12)
    assert result.df == 2


def test_p_value_matches_quadrature():
    result = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    oracle = chi2_tail_quadrature(7.2, df=2)
    assert result.p_value == pytest.approx(oracle, abs=1e-6)
    # closed form for df=2 is exp(-H/2)
    assert result.p_value == pytest.approx(np.exp(-3.6), rel=1e-12)


def test_chi2_sf_matches_quadrature_other_dfs():
    for x, df in ((1.0, 1), (7.2, 2), (3.5, 4), (12.0, 7)):
        assert chi2_sf(x, df) == pytest.approx(chi2_tail_quadrature(x, df), abs=1e-6)


def chi2_sf_worst_error(dfs, xs):
    """Largest relative distance of ``chi2_sf`` from SciPy's ``gammaincc``
    over the grid; a NaN fails at once. Tails that SciPy itself reports
    below 1e-300 are compared by that absolute floor."""
    gammaincc = pytest.importorskip("scipy.special").gammaincc
    worst = 0.0
    for df in dfs:
        for x in xs:
            got, want = chi2_sf(float(x), df), float(gammaincc(df / 2.0, x / 2.0))
            assert not math.isnan(got), (x, df)
            if max(got, want) > 1e-300:
                worst = max(worst, abs(got - want) / want)
    return worst


def test_chi2_sf_matches_gammaincc_at_small_df():
    assert chi2_sf_worst_error(range(1, 61), np.geomspace(1e-6, 500.0, 120)) < 1e-12


def test_chi2_sf_matches_gammaincc_at_large_df_without_nan():
    # a running h^k / k! times e^-h at the end gives NaN at df = x = 1600
    dfs = [*range(61, 2001, 97), 1600, 1999, 2000]
    xs = [*np.geomspace(1e-6, 5000.0, 60), 1600.0, 2000.0]
    assert chi2_sf_worst_error(dfs, xs) < 1e-10
    assert chi2_sf(1600.0, 1600) == pytest.approx(0.495298387578, abs=1e-12)


def test_chi2_sf_edges():
    for df in (1, 2, 7):
        assert chi2_sf(0.0, df) == 1.0 and chi2_sf(-3.0, df) == 1.0
        assert chi2_sf(math.inf, df) == 0.0
    assert chi2_sf(2.0, 2.0) == chi2_sf(2.0, 2) == math.exp(-1.0)


@pytest.mark.parametrize("df", [1.5, 0, -2, True, "2", None])
def test_chi2_sf_refuses_a_df_that_is_not_a_whole_number_from_one(df):
    with pytest.raises(ValueError, match="chi2_sf df must be"):
        chi2_sf(3.0, df)


def test_all_identical_values_is_not_an_error():
    result = kruskal_wallis([[5.0, 5.0], [5.0, 5.0, 5.0]])
    assert result.statistic == 0.0
    assert result.p_value == 1.0


def test_needs_two_groups_and_three_samples():
    with pytest.raises(InsufficientDataError):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(InsufficientDataError):
        kruskal_wallis([[1.0], [2.0]])
    with pytest.raises(InsufficientDataError):
        kruskal_wallis([[1.0, 2.0], []])


def test_rank_invariance_under_monotone_transform():
    rng = np.random.default_rng(3)
    groups = [list(rng.normal(size=6)), list(rng.normal(1.0, 1.0, 5)),
              list(rng.normal(-0.5, 2.0, 7))]
    base = kruskal_wallis(groups)
    transformed = [[math.tanh(x) * 3 + x for x in g] for g in groups]
    after = kruskal_wallis(transformed)
    assert after.statistic == pytest.approx(base.statistic, abs=1e-12)
    assert after.p_value == pytest.approx(base.p_value, abs=1e-12)


def test_group_order_irrelevant():
    groups = [[1, 5, 3], [2, 2, 8], [0, 9]]
    a = kruskal_wallis(groups)
    b = kruskal_wallis(groups[::-1])
    assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-12)


def test_tie_correction_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(9)
    groups = [list(rng.integers(0, 5, 8)), list(rng.integers(2, 7, 6)),
              list(rng.integers(0, 3, 5))]
    ours = kruskal_wallis(groups)
    ref_h, ref_p = scipy_stats.kruskal(*groups)
    assert ours.statistic == pytest.approx(ref_h, rel=1e-12)
    assert ours.p_value == pytest.approx(ref_p, rel=1e-9)
