"""Generators, censorship schemes, splits, lag features, CSV round trips."""

import datetime
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from cqrnet import datagen
from cqrnet.datagen import (
    CensoredDataset,
    SyntheticSpec,
    apportion,
    bundled_daily_series,
    build_lagged_dataset,
    censor_fleet,
    censor_partial,
    gen_synthetic,
    gen_trip_table,
    lag_features,
    latent_quantile,
    load_daily_series_csv,
    load_dataset_csv,
    split,
    split_indices,
)
from cqrnet.normal import mixture_quantile, std_normal_quantile

Z05 = std_normal_quantile(0.05)

# Analytic censoring probabilities for y* = 1 + x1 + x2 + eps <= 0 with the
# two-point x1 mixture (derived by conditioning on x1; heteroskedastic value
# by high-resolution quadrature over x2).
CENSORED_PROB = {
    "standard_gaussian": 0.2893,
    "heteroskedastic": 0.3307,
    "gaussian_mixture": 0.3027,
}


def test_analytic_censoring_probability_oracles():
    # standard Gaussian: 0.5*Phi(-2/sqrt(2)) + 0.5*Phi(0)
    from cqrnet.normal import normal_cdf

    sg = 0.5 * normal_cdf(-2.0 / math.sqrt(2.0)) + 0.25
    assert CENSORED_PROB["standard_gaussian"] == pytest.approx(sg, abs=5e-4)
    # mixture: same conditioning with the two-component noise
    mix = 0.5 * (0.75 * normal_cdf(-2.0 / math.sqrt(2.0)) + 0.25 * normal_cdf(-2.0 / math.sqrt(5.0))) + 0.25
    assert CENSORED_PROB["gaussian_mixture"] == pytest.approx(mix, abs=5e-4)


@pytest.mark.parametrize("noise", datagen.NOISES)
def test_censored_fraction_matches_analytic(noise):
    fracs = [gen_synthetic(SyntheticSpec(noise, 1000, s)).censored.mean() for s in range(20)]
    assert np.mean(fracs) == pytest.approx(CENSORED_PROB[noise], abs=0.012)


def test_gen_synthetic_reproducible_and_valid():
    a = gen_synthetic(SyntheticSpec("gaussian_mixture", 500, 9))
    b = gen_synthetic(SyntheticSpec("gaussian_mixture", 500, 9))
    assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    a.validate()
    assert np.all(a.y == np.maximum(0.0, a.y_star))
    assert np.all(a.tau == 0.0)
    assert a.side == "left"


def test_gen_synthetic_zero_noise_hook():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 200, 3), zero_noise=True)
    m = ds.X.sum(axis=1)
    assert np.allclose(ds.y_star, m)
    # e.g. x1=-1, x2=-0.5 gives y*=-0.5, observed 0, censored
    neg = ds.y_star < 0
    assert np.all(ds.y[neg] == 0.0) and np.all(ds.censored[neg])


def test_mixture_noise_sample_std():
    # Monte Carlo oracle for sd of 0.75 N(0,1) + 0.25 N(0,4): sqrt(1.75)
    rng = np.random.default_rng(0)
    wide = rng.random(100_000) >= 0.75
    eps = np.where(wide, 2.0, 1.0) * rng.standard_normal(100_000)
    assert eps.std() == pytest.approx(math.sqrt(1.75), abs=0.02)
    assert math.sqrt(1.75) == pytest.approx(1.3229, abs=5e-5)


# -- quantiles ---------------------------------------------------------------

def test_true_quantile_examples():
    X = np.array([[1.0, 1.0, 0.5]])
    assert latent_quantile("standard_gaussian", 0.5, X)[0] == pytest.approx(2.5)
    # heteroskedastic scale vanishes at x2 = -1: quantile equals the mean
    X = np.array([[1.0, 1.0, -1.0]])
    for theta in (0.05, 0.95):
        assert latent_quantile("heteroskedastic", theta, X)[0] == pytest.approx(1.0)
    # a deep lower latent quantile is below the clamp: the observable quantile is zero
    q = latent_quantile("standard_gaussian", 0.05, np.array([[1.0, -1.0, -0.5]]))[0]
    assert q == pytest.approx(-0.5 + Z05)
    assert max(0.0, q) == 0.0


def test_latent_quantile_monotone_in_theta():
    rng = np.random.default_rng(4)
    X = np.column_stack([np.ones(50), rng.choice([-1.0, 1.0], 50), rng.normal(size=50)])
    for noise in datagen.NOISES:
        prev = None
        for theta in np.linspace(0.02, 0.98, 25):
            q = latent_quantile(noise, theta, X)
            if prev is not None:
                assert np.all(q >= prev - 1e-12)
            prev = q


def test_mixture_compat_flag():
    X = np.array([[1.0, 1.0, 0.0]])
    exact = latent_quantile("gaussian_mixture", 0.95, X)[0]
    compat = latent_quantile("gaussian_mixture", 0.95, X, mixture_compat=True)[0]
    assert exact == pytest.approx(2.0 + mixture_quantile(0.95))
    assert compat == pytest.approx(2.0 + math.sqrt(0.625) * std_normal_quantile(0.95))
    assert exact > compat


# -- censorship schemes ------------------------------------------------------

def test_censor_partial_gamma_zero_is_identity():
    series = np.arange(1.0, 51.0)
    cs = censor_partial(series, 0.0, 0.3, 0.6, seed=1)
    assert np.array_equal(cs.y, series)
    assert not cs.censored.any()
    assert np.all(np.isnan(cs.tau))


def test_censor_partial_degenerate_delta():
    series = np.arange(1.0, 21.0)
    cs = censor_partial(series, 1.0, 0.5, 0.5, seed=2)
    assert np.allclose(cs.y, 0.5 * series)
    assert cs.censored.all()
    assert np.allclose(cs.tau, cs.y)


def test_censor_partial_mean_ratio():
    rng = np.random.default_rng(3)
    series = rng.uniform(50, 150, size=10_000)
    cs = censor_partial(series, 0.5, 0.34, 0.66, seed=4)
    # E[y]/E[y*] = 1 - gamma * E[delta] = 1 - 0.5 * 0.5
    assert np.mean(cs.y) / np.mean(cs.y_star) == pytest.approx(0.75, abs=0.01)


def test_censor_partial_domain_errors():
    series = np.ones(10)
    with pytest.raises(ValueError):
        censor_partial(series, -0.1, 0.3, 0.6, 0)
    with pytest.raises(ValueError):
        censor_partial(series, 0.5, 0.0, 0.6, 0)
    with pytest.raises(ValueError):
        censor_partial(series, 0.5, 0.7, 0.6, 0)
    with pytest.raises(ValueError):
        censor_partial(series, 0.5, 0.3, 1.0, 0)


def test_censor_partial_never_increases():
    series = np.random.default_rng(5).uniform(10, 20, 500)
    cs = censor_partial(series, 0.7, 0.01, 0.99, seed=6)
    assert np.all(cs.y <= cs.y_star)


def test_censor_fleet_alpha_zero_identity():
    trips = gen_trip_table(50, 10, 1.0, 0.2, seed=7)
    cs = censor_fleet(trips, 0.0, seed=8)
    assert np.array_equal(cs.y, cs.y_star)
    assert cs.censored.all()


def test_censor_fleet_reduction_ratio():
    trips = gen_trip_table(365, 100, 1.5, 0.3, seed=9)
    cs = censor_fleet(trips, 0.4, seed=10)
    assert np.mean(cs.y) / np.mean(cs.y_star) == pytest.approx(0.60, abs=0.02)
    assert np.all(cs.y <= cs.y_star)


def test_censor_fleet_zero_trip_vehicle():
    counts = np.zeros((3, 20), dtype=int)
    counts[0] = 2
    counts[1] = 3
    # pick a seed whose single removed vehicle is the zero-trip one (index 2)
    seed = next(s for s in range(100)
                if np.random.default_rng(s).choice(3, size=1, replace=False)[0] == 2)
    cs = censor_fleet(counts, 1 / 3, seed=seed)
    assert np.array_equal(cs.y, cs.y_star)


def test_censor_fleet_errors():
    trips = gen_trip_table(10, 5, 1.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        censor_fleet(trips, 1.0, seed=0)
    with pytest.raises(ValueError):
        censor_fleet(np.zeros((0, 5), dtype=int), 0.2, seed=0)


def test_trip_table_moments_and_determinism():
    table = gen_trip_table(365, 40, 1.1, 0.0, seed=11)
    assert table.shape == (40, 365)
    assert table.sum(axis=0).mean() == pytest.approx(40 * 1.1, rel=0.02)
    again = gen_trip_table(365, 40, 1.1, 0.0, seed=11)
    assert np.array_equal(table, again)
    assert gen_trip_table(30, 5, 0.0, 0.0, seed=1).sum() == 0


def test_bundled_series_weekly_signal():
    series = bundled_daily_series(140, seed=1)
    assert series.mean() > 50
    # weekly modulation should beat Poisson noise
    weekly = series.reshape(20, 7).mean(axis=0)
    assert weekly.max() - weekly.min() > 4 * np.sqrt(series.mean() / 20)


# -- splits ------------------------------------------------------------------

def test_apportion_examples():
    assert apportion(9, (1 / 3, 1 / 3, 1 / 3)) == (3, 3, 3)
    assert apportion(10, (1 / 3, 1 / 3, 1 / 3)) == (4, 3, 3)
    assert apportion(1000, (0.62, 0.15, 0.23)) == (620, 150, 230)
    with pytest.raises(ValueError):
        apportion(10, (0.5, 0.4, 0.2))
    with pytest.raises(ValueError):
        apportion(10, (0.5, 0.5, 0.0))


def test_split_consecutive_thirds():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 9, 1))
    tr, va, te = split(ds, (1 / 3, 1 / 3, 1 / 3), consecutive=True)
    assert (tr.n, va.n, te.n) == (3, 3, 3)
    assert np.array_equal(tr.y, ds.y[:3]) and np.array_equal(te.y, ds.y[6:])


def test_split_random_partition_properties():
    idx = split_indices(1000, (0.62, 0.15, 0.23), seed=42)
    sizes = tuple(len(i) for i in idx)
    assert sizes == (620, 150, 230)
    all_rows = np.concatenate(idx)
    assert len(np.unique(all_rows)) == 1000
    again = split_indices(1000, (0.62, 0.15, 0.23), seed=42)
    for a, b in zip(idx, again):
        assert np.array_equal(a, b)


# -- lag features ------------------------------------------------------------

def test_lag_features_example():
    X, y = lag_features(np.arange(1.0, 10.0), lags=7)
    assert X.shape == (2, 8)
    assert np.array_equal(X[0], [1, 7, 6, 5, 4, 3, 2, 1])
    assert y[0] == 8.0 and y[1] == 9.0


def test_lag_features_constant_series():
    X, _ = lag_features(np.full(20, 3.3), lags=7)
    assert np.allclose(X, X[0])


def test_lag_features_too_short():
    with pytest.raises(ValueError):
        lag_features(np.ones(7), lags=7)


def test_lag_features_recover_ar_coefficient():
    rng = np.random.default_rng(12)
    n, phi = 3000, 0.7
    s = np.zeros(n)
    for t in range(1, n):
        s[t] = phi * s[t - 1] + rng.normal()
    X, y = lag_features(s, lags=1)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)  # OLS oracle
    assert beta[1] == pytest.approx(phi, abs=0.05)


def test_build_lagged_dataset_alignment():
    series = np.arange(10.0, 40.0)
    cs = censor_partial(series, 0.4, 0.2, 0.5, seed=13)
    ds = build_lagged_dataset(cs, lags=7)
    assert ds.n == cs.n - 7
    assert np.array_equal(ds.y, cs.y[7:])
    assert np.array_equal(ds.censored, cs.censored[7:])
    assert np.array_equal(ds.X[0, 1:], cs.y[:7][::-1])
    assert ds.side == "right"


# -- mirrored view -----------------------------------------------------------

def test_mirrored_dataset_flips_side_and_quantiles():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 100, 14))
    m = ds.mirrored()
    m.validate()
    assert m.side == "right"
    assert np.array_equal(m.y, -ds.y)
    assert np.array_equal(m.X[:, 0], ds.X[:, 0])  # intercept kept
    # latents negate, so the mirror's theta quantile is minus the 1 - theta one
    assert np.array_equal(m.y_star, -ds.y_star)
    back = m.mirrored()
    assert np.array_equal(back.y, ds.y) and back.side == "left"


def test_validate_rejects_broken_invariants():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 50, 15))
    ds.y[0] = -1.0  # below the threshold on left-censored data
    with pytest.raises(ValueError):
        ds.validate()


# -- CSV ---------------------------------------------------------------------

@st.composite
def csv_datasets(draw):
    """Valid datasets of either side: thresholds below (left) or above (right)
    the observations, some NaN while awaiting imputation, latents optional."""
    n, p = draw(st.integers(1, 8)), draw(st.integers(0, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
    gaps = arrays(np.float64, n, elements=st.floats(0.0, 1e6))
    y = draw(arrays(np.float64, n, elements=finite))
    censored = draw(arrays(np.bool_, n))
    tau = np.where(censored, y, y - draw(gaps))
    y_star = np.where(censored, tau - draw(gaps), y) if draw(st.booleans()) else None
    ds = CensoredDataset(X=np.column_stack([np.ones(n), draw(arrays(np.float64, (n, p), elements=finite))]),
                         y=y, tau=tau, censored=censored, side="left", y_star=y_star)
    if draw(st.booleans()):
        ds = ds.mirrored()
    ds.tau[draw(arrays(np.bool_, n)) & ~censored] = np.nan
    return ds


@given(csv_datasets())
@example(gen_synthetic(SyntheticSpec("heteroskedastic", 50, 16)))
def test_dataset_csv_round_trip(ds):
    """The CSV text loads back bit for bit, NaN thresholds included, and
    writes the same text again."""
    text = datagen.dataset_csv_text(ds)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ds.csv")
        with open(path, "w", newline="") as fh:
            fh.write(text)
        loaded = load_dataset_csv(path, side=ds.side)
    for name in ("X", "y", "tau", "censored", "y_star"):
        want, got = getattr(ds, name), getattr(loaded, name)
        assert (got is None) if want is None else (got.dtype == want.dtype and got.tobytes() == want.tobytes()), name
    assert datagen.dataset_csv_text(loaded) == text


def test_dataset_csv_nan_thresholds(tmp_path):
    cs = censor_partial(np.arange(1.0, 31.0), 0.3, 0.2, 0.4, seed=17)
    ds = build_lagged_dataset(cs, lags=7)
    path = tmp_path / "nan.csv"
    path.write_text(datagen.dataset_csv_text(ds), newline="")
    loaded = load_dataset_csv(path, side="right")
    assert np.array_equal(np.isnan(loaded.tau), np.isnan(ds.tau))


def test_daily_series_csv_round_trip(tmp_path):
    series = bundled_daily_series(30, seed=18)
    days = (datetime.date(2020, 1, 1) + datetime.timedelta(days=i) for i in range(len(series)))
    path = tmp_path / "series.csv"
    path.write_text("date,count\n" + "".join(f"{d.isoformat()},{c!r}\n" for d, c in zip(days, series.tolist())))
    assert np.array_equal(load_daily_series_csv(path), series)


def test_daily_series_gap_rejected(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("date,count\n2020-01-01,5.0\n2020-01-03,6.0\n")
    with pytest.raises(ValueError):
        load_daily_series_csv(path)
