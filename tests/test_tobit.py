"""Tobit baseline: fitting, quantiles, consistency with OLS and the generator."""

import numpy as np
import pytest

from cqrnet.datagen import CensoredDataset, SyntheticSpec, gen_synthetic, split
from cqrnet.normal import std_normal_quantile
from cqrnet.tobit import TobitModel, TobitNet, tobit_fit, tobit_quantiles
from cqrnet.training import TrainConfig


def uncensored_dataset(beta, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, len(beta) - 1))])
    y = X @ np.asarray(beta) + sigma * rng.standard_normal(n)
    return CensoredDataset(X=X, y=y, tau=np.full(n, -np.inf), censored=np.zeros(n, dtype=bool), side="left")


def test_quantile_map_examples():
    model = TobitModel(beta=[0.5, 2.0], sigma=1.0)
    X = np.array([[1.0, 3.0]])
    assert tobit_quantiles(model, X, 0.5)[0] == pytest.approx(6.5)
    width = tobit_quantiles(model, X, 0.95)[0] - tobit_quantiles(model, X, 0.05)[0]
    assert width == pytest.approx(2 * std_normal_quantile(0.95))
    assert width == pytest.approx(3.28971, abs=5e-5)
    doubled = TobitModel(beta=[0.5, 2.0], sigma=2.0)
    dwidth = tobit_quantiles(doubled, X, 0.95)[0] - tobit_quantiles(doubled, X, 0.05)[0]
    assert dwidth == pytest.approx(2 * width)


def test_quantiles_increasing_in_theta():
    model = TobitModel(beta=[1.0, -1.0], sigma=1.3)
    X = np.array([[1.0, 0.7]])
    qs = [tobit_quantiles(model, X, t)[0] for t in np.linspace(0.01, 0.99, 30)]
    assert np.all(np.diff(qs) > 0)


def test_mil_is_covariate_independent():
    model = TobitModel(beta=[0.3, 1.0, -2.0], sigma=1.0)
    X = np.column_stack([np.ones(50), np.random.default_rng(0).normal(size=(50, 2))])
    widths = tobit_quantiles(model, X, 0.95) - tobit_quantiles(model, X, 0.05)
    assert np.ptp(widths) < 1e-12


def test_validation():
    with pytest.raises(ValueError):
        TobitModel(beta=[1.0], sigma=0.0)
    with pytest.raises(ValueError):
        TobitModel(beta=[1.0], sigma=1.0, side="up")
    for sigma in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            TobitNet(3, sigma=sigma)


def test_fit_without_censoring_matches_least_squares():
    beta_true = [2.0, -1.0, 0.5]
    train = uncensored_dataset(beta_true, 400, seed=1, sigma=0.3)
    val = uncensored_dataset(beta_true, 200, seed=2, sigma=0.3)
    result = tobit_fit(train, val, TrainConfig(learning_rate=0.01))
    ols, *_ = np.linalg.lstsq(train.X, train.y, rcond=None)  # normal-equations oracle
    assert np.max(np.abs(result.net.params["beta"] - ols)) < 1e-2


def test_fully_censored_no_signal_pushes_mean_down():
    # left-censored rows all at the clamp, intercept-only design
    n = 100
    ds = CensoredDataset(
        X=np.ones((n, 1)),
        y=np.zeros(n),
        tau=np.zeros(n),
        censored=np.ones(n, dtype=bool),
        side="left",
    )
    result = tobit_fit(ds, ds, TrainConfig(learning_rate=0.1, max_epochs=300, patience=300))
    assert result.net.params["beta"][0] < 0.2  # moved down from init 1.0
    diffs = np.diff(result.train_trace)
    assert np.all(diffs <= 1e-10)


def test_consistency_on_generator():
    # correctly-specified model: recover the benchmark coefficients
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 1000, 3))
    train, val, _ = split(ds, seed=4)
    result = tobit_fit(train, val, TrainConfig(learning_rate=0.01),
                       init_scheme="standard_normal", init_seed=5)
    assert np.max(np.abs(result.net.params["beta"] - 1.0)) < 0.05 + 0.05


def test_estimate_sigma_extension():
    beta_true = [1.0, 2.0]
    train = uncensored_dataset(beta_true, 800, seed=6, sigma=1.6)
    val = uncensored_dataset(beta_true, 300, seed=7, sigma=1.6)
    result = tobit_fit(train, val, TrainConfig(learning_rate=0.05, patience=60),
                       estimate_sigma=True)
    net = result.net
    assert net.current_sigma() == pytest.approx(1.6, abs=0.15)
    assert np.max(np.abs(net.params["beta"] - beta_true)) < 0.15


def test_from_fit_and_sides():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 300, 8))
    train, val, _ = split(ds, seed=9)
    result = tobit_fit(train, val, TrainConfig())
    model = TobitModel.from_fit(result, side=train.side)
    assert model.side == "left"
    assert model.sigma == 1.0

    # right-censored data trains under the upper orientation directly
    mirrored = ds.mirrored()
    tr, va, _ = split(mirrored, seed=10)
    res_r = tobit_fit(tr, va, TrainConfig())
    assert np.isfinite(res_r.best_val_loss)


def test_cqr_widths_vary_on_heteroskedastic_benchmark():
    """Unlike Tobit's covariate-independent interval, the censored-QR pair
    learns per-row widths on heteroskedastic data."""
    from cqrnet.experiments import fit_model

    ds = gen_synthetic(SyntheticSpec("heteroskedastic", 1000, 11))
    train, val, test = split(ds, seed=12)
    cfg = TrainConfig(learning_rate=0.01)
    lo = fit_model("c-linear", train, val, cfg, 0.05).predict(test.X)
    hi = fit_model("c-linear", train, val, cfg, 0.95).predict(test.X)
    widths = hi - lo
    assert np.var(widths) > 1e-4


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_learned_scale_that_leaves_the_reals_is_a_non_finite_loss():
    from cqrnet.training import NonFiniteLossError

    train, val = uncensored_dataset([0.5, 1.0], 60, 1), uncensored_dataset([0.5, 1.0], 30, 2)
    with pytest.raises(NonFiniteLossError, match="scale") as err:
        tobit_fit(train, val, TrainConfig(learning_rate=1e308), estimate_sigma=True)
    assert "at epoch 1" in str(err.value)
    assert len(err.value.train_trace) == len(err.value.val_trace) == 1
