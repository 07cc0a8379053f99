"""Tobit baseline: fitting, quantiles, consistency with OLS and the generator."""

import numpy as np
import pytest

from cqrnet.datagen import CensoredDataset, SyntheticSpec, gen_synthetic, split
from cqrnet.models import LinearQuantileNet, init_weights, net_from_dict
from cqrnet.normal import std_normal_quantile
from cqrnet.tobit import TobitNet, tobit_fit
from cqrnet.training import TrainConfig, fit


def uncensored_dataset(beta, n, seed, sigma=1.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, len(beta) - 1))])
    y = X @ np.asarray(beta) + sigma * rng.standard_normal(n)
    return CensoredDataset(X=X, y=y, tau=np.full(n, -np.inf), censored=np.zeros(n, dtype=bool), side="left")


def tobit_net(beta, sigma=1.0):
    net = TobitNet(len(beta), sigma=sigma)
    net.params["beta"] = np.asarray(beta, dtype=float)
    return net


def test_quantile_map_examples():
    net = tobit_net([0.5, 2.0], sigma=1.0)
    X = np.array([[1.0, 3.0]])
    assert net.quantile(X, 0.5)[0] == pytest.approx(6.5)
    width = net.quantile(X, 0.95)[0] - net.quantile(X, 0.05)[0]
    assert width == pytest.approx(2 * std_normal_quantile(0.95))
    assert width == pytest.approx(3.28971, abs=5e-5)
    doubled = tobit_net([0.5, 2.0], sigma=2.0)
    dwidth = doubled.quantile(X, 0.95)[0] - doubled.quantile(X, 0.05)[0]
    assert dwidth == pytest.approx(2 * width)


def test_quantiles_increasing_in_theta():
    net = tobit_net([1.0, -1.0], sigma=1.3)
    X = np.array([[1.0, 0.7]])
    qs = [net.quantile(X, t)[0] for t in np.linspace(0.01, 0.99, 30)]
    assert np.all(np.diff(qs) > 0)


def test_mil_is_covariate_independent():
    net = tobit_net([0.3, 1.0, -2.0], sigma=1.0)
    X = np.column_stack([np.ones(50), np.random.default_rng(0).normal(size=(50, 2))])
    widths = net.quantile(X, 0.95) - net.quantile(X, 0.05)
    assert np.ptp(widths) < 1e-12


def test_validation():
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            TobitNet(3, sigma=sigma)


@pytest.mark.parametrize("sigma, estimate_sigma", [(1.5, False), (1.0, True)])
def test_fit_round_trips_through_net_from_dict(sigma, estimate_sigma):
    """A saved Tobit fit, with a fixed or a learned scale, loads back as the
    same net: equal parameters, scale and quantiles."""
    train, val = uncensored_dataset([0.5, 1.0], 80, 1, sigma=1.6), uncensored_dataset([0.5, 1.0], 40, 2, sigma=1.6)
    net = tobit_fit(train, val, TrainConfig(learning_rate=0.05, max_epochs=50),
                    sigma=sigma, estimate_sigma=estimate_sigma).net
    clone = net_from_dict(net.to_dict())
    assert isinstance(clone, TobitNet)
    assert clone.params.keys() == net.params.keys()
    assert all(np.array_equal(clone.params[k], net.params[k]) for k in net.params)
    assert clone.current_sigma() == net.current_sigma()
    assert (clone.current_sigma() != sigma) == estimate_sigma
    for theta in (0.05, 0.5, 0.95):
        assert np.array_equal(clone.quantile(val.X, theta), net.quantile(val.X, theta))


def test_fit_result_predicts_the_quantile_at_its_theta():
    """A Tobit fit predicts its net's quantile at the fit's theta, not the
    mean; without a theta it has no level to predict. A quantile net's
    quantile is its output at the one level it was trained for."""
    train, val = uncensored_dataset([0.5, 1.0], 80, 1), uncensored_dataset([0.5, 1.0], 40, 2)
    cfg = TrainConfig(learning_rate=0.05, max_epochs=50)
    result = fit(init_weights(TobitNet(2, sigma=1.5), "ones"), "tobit", train, val, cfg, theta=0.95)
    assert np.array_equal(result.predict(val.X), result.net.quantile(val.X, 0.95))
    assert result.predict(val.X) - result.net.forward(val.X) == pytest.approx(1.5 * std_normal_quantile(0.95))
    with pytest.raises(ValueError, match="theta"):
        fit(init_weights(TobitNet(2), "ones"), "tobit", train, val, cfg).predict(val.X)
    result = fit(init_weights(LinearQuantileNet(2), "ones"), "censored_nll", train, val, cfg, theta=0.95)
    assert np.array_equal(result.predict(val.X), result.net.forward(val.X))


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


def test_fit_scale_and_sides():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 300, 8))
    train, val, _ = split(ds, seed=9)
    result = tobit_fit(train, val, TrainConfig())
    assert result.net.current_sigma() == 1.0

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
