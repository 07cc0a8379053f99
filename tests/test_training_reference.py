"""`training.fit` against a plain reference training loop, bit for bit.

The reference keeps the parameters in a dict and updates them key by key
with Adam, calls the public loss value and gradient functions separately,
and sums the clip norm key by key in the order `backward` returns the
gradients. `fit` packs the parameters into one flat vector and calls one
`value_and_grad` per epoch; the arithmetic per element is the same, so
traces, epochs and best parameters must match exactly.
"""

import math

import numpy as np
import pytest

from cqrnet.datagen import CensoredDataset
from cqrnet.losses import (
    censored_qr_nll,
    censored_qr_nll_grad,
    tilted_loss,
    tilted_loss_subgrad,
    tobit_nll,
    tobit_nll_grad_log_sigma,
    tobit_nll_grad_mean,
)
from cqrnet.models import (
    LinearQuantileNet,
    LstmQuantileNet,
    RegularizedLinearNet,
    StackedUnitNet,
    init_weights,
)
from cqrnet.tobit import TobitNet
from cqrnet.training import NonFiniteLossError, TrainConfig, fit


def reference_fit(net, loss_kind, train, val, cfg, theta=None):
    side = "lower" if train.side == "left" else "upper"

    def sigma():
        if "log_sigma" in net.params:
            return float(np.exp(net.params["log_sigma"][0]))
        return float(getattr(net, "sigma", 1.0))

    def loss(ds, preds):
        if loss_kind == "tilted":
            return float(np.mean(tilted_loss(ds.y - preds, theta)))
        if loss_kind == "censored_nll":
            return censored_qr_nll(ds.y, ds.tau, preds, theta) / ds.n
        return tobit_nll(ds.y, ds.censored, preds, sigma(), side) / ds.n

    def dpred(preds):
        if loss_kind == "tilted":
            return -tilted_loss_subgrad(train.y - preds, theta) / train.n
        if loss_kind == "censored_nll":
            return censored_qr_nll_grad(train.y, train.tau, preds, theta) / train.n
        return tobit_nll_grad_mean(train.y, train.censored, preds, sigma(), side) / train.n

    rng = np.random.default_rng(cfg.seed)
    m = {k: np.zeros_like(p) for k, p in net.params.items()}
    v = {k: np.zeros_like(p) for k, p in net.params.items()}
    train_trace, val_trace = [], []
    best, best_epoch, steps, clipped = math.inf, 0, 0, 0
    best_params = {k: p.copy() for k, p in net.params.items()}
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        preds = net.forward_train(train.X, rng)
        tr = loss(train, preds) + net.l2_penalty()
        va = loss(val, net.forward(val.X))
        if not (math.isfinite(tr) and math.isfinite(va)):
            raise NonFiniteLossError("non-finite loss", train_trace, val_trace)
        train_trace.append(tr)
        val_trace.append(va)
        if va < best:
            best, best_epoch = va, epoch
            best_params = {k: p.copy() for k, p in net.params.items()}
        if epoch - best_epoch >= cfg.patience:
            stop_reason = "patience"
            break
        grads = net.backward(dpred(preds))
        if "log_sigma" in net.params:
            grads["log_sigma"] = np.array(
                [tobit_nll_grad_log_sigma(train.y, train.censored, preds, sigma(), side) / train.n])
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > cfg.clip_norm:
            grads = {k: g * (cfg.clip_norm / norm) for k, g in grads.items()}
            clipped += 1
        steps += 1
        c1 = 1.0 - cfg.adam_beta1**steps
        c2 = 1.0 - cfg.adam_beta2**steps
        for k, g in grads.items():
            m[k] = cfg.adam_beta1 * m[k] + (1.0 - cfg.adam_beta1) * g
            v[k] = cfg.adam_beta2 * v[k] + (1.0 - cfg.adam_beta2) * g * g
            net.params[k] = net.params[k] - cfg.learning_rate * (m[k] / c1) / (np.sqrt(v[k] / c2) + cfg.adam_eps)
    return {
        "train_trace": train_trace,
        "val_trace": val_trace,
        "best_epoch": best_epoch,
        "stopping_epoch": epoch,
        "params": best_params,
        "diagnostics": {"stop_reason": stop_reason, "clip_share": clipped / steps},
    }


def censored_data(dim, n, seed, positive=False):
    """Left-censored rows: y = max(y*, c) with about 30% at the clamp c."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, dim - 1))])
    y_star = X @ rng.normal(size=dim) + rng.standard_t(4, size=n)
    if positive:
        y_star = np.abs(y_star) + 1.0
    c = np.quantile(y_star, 0.3)
    censored = y_star < c
    y = np.where(censored, c, y_star)
    return CensoredDataset(X=X, y=y, tau=np.full(n, c), censored=censored, side="left", y_star=y_star)


CASES = {
    "linear-identity": (lambda: LinearQuantileNet(4), "censored_nll", 0.3),
    "linear-elu": (lambda: LinearQuantileNet(4, activation="elu"), "tilted", 0.7),
    "reg-linear-dropout": (lambda: RegularizedLinearNet(4, "elu", dropout_rate=0.2, l2_coeff=1e-2),
                           "censored_nll", 0.5),
    "stacked": (lambda: StackedUnitNet(4, units=3, activation="tanh", l2_coeff=1e-3), "censored_nll", 0.9),
    "lstm": (lambda: LstmQuantileNet(lags=3, hidden_size=3), "tilted", 0.5),
    "tobit-fixed-sigma": (lambda: TobitNet(4, sigma=1.5), "tobit", None),
    "tobit-learned-sigma": (lambda: TobitNet(4, estimate_sigma=True), "tobit", None),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_fit_matches_reference_loop(case, seed):
    make_net, loss_kind, theta = CASES[case]
    train = censored_data(4, 120, seed, positive=case == "lstm")
    val = censored_data(4, 50, seed + 100, positive=case == "lstm")
    cfg = TrainConfig(learning_rate=0.02, clip_norm=0.5, patience=8, max_epochs=50, seed=seed)
    net = init_weights(make_net(), "standard_normal", seed=seed)
    want = reference_fit(net.copy(), loss_kind, train, val, cfg, theta)
    got = fit(net, loss_kind, train, val, cfg, theta)
    assert got.train_trace == want["train_trace"]
    assert got.val_trace == want["val_trace"]
    assert (got.best_epoch, got.stopping_epoch) == (want["best_epoch"], want["stopping_epoch"])
    assert got.diagnostics == want["diagnostics"]
    assert list(got.net.params) == list(want["params"])
    for k, p in want["params"].items():
        assert np.array_equal(got.net.params[k], p), k


def test_mirrored_fit_matches_reference_loop():
    ds = censored_data(4, 170, 7)
    flipped = CensoredDataset(X=ds.X, y=-ds.y, tau=-ds.tau, censored=ds.censored, side="right")
    train, val = flipped.subset(np.arange(120)), flipped.subset(np.arange(120, 170))
    cfg = TrainConfig(learning_rate=0.05, clip_norm=0.5, patience=8, max_epochs=150, seed=3)
    net = init_weights(LinearQuantileNet(4, activation="elu"), "standard_normal", seed=3)
    want = reference_fit(net.copy(), "censored_nll", train.mirrored(), val.mirrored(), cfg, 1.0 - 0.8)
    got = fit(net, "censored_nll", train, val, cfg, 0.8)
    assert got.mirrored and got.theta == 0.8
    assert got.train_trace == want["train_trace"]
    assert got.val_trace == want["val_trace"]
    assert (got.best_epoch, got.stopping_epoch) == (want["best_epoch"], want["stopping_epoch"])
    assert np.array_equal(got.net.params["beta"], want["params"]["beta"])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_finite_loss_carries_traces_like_reference():
    train, val = censored_data(4, 60, 11), censored_data(4, 30, 12)
    cfg = TrainConfig(learning_rate=1e308, seed=4)
    net = init_weights(LinearQuantileNet(4), "ones")
    with pytest.raises(NonFiniteLossError) as want:
        reference_fit(net.copy(), "tilted", train, val, cfg, 0.5)
    with pytest.raises(NonFiniteLossError) as got:
        fit(net, "tilted", train, val, cfg, 0.5)
    assert len(got.value.train_trace) >= 1
    assert got.value.train_trace == want.value.train_trace
    assert got.value.val_trace == want.value.val_trace
