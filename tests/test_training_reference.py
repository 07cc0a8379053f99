"""`training.fit` against a plain reference training loop, bit for bit.

The reference keeps the parameters in a dict and updates them key by key
with Adam, computes each loss value and gradient per set with its own
plain numpy and `math.erfc` formulas (nothing from `cqrnet.losses`), and
sums the clip norm key by key in the order `backward` returns the
gradients. `fit` packs the parameters into one flat vector and calls its
loss object once per epoch on the training and validation rows together;
the arithmetic per element is the same, so traces, epochs and best
parameters must match exactly.
"""

import math

import numpy as np
import pytest

from cqrnet.datagen import CensoredDataset
from cqrnet.models import (
    LinearQuantileNet,
    LstmQuantileNet,
    MirrorWrapper,
    RegularizedLinearNet,
    StackedUnitNet,
    init_weights,
)
from cqrnet.tobit import TobitNet
from cqrnet.training import NonFiniteLossError, TrainConfig, fit


def tilted(r, theta):
    return np.maximum(theta * r, (theta - 1.0) * r)


def tilted_subgrad(r, theta):
    return np.where(r >= 0.0, theta, theta - 1.0)


def tobit_terms(ds, means, sigma):
    """z, the censored-side probability Phi(z) (floored at 1e-300) and the
    density of left-censored rows, the only rows `fit` passes the likelihood."""
    z = (ds.y - means) / sigma
    erfc = np.array([math.erfc(v) for v in -z / math.sqrt(2.0)])
    prob = np.maximum(0.5 * erfc, 1e-300)
    return z, prob, np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


# Adam's constants, as Kingma and Ba give them
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def reference_fit(net, loss_kind, train, val, cfg, theta=None):
    def sigma():
        if "log_sigma" in net.params:
            return float(np.exp(net.params["log_sigma"][0]))
        return float(getattr(net, "sigma", 1.0))

    def loss(ds, preds):
        """Mean loss over one set."""
        if loss_kind == "tilted":
            return float(np.mean(tilted(ds.y - preds, theta)))
        if loss_kind == "censored_nll":
            return float(np.mean(tilted(ds.y - np.maximum(ds.tau, preds), theta)))
        z, prob, _ = tobit_terms(ds, preds, sigma())
        log_density = -0.5 * z * z - 0.5 * math.log(2.0 * math.pi) - math.log(sigma())
        return -float(np.mean(np.where(ds.censored, np.log(prob), log_density)))

    def dpred(preds):
        """d(mean train loss) / d preds."""
        if loss_kind == "tilted":
            return -tilted_subgrad(train.y - preds, theta) / train.n
        if loss_kind == "censored_nll":
            return np.where(preds < train.tau, 0.0, -tilted_subgrad(train.y - preds, theta)) / train.n
        z, prob, spdf = tobit_terms(train, preds, sigma())
        return np.where(train.censored, spdf / prob / sigma(), -(train.y - preds) / sigma() ** 2) / train.n

    def dlog_sigma(preds):
        """d(mean train loss) / d log(sigma): dz/dlog(sigma) = -z."""
        z, prob, spdf = tobit_terms(train, preds, sigma())
        return float(np.where(train.censored, z * spdf / prob, 1.0 - z * z).sum()) / train.n

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
            grads["log_sigma"] = np.array([dlog_sigma(preds)])
        norm = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        if norm > cfg.clip_norm:
            grads = {k: g * (cfg.clip_norm / norm) for k, g in grads.items()}
            clipped += 1
        steps += 1
        c1 = 1.0 - BETA1**steps
        c2 = 1.0 - BETA2**steps
        for k, g in grads.items():
            m[k] = BETA1 * m[k] + (1.0 - BETA1) * g
            v[k] = BETA2 * v[k] + (1.0 - BETA2) * g * g
            net.params[k] = net.params[k] - cfg.learning_rate * (m[k] / c1) / (np.sqrt(v[k] / c2) + EPS)
    diagnostics = {"stop_reason": stop_reason, "clip_share": clipped / steps}
    if loss_kind == "censored_nll":
        net.params = best_params
        diagnostics["clamp_share"] = float(np.sum(net.forward(train.X) < train.tau)) / train.n
    return {
        "train_trace": train_trace,
        "val_trace": val_trace,
        "best_epoch": best_epoch,
        "stopping_epoch": epoch,
        "params": best_params,
        "diagnostics": diagnostics,
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
    "reg-linear-dropout": (lambda: RegularizedLinearNet(4, dropout_rate=0.2, l2_coeff=1e-2), "censored_nll", 0.5),
    "stacked": (lambda: StackedUnitNet(4, units=3, activation="tanh"), "censored_nll", 0.9),
    "lstm": (lambda: LstmQuantileNet(lags=3, hidden_size=3), "tilted", 0.5),
    "tobit-fixed-sigma": (lambda: TobitNet(4, sigma=1.5), "tobit", None),
    "tobit-learned-sigma": (lambda: TobitNet(4, estimate_sigma=True), "tobit", None),
    # from 8 weights on numpy sums the clip norm over 8 running sums; above 16 fit takes the numpy step
    "linear-8": (lambda: LinearQuantileNet(8), "censored_nll", 0.3),
    "linear-elu-9": (lambda: LinearQuantileNet(9, activation="elu"), "tilted", 0.6),
    "linear-16": (lambda: LinearQuantileNet(16), "tilted", 0.4),
    "linear-17": (lambda: LinearQuantileNet(17), "censored_nll", 0.7),
    "tobit-learned-sigma-8": (lambda: TobitNet(7, estimate_sigma=True), "tobit", None),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_fit_matches_reference_loop(case, seed):
    make_net, loss_kind, theta = CASES[case]
    net = init_weights(make_net(), "standard_normal", seed=seed)
    train = censored_data(net.dim, 120, seed, positive=case == "lstm")
    val = censored_data(net.dim, 50, seed + 100, positive=case == "lstm")
    # the wider nets' gradients are smaller: 0.25 clips most of their steps, where the norm's bits count
    cfg = TrainConfig(learning_rate=0.02, clip_norm=0.5 if net.dim == 4 else 0.25, patience=8, max_epochs=50,
                      seed=seed)
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
    assert isinstance(got.net, MirrorWrapper) and got.theta == 0.8
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
