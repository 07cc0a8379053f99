"""Shared finite-difference gradient checking for the net families and the losses."""

import numpy as np
import pytest

from cqrnet.datagen import CensoredDataset
from cqrnet.losses import TRAINING_LOSSES
from cqrnet.models import TobitNet


def flatten_params(params, order):
    return np.concatenate([params[k].ravel() for k in order])


def set_flat(params, order, flat):
    pos = 0
    for k in order:
        size = params[k].size
        params[k] = flat[pos : pos + size].reshape(params[k].shape)
        pos += size


def fd_check(net, X, rng, rel=1e-5, upstream=None, mask=None, n_checks=10):
    """Central finite differences of sum(upstream * forward) over the params.

    Checks `n_checks` parameter indices drawn from `rng`, or every index
    when `n_checks` is None.
    """
    if upstream is None:
        upstream = rng.normal(size=X.shape[0])

    def objective():
        if mask is not None:
            preds = net.forward_train(X, dropout_mask=mask)
        else:
            preds = net.forward_train(X)
        return float(np.sum(upstream * preds)) + net.l2_penalty()

    objective()
    grads = net.backward(upstream)
    flat_grad = flatten_params(grads, net.param_order)
    flat = flatten_params(net.params, net.param_order)
    h = 1e-6
    if n_checks is None:
        idx = range(flat.size)
    else:
        idx = rng.choice(flat.size, size=min(flat.size, n_checks), replace=False)
    for i in idx:
        bumped = flat.copy()
        bumped[i] += h
        set_flat(net.params, net.param_order, bumped)
        up = objective()
        bumped[i] -= 2 * h
        set_flat(net.params, net.param_order, bumped)
        down = objective()
        set_flat(net.params, net.param_order, flat)
        fd = (up - down) / (2 * h)
        assert flat_grad[i] == pytest.approx(fd, rel=rel, abs=1e-7), f"param index {i}"


# Seeds of criterion 6's loss configurations.
LOSS_FD_SEEDS = {"tilted": 101, "censored_nll": 202, "tobit": 303}


def loss_fd_draws(kind, n_configs=100):
    """Criterion 6's seeded configurations for one loss, away from its kinks.

    Each is a dict of eight-row arrays `y` and `q` (the predictions), the
    loss's own data (`tau`, or `censored` with Tobit's `sigma` and `side`),
    the level `theta` and the row `i` to check.
    """
    rng = np.random.default_rng(LOSS_FD_SEEDS[kind])
    done = 0
    while done < n_configs:
        n = 8
        theta = rng.uniform(0.03, 0.97)
        if kind == "tilted":
            y = rng.normal(size=n)
            q = rng.normal(size=n)
            if np.any(np.abs(y - q) < 1e-4):
                continue
            draw = {"y": y, "q": q}
        elif kind == "censored_nll":
            y = rng.normal(size=n)
            tau = y - rng.uniform(0.3, 2.0, size=n)
            q = rng.normal(scale=1.5, size=n)
            if np.any(np.abs(q - tau) < 1e-4) or np.any(np.abs(q - y) < 1e-4):
                continue
            draw = {"y": y, "tau": tau, "q": q}
        else:
            mu = rng.normal(scale=1.5, size=n)
            y = mu + rng.normal(size=n)
            cens = rng.random(n) < 0.4
            sigma = rng.uniform(0.6, 1.8)
            side = "lower" if rng.random() < 0.5 else "upper"
            draw = {"y": y, "q": mu, "censored": cens, "sigma": sigma, "side": side}
        yield dict(draw, theta=theta, i=int(rng.integers(n)))
        done += 1


def training_loss_fd_check(kind, learned_scale=False, n_configs=100):
    """The training objective `TRAINING_LOSSES[kind]`, as `fit` calls it:
    its dpred, and a learned Tobit scale's log_sigma gradient, against central
    differences of its own train loss (the same rows also serve as validation
    rows). Both sides are scaled from the mean to the sum over the rows."""
    h = 1e-6
    for done, c in enumerate(loss_fd_draws(kind, n_configs)):
        y, q, i = c["y"], c["q"], c["i"]
        n = y.size
        ds = CensoredDataset(X=np.ones((n, 1)), y=y, tau=c.get("tau", y),
                             censored=c.get("censored", np.zeros(n, dtype=bool)),
                             side="right" if c.get("side") == "upper" else "left")
        net = TobitNet(1, sigma=c["sigma"], estimate_sigma=learned_scale) if kind == "tobit" else None
        loss = TRAINING_LOSSES[kind](ds, ds, c["theta"], net)

        def train_sum(preds):
            return n * loss(np.concatenate([preds, q]))[0]

        _, _, dpred, grads = loss(np.concatenate([q, q]))
        e = np.zeros(n)
        e[i] = h
        fd = (train_sum(q + e) - train_sum(q - e)) / (2 * h)
        assert n * dpred[i] == pytest.approx(fd, rel=1e-5, abs=1e-9), f"{kind} config {done}"
        assert list(grads) == (["log_sigma"] if learned_scale else [])
        if learned_scale:
            log_sigma = net.params["log_sigma"]
            net.params["log_sigma"] = log_sigma + h
            up = train_sum(q)
            net.params["log_sigma"] = log_sigma - h
            down = train_sum(q)
            net.params["log_sigma"] = log_sigma
            fd = (up - down) / (2 * h)
            assert n * grads["log_sigma"][0] == pytest.approx(fd, rel=1e-5, abs=1e-9), f"{kind} config {done}"
