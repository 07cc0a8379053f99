"""Shared finite-difference gradient checking for the net families."""

import numpy as np
import pytest


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
