"""Loss functions and their (sub)gradients.

Conventions
-----------
* The tilted (pinball) loss is rho_theta(r) = max(theta*r, (theta-1)*r).
  Quantile fitting feeds it the residual r = y - qhat, so under-prediction
  of a high quantile (theta near 1) is the expensive direction.
* The censored quantile NLL clamps predictions at the per-row threshold:
  sum_i rho_theta(y_i - max(tau_i, qhat_i)). It assumes the left-censored
  orientation (y >= tau); right-censored data goes through the mirror
  wrapper first.
* The Tobit NLL supports both censoring orientations through `side`:
  "lower" uses Phi for censored rows (latent below the threshold),
  "upper" uses 1 - Phi.

All functions are pure and operate on numpy arrays (or scalars where
noted); gradients are exact almost everywhere, with documented tie
breaks at the kinks.
"""

from __future__ import annotations

import math

import numpy as np

from .normal import (
    normal_cdf,
    normal_log_pdf,
    normal_pdf,
    normal_survival,
    std_normal_quantile,
)

__all__ = [
    "tilted_loss",
    "tilted_loss_subgrad",
    "censored_qr_nll",
    "censored_qr_nll_grad",
    "tobit_nll",
    "tobit_nll_grad_mean",
    "tobit_nll_grad_log_sigma",
    "std_normal_quantile",
]

# Floor for the censored-side probability before taking its log; keeps the
# Tobit loss finite for extreme standardized residuals.
PROB_FLOOR = 1e-300


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    return theta


def _tilted(r, theta):
    return np.maximum(theta * r, (theta - 1.0) * r)


def _tilted_subgrad(r, theta):
    return np.where(r >= 0.0, theta, theta - 1.0)


def tilted_loss(r, theta):
    """rho_theta(r) = max(theta*r, (theta-1)*r), elementwise."""
    out = _tilted(np.asarray(r, dtype=float), _check_theta(theta))
    return float(out) if out.ndim == 0 else out


def tilted_loss_subgrad(r, theta):
    """d rho_theta / d r; the kink at r = 0 takes the upper branch (theta)."""
    out = _tilted_subgrad(np.asarray(r, dtype=float), _check_theta(theta))
    return float(out) if out.ndim == 0 else out


def _as_1d(name, x, n=None):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"{name} has length {x.shape[0]}, expected {n}")
    return x


# The underscored kernels below take arguments that were already validated;
# the training loop validates its data once and calls them every epoch.

def _censored_qr_nll(y, tau, preds, theta):
    return float(np.sum(_tilted(y - np.maximum(tau, preds), theta)))


def _censored_qr_nll_grad(y, tau, preds, theta):
    return np.where(preds < tau, 0.0, -_tilted_subgrad(y - preds, theta))


def censored_qr_nll(y, tau, preds, theta, include_constant=False):
    """Negative log-likelihood of the censored quantile model (summed).

    sum_i rho_theta(y_i - max(tau_i, qhat_i)); with `include_constant` the
    parameter-free term -N log(theta) - N log(1-theta) is added. The
    training loop always uses the constant-free form.
    """
    theta = _check_theta(theta)
    y = _as_1d("y", y)
    if y.shape[0] < 1:
        raise ValueError("need at least one observation")
    tau = _as_1d("tau", tau, y.shape[0])
    preds = _as_1d("preds", preds, y.shape[0])
    total = _censored_qr_nll(y, tau, preds, theta)
    if include_constant:
        n = y.shape[0]
        total += -n * math.log(theta) - n * math.log(1.0 - theta)
    return total


def censored_qr_nll_grad(y, tau, preds, theta):
    """d NLL / d qhat_i for the summed censored quantile NLL.

    Rows with qhat < tau are clamped and carry no gradient; the tie
    qhat == tau passes gradient through the prediction branch.
    """
    theta = _check_theta(theta)
    y = _as_1d("y", y)
    tau = _as_1d("tau", tau, y.shape[0])
    preds = _as_1d("preds", preds, y.shape[0])
    return _censored_qr_nll_grad(y, tau, preds, theta)


def _check_sigma(sigma) -> float:
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return sigma


def _check_tobit_data(y, censored):
    y = _as_1d("y", y)
    censored = np.asarray(censored, dtype=bool)
    if censored.shape != y.shape:
        raise ValueError("censored flags must match y")
    return y, censored


def _tobit_args(y, censored, means, sigma, side):
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    sigma = _check_sigma(sigma)
    y, censored = _check_tobit_data(y, censored)
    return y, censored, _as_1d("means", means, y.shape[0]), sigma, side


def _tobit_prob(z, side):
    prob = normal_cdf(z) if side == "lower" else normal_survival(z)
    return np.maximum(prob, PROB_FLOOR)


def _tobit_nll(y, censored, means, sigma, side):
    z = (y - means) / sigma
    cens_ll = np.log(_tobit_prob(z, side))
    dens_ll = normal_log_pdf(z) - math.log(sigma)
    return float(-np.sum(np.where(censored, cens_ll, dens_ll)))


def _tobit_nll_grad_mean(y, censored, means, sigma, side):
    z = (y - means) / sigma
    prob = _tobit_prob(z, side)
    pdf = normal_pdf(z)
    if side == "lower":
        g_cens = pdf / prob / sigma
    else:
        g_cens = -pdf / prob / sigma
    g_dens = -(y - means) / sigma**2
    return np.where(censored, g_cens, g_dens)


def _tobit_nll_grad_log_sigma(y, censored, means, sigma, side):
    z = (y - means) / sigma
    prob = _tobit_prob(z, side)
    pdf = normal_pdf(z)
    # dz/dlog(sigma) = -z; censored: -dlog(prob); density: 1 - z^2.
    if side == "lower":
        g_cens = z * pdf / prob
    else:
        g_cens = -z * pdf / prob
    g_dens = 1.0 - z * z
    return float(np.sum(np.where(censored, g_cens, g_dens)))


def tobit_nll(y, censored, means, sigma, side="lower"):
    """Tobit negative log-likelihood with fixed sigma (summed).

    Non-censored rows contribute -log phi(z) + log sigma with
    z = (y - mu)/sigma; censored rows contribute -log Phi(z) for lower
    censorship or -log(1 - Phi(z)) for upper. The censored-side
    probability is floored at 1e-300 before the log.
    """
    return _tobit_nll(*_tobit_args(y, censored, means, sigma, side))


def tobit_nll_grad_mean(y, censored, means, sigma, side="lower"):
    """d NLL / d mu_i for the summed Tobit NLL."""
    return _tobit_nll_grad_mean(*_tobit_args(y, censored, means, sigma, side))


def tobit_nll_grad_log_sigma(y, censored, means, sigma, side="lower"):
    """d NLL / d log(sigma), for joint scale estimation."""
    return _tobit_nll_grad_log_sigma(*_tobit_args(y, censored, means, sigma, side))
