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
# the training objectives at the end of this module validate once per fit.

def _censored_qr_nll(y, tau, preds, theta):
    return float(_tilted(y - np.maximum(tau, preds), theta).sum())


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
    return np.where(preds < tau, 0.0, -_tilted_subgrad(y - preds, theta))


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
    """Validate, then (censored, r, z, prob, sigma, side) as the kernels take them."""
    if side not in ("lower", "upper"):
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    sigma = _check_sigma(sigma)
    y, censored = _check_tobit_data(y, censored)
    return (censored, *_tobit_z(y, _as_1d("means", means, y.shape[0]), sigma, side), sigma, side)


def _tobit_z(y, means, sigma, side):
    """r = y - mu, z = r / sigma and the floored censored-side probability."""
    r = y - means
    z = r / sigma
    prob = normal_cdf(z) if side == "lower" else normal_survival(z)
    return r, z, np.maximum(prob, PROB_FLOOR)


def _tobit_nll(censored, z, prob, sigma):
    dens_ll = normal_log_pdf(z) - math.log(sigma)
    return float(-np.where(censored, np.log(prob), dens_ll).sum())


def _tobit_grads(censored, r, z, prob, sigma, side, log_sigma=True):
    """d NLL / d mu_i and, with `log_sigma`, d NLL / d log(sigma) (else None)."""
    spdf = normal_pdf(z) if side == "lower" else -normal_pdf(z)
    grad_mean = np.where(censored, spdf / prob / sigma, -r / sigma**2)
    if not log_sigma:
        return grad_mean, None
    # dz/dlog(sigma) = -z; censored: -dlog(prob); density: 1 - z^2.
    return grad_mean, float(np.where(censored, z * spdf / prob, 1.0 - z * z).sum())


def tobit_nll(y, censored, means, sigma, side="lower"):
    """Tobit negative log-likelihood with fixed sigma (summed).

    Non-censored rows contribute -log phi(z) + log sigma with
    z = (y - mu)/sigma; censored rows contribute -log Phi(z) for lower
    censorship or -log(1 - Phi(z)) for upper. The censored-side
    probability is floored at 1e-300 before the log.
    """
    censored, _, z, prob, sigma, _ = _tobit_args(y, censored, means, sigma, side)
    return _tobit_nll(censored, z, prob, sigma)


def tobit_nll_grad_mean(y, censored, means, sigma, side="lower"):
    """d NLL / d mu_i for the summed Tobit NLL."""
    return _tobit_grads(*_tobit_args(y, censored, means, sigma, side), log_sigma=False)[0]


def tobit_nll_grad_log_sigma(y, censored, means, sigma, side="lower"):
    """d NLL / d log(sigma), for joint scale estimation."""
    return _tobit_grads(*_tobit_args(y, censored, means, sigma, side))[1]


# -- training objectives ------------------------------------------------------
# One object per loss validates its dataset (and theta) once per fit. Each epoch
# `value` gives the mean per-point loss; `value_and_grad` gives that value, its
# gradient w.r.t. the predictions and those of the loss's own parameters.

class _QuantileLoss:
    def __init__(self, ds, theta, net):
        if theta is None:
            raise ValueError(f"{self.name} loss needs a quantile level")
        self.theta = _check_theta(theta)
        self.y, self.tau, self.n = _as_1d("y", ds.y), _as_1d("tau", ds.tau, ds.n), ds.n
        # -rho'(r) / n on either side of the kink: d(mean loss) / d qhat
        self._dpred_upper, self._dpred_lower = -self.theta / self.n, -(self.theta - 1.0) / self.n


class TiltedLoss(_QuantileLoss):
    """Mean tilted loss of y - qhat; blind to censoring."""

    name = "tilted"

    def value(self, preds) -> float:
        return float(_tilted(self.y - preds, self.theta).sum()) / self.n

    def value_and_grad(self, preds):
        r = self.y - preds
        dpred = np.where(r >= 0.0, self._dpred_upper, self._dpred_lower)
        return float(_tilted(r, self.theta).sum()) / self.n, dpred, {}


class CensoredQrLoss(_QuantileLoss):
    """Mean censored quantile NLL of y - max(tau, qhat); left-censored data."""

    name = "censored_nll"

    def __init__(self, ds, theta, net):
        super().__init__(ds, theta, net)
        if ds.side != "left":
            raise ValueError("censored_nll expects left-censored data; mirror right-censored data first")
        if np.any(np.isnan(self.tau)):
            raise ValueError("dataset has unimputed thresholds (NaN tau)")

    def value(self, preds) -> float:
        return _censored_qr_nll(self.y, self.tau, preds, self.theta) / self.n

    def value_and_grad(self, preds):
        # where qhat >= tau, max(tau, qhat) == qhat: the clamped residual is
        # y - qhat on every row whose gradient is not zeroed
        r = self.y - np.maximum(self.tau, preds)
        dpred = np.where(preds < self.tau, 0.0, np.where(r >= 0.0, self._dpred_upper, self._dpred_lower))
        return float(_tilted(r, self.theta).sum()) / self.n, dpred, {}


class TobitLoss:
    """Mean Tobit NLL, lower for left-censored data and upper for right.

    The scale is the TobitNet's current sigma, checked every epoch; when
    it is learned, this loss also returns the `log_sigma` gradient.
    """

    def __init__(self, ds, theta, net):
        self.y, self.censored = _check_tobit_data(ds.y, ds.censored)
        self.n = ds.n
        self.side = "lower" if ds.side == "left" else "upper"
        self._net = net
        self._learned = "log_sigma" in net.params

    def value(self, preds) -> float:
        sigma = _check_sigma(self._net.current_sigma())
        _, z, prob = _tobit_z(self.y, preds, sigma, self.side)
        return _tobit_nll(self.censored, z, prob, sigma) / self.n

    def value_and_grad(self, preds):
        sigma = _check_sigma(self._net.current_sigma())
        r, z, prob = _tobit_z(self.y, preds, sigma, self.side)
        grad_mean, grad_log_sigma = _tobit_grads(self.censored, r, z, prob, sigma, self.side, self._learned)
        param_grads = {"log_sigma": np.array([grad_log_sigma / self.n])} if self._learned else {}
        return _tobit_nll(self.censored, z, prob, sigma) / self.n, grad_mean / self.n, param_grads


TRAINING_LOSSES = {"tilted": TiltedLoss, "censored_nll": CensoredQrLoss, "tobit": TobitLoss}
