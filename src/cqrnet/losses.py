"""Loss functions and their (sub)gradients.

Conventions
-----------
* The tilted (pinball) loss is rho_theta(r) = max(theta*r, (theta-1)*r).
  Quantile fitting feeds it the residual r = y - qhat, so under-prediction
  of a high quantile (theta near 1) is the expensive direction.
* The censored quantile NLL clamps predictions at the per-row threshold:
  sum_i rho_theta(y_i - max(tau_i, qhat_i)). The Tobit NLL uses Phi for
  censored rows (latent below the threshold). Both read left-censored rows
  (y >= tau) only: a right-censored row is passed mirrored, its y, tau and
  predictions negated, as `training.fit` does through the MirrorWrapper.

Each formula is one private kernel: the tilted value and subgradient, the
censored clamp and its gradient, and the Tobit per-row log-likelihood with
its mean and log-sigma gradients. The training objectives in
`TRAINING_LOSSES`, which `training.fit` calls once per epoch, run these
kernels; so do the public functions, which are validating views of one
set of rows (elementwise or summed, at a fixed level and scale).
Gradients are exact almost everywhere, with documented tie breaks at the
kinks.
"""

from __future__ import annotations

import math

import numpy as np

from .normal import normal_cdf, normal_log_pdf, normal_pdf

__all__ = [
    "tilted_loss",
    "tilted_loss_subgrad",
    "censored_qr_nll",
    "censored_qr_nll_grad",
    "tobit_nll",
    "tobit_nll_grad_mean",
    "TRAINING_LOSSES",
]

# Floor for the censored-side probability before taking its log; keeps the
# Tobit loss finite for extreme standardized residuals.
PROB_FLOOR = 1e-300


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must be in (0, 1), got {theta}")
    return theta


def _as_1d(name, x, n=None):
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {x.shape}")
    if n is not None and x.shape[0] != n:
        raise ValueError(f"{name} has length {x.shape[0]}, expected {n}")
    return x


# -- kernels: arguments already validated -------------------------------------

# The optional `out`, `branch` and `mask` arguments are work arrays that a training
# objective allocates once per fit; the public views pass none.

def _tilted(r, theta, out=None, branch=None):
    return np.maximum(np.multiply(r, theta, out=out), np.multiply(r, theta - 1.0, out=branch), out=out)


def _tilted_grad(r, nonneg, neg, mask=None):
    """rho'(r) times a scale: `nonneg` = theta * scale where r >= 0 (the
    kink takes theta), `neg` = (theta - 1) * scale elsewhere. Each of
    the three callers still computes its own branch values (training's are
    arrays of one value per training row, pre-divided by n to keep their
    bits) until perfbench stops wrapping the two public views by name."""
    return np.where(np.greater_equal(r, 0.0, out=mask), nonneg, neg)


def _clamped_residual(y, tau, preds, out=None):
    return np.subtract(y, np.maximum(tau, preds, out=out), out=out)


def _clamped_grad(tau, preds, grad, mask=None):
    """Rows clamped at their threshold (qhat < tau) carry no gradient; the
    tie qhat == tau passes `grad` through the prediction branch. Where
    qhat >= tau the clamped residual is y - qhat."""
    return np.where(np.less(preds, tau, out=mask), 0.0, grad)


def _tobit_z(y, means, sigma):
    """r = y - mu, z = r / sigma and the floored censored-side probability Phi(z)."""
    r = y - means
    z = r / sigma
    return r, z, np.maximum(normal_cdf(z), PROB_FLOOR)


def _tobit_ll_rows(censored, z, prob, sigma):
    """Per-row log-likelihood: log prob where censored, else log phi(z) - log sigma."""
    return np.where(censored, np.log(prob), normal_log_pdf(z) - math.log(sigma))


def _tobit_grads(censored, r, z, prob, sigma, log_sigma=True):
    """d NLL / d mu_i and, with `log_sigma`, d NLL / d log(sigma) (else None)."""
    spdf = normal_pdf(z)
    grad_mean = np.where(censored, spdf / prob / sigma, -r / sigma**2)
    if not log_sigma:
        return grad_mean, None
    # dz/dlog(sigma) = -z; censored: -dlog(prob); density: 1 - z^2.
    return grad_mean, float(np.where(censored, z * spdf / prob, 1.0 - z * z).sum())


# -- public views: validate, then run the kernels -----------------------------

def _scalar_or_array(out):
    return float(out) if out.ndim == 0 else out


def tilted_loss(r, theta):
    """rho_theta(r) = max(theta*r, (theta-1)*r), elementwise."""
    return _scalar_or_array(_tilted(np.asarray(r, dtype=float), _check_theta(theta)))


def tilted_loss_subgrad(r, theta):
    """d rho_theta / d r; the kink at r = 0 takes theta."""
    theta = _check_theta(theta)
    return _scalar_or_array(_tilted_grad(np.asarray(r, dtype=float), theta, theta - 1.0))


def _censored_rows(y, tau, preds, theta):
    """Validated (tau, preds, clamped residual, theta) of one set of rows."""
    theta = _check_theta(theta)
    y = _as_1d("y", y)
    if y.shape[0] < 1:
        raise ValueError("need at least one observation")
    tau, preds = _as_1d("tau", tau, y.shape[0]), _as_1d("preds", preds, y.shape[0])
    return tau, preds, _clamped_residual(y, tau, preds), theta


def censored_qr_nll(y, tau, preds, theta):
    """Negative log-likelihood of the censored quantile model (summed).

    sum_i rho_theta(y_i - max(tau_i, qhat_i)).
    """
    _, _, r, theta = _censored_rows(y, tau, preds, theta)
    return float(_tilted(r, theta).sum())


def censored_qr_nll_grad(y, tau, preds, theta):
    """d NLL / d qhat_i for the summed censored quantile NLL.

    Rows with qhat < tau are clamped and carry no gradient; the tie
    qhat == tau passes gradient through the prediction branch.
    """
    tau, preds, r, theta = _censored_rows(y, tau, preds, theta)
    return _clamped_grad(tau, preds, _tilted_grad(r, -theta, 1.0 - theta))


def _tobit_rows(y, censored, means, sigma):
    """Validated (censored, r, z, prob, sigma) of one set of rows."""
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    y = _as_1d("y", y)
    censored = np.asarray(censored, dtype=bool)
    if censored.shape != y.shape:
        raise ValueError("censored flags must match y")
    return censored, *_tobit_z(y, _as_1d("means", means, y.shape[0]), sigma), sigma


def tobit_nll(y, censored, means, sigma):
    """Tobit negative log-likelihood of left-censored rows, fixed sigma (summed).

    Non-censored rows contribute -log phi(z) + log sigma with
    z = (y - mu)/sigma; censored rows contribute -log Phi(z), floored at
    1e-300 before the log. Right-censored rows are passed mirrored.
    """
    censored, _, z, prob, sigma = _tobit_rows(y, censored, means, sigma)
    return float(-_tobit_ll_rows(censored, z, prob, sigma).sum())


def tobit_nll_grad_mean(y, censored, means, sigma):
    """d NLL / d mu_i for the summed Tobit NLL."""
    return _tobit_grads(*_tobit_rows(y, censored, means, sigma), log_sigma=False)[0]


# -- training objectives ------------------------------------------------------
# One object per fit validates theta and the training rows followed by the validation
# rows once. Called on one pass's predictions, it returns the train and val means (each
# summed over its own slice), dpred for the training rows and its own parameters' grads.

class NonFiniteLossError(RuntimeError):
    """Training aborted on a non-finite loss; carries the traces so far."""

    def __init__(self, message, train_trace=None, val_trace=None):
        super().__init__(message)
        self.train_trace = train_trace or []
        self.val_trace = val_trace or []


class _TrainingLoss:
    left_only = True  # a censored likelihood: `training.fit` mirrors right-censored sets for it

    def __init__(self, train, val):
        if self.left_only and (train.side != "left" or val.side != "left"):
            raise ValueError(f"{self.name} expects left-censored data; mirror right-censored data first")
        self.n, self.n_val = train.n, val.n
        self.y = np.concatenate([_as_1d("y", train.y, train.n), _as_1d("y", val.y, val.n)])

    def _means(self, per_row):
        n = self.n
        return float(np.add.reduce(per_row[:n])) / n, float(np.add.reduce(per_row[n:])) / self.n_val


class _QuantileLoss(_TrainingLoss):
    def __init__(self, train, val, theta, net):
        super().__init__(train, val)
        if theta is None:
            raise ValueError(f"{self.name} loss needs a quantile level")
        self.theta = _check_theta(theta)
        self.tau = _as_1d("tau", np.concatenate([train.tau, val.tau]), self.y.shape[0])
        n = self.n
        # work arrays written every epoch: the residual, rho(r), rho's other branch and a mask
        # over the training rows, with the views of their blocks that an epoch reads
        self._r, self._rho, self._branch = np.empty_like(self.y), np.empty_like(self.y), np.empty_like(self.y)
        self._mask, self._tau_train = np.empty(n, dtype=bool), self.tau[:n]
        self._r_train, self._rho_train, self._rho_val = self._r[:n], self._rho[:n], self._rho[n:]
        # -rho'(r) / n on either side of the kink, d(mean loss) / d qhat, for each training row
        self._dpred_nonneg, self._dpred_neg = np.full(n, -self.theta / n), np.full(n, -(self.theta - 1.0) / n)

    def _terms(self, r):
        """The train and val means of rho(r) and the training rows' dpred, for r in `_r`."""
        dpred = _tilted_grad(self._r_train, self._dpred_nonneg, self._dpred_neg, self._mask)
        _tilted(r, self.theta, self._rho, self._branch)
        return float(np.add.reduce(self._rho_train)) / self.n, float(np.add.reduce(self._rho_val)) / self.n_val, dpred


class TiltedLoss(_QuantileLoss):
    """Mean tilted loss of y - qhat; blind to censoring."""

    name, left_only = "tilted", False

    def __call__(self, preds):
        return *self._terms(np.subtract(self.y, preds, out=self._r)), {}


class CensoredQrLoss(_QuantileLoss):
    """Mean censored quantile NLL of y - max(tau, qhat); left-censored data."""

    name = "censored_nll"

    def __init__(self, train, val, theta, net):
        super().__init__(train, val, theta, net)
        if np.any(np.isnan(self.tau)):
            raise ValueError("dataset has unimputed thresholds (NaN tau)")
        if np.all(self.y[:self.n] == self.tau[:self.n]):
            raise ValueError("every training row has y == tau, where the censored NLL is flat: any prediction "
                             "clamped at the thresholds scores zero loss, so the fit has nothing to learn")

    def __call__(self, preds):
        tr, va, dpred = self._terms(_clamped_residual(self.y, self.tau, preds, self._r))
        return tr, va, _clamped_grad(self._tau_train, preds[:self.n], dpred, self._mask), {}


class TobitLoss(_TrainingLoss):
    """Mean Tobit NLL of left-censored data.

    The scale is the TobitNet's current sigma; one not positive and finite
    (a learned scale that overflowed) raises NonFiniteLossError. A learned
    scale also gets its `log_sigma` gradient. One Phi call per epoch.
    """

    name = "tobit"

    def __init__(self, train, val, theta, net):
        super().__init__(train, val)
        self.censored = np.concatenate([train.censored, val.censored]).astype(bool)
        if self.censored.shape != self.y.shape:
            raise ValueError("censored flags must match y")
        self._net = net
        self._learned = "log_sigma" in net.params

    def __call__(self, preds):
        sigma = self._net.current_sigma()
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise NonFiniteLossError(f"Tobit scale sigma = {sigma} is not positive and finite")
        n = self.n
        r, z, prob = _tobit_z(self.y, preds, sigma)
        tr, va = self._means(_tobit_ll_rows(self.censored, z, prob, sigma))
        grad_mean, grad_log_sigma = _tobit_grads(self.censored[:n], r[:n], z[:n], prob[:n], sigma, self._learned)
        param_grads = {"log_sigma": np.array([grad_log_sigma / n])} if self._learned else {}
        return -tr, -va, grad_mean / n, param_grads


TRAINING_LOSSES = {"tilted": TiltedLoss, "censored_nll": CensoredQrLoss, "tobit": TobitLoss}
