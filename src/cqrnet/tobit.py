"""Parametric censored baseline: linear Gaussian latent model (Tobit).

The latent distribution at x is N(x . beta, sigma^2) with sigma fixed at 1
by default, trained under the censored Gaussian NLL through the shared
Adam loop (same clipping and early-stopping contract). Quantiles are
x . beta + sigma * Phi^{-1}(theta), so the 5%-95% interval width is
covariate-independent: 2 * sigma * Phi^{-1}(0.95).

Joint scale estimation (log-sigma parameterization) is available behind
`estimate_sigma` for real-data use; the benchmark comparisons keep sigma
fixed.
"""

from __future__ import annotations

import numpy as np

from .datagen import CensoredDataset
from .models import LinearQuantileNet, init_weights
from .normal import std_normal_quantile
from .training import TrainConfig, FitResult, fit

__all__ = ["TobitNet", "TobitModel", "tobit_fit", "tobit_quantiles"]


class TobitNet(LinearQuantileNet):
    """Linear mean model carrying the scale for the Tobit likelihood."""

    family = "tobit"

    def __init__(self, dim, sigma=1.0, estimate_sigma=False):
        super().__init__(dim, activation="identity")
        if not (np.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        self.sigma = float(sigma)
        self.estimate_sigma = bool(estimate_sigma)
        if estimate_sigma:
            self.param_order = ("beta", "log_sigma")
            self.params["log_sigma"] = np.array([np.log(self.sigma)])

    def current_sigma(self) -> float:
        if self.estimate_sigma:
            return float(np.exp(self.params["log_sigma"][0]))
        return self.sigma

    # bound here for perfbench; a learned log_sigma's gradient comes from losses.TobitLoss
    backward = LinearQuantileNet.backward

    def config(self):
        return {"dim": self.dim, "sigma": self.sigma, "estimate_sigma": self.estimate_sigma}


class TobitModel:
    """Fitted Tobit parameters with the quantile map."""

    def __init__(self, beta, sigma=1.0, side="left"):
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.beta = np.asarray(beta, dtype=float)
        if sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.sigma = float(sigma)
        self.side = side

    @classmethod
    def from_fit(cls, result: FitResult, side) -> "TobitModel":
        net = result.net
        sigma = net.current_sigma() if isinstance(net, TobitNet) else 1.0
        return cls(net.params["beta"], sigma=sigma, side=side)


def tobit_fit(train: CensoredDataset, val: CensoredDataset, cfg: TrainConfig,
              sigma=1.0, estimate_sigma=False, init_scheme="ones", init_seed=None) -> FitResult:
    """Minimize the Tobit NLL over the linear mean via the shared Adam loop.

    The likelihood orientation follows the dataset side (left-censored
    data uses the lower form). Weights start at ones unless a different
    scheme is requested.
    """
    net = TobitNet(train.X.shape[1], sigma=sigma, estimate_sigma=estimate_sigma)
    init_weights(net, init_scheme, seed=init_seed)
    if estimate_sigma:
        net.params["log_sigma"] = np.array([np.log(sigma)])
    return fit(net, "tobit", train, val, cfg)


def tobit_quantiles(model: TobitModel, X, theta):
    """q_theta(y*|x) = x . beta + sigma * Phi^{-1}(theta)."""
    X = np.asarray(X, dtype=float)
    return X @ model.beta + model.sigma * std_normal_quantile(theta)
