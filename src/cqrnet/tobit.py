"""Parametric censored baseline: linear Gaussian latent model (Tobit).

The latent distribution at x is N(x . beta, sigma^2), trained under the
censored Gaussian NLL through the shared Adam loop (same clipping and
early-stopping contract). The net is `models.TobitNet`, a registered
family like the others (re-exported here); its `quantile(X, theta)` is
x . beta + sigma * Phi^{-1}(theta), so the 5%-95% interval width is
covariate-independent: 2 * sigma * Phi^{-1}(0.95).

Table 3 and `cqrnet fit` fit the registry's `tobit` model (sigma fixed at
1) through `experiments.fit_model`. `tobit_fit` is the library entry for
other settings, a learned scale (log-sigma parameterization, starting at
the given sigma) among them.
"""

from __future__ import annotations

from .datagen import CensoredDataset
from .models import TobitNet, init_weights
from .training import TrainConfig, FitResult, fit

__all__ = ["TobitNet", "tobit_fit"]


def tobit_fit(train: CensoredDataset, val: CensoredDataset, cfg: TrainConfig,
              sigma=1.0, estimate_sigma=False, init_scheme="ones", init_seed=None) -> FitResult:
    """Minimize the Tobit NLL over the linear mean via the shared Adam loop.

    The likelihood orientation follows the dataset side (left-censored
    data uses the lower form). Weights start at ones unless a different
    scheme is requested. The result has no theta, so its `predict` raises
    ValueError: predict through `result.net.quantile(X, theta)`.
    """
    net = TobitNet(train.X.shape[1], sigma=sigma, estimate_sigma=estimate_sigma)
    return fit(init_weights(net, init_scheme, seed=init_seed), "tobit", train, val, cfg)
