"""Full-batch gradient fitting with Adam, norm clipping and early stopping.

Every epoch processes the whole training set in one batch. The optimizer
minimizes the mean per-point loss (identical optimum to the summed NLL;
keeps gradient norms commensurate with clip_norm across dataset sizes).
Clipping rescales the global gradient norm across all parameters before
the Adam moment updates. Training stops once the validation loss has not
improved for `patience` consecutive epochs, and the parameters from the
best validation epoch are returned.

Right-censored data must go through the mirror route: `fit_quantile`
negates the dataset, fits the inner net at level 1 - theta, and returns
a MirrorWrapper whose predictions are already in the original
orientation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import losses
from .datagen import CensoredDataset, CensoredSeries
from .models import MirrorWrapper

__all__ = [
    "TrainConfig",
    "FitResult",
    "NonFiniteLossError",
    "AllFitsDivergedError",
    "fit",
    "fit_quantile",
    "fit_with_lr_grid",
    "mirror_fit_predict",
    "train_mean_ratio",
    "impute_thresholds",
    "impute_dataset_thresholds",
    "InitCandidate",
    "select_initialization",
    "write_trace_csv",
]

LOSS_KINDS = ("tilted", "censored_nll", "tobit")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    lr_grid: tuple = (0.001, 0.01, 0.1, 1.0)
    clip_norm: float = 1.0
    patience: int = 10
    max_epochs: int = 5000
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0.0 or any(lr <= 0.0 for lr in self.lr_grid):
            raise ValueError("learning rates must be positive")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.clip_norm <= 0.0:
            raise ValueError("clip_norm must be positive")


@dataclass
class FitResult:
    net: object
    loss_kind: str
    theta: float | None
    learning_rate: float
    seed: int
    train_trace: list
    val_trace: list
    best_epoch: int
    stopping_epoch: int
    hit_max_epochs: bool
    wall_time: float
    mirrored: bool = False

    @property
    def best_val_loss(self) -> float:
        return self.val_trace[self.best_epoch]

    def predict(self, X):
        return self.net.forward(X)

    def to_json_dict(self) -> dict:
        return {
            "net": self.net.to_dict(),
            "loss_kind": self.loss_kind,
            "theta": self.theta,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "best_epoch": self.best_epoch,
            "stopping_epoch": self.stopping_epoch,
            "hit_max_epochs": self.hit_max_epochs,
            "wall_time": self.wall_time,
            "mirrored": self.mirrored,
            "train_trace": self.train_trace,
            "val_trace": self.val_trace,
        }


class NonFiniteLossError(RuntimeError):
    """Training aborted on a non-finite loss; carries the traces so far."""

    def __init__(self, message, train_trace=None, val_trace=None):
        super().__init__(message)
        self.train_trace = train_trace or []
        self.val_trace = val_trace or []


class AllFitsDivergedError(RuntimeError):
    """Every learning rate in the grid diverged."""

    def __init__(self, diagnostics):
        super().__init__(
            "all learning rates diverged: "
            + "; ".join(f"lr={lr}: {msg}" for lr, msg in diagnostics.items())
        )
        self.diagnostics = diagnostics


class _Adam:
    def __init__(self, params, cfg: TrainConfig):
        self.lr = cfg.learning_rate
        self.b1, self.b2, self.eps = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params, grads):
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for k, g in grads.items():
            self.m[k] = self.b1 * self.m[k] + (1.0 - self.b1) * g
            self.v[k] = self.b2 * self.v[k] + (1.0 - self.b2) * g * g
            params[k] = params[k] - self.lr * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)


def _global_norm(grads) -> float:
    return math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))


def _clip(grads, clip_norm):
    norm = _global_norm(grads)
    if norm > clip_norm:
        scale = clip_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads


class _LossSpec:
    """Mean per-point loss and its gradient w.r.t. the predictions.

    The data and the quantile level are validated here, once per fit; the
    per-epoch methods call the loss kernels on them directly. Only sigma,
    which the Tobit fit may learn, is checked every epoch.
    """

    def __init__(self, kind, ds: CensoredDataset, theta):
        if kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {kind!r}")
        if kind in ("tilted", "censored_nll"):
            if theta is None:
                raise ValueError(f"{kind} loss needs a quantile level")
            theta = losses._check_theta(theta)
        if kind == "censored_nll" and ds.side != "left":
            raise ValueError("censored_nll expects left-censored data; mirror right-censored data first")
        if kind == "censored_nll" and np.any(np.isnan(ds.tau)):
            raise ValueError("dataset has unimputed thresholds (NaN tau)")
        self.kind = kind
        self.theta = theta
        self.y, self.censored = losses._check_tobit_data(ds.y, ds.censored)
        self.tau = losses._as_1d("tau", ds.tau, ds.n)
        self.n = ds.n
        # Tobit orientation follows the data side: left-censored data is
        # clipped from below ("lower"), right-censored from above.
        self.tobit_side = "lower" if ds.side == "left" else "upper"

    def value(self, preds, sigma=1.0) -> float:
        if self.kind == "tilted":
            return float(np.mean(losses._tilted(self.y - preds, self.theta)))
        if self.kind == "censored_nll":
            return losses._censored_qr_nll(self.y, self.tau, preds, self.theta) / self.n
        return losses._tobit_nll(self.y, self.censored, preds, losses._check_sigma(sigma), self.tobit_side) / self.n

    def dpred(self, preds, sigma=1.0):
        if self.kind == "tilted":
            return -losses._tilted_subgrad(self.y - preds, self.theta) / self.n
        if self.kind == "censored_nll":
            return losses._censored_qr_nll_grad(self.y, self.tau, preds, self.theta) / self.n
        return losses._tobit_nll_grad_mean(self.y, self.censored, preds, losses._check_sigma(sigma),
                                           self.tobit_side) / self.n

    def dlog_sigma(self, preds, sigma) -> float:
        return losses._tobit_nll_grad_log_sigma(self.y, self.censored, preds, losses._check_sigma(sigma),
                                                self.tobit_side) / self.n


def _net_sigma(net) -> float:
    if "log_sigma" in net.params:
        return float(np.exp(net.params["log_sigma"][0]))
    return float(getattr(net, "sigma", 1.0))


def fit(net, loss_kind, train, val, cfg: TrainConfig, theta=None) -> FitResult:
    """Adam-fit `net` on `train`, early-stopping on `val`.

    The returned result holds a copy of the net restored to the best
    validation epoch. Raises NonFiniteLossError if either loss leaves the
    reals (the lr-grid driver treats that as a diverged cell).
    """
    if train.n < 1 or val.n < 1:
        raise ValueError("train and val must be nonempty")
    train_loss = _LossSpec(loss_kind, train, theta)
    val_loss = _LossSpec(loss_kind, val, theta)
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(net.params, cfg)
    started = time.perf_counter()

    train_trace, val_trace = [], []
    best = math.inf
    best_epoch = 0
    best_params = {k: v.copy() for k, v in net.params.items()}
    hit_max = True
    epoch = 0
    for epoch in range(cfg.max_epochs):
        sigma = _net_sigma(net)
        preds = net.forward_train(train.X, rng)
        tr = train_loss.value(preds, sigma) + net.l2_penalty()
        va = val_loss.value(net.forward(val.X), sigma)
        if not (math.isfinite(tr) and math.isfinite(va)):
            raise NonFiniteLossError(
                f"non-finite loss at epoch {epoch} (train={tr}, val={va})", train_trace, val_trace
            )
        train_trace.append(tr)
        val_trace.append(va)
        if va < best:
            best = va
            best_epoch = epoch
            best_params = {k: v.copy() for k, v in net.params.items()}
        if epoch - best_epoch >= cfg.patience:
            hit_max = False
            break
        grads = net.backward(train_loss.dpred(preds, sigma))
        if loss_kind == "tobit" and "log_sigma" in grads:
            grads["log_sigma"] = np.array([train_loss.dlog_sigma(preds, sigma)])
        grads = _clip(grads, cfg.clip_norm)
        opt.step(net.params, grads)

    fitted = net.copy()
    fitted.params = {k: v.copy() for k, v in best_params.items()}
    return FitResult(
        net=fitted,
        loss_kind=loss_kind,
        theta=theta,
        learning_rate=cfg.learning_rate,
        seed=cfg.seed,
        train_trace=train_trace,
        val_trace=val_trace,
        best_epoch=best_epoch,
        stopping_epoch=epoch,
        hit_max_epochs=hit_max,
        wall_time=time.perf_counter() - started,
    )


def fit_quantile(net, loss_kind, train, val, cfg, theta) -> FitResult:
    """Orientation-aware quantile fit.

    For censored losses on right-censored data, fits the net on the
    negated (left-censored) datasets at level 1 - theta and returns the
    result with a MirrorWrapper net, so predictions are already mirrored
    back. The censorship-unaware tilted loss trains directly either way.
    """
    if loss_kind == "censored_nll" and train.side == "right":
        result = fit(net, loss_kind, train.mirrored(), val.mirrored(), cfg, theta=1.0 - theta)
        result.net = MirrorWrapper(result.net)
        result.theta = theta
        result.mirrored = True
        return result
    return fit(net, loss_kind, train, val, cfg, theta=theta)


def mirror_fit_predict(net, train, val, theta, cfg, X) -> np.ndarray:
    """Fit on right-censored data through the mirror and predict at X."""
    if train.side != "right":
        raise ValueError("mirror fitting applies to right-censored data only")
    result = fit_quantile(net, "censored_nll", train, val, cfg, theta)
    return result.net.forward(X)


def fit_with_lr_grid(net_factory, loss_kind, train, val, cfg: TrainConfig, theta=None) -> FitResult:
    """One fit per grid learning rate from identical initial weights;
    returns the one with the smallest best-epoch validation loss (ties go
    to the smaller rate). Diverged rates are excluded; if every rate
    diverges the per-rate diagnostics are raised together."""
    if not cfg.lr_grid:
        raise ValueError("lr_grid must be nonempty")
    best_result = None
    diagnostics = {}
    for lr in sorted(cfg.lr_grid):
        try:
            result = fit_quantile(net_factory(), loss_kind, train, val, replace(cfg, learning_rate=lr), theta)
        except NonFiniteLossError as exc:
            diagnostics[lr] = str(exc)
            continue
        if best_result is None or result.best_val_loss < best_result.best_val_loss:
            best_result = result
    if best_result is None:
        raise AllFitsDivergedError(diagnostics)
    return best_result


def train_mean_ratio(y_star_train, y_train) -> float:
    """mean(train y*) / mean(train y); the threshold-imputation ratio."""
    denom = float(np.mean(y_train))
    if denom == 0.0:
        raise ValueError("train observations have zero mean; cannot impute thresholds")
    return float(np.mean(y_star_train)) / denom


def impute_thresholds(ratio: float, cs: CensoredSeries) -> CensoredSeries:
    """Fill thresholds of non-censored points as tau = y * ratio.

    Censored points keep tau = y from the censoring scheme. The ratio is
    computed on training rows only and reused unchanged for validation
    and test imputation.
    """
    if not np.isfinite(ratio) or ratio <= 0.0:
        raise ValueError(f"imputation ratio must be a positive real, got {ratio}")
    tau = cs.tau.copy()
    nc = ~cs.censored
    tau[nc] = cs.y[nc] * ratio
    return CensoredSeries(y=cs.y.copy(), tau=tau, censored=cs.censored.copy(), y_star=cs.y_star.copy(), side=cs.side)


def impute_dataset_thresholds(ratio: float, ds: CensoredDataset) -> CensoredDataset:
    """Dataset-level variant of impute_thresholds (same formula row-wise)."""
    if not np.isfinite(ratio) or ratio <= 0.0:
        raise ValueError(f"imputation ratio must be a positive real, got {ratio}")
    tau = ds.tau.copy()
    nc = ~ds.censored
    tau[nc] = ds.y[nc] * ratio
    return CensoredDataset(
        X=ds.X, y=ds.y.copy(), tau=tau, censored=ds.censored.copy(),
        side=ds.side, y_star=None if ds.y_star is None else ds.y_star.copy(),
        true_quantiles=dict(ds.true_quantiles),
    )


@dataclass
class InitCandidate:
    """One random initialization of an interval pair, with its validation
    interval scores and whatever payload the caller wants back."""

    seed: int
    val_icp: float
    val_mil: float
    payload: object = None


def select_initialization(candidates, train_observed_mean, mil_ceiling=2.0):
    """Pick the initialization whose validation ICP is closest to 0.9.

    Candidates whose validation MIL exceeds `mil_ceiling` times the mean
    of the train observations are filtered out first; if that removes
    everyone, selection falls back to the unfiltered pool and flags it.
    The mean must be positive and finite; any other value would divide by
    zero or invert the filter, so it raises ValueError.
    Returns (winner, fallback_used).
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no initialization candidates")
    if not (math.isfinite(train_observed_mean) and train_observed_mean > 0.0):
        raise ValueError(
            f"train observations must have a positive finite mean for the MIL filter, got {train_observed_mean}"
        )
    survivors = [c for c in candidates if c.val_mil / train_observed_mean <= mil_ceiling]
    fallback = not survivors
    pool = candidates if fallback else survivors
    winner = min(pool, key=lambda c: (abs(c.val_icp - 0.9), c.seed))
    return winner, fallback


def write_trace_csv(result: FitResult, path):
    """Dump per-epoch losses as `epoch,train_loss,val_loss`."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_loss"])
        for e, (tr, va) in enumerate(zip(result.train_trace, result.val_trace)):
            writer.writerow([e, repr(tr), repr(va)])
