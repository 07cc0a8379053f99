"""Full-batch gradient fitting with Adam, norm clipping and early stopping.

Every epoch processes the whole training set in one batch. The optimizer
minimizes the mean per-point loss (identical optimum to the summed NLL;
keeps gradient norms commensurate with clip_norm across dataset sizes).
Clipping rescales the global gradient norm across all parameters before
the Adam moment updates. Training stops once the validation loss has not
improved for `patience` consecutive epochs, and the parameters from the
best validation epoch are returned.

An epoch is one `net.forward_train(X, rng, train.n)` over the training
rows stacked on the validation rows, then one call of the fit's loss
object: both means, dpred and the loss's own parameter gradients (a
learned Tobit scale). The parameters live in one flat vector, each
`net.params[k]` a view of it, so clipping, the Adam step (in Python floats
for a few parameters) and the best-epoch snapshot each act on one array.
Every step keeps the arithmetic of separate per-set calls and per-key
sums, so seeded traces stay the same to the bit.

`fit` is the one entry point for every loss and orientation. Under the
censored NLL, right-censored data is fitted through the mirror: the inner
net trains on the negated (left-censored) sets at level 1 - theta, and the
result holds it in a MirrorWrapper whose predictions are already in the
original orientation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses
from .losses import NonFiniteLossError
from .models import MirrorWrapper

__all__ = [
    "TrainConfig",
    "FitResult",
    "NonFiniteLossError",
    "AllFitsDivergedError",
    "fit",
    "fit_with_lr_grid",
    "train_mean_ratio",
    "impute_thresholds",
    "InitCandidate",
    "select_initialization",
]

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
    # {"stop_reason": "patience" | "max_epochs", "clip_share": share of Adam steps clipped}
    diagnostics: dict = field(default_factory=dict)

    @property
    def best_val_loss(self) -> float:
        return self.val_trace[self.best_epoch]

    def predict(self, X):
        """The fitted net's quantile at this fit's theta."""
        return self.net.quantile(X, self.theta)

    def to_json_dict(self) -> dict:
        return {**vars(self), "net": self.net.to_dict()}


class AllFitsDivergedError(RuntimeError):
    """Every learning rate in the grid diverged."""

    def __init__(self, diagnostics):
        super().__init__(
            "all learning rates diverged: "
            + "; ".join(f"lr={lr}: {msg}" for lr, msg in diagnostics.items())
        )
        self.diagnostics = diagnostics


def _flatten_params(net):
    """Copy the net's parameters into one flat vector and rebind each
    `net.params[k]` to a view of it; returns the vector and each key's slice."""
    flat = np.concatenate(list(net.params.values()), axis=None, dtype=float)
    slices, start = {}, 0
    for k, v in list(net.params.items()):
        slices[k] = slice(start, start + v.size)
        net.params[k] = flat[slices[k]].reshape(v.shape)
        start += v.size
    return flat, slices


def _adam_step(flat, grad, m, v, t, cfg: TrainConfig):
    """Adam update number t (from 1) of `flat` and its moments m, v, in place."""
    m *= cfg.adam_beta1
    m += (1.0 - cfg.adam_beta1) * grad
    v *= cfg.adam_beta2
    grad_sq = (1.0 - cfg.adam_beta2) * grad
    grad_sq *= grad
    v += grad_sq
    step = m / (1.0 - cfg.adam_beta1**t)
    step *= cfg.learning_rate
    denom = v / (1.0 - cfg.adam_beta2**t)
    np.sqrt(denom, out=denom)
    denom += cfg.adam_eps
    step /= denom
    flat -= step


# Largest vector for `_adam_step_scalar`: the numpy form breaks even at about 24.
_SCALAR_ADAM_MAX = 16


def _adam_step_scalar(flat, grad, m, v, t, cfg: TrainConfig):
    """`_adam_step` in Python floats, bit for bit, with m and v lists."""
    b1, b2, rate, eps = cfg.adam_beta1, cfg.adam_beta2, cfg.learning_rate, cfg.adam_eps
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    steps = []
    for i, g in enumerate(grad.tolist()):
        m[i] = m[i] * b1 + (1.0 - b1) * g
        v[i] = v[i] * b2 + (1.0 - b2) * g * g
        steps.append(m[i] / c1 * rate / (math.sqrt(v[i] / c2) + eps))
    flat -= steps


def fit(net, loss_kind, train, val, cfg: TrainConfig, theta=None) -> FitResult:
    """Adam-fit `net` on `train`, early-stopping on `val`.

    The returned result holds a copy of the net restored to the best
    validation epoch. Raises NonFiniteLossError if either loss leaves the
    reals (the lr-grid driver treats that as a diverged cell).

    The censored NLL on right-censored data fits `net` on the mirrored sets
    at level 1 - theta; the result then holds it in a MirrorWrapper, with
    the caller's theta and `mirrored=True`. The tilted and Tobit losses
    train on either side directly.
    """
    if train.n < 1 or val.n < 1:
        raise ValueError("train and val must be nonempty")
    if loss_kind not in losses.TRAINING_LOSSES:
        raise ValueError(f"loss_kind must be one of {tuple(losses.TRAINING_LOSSES)}, got {loss_kind!r}")
    mirrored = loss_kind == "censored_nll" and train.side == "right"
    level = theta
    if mirrored:
        train, val = train.mirrored(), val.mirrored()
        level = None if theta is None else 1.0 - theta  # None: the loss names the missing level
    loss = losses.TRAINING_LOSSES[loss_kind](train, val, level, net)
    X = np.concatenate([train.X, val.X], dtype=float)
    rng = np.random.default_rng(cfg.seed)
    started = time.perf_counter()

    flat, slices = _flatten_params(net)
    best_flat = flat.copy()
    if flat.size <= _SCALAR_ADAM_MAX:
        adam_step, m, v = _adam_step_scalar, [0.0] * flat.size, [0.0] * flat.size
    else:
        adam_step, m, v = _adam_step, np.zeros_like(flat), np.zeros_like(flat)
    train_trace, val_trace = [], []
    best = math.inf
    best_epoch = 0
    stop_reason = "max_epochs"
    steps = clipped = 0
    epoch = 0
    for epoch in range(cfg.max_epochs):
        try:
            tr, va, dpred, loss_grads = loss(net.forward_train(X, rng, train.n))
        except NonFiniteLossError as exc:
            raise NonFiniteLossError(f"{exc} at epoch {epoch}", train_trace, val_trace) from None
        tr += net.l2_penalty()
        if not (math.isfinite(tr) and math.isfinite(va)):
            raise NonFiniteLossError(
                f"non-finite loss at epoch {epoch} (train={tr}, val={va})", train_trace, val_trace
            )
        train_trace.append(tr)
        val_trace.append(va)
        if va < best:
            best = va
            best_epoch = epoch
            np.copyto(best_flat, flat)
        if epoch - best_epoch >= cfg.patience:
            stop_reason = "patience"
            break
        grads = net.backward(dpred)
        grads.update(loss_grads)
        grad = (next(iter(grads.values())).ravel() if len(grads) == 1
                else np.concatenate([grads[k] for k in slices], axis=None))
        grad_sq = grad * grad
        norm = math.sqrt(sum(float(grad_sq[slices[k]].sum()) for k in grads))
        if norm > cfg.clip_norm:
            grad *= cfg.clip_norm / norm
            clipped += 1
        steps += 1
        adam_step(flat, grad, m, v, steps, cfg)

    fitted = net.copy()
    fitted.params = {k: best_flat[sl].reshape(net.params[k].shape) for k, sl in slices.items()}
    return FitResult(
        net=MirrorWrapper(fitted) if mirrored else fitted,
        loss_kind=loss_kind,
        theta=theta,
        learning_rate=cfg.learning_rate,
        seed=cfg.seed,
        train_trace=train_trace,
        val_trace=val_trace,
        best_epoch=best_epoch,
        stopping_epoch=epoch,
        hit_max_epochs=stop_reason == "max_epochs",
        wall_time=time.perf_counter() - started,
        mirrored=mirrored,
        diagnostics={"stop_reason": stop_reason, "clip_share": clipped / steps},
    )


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
            result = fit(net_factory(), loss_kind, train, val, replace(cfg, learning_rate=lr), theta)
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


def impute_thresholds(ratio: float, data):
    """Fill thresholds of non-censored points as tau = y * ratio.

    `data` is a CensoredSeries or a CensoredDataset; the result is the
    same container with copied arrays (a dataset's X is shared). Censored
    points keep tau = y from the censoring scheme. The ratio comes from
    training rows only and is reused for validation and test rows.
    """
    if not np.isfinite(ratio) or ratio <= 0.0:
        raise ValueError(f"imputation ratio must be a positive real, got {ratio}")
    tau = data.tau.copy()
    nc = ~data.censored
    tau[nc] = data.y[nc] * ratio
    return replace(data, y=data.y.copy(), tau=tau, censored=data.censored.copy(),
                   y_star=None if data.y_star is None else data.y_star.copy())


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

