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
learned Tobit scale). A linear net and the quantile losses write into
buffers they keep across epochs, so a pass's outputs are read within its
epoch. The parameters live in one flat vector, each `net.params[k]` a view
of it, so clipping, the Adam step and the best-epoch snapshot each act on
one array. Up to 16 parameters, clipping and Adam run in Python floats,
the norm summed in numpy's order. Every step keeps the arithmetic of
separate per-set calls and per-key sums, so seeded traces stay the same
to the bit.

`fit` is the one entry point for every loss and orientation. Only the
tilted loss trains on either side directly; under the censored NLL and
Tobit, the inner net trains on the mirrored (left-censored) sets at level
1 - theta, and the result holds it in a MirrorWrapper whose quantiles are
already in the original orientation.

Adam's constants (`ADAM_BETA1`, `ADAM_BETA2`, `ADAM_EPS`) are fixed;
`TrainConfig` holds only what a protocol or a test sets. Why training
stopped is a result's `diagnostics["stop_reason"]`, and a fit through the
mirror is one whose `net` is a MirrorWrapper.
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
    "training_loss",
    "fit",
    "fit_with_lr_grid",
    "train_mean_ratio",
    "impute_thresholds",
    "select_initialization",
]

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    lr_grid: tuple = (0.001, 0.01, 0.1, 1.0)
    clip_norm: float = 1.0
    patience: int = 10
    max_epochs: int = 5000
    seed: int = 0

    def __post_init__(self):
        # `x <= 0.0` is False for NaN, so each rate is tested finite and positive
        for name, rates in (("learning_rate", [self.learning_rate]), ("lr_grid", self.lr_grid),
                            ("clip_norm", [self.clip_norm])):
            if not all(math.isfinite(x) and x > 0.0 for x in rates):
                raise ValueError(f"{name} must be finite and positive, got {getattr(self, name)}")
        for name in ("patience", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


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
    wall_time: float
    # {"stop_reason": "patience" | "max_epochs", "clip_share": share of Adam steps clipped,
    #  for the censored NLL "clamp_share": share of training rows below their threshold
    #  (after the mirror) at `net`, and from `fit_with_lr_grid` "grid": every rate's record}
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
    """Every learning rate in the grid diverged; `grid` holds each rate's record."""

    def __init__(self, grid):
        super().__init__("all learning rates diverged: " + "; ".join(f"lr={e['lr']}: {e['diverged']}" for e in grid))
        self.grid = grid


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


# Adam's moment decays and denominator guard (Kingma and Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _flat_grad(grads, slices):
    """The gradients as one vector in parameter order."""
    return (next(iter(grads.values())).ravel() if len(grads) == 1
            else np.concatenate([grads[k] for k in slices], axis=None))


def _adam_step(flat, grads, slices, m, v, t, cfg: TrainConfig):
    """Clip the global norm of `grads` (summed per key, in `grads` order) to
    cfg.clip_norm, then take Adam update number t (from 1) of `flat` and its
    moments m, v, in place; returns whether it clipped."""
    grad = _flat_grad(grads, slices)
    grad_sq = grad * grad
    norm = math.sqrt(sum(float(grad_sq[slices[k]].sum()) for k in grads))
    if norm > cfg.clip_norm:
        grad *= cfg.clip_norm / norm
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    grad_sq = (1.0 - ADAM_BETA2) * grad
    grad_sq *= grad
    v += grad_sq
    step = m / (1.0 - ADAM_BETA1**t)
    step *= cfg.learning_rate
    denom = v / (1.0 - ADAM_BETA2**t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    flat -= step
    return norm > cfg.clip_norm


def _sum_squares(xs):
    """np.sum of the squares of a contiguous vector of at most 128 floats, in
    numpy's order: from -0.0 one by one below 8 elements; from 8 on, 8 running
    sums over blocks of 8, combined as a tree, then the rest one by one."""
    total, rest = -0.0, xs
    if len(xs) >= 8:
        r, end = [x * x for x in xs[:8]], len(xs) - len(xs) % 8
        for i in range(8, end, 8):
            r = [a + x * x for a, x in zip(r, xs[i:i + 8])]
        total, rest = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])), xs[end:]
    for x in rest:
        total += x * x
    return total


# Largest vector for `_adam_step_scalar`: the numpy form breaks even at about 24.
_SCALAR_ADAM_MAX = 16


def _adam_step_scalar(flat, grads, slices, m, v, t, cfg: TrainConfig):
    """`_adam_step` in Python floats, bit for bit, with m and v lists: the
    gradient is read once and `flat` written once."""
    grad = _flat_grad(grads, slices).tolist()
    # sum() over one key adds its sum to 0, which changes no bit
    norm = math.sqrt(_sum_squares(grad) if len(grads) == 1 else sum(_sum_squares(grad[slices[k]]) for k in grads))
    if norm > cfg.clip_norm:
        scale = cfg.clip_norm / norm
        grad = [g * scale for g in grad]
    b1, b2, rate, eps = ADAM_BETA1, ADAM_BETA2, cfg.learning_rate, ADAM_EPS
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    new = flat.tolist()
    for i, g in enumerate(grad):
        m[i] = m[i] * b1 + (1.0 - b1) * g
        v[i] = v[i] * b2 + (1.0 - b2) * g * g
        new[i] -= m[i] / c1 * rate / (math.sqrt(v[i] / c2) + eps)
    flat[:] = new
    return norm > cfg.clip_norm


def training_loss(net, loss_kind, train, val, theta=None):
    """`fit`'s prologue: the loss object it trains `net` with, and the
    training and validation sets that loss reads. Under a censored
    likelihood (the censored NLL, Tobit), right-censored sets are mirrored
    and the level is 1 - theta. Raises the ValueError of a fit that `fit`
    refuses (a given theta outside (0, 1) under every loss), before any epoch runs."""
    if train.n < 1 or val.n < 1:
        raise ValueError("train and val must be nonempty")
    if theta is not None:
        losses._check_theta(theta)
    if loss_kind not in losses.TRAINING_LOSSES:
        raise ValueError(f"loss_kind must be one of {tuple(losses.TRAINING_LOSSES)}, got {loss_kind!r}")
    loss_cls = losses.TRAINING_LOSSES[loss_kind]
    if loss_cls.left_only and train.side == "right":
        train, val = train.mirrored(), val.mirrored()
        theta = None if theta is None else 1.0 - theta  # None: the loss names the missing level
    return loss_cls(train, val, theta, net), train, val


def fit(net, loss_kind, train, val, cfg: TrainConfig, theta=None) -> FitResult:
    """Adam-fit a copy of `net` on `train`, early-stopping on `val`.

    The result holds the copy at its best validation epoch, and `net`
    keeps its own arrays. Raises NonFiniteLossError if either loss leaves
    the reals (the lr-grid driver treats that as a diverged cell).

    The censored NLL and Tobit on right-censored data fit `net` on the
    mirrored sets at level 1 - theta; the result then holds it in a
    MirrorWrapper, with the caller's theta. Only the tilted loss trains on
    either side directly.
    """
    side, net = train.side, net.copy()  # before the loss: a Tobit loss reads its net's scale
    loss, train, val = training_loss(net, loss_kind, train, val, theta)
    mirrored = train.side != side
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
        steps += 1
        clipped += adam_step(flat, grads, slices, m, v, steps, cfg)

    np.copyto(flat, best_flat)  # into the views that are the trained copy's params
    fitted = net.copy()  # without the buffers of its passes
    diagnostics = {"stop_reason": stop_reason, "clip_share": clipped / steps}
    if loss_kind == "censored_nll":
        # once, at the returned weights: rows below their threshold carry no gradient
        diagnostics["clamp_share"] = float(np.mean(fitted.forward(train.X) < train.tau))
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
        wall_time=time.perf_counter() - started,
        diagnostics=diagnostics,
    )


def fit_with_lr_grid(net, loss_kind, train, val, cfg: TrainConfig, theta=None) -> FitResult:
    """One fit per grid learning rate, each from `net`'s weights; returns
    the one with the smallest best-epoch validation loss (ties go to the
    smaller rate). Its diagnostics["grid"] records every rate in the order
    they ran: `lr`, `epochs` (forward passes, the diverging one included)
    and `best_val_loss` with `stop_reason`, or the `diverged` message. If
    every rate diverges the messages are raised together."""
    if not cfg.lr_grid:
        raise ValueError("lr_grid must be nonempty")
    best_result, grid = None, []
    for lr in sorted(cfg.lr_grid):
        try:
            result = fit(net, loss_kind, train, val, replace(cfg, learning_rate=lr), theta)
        except NonFiniteLossError as exc:
            grid.append({"lr": lr, "epochs": len(exc.train_trace) + 1, "diverged": str(exc)})
            continue
        grid.append({"lr": lr, "epochs": result.stopping_epoch + 1, "best_val_loss": result.best_val_loss,
                     "stop_reason": result.diagnostics["stop_reason"]})
        if best_result is None or result.best_val_loss < best_result.best_val_loss:
            best_result = result
    if best_result is None:
        raise AllFitsDivergedError(grid)
    best_result.diagnostics["grid"] = grid
    return best_result


def train_mean_ratio(y_star_train, y_train) -> float:
    """mean(train y*) / mean(train y); the threshold-imputation ratio."""
    denom = float(np.mean(y_train))
    if denom == 0.0:
        raise ValueError("train observations have zero mean; cannot impute thresholds")
    return float(np.mean(y_star_train)) / denom


def impute_thresholds(ratio: float, data):
    """Fill thresholds of non-censored points as tau = y * ratio.

    The result is a copy of the CensoredDataset `data` with copied arrays
    (X is shared); a series is a dataset of one intercept column. Censored
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


# An initialization whose validation MIL exceeds this multiple of the train
# observations' mean is filtered out before selection.
MIL_CEILING = 2.0


def select_initialization(scores, train_observed_mean):
    """Pick the initialization whose validation ICP is closest to 0.9.

    `scores` holds one (val_icp, val_mil) per initialization, in order;
    ties go to the lower index. Initializations whose validation MIL
    exceeds `MIL_CEILING` times the mean of the train observations are
    filtered out first; if that removes every one, selection falls back to
    the unfiltered pool and flags it. The mean must be positive and
    finite; any other value would divide by zero or invert the filter, so
    it raises ValueError. Returns (index, fallback_used).
    """
    scores = list(scores)
    if not scores:
        raise ValueError("no initializations to select from")
    if not (math.isfinite(train_observed_mean) and train_observed_mean > 0.0):
        raise ValueError(
            f"train observations must have a positive finite mean for the MIL filter, got {train_observed_mean}"
        )
    survivors = [i for i, (_, mil) in enumerate(scores) if mil / train_observed_mean <= MIL_CEILING]
    fallback = not survivors
    pool = range(len(scores)) if fallback else survivors
    return min(pool, key=lambda i: abs(scores[i][0] - 0.9)), fallback
