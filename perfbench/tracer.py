"""Spans and counters recorded from outside cqrnet, around its public functions.

A `Tracer` replaces each named function, in every cqrnet namespace that binds
it, by a wrapper. Module functions are patched wherever the same object is
bound (`losses` imports `normal_cdf` by name, `experiments` binds
`fit_with_lr_grid`, `tobit` binds `fit`, the package re-exports many).
Methods are patched on the class that defines them, so a `super()` call shows
up as a child span rather than being counted twice. The tracer is a context
manager: entering installs the wrappers, leaving puts every original back.

Three wrapper kinds exist:
* counters on `training.fit` and `training.fit_with_lr_grid` (one call per
  fit, always installed: they give the epoch counts, the failure checks and
  the time at which each fit starts and ends);
* an epoch clock on `forward_train` of every net class in `models` and
  `tobit` (always installed): the fit loop calls a net's outermost
  `forward_train` once per epoch, and its start time cuts the fit into
  epochs;
* spans (name, start, end, parent) on every function in SPAN_NAMES, plus the
  clamp counter on `losses.censored_qr_nll_grad`, installed only when
  `spans=True`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

SPAN_NAMES = (
    "models.LinearQuantileNet.forward",
    "models.LinearQuantileNet.forward_train",
    "models.LinearQuantileNet.backward",
    "models.RegularizedLinearNet.forward_train",
    "models.RegularizedLinearNet.backward",
    "models.LstmQuantileNet.forward",
    "models.LstmQuantileNet.forward_train",
    "models.LstmQuantileNet.backward",
    "tobit.TobitNet.backward",
    "tobit.tobit_fit",
    "losses.tilted_loss",
    "losses.tilted_loss_subgrad",
    "losses.censored_qr_nll",
    "losses.censored_qr_nll_grad",
    "losses.tobit_nll",
    "losses.tobit_nll_grad_mean",
    "normal.normal_cdf",
    "training.fit",
    "training.fit_with_lr_grid",
    "datagen.gen_synthetic",
    "datagen.build_lagged_dataset",
    "datagen.load_dataset_csv",
    "metrics.subset_report",
    "experiments.run_t2",
    "experiments.run_t3",
    "experiments.run_t4",
    "cli.cmd_generate",
    "cli.cmd_fit",
    "cli.cmd_evaluate",
)

# Orchestration layers whose inclusive time is reported as well.
TOTAL_PREFIXES = ("experiments.", "cli.")


@dataclass
class Counts:
    """Work counted at the training and loss boundaries during one pass."""

    fits: int = 0
    epochs: int = 0
    lr_diverged: int = 0
    failed_fits: int = 0
    epochs_after_best: int = 0
    grid_epochs: int = 0
    grid_winner_epochs: int = 0
    clamp_rows: int = 0
    clamp_seen: int = 0


def _cqrnet_namespaces():
    return [m for name, m in sys.modules.items() if name == "cqrnet" or name.startswith("cqrnet.")]


def _params_finite(result) -> bool:
    return all(np.all(np.isfinite(v)) for v in result.net.params.values())


def _work_key(signature, args, kwargs):
    """What one epoch of a `training.fit` call computes, or None where unknown.

    A full-batch epoch's work is set by the net's class and parameter
    shapes, the loss and the shapes of the training and validation data.
    """
    try:
        bound = signature.bind(*args, **kwargs).arguments
        net = bound["net"]
        return (type(net).__qualname__, bound["loss_kind"], np.shape(bound["train"].X),
                np.shape(bound["val"].X), tuple((k, np.shape(v)) for k, v in net.params.items()))
    except (TypeError, KeyError, AttributeError):
        return None


class Tracer:
    def __init__(self, spans: bool):
        self.record_spans = spans
        self.counts = Counts()
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack = [-1]
        self._grids: list = []  # epoch accumulators of the open lr-grid calls
        self._patches: list = []  # (namespace, attribute, original)
        self.fit_times: list = []  # (start, end, epoch start times, work key) of every fit
        self._epochs = None  # epoch start times of the fit running now
        self._in_forward_train = False

    # -- installation --------------------------------------------------------
    def __enter__(self):
        wrappers = {
            "training.fit": self._count_fit,
            "training.fit_with_lr_grid": self._count_grid,
        }
        if self.record_spans:
            wrappers["losses.censored_qr_nll_grad"] = self._count_clamp
            for name in SPAN_NAMES:
                wrappers.setdefault(name, functools.partial(self._span, name))
        for name, wrap in wrappers.items():
            self._patch(name, wrap)
        for module_name in ("models", "tobit"):
            for cls in vars(sys.modules[f"cqrnet.{module_name}"]).values():
                if isinstance(cls, type) and "forward_train" in cls.__dict__:
                    original = cls.__dict__["forward_train"]
                    self._patches.append((cls, "forward_train", original))
                    cls.forward_train = self._clock_epoch(original)
        return self

    def __exit__(self, *exc):
        """Put every original back."""
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _patch(self, name, wrap):
        """Replace `name` (module.func or module.Class.method) by `wrap(original)`
        wherever it is bound."""
        module_name, _, rest = name.partition(".")
        module = sys.modules[f"cqrnet.{module_name}"]
        if "." in rest:
            cls_name, method = rest.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            self._patches.append((cls, method, original))
            setattr(cls, method, wrap(original))
            return
        original = getattr(module, rest)
        wrapped = wrap(original)
        for namespace in _cqrnet_namespaces():
            for attr, value in list(vars(namespace).items()):
                if value is original:
                    self._patches.append((namespace, attr, value))
                    setattr(namespace, attr, wrapped)

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return span

    def _span_if_tracing(self, name, fn):
        return self._span(name, fn) if self.record_spans else fn

    # -- counters ------------------------------------------------------------
    def _clock_epoch(self, fn):
        # Only the outermost call counts: a subclass's forward_train calls
        # its parent's, a MirrorWrapper its inner net's.
        clock = time.perf_counter

        @functools.wraps(fn)
        def forward_train(*args, **kwargs):
            if self._in_forward_train:
                return fn(*args, **kwargs)
            if self._epochs is not None:
                self._epochs.append(clock())
            self._in_forward_train = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._in_forward_train = False

        return forward_train

    def _count_fit(self, fn):
        from cqrnet.training import NonFiniteLossError

        counts, grids, clock = self.counts, self._grids, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def fit(*args, **kwargs):
            counts.fits += 1
            key = _work_key(signature, args, kwargs)
            outer, self._epochs = self._epochs, []
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except NonFiniteLossError as exc:
                epochs = len(exc.train_trace) + 1
                counts.epochs += epochs
                if grids:
                    grids[-1][0] += epochs
                    counts.lr_diverged += 1
                else:
                    counts.failed_fits += 1
                raise
            except Exception:
                counts.failed_fits += 1
                raise
            finally:
                self.fit_times.append((start, clock(), self._epochs, key))
                self._epochs = outer
            epochs = result.stopping_epoch + 1
            counts.epochs += epochs
            counts.epochs_after_best += result.stopping_epoch - result.best_epoch
            if grids:
                grids[-1][0] += epochs
            if not _params_finite(result):
                counts.failed_fits += 1
            return result

        return self._span_if_tracing("training.fit", fit)

    def _count_grid(self, fn):
        counts, grids = self.counts, self._grids

        @functools.wraps(fn)
        def fit_with_lr_grid(*args, **kwargs):
            grids.append([0])
            try:
                result = fn(*args, **kwargs)
            finally:
                counts.grid_epochs += grids.pop()[0]
            counts.grid_winner_epochs += result.stopping_epoch + 1
            return result

        return self._span_if_tracing("training.fit_with_lr_grid", fit_with_lr_grid)

    def _count_clamp(self, fn):
        # Counting runs outside the span, so the loss's own time stays clean.
        counts = self.counts
        spanned = self._span("losses.censored_qr_nll_grad", fn)

        @functools.wraps(fn)
        def censored_qr_nll_grad(y, tau, preds, theta):
            grad = spanned(y, tau, preds, theta)
            counts.clamp_rows += int(np.count_nonzero(np.asarray(preds) < np.asarray(tau)))
            counts.clamp_seen += len(grad)
            return grad

        return censored_qr_nll_grad

    # -- summaries -----------------------------------------------------------
    def span_summary(self) -> dict:
        """Per span name: calls, self time and (for orchestration) inclusive time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        summary = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = summary[name]
            entry["calls"] += 1
            entry["self_s"] += end - start - child[i]
            entry["total_s"] += end - start
        return summary


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def counts_metrics(counts: Counts) -> dict:
    return {
        "training.fits": counts.fits,
        "training.epochs": counts.epochs,
        "training.lr_diverged": counts.lr_diverged,
        "training.grid_useful_epoch_ratio": _ratio(counts.grid_winner_epochs, counts.grid_epochs),
        "training.epochs_after_best_ratio": _ratio(counts.epochs_after_best, counts.epochs),
        "losses.clamp_share": _ratio(counts.clamp_rows, counts.clamp_seen),
    }

