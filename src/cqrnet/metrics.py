"""Evaluation measures: R^2 / MAE / RMSE against ground-truth quantiles,
ICP / MIL for interval estimates, and subset-scoped reports.

ICP is the fraction of latent values inside the estimated 5%-95% interval
(ideal 0.9); MIL is the mean signed interval length. Crossed pairs
(upper < lower) are counted and surfaced, not repaired: each quantile is
fit independently and silent reordering would mask model pathology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import CensoredDataset

__all__ = ["EvalReport", "point_metrics", "interval_metrics", "subset_report"]

SUBSETS = ("all_test", "non_censored_test")


@dataclass
class EvalReport:
    subset: str
    n: int
    r2: float | None = None
    mae: float | None = None
    rmse: float | None = None
    icp: float | None = None
    mil: float | None = None
    n_crossed: int | None = None

    def __post_init__(self):
        if self.subset not in SUBSETS:
            raise ValueError(f"subset must be one of {SUBSETS}, got {self.subset!r}")
        if self.n <= 0:
            raise ValueError("report needs at least one row")
        if self.icp is not None and not 0.0 <= self.icp <= 1.0:
            raise ValueError(f"icp must be in [0, 1], got {self.icp}")

    def to_dict(self) -> dict:
        return {
            "subset": self.subset,
            "n": self.n,
            "r2": self.r2,
            "mae": self.mae,
            "rmse": self.rmse,
            "icp": self.icp,
            "mil": self.mil,
            "n_crossed": self.n_crossed,
        }


def point_metrics(pred_quantiles, true_quantiles):
    """(R^2, MAE, RMSE) of predicted vs ground-truth quantiles.

    R^2 = 1 - sum((qhat - q)^2) / sum((q - mean(q))^2); with a degenerate
    denominator (all true quantiles identical) R^2 is reported as None
    while MAE and RMSE are still computed.
    """
    pred = np.asarray(pred_quantiles, dtype=float)
    true = np.asarray(true_quantiles, dtype=float)
    if pred.shape != true.shape or pred.ndim != 1:
        raise ValueError(f"prediction/target shapes differ: {pred.shape} vs {true.shape}")
    if pred.shape[0] < 2:
        raise ValueError("point metrics need at least two rows")
    err = pred - true
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err**2)))
    denom = float(np.sum((true - true.mean()) ** 2))
    r2 = None if denom == 0.0 else 1.0 - float(np.sum(err**2)) / denom
    return r2, mae, rmse


def interval_metrics(lower_preds, upper_preds, y_star):
    """(ICP, MIL, crossing count) of an interval estimate against latents.

    Crossed pairs contribute their signed (negative) length to MIL and
    can never cover, so they drag ICP down; their count is returned so
    callers can surface the pathology.
    """
    lower = np.asarray(lower_preds, dtype=float)
    upper = np.asarray(upper_preds, dtype=float)
    ys = np.asarray(y_star, dtype=float)
    if not (lower.shape == upper.shape == ys.shape) or lower.ndim != 1:
        raise ValueError("lower, upper and y_star must be 1-d and equally long")
    icp = float(np.mean((lower <= ys) & (ys <= upper)))
    mil = float(np.mean(upper - lower))
    return icp, mil, int(np.sum(upper < lower))


def _subset_mask(ds: CensoredDataset, subset):
    if subset == "all_test":
        return np.ones(ds.n, dtype=bool)
    if subset == "non_censored_test":
        return ~ds.censored
    raise ValueError(f"subset must be one of {SUBSETS}, got {subset!r}")


def empty_subsets(ds: CensoredDataset):
    """Subsets holding no row of `ds` (on fleet data, `non_censored_test`)."""
    return [s for s in SUBSETS if not _subset_mask(ds, s).any()]


def subset_report(ds: CensoredDataset, subset, preds=None, true_quantiles=None,
                  lower=None, upper=None) -> EvalReport:
    """Metrics over the chosen row subset.

    Point metrics come from (preds, true_quantiles); interval metrics
    from (lower, upper) against the dataset's latent values. Either or
    both groups may be given.
    """
    mask = _subset_mask(ds, subset)
    if not mask.any():
        raise ValueError(f"{subset.removesuffix('_test').replace('_', '-')} subset is empty")
    report = EvalReport(subset=subset, n=int(mask.sum()))
    if preds is not None:
        if true_quantiles is None:
            raise ValueError("point metrics need ground-truth quantiles")
        preds = np.asarray(preds, dtype=float)
        true = np.asarray(true_quantiles, dtype=float)
        report.r2, report.mae, report.rmse = point_metrics(preds[mask], true[mask])
    if lower is not None or upper is not None:
        if lower is None or upper is None:
            raise ValueError("interval metrics need both bounds")
        if ds.y_star is None:
            raise ValueError("interval metrics need latent values (y_star)")
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        report.icp, report.mil, report.n_crossed = interval_metrics(lo[mask], hi[mask], ds.y_star[mask])
    return report
