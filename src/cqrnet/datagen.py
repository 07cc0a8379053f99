"""Benchmark generation, censorship schemes, splitting, and dataset I/O.

The synthetic benchmark draws y* = x0 + x1 + x2 + eps with x0 = 1,
x1 uniform on {-1, +1}, x2 ~ N(0,1), left-censored at zero (y = max(0, y*)).
Noise laws: standard Gaussian, heteroskedastic (1 + x2) N(0,1), and the
Gaussian mixture 0.75 N(0,1) + 0.25 N(0, 2^2). A dataset holds only its
observations; `latent_quantile` is the ground truth, analytic for any rows.
For the mixture the exact law (bisection on its CDF) is primary, and the
single-Gaussian stand-in with scale sqrt(0.75^2 + 0.25^2) is available as
`mixture_compat` because published evaluations used that closed form.

A censored daily series is a right-censored dataset whose X is the
intercept column alone; `build_lagged_dataset` gives it the lag matrix.
Covariate matrices always carry the intercept slot in column 0. The CSV
readers accept what the generators could have written, and name the file,
and the line of a malformed row, in the ValueError for anything else.
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .normal import MIXTURE_COMPAT_SCALE, mixture_quantile, std_normal_quantile

NOISES = ("standard_gaussian", "heteroskedastic", "gaussian_mixture")

__all__ = [
    "NOISES",
    "SyntheticSpec",
    "CensoredDataset",
    "mirror_covariates",
    "gen_synthetic",
    "latent_quantile",
    "censor_partial",
    "censor_fleet",
    "gen_trip_table",
    "bundled_trip_table",
    "bundled_daily_series",
    "apportion",
    "split_indices",
    "split",
    "lag_features",
    "build_lagged_dataset",
    "csv_text",
    "dataset_csv_text",
    "load_dataset_csv",
    "load_daily_series_csv",
]


@dataclass(frozen=True)
class SyntheticSpec:
    noise: str
    n: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.noise not in NOISES:
            raise ValueError(f"noise must be one of {NOISES}, got {self.noise!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")


@dataclass
class CensoredDataset:
    """Covariate rows with censored targets: the observations only.

    X includes the intercept column (x0 = 1). Ground truth is not stored:
    `latent_quantile` gives the latent quantiles q_theta(y*|x) of any rows,
    and the observable quantile of y is their clamp at the threshold.
    """

    X: np.ndarray
    y: np.ndarray
    tau: np.ndarray
    censored: np.ndarray
    side: str = "left"
    y_star: np.ndarray | None = None

    def __post_init__(self):
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")

    @property
    def n(self) -> int:
        return self.y.shape[0]

    def validate(self):
        """Check the clamp invariants row-wise; NaN thresholds (awaiting
        imputation) are exempt from the ordering check."""
        y, tau, cens = self.y, self.tau, self.censored
        known = ~np.isnan(tau)
        if self.side == "left":
            if not np.all(y[known] >= tau[known]):
                raise ValueError("left-censored data must satisfy y >= tau")
        else:
            if not np.all(y[known] <= tau[known]):
                raise ValueError("right-censored data must satisfy y <= tau")
        if not np.all(y[cens] == tau[cens]):
            raise ValueError("censored rows must have y == tau")
        if self.y_star is not None:
            nc = ~cens
            if not np.all(y[nc] == self.y_star[nc]):
                raise ValueError("non-censored rows must reveal the latent value")
            clipped_ok = self.y_star[cens] <= tau[cens] if self.side == "left" else self.y_star[cens] >= tau[cens]
            if not np.all(clipped_ok):
                raise ValueError("latent values inconsistent with censoring")
        return self

    def subset(self, idx) -> "CensoredDataset":
        idx = np.asarray(idx)
        return CensoredDataset(
            X=self.X[idx],
            y=self.y[idx],
            tau=self.tau[idx],
            censored=self.censored[idx],
            side=self.side,
            y_star=None if self.y_star is None else self.y_star[idx],
        )

    def mirrored(self) -> "CensoredDataset":
        """Negated view: right-censored data becomes left-censored (and
        vice versa); the theta quantile of the mirror is minus the
        1 - theta quantile of the original."""
        return CensoredDataset(
            X=mirror_covariates(self.X),
            y=-self.y,
            tau=-self.tau,
            censored=self.censored.copy(),
            side="left" if self.side == "right" else "right",
            y_star=None if self.y_star is None else -self.y_star,
        )


def mirror_covariates(X):
    """-X with column 0, the intercept slot, kept: the covariates of the
    mirrored dataset, and the inputs a MirrorWrapper passes its inner net."""
    X = np.asarray(X, dtype=float)
    Xm = -X
    Xm[:, 0] = X[:, 0]
    return Xm


def gen_synthetic(spec: SyntheticSpec, zero_noise: bool = False) -> CensoredDataset:
    """Draw the left-censored-at-zero benchmark dataset.

    Draw order (fixed for reproducibility): x1, x2, then the noise
    (mixture: component selector before the normals). `zero_noise` is a
    test hook replacing eps with 0.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    x1 = rng.choice([-1.0, 1.0], size=n)
    x2 = rng.standard_normal(n)
    if zero_noise:
        eps = np.zeros(n)
    elif spec.noise == "standard_gaussian":
        eps = rng.standard_normal(n)
    elif spec.noise == "heteroskedastic":
        eps = (1.0 + x2) * rng.standard_normal(n)
    else:
        wide = rng.random(n) >= 0.75
        eps = np.where(wide, 2.0, 1.0) * rng.standard_normal(n)
    y_star = 1.0 + x1 + x2 + eps
    y = np.maximum(0.0, y_star)
    censored = y_star <= 0.0
    X = np.column_stack([np.ones(n), x1, x2])
    return CensoredDataset(
        X=X, y=y, tau=np.zeros(n), censored=censored, side="left", y_star=y_star
    ).validate()


def latent_quantile(noise, theta, X, mixture_compat=False):
    """q_theta(y*|x): the unclamped conditional quantile of the latent."""
    if noise not in NOISES:
        raise ValueError(f"noise must be one of {NOISES}, got {noise!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != 3:
        raise ValueError(f"benchmark covariates must have shape (n, 3), got {X.shape}")
    m = X.sum(axis=1)  # x0 + x1 + x2
    if noise == "standard_gaussian":
        return m + std_normal_quantile(theta)
    if noise == "heteroskedastic":
        return m + np.abs(1.0 + X[:, 2]) * std_normal_quantile(theta)
    if mixture_compat:
        return m + MIXTURE_COMPAT_SCALE * std_normal_quantile(theta)
    return m + mixture_quantile(theta)


def censor_partial(series, gamma, c1, c2, seed) -> CensoredDataset:
    """Right-censor a random gamma-portion of the series.

    Each selected point becomes y = (1 - delta) y* with delta ~ U[c1, c2]
    and threshold tau = y; unselected points keep y = y* with tau left
    NaN for downstream imputation. The result is the series as a dataset
    whose X is the intercept column alone, one row per point.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    if not 0.0 < c1 <= c2 < 1.0:
        raise ValueError(f"need 0 < c1 <= c2 < 1, got ({c1}, {c2})")
    y_star = np.asarray(series, dtype=float)
    n = y_star.shape[0]
    rng = np.random.default_rng(seed)
    k = int(round(gamma * n))
    chosen = rng.choice(n, size=k, replace=False)
    delta = rng.uniform(c1, c2, size=k)
    y = y_star.copy()
    y[chosen] = (1.0 - delta) * y_star[chosen]
    tau = np.full(n, np.nan)
    tau[chosen] = y[chosen]
    censored = np.zeros(n, dtype=bool)
    censored[chosen] = True
    return CensoredDataset(X=np.ones((n, 1)), y=y, tau=tau, censored=censored, side="right", y_star=y_star)


def censor_fleet(trips, alpha, seed) -> CensoredDataset:
    """Remove a random alpha-portion of vehicles, the rows of `trips`; every
    daily count is then right-censored at the observed value (complete
    censorship). The result is the daily series as an intercept-only dataset."""
    n_vehicles = trips.shape[0]
    if n_vehicles < 1:
        raise ValueError("trip table has no vehicles")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    rng = np.random.default_rng(seed)
    k = int(round(alpha * n_vehicles))
    removed = rng.choice(n_vehicles, size=k, replace=False)
    keep = np.ones(n_vehicles, dtype=bool)
    keep[removed] = False
    y_star = trips.sum(axis=0).astype(float)
    y = trips[keep].sum(axis=0).astype(float)
    n = y.shape[0]
    return CensoredDataset(X=np.ones((n, 1)), y=y, tau=y.copy(), censored=np.ones(n, dtype=bool),
                           side="right", y_star=y_star)


def gen_trip_table(n_days, n_vehicles, per_vehicle_rate, weekly_amplitude, seed) -> np.ndarray:
    """(n_vehicles, n_days) Poisson trip counts, rate modulated by a weekly sine."""
    if n_days < 1 or n_vehicles < 1:
        raise ValueError("n_days and n_vehicles must be positive")
    if per_vehicle_rate < 0.0:
        raise ValueError("per_vehicle_rate must be nonnegative")
    if not 0.0 <= weekly_amplitude <= 1.0:
        raise ValueError("weekly_amplitude must be in [0, 1]")
    rng = np.random.default_rng(seed)
    days = np.arange(n_days)
    rate = per_vehicle_rate * (1.0 + weekly_amplitude * np.sin(2.0 * np.pi * days / 7.0))
    return rng.poisson(lam=np.broadcast_to(rate, (n_vehicles, n_days)))


# Stand-in daily-count series used where a real provider series would go.
BUNDLED_SERIES_VEHICLES = 120
BUNDLED_SERIES_RATE = 1.2
BUNDLED_SERIES_AMPLITUDE = 0.35


def bundled_trip_table(n_days, seed) -> np.ndarray:
    """The stand-in fleet's (vehicles, days) trip table."""
    return gen_trip_table(n_days, BUNDLED_SERIES_VEHICLES, BUNDLED_SERIES_RATE, BUNDLED_SERIES_AMPLITUDE, seed)


def bundled_daily_series(n_days=730, seed=2024) -> np.ndarray:
    """Synthetic daily demand series (weekly-seasonal Poisson totals)."""
    return bundled_trip_table(n_days, seed).sum(axis=0).astype(float)


def apportion(n, proportions):
    """Largest-remainder apportionment of n rows; ties favor earlier parts."""
    props = np.asarray(proportions, dtype=float)
    if np.any(props <= 0.0):
        raise ValueError("proportions must be positive")
    if abs(props.sum() - 1.0) > 1e-9:
        raise ValueError(f"proportions must sum to 1, got {props.sum()}")
    quotas = props * n
    sizes = np.floor(quotas).astype(int)
    remainder = n - sizes.sum()
    if remainder > 0:
        order = np.argsort(-(quotas - sizes), kind="stable")
        sizes[order[:remainder]] += 1
    return tuple(int(s) for s in sizes)


def split_indices(n, proportions, seed=None, consecutive=False):
    """Disjoint (train, val, test) index cover of range(n)."""
    sizes = apportion(n, proportions)
    if consecutive:
        order = np.arange(n)
    else:
        order = np.random.default_rng(seed).permutation(n)
    a, b = sizes[0], sizes[0] + sizes[1]
    return order[:a], order[a:b], order[b:]


def split(ds: CensoredDataset, proportions=(0.62, 0.15, 0.23), seed=None, consecutive=False):
    """Split a dataset into (train, val, test); consecutive preserves order."""
    tr, va, te = split_indices(ds.n, proportions, seed=seed, consecutive=consecutive)
    return ds.subset(tr), ds.subset(va), ds.subset(te)


def lag_features(series, lags=7):
    """Covariate matrix of previous observations plus intercept slot.

    Row t carries (1, s[t-1], ..., s[t-lags]) and targets s[t]; the first
    `lags` points are dropped; 0 lags leave the intercept alone.
    """
    s = np.asarray(series, dtype=float)
    if s.ndim != 1:
        raise ValueError("series must be 1-d")
    if lags < 0:
        raise ValueError(f"lags must be >= 0, got {lags}")
    if s.shape[0] <= lags:
        raise ValueError(f"series of length {s.shape[0]} is too short for {lags} lags")
    n = s.shape[0] - lags
    cols = [np.ones(n)]
    for k in range(1, lags + 1):
        cols.append(s[lags - k : lags - k + n])
    X = np.column_stack(cols)
    return X, s[lags:]


def build_lagged_dataset(series: CensoredDataset, lags=7) -> CensoredDataset:
    """The points of an intercept-only series dataset from `lags` on, each
    with the observed lags of `lag_features` as its covariates."""
    return replace(series.subset(np.arange(lags, series.n)), X=lag_features(series.y, lags)[0])


# ---------------------------------------------------------------------------
# CSV interfaces


def csv_text(header, rows) -> str:
    """The header and then each row as CSV text in the csv module's default
    dialect: a float written as its repr, each line ending in CRLF."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def dataset_csv_text(ds: CensoredDataset) -> str:
    """`x1..xp,y,tau,censored[,y_star]` as CSV text; the intercept is not stored."""
    header = [f"x{i}" for i in range(1, ds.X.shape[1])] + ["y", "tau", "censored"]
    columns = [*ds.X[:, 1:].T.tolist(), ds.y.tolist(), ds.tau.tolist(), ds.censored.astype(int).tolist()]
    if ds.y_star is not None:
        header.append("y_star")
        columns.append(ds.y_star.tolist())
    return csv_text(header, zip(*columns))


def load_dataset_csv(path, side="left") -> CensoredDataset:
    """Read a dataset CSV, adding the intercept column back.

    Each row holds one number per header field: a censored flag of 0 or
    1, and finite values but for tau, which is NaN where it awaits
    imputation. The result is validated (`CensoredDataset.validate`) for
    the given side, so a hand-edited file fails here rather than in
    training, with a ValueError naming the file and the line of a
    malformed row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        has_star = header[-1:] == ["y_star"]
        p = len(header) - (4 if has_star else 3)
        expected = [f"x{i}" for i in range(1, p + 1)] + ["y", "tau", "censored"] + (["y_star"] if has_star else [])
        if header != expected:
            raise ValueError(f"{path}: unexpected dataset header {header}")
        rows = []
        for row in filter(None, reader):
            try:
                rows.append([float(v) for v in row])
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields where the header has {len(header)}")
                if row[p + 2] not in ("0", "1"):
                    raise ValueError(f"the censored flag is 0 or 1, got {row[p + 2]!r}")
                if not all(map(math.isfinite, rows[-1][:p + 1] + rows[-1][p + 2:])):
                    raise ValueError("a field other than tau is not finite")
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows, dtype=float)
    n = data.shape[0]
    X = np.column_stack([np.ones(n), data[:, :p]])
    ds = CensoredDataset(
        X=X,
        y=data[:, p],
        tau=data[:, p + 1],
        censored=data[:, p + 2].astype(bool),
        side=side,
        y_star=data[:, p + 3] if has_star else None,
    )
    try:
        return ds.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_daily_series_csv(path) -> np.ndarray:
    """Read `date,count` with ISO dates, one row per day without gaps, and
    each count finite and nonnegative, as a generated series is. A malformed
    row is a ValueError naming the file and its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if header != ["date", "count"]:
            raise ValueError(f"{path}: expected header date,count, got {header}")
        dates, counts = [], []
        for row in filter(None, reader):
            try:
                if len(row) != 2:
                    raise ValueError(f"expected date,count, got {row}")
                date, count = _dt.date.fromisoformat(row[0]), float(row[1])
                if not (math.isfinite(count) and count >= 0.0):
                    raise ValueError(f"a count is finite and nonnegative, got {row[1]}")
                if dates and (date - dates[-1]).days != 1:
                    raise ValueError(f"gap in daily series between {dates[-1]} and {date}")
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            dates.append(date)
            counts.append(count)
    if not counts:
        raise ValueError(f"{path}: empty series")
    return np.asarray(counts, dtype=float)
