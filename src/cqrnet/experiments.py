"""Experiment protocols: seeded benchmark runs and table replication.

Each harness is a pure function of (master_seed, grid parameters): every
stochastic stage derives its seed from the master seed and a stage path
string through a stable 64-bit hash, so replicates are independent yet
reproducible and adding stages never perturbs existing streams.

Harnesses return a TableRun holding per-cell raw rows (CSV-ready),
aggregated cells, a rendered text table, and pass/fail verdicts for the
replication checks they are responsible for.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import product
from typing import Callable

import numpy as np

from . import datagen, metrics
from .models import (
    LinearQuantileNet,
    LstmQuantileNet,
    MirrorWrapper,
    RegularizedLinearNet,
    StackedUnitNet,
    TobitNet,
    init_weights,
)
from .training import (
    TrainConfig,
    fit,
    fit_with_lr_grid,
    impute_thresholds,
    select_initialization,
    train_mean_ratio,
    training_loss,
)

__all__ = [
    "child_seed",
    "MODEL_NAMES",
    "split_for_fit",
    "fit_model",
    "training_problem",
    "reuse_fit",
    "FitCell",
    "fit_cells",
    "TableRun",
    "run_t1",
    "run_t2",
    "run_t3",
    "run_t4",
    "run_bike_protocol",
    "TABLES",
]

THETA_GRID = (0.05, 0.5, 0.95)
INTERVAL_PAIR = (0.05, 0.95)
LAGS = 7  # lag covariates of the daily-series tables
Z95_WIDTH = 2 * 1.6448536269514722  # analytic Tobit 5%-95% width at sigma=1

# Published table cells used as replication targets.
PUBLISHED_T1 = {
    ("standard_gaussian", 0.05): 0.627,
    ("standard_gaussian", 0.5): 0.239,
    ("standard_gaussian", 0.95): 0.020,
    ("heteroskedastic", 0.05): 0.680,
    ("heteroskedastic", 0.5): 0.239,
    ("heteroskedastic", 0.95): 0.114,
    ("gaussian_mixture", 0.05): 0.541,
    ("gaussian_mixture", 0.5): 0.239,
    ("gaussian_mixture", 0.95): 0.046,
}
PUBLISHED_T2_SG_005 = {"tl-linear": 0.220, "c-linear": 0.499, "c-elu": 0.690}


def child_seed(master_seed, *path) -> int:
    """Stable 64-bit seed for a stage, from the master seed and path."""
    key = f"{master_seed}|" + "/".join(str(p) for p in path)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Model registry

@dataclass(frozen=True)
class _ModelSpec:
    loss_kind: str
    build: Callable  # dim -> an untrained net for covariate rows of width dim


MODEL_NAMES = {
    "tl-linear": _ModelSpec("tilted", LinearQuantileNet),
    "c-linear": _ModelSpec("censored_nll", LinearQuantileNet),
    "c-elu": _ModelSpec("censored_nll", partial(LinearQuantileNet, activation="elu")),
    "c-reg-linear": _ModelSpec("censored_nll", partial(RegularizedLinearNet, dropout_rate=0.2, l2_coeff=1e-3)),
    "c-lstm": _ModelSpec("censored_nll", lambda dim: LstmQuantileNet(lags=dim - 1, hidden_size=8)),
    "tobit": _ModelSpec("tobit", TobitNet),
}

# Stacked-unit hidden layers (tanh/sigmoid/elu/relu, 1 or 10 units) share the
# interface but stay out of the default model lists; they are reachable as
# c-stacked-<activation>-<units>.
_STACKED_PREFIX = "c-stacked-"


def parse_model_name(name) -> _ModelSpec:
    if name in MODEL_NAMES:
        return MODEL_NAMES[name]
    if name.startswith(_STACKED_PREFIX):
        activation, _, units = name[len(_STACKED_PREFIX):].rpartition("-")
        if activation in ("tanh", "sigmoid", "elu", "relu") and units.isdigit():
            return _ModelSpec("censored_nll", partial(StackedUnitNet, units=int(units), activation=activation))
    raise ValueError(f"unknown model {name!r} (choose from {', '.join(MODEL_NAMES)} or {_STACKED_PREFIX}<act>-<units>)")


def split_for_fit(ds, seed=None):
    """Train/val/test as `cli fit`, `cli evaluate` and Tables 2-4 take them:
    a random 62/15/23 split at `seed` for left-censored data, consecutive
    thirds of the rows for right-censored series; NaN thresholds imputed
    with the training rows' ratio."""
    if ds.side == "right":
        train, val, test = datagen.split(ds, (1 / 3, 1 / 3, 1 / 3), consecutive=True)
    else:
        train, val, test = datagen.split(ds, seed=seed)
    if np.any(np.isnan(ds.tau)):
        ratio = train_mean_ratio(train.y_star, train.y)
        train, val, test = (impute_thresholds(ratio, part) for part in (train, val, test))
    return train, val, test


def _initial_net(spec, dim, init_scheme, init_seed):
    return init_weights(spec.build(dim), init_scheme, seed=init_seed)


def fit_model(name, train, val, cfg, theta, init_scheme="ones", init_seed=None, use_lr_grid=False):
    """Fit model `name` at level theta, over the lr grid when `use_lr_grid`."""
    spec = parse_model_name(name)
    net = _initial_net(spec, train.X.shape[1], init_scheme, init_seed)
    return (fit_with_lr_grid if use_lr_grid else fit)(net, spec.loss_kind, train, val, cfg, theta=theta)


def training_problem(model, theta, train, val, init_scheme="ones", init_seed=None):
    """The training problem that the cell (model, theta) poses on the split
    (train, val), as a hashable key: the net as it trains, the loss, the
    level where the loss reads one, and the initial weights. Two cells of one
    command with equal keys have bit-equal fits (see `reuse_fit`); the fit's
    seed is left out, as only the dropout net draws from it and its cells
    differ in theta. The loss is built as `fit` builds it, so a cell that
    `fit` refuses raises its ValueError here. With every threshold the loss
    sees >= 0, an ELU neuron trains as the identity: a row with z > 0 gets z
    and derivative 1.0 from both, and one with z <= 0 predicts <= 0 <= tau,
    at the clamp (zero gradient) or, where z = 0 = tau, at 0 under both.
    """
    spec = parse_model_name(model)
    net = _initial_net(spec, train.X.shape[1], init_scheme, init_seed)
    loss = training_loss(net, spec.loss_kind, train, val, theta)[0]
    config = net.config()
    if type(net) is LinearQuantileNet and spec.loss_kind == "censored_nll" and np.all(loss.tau >= 0.0):
        config["activation"] = "identity"
    return (net.family, tuple(config.items()), spec.loss_kind, getattr(loss, "theta", None),
            tuple((k, v.tobytes()) for k, v in net.params.items()))


def reuse_fit(result, model, theta, seed):
    """`result`, the fit of another cell of its training problem, as the fit
    of the cell (model, theta) with fit seed `seed`: the cell's own net on a
    copy of the parameters (inside the mirror when there is one). The traces,
    epochs, diagnostics and wall time are the source's."""
    mirrored = isinstance(result.net, MirrorWrapper)
    source = result.net.inner if mirrored else result.net
    net = parse_model_name(model).build(source.dim)
    net.params = {k: v.copy() for k, v in source.params.items()}
    return replace(result, net=MirrorWrapper(net) if mirrored else net, theta=theta, seed=seed)


# one cell of a table or command: `fit_model`'s arguments, in its order and with its defaults
FitCell = namedtuple("FitCell", "model train val cfg theta init_scheme init_seed use_lr_grid",
                     defaults=("ones", None, False))


def _fit_cell(cell):
    """`fit_model` over one cell; module-level so worker processes can run it."""
    return fit_model(*cell)


def fit_cells(cells, jobs=1):
    """Each FitCell's FitResult, in cell order. Every cell is checked by
    `training_problem` before any fit runs (a refused one is a ValueError
    naming fit-<model>-theta<theta>). Each problem, under its cell's config
    but for the seed, is fitted once, in first-seen order, in `jobs` worker
    processes when jobs > 1; its later cells get `reuse_fit` copies. A fit
    is held only until the last cell of its problem is yielded."""
    cells, keys, firsts = list(cells), [], {}
    for cell in cells:
        try:
            problem = training_problem(cell.model, cell.theta, cell.train, cell.val, cell.init_scheme, cell.init_seed)
        except ValueError as exc:
            raise ValueError(f"fit-{cell.model}-theta{cell.theta:g}: {exc}") from None
        keys.append((problem, replace(cell.cfg, seed=0), cell.use_lr_grid))
        firsts.setdefault(keys[-1], cell)
    last = {key: i for i, key in enumerate(keys)}
    tasks, pool = list(firsts.values()), None
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        results, fits = (pool.map if pool else map)(_fit_cell, tasks), {}
        for i, (cell, key) in enumerate(zip(cells, keys)):
            if key in fits:
                result = reuse_fit(fits[key], cell.model, cell.theta, cell.cfg.seed)
            else:  # a problem's first cell: its fit is the next one out
                result = fits[key] = next(results)
            if last[key] == i:
                del fits[key]
            yield result
            del result  # before the next fit runs, so that a fit the consumer dropped is freed
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def _interval_cells(model, train, val, cfg, master_seed, *path):
    """The cells of `model` at each level of INTERVAL_PAIR, over the lr grid,
    each from N(0,1) weights seeded by the stage `path` and its theta."""
    return [FitCell(model, train, val, cfg, theta, "standard_normal", child_seed(master_seed, *path, theta), True)
            for theta in INTERVAL_PAIR]


# ---------------------------------------------------------------------------
# Table runs

@dataclass
class TableRun:
    name: str
    columns: list
    raw_rows: list
    cells: dict
    verdicts: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def render(self) -> str:
        lines = [f"== {self.name} =="]
        lines.extend(self.notes)
        table_rows = [self.cells["header"], *self.cells["rows"]]
        widths = [max(len(str(c)) for c in column) for column in zip(*table_rows)]
        for i, row in enumerate(table_rows):
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        lines.append("")
        for v in self.verdicts:
            mark = "PASS" if v["passed"] else "FAIL"
            lines.append(f"[{mark}] {v['check']}: {v['detail']}")
        return "\n".join(lines) + "\n"


def _fmt(x, nd=3):
    return f"{x:.{nd}f}"


def _verdict(check, passed, detail):
    return {"check": check, "passed": bool(passed), "detail": detail}


def _aggregate(columns, raw, key, stats):
    """The raw rows grouped by the values of their `key` columns, in
    first-seen order: per group, for each (column, reduce) of `stats`, reduce
    (np.mean, say) over the column's entries parsed with float, as a Python
    number. A score's raw entry is its repr, which float reads back exactly."""
    at = [columns.index(c) for c in key]
    groups = {}
    for row in raw:
        groups.setdefault(tuple(row[i] for i in at), []).append(row)
    return {k: tuple(reduce([float(row[columns.index(c)]) for row in rows]).item() for c, reduce in stats)
            for k, rows in groups.items()}


def _table(header, cells, row_keys, col_keys, cell, label=list):
    """A harness's `TableRun.cells`: the header, then per row key its
    label, then cell(*values) for each column key, where values are the
    aggregate at row key + column key."""
    col_keys = list(col_keys)
    rows = [[*label(rk), *(text for ck in col_keys for text in cell(*cells[rk + ck]))] for rk in row_keys]
    return {"header": header, "rows": rows, "values": cells}


def run_t1(master_seed=0, replicates=20, n=1000) -> TableRun:
    """Percent of zero observable quantiles per noise and theta.

    Fractions are over all rows of each generated dataset; the mixture
    column uses the single-Gaussian compatibility quantile, matching the
    published targets.
    """
    columns = ["noise", "theta", "seed", "zero_fraction"]
    raw = []
    for noise in datagen.NOISES:
        for theta in THETA_GRID:
            for s in range(replicates):
                seed = child_seed(master_seed, "t1", noise, "data", s)
                ds = datagen.gen_synthetic(datagen.SyntheticSpec(noise, n, seed))
                frac = float(np.mean(datagen.latent_quantile(noise, theta, ds.X, mixture_compat=True) <= 0.0))
                raw.append([noise, theta, s, repr(frac)])
    cells = _aggregate(columns, raw, ("noise", "theta"), (("zero_fraction", np.mean),))
    verdicts = []
    for (noise, theta), (got,) in cells.items():
        target = PUBLISHED_T1[(noise, theta)]
        verdicts.append(
            _verdict(
                f"t1 {noise} theta={theta}",
                abs(got - target) <= 0.05,
                f"zero-quantile fraction {got:.3f} vs published {target:.3f} (tol 0.05)",
            )
        )
    return TableRun(
        name="Table 1: percent of zero conditional quantiles",
        columns=columns,
        raw_rows=raw,
        cells=_table(["dataset"] + [f"theta={t}" for t in THETA_GRID], cells,
                     product(datagen.NOISES), product(THETA_GRID), lambda frac: [_fmt(frac * 100, 1) + "%"]),
        verdicts=verdicts,
    )


T2_MODELS = ("tl-linear", "c-linear", "c-elu")


def run_t2(master_seed=0, replicates=10, n=1000, zero_noise=False) -> TableRun:
    """Predictive quality of the conditional-quantile fits.

    Protocol per replicate: fresh benchmark draw, random 62/15/23 split,
    all-ones init, Adam at learning rate 0.01 with norm clipping at 1,
    full-batch epochs, patience 10. Evaluation compares raw net outputs
    against the latent conditional quantiles (mixture via the
    compatibility quantile) on the test set and its non-censored subset.
    """
    cfg = TrainConfig(learning_rate=0.01)
    columns = ["noise", "theta", "model", "subset", "rep", "r2", "mae", "rmse"]
    raw = []
    for noise in datagen.NOISES:
        for rep in range(replicates):
            seed = child_seed(master_seed, "t2", noise, "data", rep)
            ds = datagen.gen_synthetic(datagen.SyntheticSpec(noise, n, seed), zero_noise=zero_noise)
            train, val, test = split_for_fit(ds, child_seed(master_seed, "t2", noise, "split", rep))
            # with degenerate noise every latent quantile is the mean itself
            truths = {theta: test.X.sum(axis=1) if zero_noise
                      else datagen.latent_quantile(noise, theta, test.X, mixture_compat=True) for theta in THETA_GRID}
            split_cells = [FitCell(model, train, val, cfg, theta) for theta in THETA_GRID for model in T2_MODELS]
            for result, cell in zip(fit_cells(split_cells), split_cells):
                preds = result.predict(test.X)
                for subset in metrics.SUBSETS:
                    rp = metrics.subset_report(test, subset, preds=preds, true_quantiles=truths[cell.theta])
                    raw.append([noise, cell.theta, cell.model, subset, rep, repr(rp.r2), repr(rp.mae), repr(rp.rmse)])
    cells = _aggregate(columns, raw, ("theta", "model", "subset", "noise"),
                       (("r2", np.mean), ("mae", np.mean), ("rmse", np.mean)))

    verdicts = []
    if zero_noise:
        # ELU floors at -1, so exact recovery is asserted where the latents
        # are revealed (the ELU net cannot represent deep-negative latents).
        ok = True
        worst = 1.0
        for (theta, model, subset, noise), (r2, _, _) in cells.items():
            if model in ("c-linear", "c-elu") and subset == "non_censored_test":
                worst = min(worst, r2)
                ok = ok and r2 >= 1.0 - 1e-6
        verdicts.append(_verdict("t2 zero-noise exact recovery", ok, f"min aware non-censored R^2 {worst}"))
    else:
        # Median row: censorship-aware linear nails it, unaware lands mid-0.9s.
        for noise in datagen.NOISES:
            r2, mae, _ = cells[(0.5, "c-linear", "all_test", noise)]
            verdicts.append(
                _verdict(
                    f"t2 median c-linear {noise}",
                    r2 >= 0.99 and mae <= 0.05,
                    f"R^2 {r2:.3f} (>=0.99), MAE {mae:.3f} (<=0.05)",
                )
            )
            tl_r2 = cells[(0.5, "tl-linear", "all_test", noise)][0]
            verdicts.append(
                _verdict(
                    f"t2 median tl-linear {noise}",
                    0.85 <= tl_r2 <= 0.95,
                    f"R^2 {tl_r2:.3f} (in [0.85, 0.95])",
                )
            )
        # Censorship-aware >= unaware in R^2, every (noise, theta) cell and subset.
        bad = []
        for noise in datagen.NOISES:
            for theta in THETA_GRID:
                for subset in metrics.SUBSETS:
                    aware = max(
                        cells[(theta, "c-linear", subset, noise)][0],
                        cells[(theta, "c-elu", subset, noise)][0],
                    )
                    unaware = cells[(theta, "tl-linear", subset, noise)][0]
                    if aware < unaware:
                        bad.append(f"{noise}/theta={theta}/{subset}")
        verdicts.append(
            _verdict(
                "t2 aware >= unaware orderings (18 cells)",
                not bad,
                "all hold" if not bad else "violations: " + ", ".join(bad),
            )
        )
        # Hard quantile: ELU > linear > TL at theta=0.05 on standard Gaussian.
        got = {m: cells[(0.05, m, "all_test", "standard_gaussian")][0] for m in T2_MODELS}
        order_ok = got["c-elu"] > got["c-linear"] > got["tl-linear"]
        bands_ok = all(abs(got[m] - PUBLISHED_T2_SG_005[m]) <= 0.15 for m in T2_MODELS)
        verdicts.append(
            _verdict(
                "t2 hard-quantile ordering (sg, theta=0.05)",
                order_ok and bands_ok,
                f"R^2 elu={got['c-elu']:.3f} linear={got['c-linear']:.3f} tl={got['tl-linear']:.3f} "
                f"vs published 0.690>0.499>0.220 (+/-0.15)",
            )
        )

    header = ["theta", "model", "subset"] + [
        f"{noise[:12]} {m}" for noise in datagen.NOISES for m in ("R2", "MAE", "RMSE")
    ]
    return TableRun(
        name="Table 2: predictive quality for conditional quantiles",
        columns=columns,
        raw_rows=raw,
        cells=_table(header, cells, product(THETA_GRID, T2_MODELS, metrics.SUBSETS), product(datagen.NOISES),
                     lambda r2, mae, rmse: [_fmt(r2), _fmt(mae), _fmt(rmse)]),
        verdicts=verdicts,
    )


def run_t3(master_seed=0, replicates=5, n=1000) -> TableRun:
    """Parametric Tobit vs censored quantile pair, ICP / MIL."""
    cfg = TrainConfig(learning_rate=0.01)
    columns = ["noise", "model", "subset", "rep", "icp", "mil", "n_crossed"]
    raw = []
    for noise in datagen.NOISES:
        for rep in range(replicates):
            seed = child_seed(master_seed, "t3", noise, "data", rep)
            ds = datagen.gen_synthetic(datagen.SyntheticSpec(noise, n, seed))
            train, val, test = split_for_fit(ds, child_seed(master_seed, "t3", noise, "split", rep))
            # the Tobit cells pose one problem, so its one fit gives both ends of its interval
            ends = [result.predict(test.X) for result in fit_cells(
                FitCell(model, train, val, cfg, theta) for model in ("tobit", "c-linear") for theta in INTERVAL_PAIR)]
            for model, lo, hi in (("tobit", *ends[:2]), ("c-linear", *ends[2:])):
                for subset in metrics.SUBSETS:
                    rp = metrics.subset_report(test, subset, lower=lo, upper=hi)
                    raw.append([noise, model, subset, rep, repr(rp.icp), repr(rp.mil), rp.n_crossed])
    cells = _aggregate(columns, raw, ("noise", "model", "subset"),
                       (("icp", np.mean), ("mil", np.mean), ("n_crossed", np.sum)))

    verdicts = []
    for noise in datagen.NOISES:
        mil = cells[(noise, "tobit", "all_test")][1]
        verdicts.append(
            _verdict(
                f"t3 tobit MIL {noise}",
                abs(mil - 3.290) <= 0.005,
                f"MIL {mil:.4f} vs 3.290 (tol 0.005, analytic {Z95_WIDTH:.5f})",
            )
        )
    sg_icp = cells[("standard_gaussian", "tobit", "all_test")][0]
    verdicts.append(
        _verdict(
            "t3 tobit ICP standard_gaussian",
            abs(sg_icp - 0.909) <= 0.03,
            f"ICP {sg_icp:.3f} vs published 0.909 (tol 0.03)",
        )
    )
    for noise in ("heteroskedastic", "gaussian_mixture"):
        cqr = cells[(noise, "c-linear", "non_censored_test")][0]
        tob = cells[(noise, "tobit", "non_censored_test")][0]
        verdicts.append(
            _verdict(
                f"t3 non-censored ICP distance {noise}",
                abs(cqr - 0.9) <= abs(tob - 0.9),
                f"|CQR-0.9|={abs(cqr - 0.9):.3f} <= |Tobit-0.9|={abs(tob - 0.9):.3f} "
                f"(ICP {cqr:.3f} vs {tob:.3f})",
            )
        )

    header = ["dataset", "model"] + [f"{s} {m}" for s in ("all", "non-censored") for m in ("ICP", "MIL")]
    return TableRun(
        name="Table 3: non-parametric censored QR vs parametric Tobit",
        columns=columns,
        raw_rows=raw,
        cells=_table(header, cells, product(datagen.NOISES, ("tobit", "c-linear")), product(metrics.SUBSETS),
                     lambda icp, mil, _: [_fmt(icp), _fmt(mil)]),
        verdicts=verdicts,
    )


T4_MODELS = ("tl-linear", "c-linear", "c-reg-linear", "c-lstm")


def run_t4(master_seed=0, replicates=3, alphas=(0.1, 0.2, 0.3, 0.4),
           n_days=730, models=T4_MODELS, jobs=1) -> TableRun:
    """Complete fleet censorship on the synthetic trip table (directional).

    The underlying data is a synthetic stand-in, so this reproduces the
    layout and the directional findings only: censorship-aware models
    beat the unaware one on ICP distance, and every model deteriorates
    as the removed fleet fraction grows.

    Training thresholds are a loose multiple (2x) of the latent scale
    y / (1 - alpha) implied by the scheme's own approximation. With
    tau = y (every row at its clamp) the censored likelihood is
    degenerate: any predictor above every threshold has exactly zero
    loss, gradient training converges there, and intervals collapse.
    A ceiling at exactly y / (1 - alpha) coincides with the latent value,
    so whether a frozen fit lands above or below it is a coin flip and
    interval pairs cross at random. The loose ceiling keeps the clamp
    available against runaway predictions while letting the fits anchor
    stably to the observed data's quantiles.
    """
    trips = datagen.bundled_trip_table(n_days, seed=child_seed(master_seed, "t4", "trips"))
    # Finite budget: the sub-0.1 rates crawl from the N(0,1) init; 1500 epochs is past
    # convergence for the rates that win. The LSTM's 0.001 hits that cap and never wins
    # its grid (0.01 sometimes does), so it is left out (README, decisions ledger).
    cfgs = {model: TrainConfig(max_epochs=1500, lr_grid=(0.01, 0.1, 1.0) if model == "c-lstm" else TrainConfig.lr_grid)
            for model in models}
    table_cells, scored = [], []
    for alpha in alphas:
        for rep in range(replicates):
            cs = datagen.censor_fleet(trips, alpha, seed=child_seed(master_seed, "t4", "censor", alpha, rep))
            ds = datagen.build_lagged_dataset(cs, LAGS)
            ds = replace(ds, tau=2.0 * ds.y / (1.0 - alpha))
            train, val, test = split_for_fit(ds)
            for model in models:
                table_cells += _interval_cells(model, train, val, cfgs[model],
                                               master_seed, "t4", "init", alpha, rep, model)
                scored.append((model, alpha, rep, test))
    columns = ["model", "alpha", "rep", "icp", "mil", "n_crossed"]
    results, raw = fit_cells(table_cells, jobs), []
    for model, alpha, rep, test in scored:
        lo, hi = (next(results).predict(test.X) for _ in INTERVAL_PAIR)
        rp = metrics.subset_report(test, "all_test", lower=lo, upper=hi)
        raw.append([model, alpha, rep, repr(rp.icp), repr(rp.mil), rp.n_crossed])
    cells = _aggregate(columns, raw, ("model", "alpha"),
                       (("icp", np.mean), ("icp", np.std), ("mil", np.mean), ("mil", np.std)))

    verdicts = []
    for model in models:
        icps = [cells[(model, a)][0] for a in alphas]
        mono = all(icps[i] > icps[i + 1] for i in range(len(icps) - 1))
        verdicts.append(
            _verdict(
                f"t4 ICP decreases with alpha ({model})",
                mono,
                " > ".join(f"{v:.3f}" for v in icps),
            )
        )
    aware = [m for m in models if m != "tl-linear"]
    if "tl-linear" in models and aware:
        tl_dist = float(np.mean([abs(cells[("tl-linear", a)][0] - 0.9) for a in alphas]))
        best_dist = float(
            np.mean([min(abs(cells[(m, a)][0] - 0.9) for m in aware) for a in alphas])
        )
        verdicts.append(
            _verdict(
                "t4 censorship-aware beats unaware (mean ICP distance)",
                best_dist <= tl_dist,
                f"best aware {best_dist:.3f} <= unaware {tl_dist:.3f}",
            )
        )

    header = ["model"] + [f"alpha={a} {m}" for a in alphas for m in ("ICP", "MIL")]
    return TableRun(
        name="Table 4 (synthetic stand-in, directional): complete fleet censorship",
        columns=columns,
        raw_rows=raw,
        cells=_table(header, cells, product(models), product(alphas),
                     lambda icp, icp_sd, mil, mil_sd: [f"{icp:.3f}+/-{icp_sd:.2f}", f"{mil:.0f}+/-{mil_sd:.0f}"]),
        verdicts=verdicts,
        notes=["synthetic trip-table stand-in; orderings directional, values not comparable to published numbers"],
    )


def run_bike_protocol(master_seed=0, gammas=(0.3, 0.6, 0.9),
                      c_ranges=((0.01, 0.33), (0.34, 0.66), (0.67, 0.99)),
                      replicates=3, n_inits=3, models=("tl-linear", "c-linear"),
                      n_days=730) -> TableRun:
    """Partial censoring of the bundled daily series (§-style protocol).

    Per censored replicate: consecutive thirds, train-ratio threshold
    imputation, lag-7 covariates, N(0,1) random initializations with the
    validation-MIL filter and ICP-closest-to-0.9 selection, then test
    ICP/MIL averaged over replicates. Its split is the one exception to
    `split_for_fit`: thirds of the series before the lags, as thirds of the
    lag rows pass fewer seeds (CHANGES.md FOUND on the lag-row split).
    """
    cfg = TrainConfig()
    series = datagen.bundled_daily_series(n_days, seed=child_seed(master_seed, "bike", "series"))
    columns = ["model", "gamma", "c1", "c2", "subset", "rep", "icp", "mil", "fallback", "n_crossed"]
    raw = []
    for gamma in gammas:
        for cr in c_ranges:
            for rep in range(replicates):
                cs = datagen.censor_partial(
                    series, gamma, cr[0], cr[1],
                    seed=child_seed(master_seed, "bike", "censor", gamma, cr, rep),
                )
                # consecutive thirds of the series; lag row r targets point r + LAGS
                thirds = datagen.split_indices(cs.n, (1 / 3, 1 / 3, 1 / 3), consecutive=True)
                ratio = train_mean_ratio(cs.y_star[thirds[0]], cs.y[thirds[0]])
                ds = datagen.build_lagged_dataset(impute_thresholds(ratio, cs), LAGS)
                train, val, test = (ds.subset(part[part >= LAGS] - LAGS) for part in thirds)
                train_mean = float(np.mean(train.y))
                results = fit_cells(cell for model in models for i in range(n_inits) for cell in _interval_cells(
                    model, train, val, cfg, master_seed, "bike", "init", gamma, cr, rep, model, i))
                for model in models:
                    pairs = [(next(results), next(results)) for _ in range(n_inits)]
                    scores = [metrics.interval_metrics(lo.predict(val.X), hi.predict(val.X), val.y_star)[:2]
                              for lo, hi in pairs]
                    index, fallback = select_initialization(scores, train_mean)
                    lo, hi = (result.predict(test.X) for result in pairs[index])
                    for subset in metrics.SUBSETS:
                        rp = metrics.subset_report(test, subset, lower=lo, upper=hi)
                        raw.append([model, gamma, cr[0], cr[1], subset, rep,
                                    repr(rp.icp), repr(rp.mil), int(fallback), rp.n_crossed])
    cells = _aggregate(columns, raw, ("model", "gamma", "c1", "c2", "subset"),
                       (("icp", np.mean), ("mil", np.mean)))

    verdicts = []
    if "tl-linear" in models and "c-linear" in models:
        passing = []
        for cr in c_ranges:
            ok_both = True
            detail = []
            for subset in metrics.SUBSETS:
                aware = float(np.mean([abs(cells[("c-linear", g, *cr, subset)][0] - 0.9) for g in gammas]))
                unaware = float(np.mean([abs(cells[("tl-linear", g, *cr, subset)][0] - 0.9) for g in gammas]))
                ok_both = ok_both and aware <= unaware
                detail.append(f"{subset}: {aware:.3f} vs {unaware:.3f}")
            passing.append(ok_both)
            verdicts.append(
                _verdict(
                    f"bike aware<=unaware ICP distance, c-range {cr}",
                    ok_both,
                    "; ".join(detail),
                )
            )
        verdicts.append(
            _verdict(
                "bike aware beats unaware on >= 2 of 3 c-ranges (both subsets)",
                sum(passing) >= 2,
                f"{sum(passing)} of {len(c_ranges)} c-ranges",
            )
        )

    return TableRun(
        name="Bike-sharing protocol (synthetic stand-in, directional)",
        columns=columns,
        raw_rows=raw,
        cells=_table(["model", "gamma", "c-range", "subset", "ICP", "MIL"], cells,
                     [(model, gamma, *cr, subset) for model, gamma, cr, subset
                      in product(models, gammas, c_ranges, metrics.SUBSETS)], [()],
                     lambda icp, mil: [_fmt(icp), _fmt(mil, 1)],
                     label=lambda key: [*key[:2], f"{key[2]}-{key[3]}", key[4]]),
        verdicts=verdicts,
        notes=["bundled synthetic daily series; directional comparison of censorship-aware vs unaware"],
    )


TABLES = {
    "t1": run_t1,
    "t2": run_t2,
    "t3": run_t3,
    "t4-synthetic": run_t4,
    "bike": run_bike_protocol,
}
