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
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import datagen, metrics
from .models import (
    LinearQuantileNet,
    LstmQuantileNet,
    RegularizedLinearNet,
    StackedUnitNet,
    TobitNet,
    init_weights,
)
from .training import (
    InitCandidate,
    TrainConfig,
    fit,
    fit_with_lr_grid,
    impute_thresholds,
    select_initialization,
    train_mean_ratio,
)

__all__ = [
    "child_seed",
    "MODEL_NAMES",
    "fit_model",
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
    raise ValueError(f"unknown model {name!r}")


def fit_model(name, train, val, cfg, theta, init_scheme="ones", init_seed=None, use_lr_grid=False):
    """Fit model `name` at level theta, over the lr grid when `use_lr_grid`."""
    spec = parse_model_name(name)

    def factory():
        return init_weights(spec.build(train.X.shape[1]), init_scheme, seed=init_seed)

    if use_lr_grid:
        return fit_with_lr_grid(factory, spec.loss_kind, train, val, cfg, theta=theta)
    return fit(factory(), spec.loss_kind, train, val, cfg, theta=theta)


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
        widths = None
        table_rows = self._table_rows()
        for row in table_rows:
            if widths is None:
                widths = [len(str(c)) for c in row]
            else:
                widths = [max(w, len(str(c))) for w, c in zip(widths, row)]
        for i, row in enumerate(table_rows):
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
        lines.append("")
        for v in self.verdicts:
            mark = "PASS" if v["passed"] else "FAIL"
            lines.append(f"[{mark}] {v['check']}: {v['detail']}")
        return "\n".join(lines) + "\n"

    def _table_rows(self):
        header = list(self.cells["header"])
        return [header] + [list(r) for r in self.cells["rows"]]


def _fmt(x, nd=3):
    if x is None:
        return "-"
    return f"{x:.{nd}f}"


def _verdict(check, passed, detail):
    return {"check": check, "passed": bool(passed), "detail": detail}


def _aggregate(scores, stats):
    """Per key of the (key, values) `scores`, in first-seen order: for each
    (column, reduce) of `stats`, reduce (np.mean, say) over the key's values
    in that column, as a Python number."""
    by_key = {}
    for key, values in scores:
        by_key.setdefault(key, []).append(values)
    return {key: tuple(reduce([v[i] for v in rows]).item() for i, reduce in stats)
            for key, rows in by_key.items()}


def run_t1(master_seed=0, replicates=20, n=1000) -> TableRun:
    """Percent of zero observable quantiles per noise and theta.

    Fractions are over all rows of each generated dataset; the mixture
    column uses the single-Gaussian compatibility quantile, matching the
    published targets.
    """
    raw = []
    cells = {}
    for noise in datagen.NOISES:
        for theta in THETA_GRID:
            vals = []
            for s in range(replicates):
                seed = child_seed(master_seed, "t1", noise, "data", s)
                ds = datagen.gen_synthetic(datagen.SyntheticSpec(noise, n, seed))
                frac = float(np.mean(datagen.latent_quantile(noise, theta, ds.X, mixture_compat=True) <= 0.0))
                vals.append(frac)
                raw.append([noise, theta, s, repr(frac)])
            cells[(noise, theta)] = float(np.mean(vals))
    verdicts = []
    for (noise, theta), got in cells.items():
        target = PUBLISHED_T1[(noise, theta)]
        verdicts.append(
            _verdict(
                f"t1 {noise} theta={theta}",
                abs(got - target) <= 0.05,
                f"zero-quantile fraction {got:.3f} vs published {target:.3f} (tol 0.05)",
            )
        )
    rows = [
        [noise] + [_fmt(cells[(noise, t)] * 100, 1) + "%" for t in THETA_GRID]
        for noise in datagen.NOISES
    ]
    table = {"header": ["dataset"] + [f"theta={t}" for t in THETA_GRID], "rows": rows}
    return TableRun(
        name="Table 1: percent of zero conditional quantiles",
        columns=["noise", "theta", "seed", "zero_fraction"],
        raw_rows=raw,
        cells=dict(table, values=cells),
        verdicts=verdicts,
    )


def _t2_models():
    return ("tl-linear", "c-linear", "c-elu")


def run_t2(master_seed=0, replicates=10, n=1000, zero_noise=False) -> TableRun:
    """Predictive quality of the conditional-quantile fits.

    Protocol per replicate: fresh benchmark draw, random 62/15/23 split,
    all-ones init, Adam at learning rate 0.01 with norm clipping at 1,
    full-batch epochs, patience 10. Evaluation compares raw net outputs
    against the latent conditional quantiles (mixture via the
    compatibility quantile) on the test set and its non-censored subset.
    """
    cfg = TrainConfig(learning_rate=0.01)
    raw, scores = [], []
    for noise in datagen.NOISES:
        for rep in range(replicates):
            seed = child_seed(master_seed, "t2", noise, "data", rep)
            ds = datagen.gen_synthetic(datagen.SyntheticSpec(noise, n, seed), zero_noise=zero_noise)
            train, val, test = datagen.split(
                ds, seed=child_seed(master_seed, "t2", noise, "split", rep)
            )
            for theta in THETA_GRID:
                # with degenerate noise every latent quantile is the mean itself
                truth = (test.X.sum(axis=1) if zero_noise
                         else datagen.latent_quantile(noise, theta, test.X, mixture_compat=True))
                for model in _t2_models():
                    result = fit_model(model, train, val, cfg, theta)
                    preds = result.predict(test.X)
                    for subset in metrics.SUBSETS:
                        rep_report = metrics.subset_report(
                            test, subset, preds=preds, true_quantiles=truth
                        )
                        values = (rep_report.r2, rep_report.mae, rep_report.rmse)
                        scores.append(((noise, theta, model, subset), values))
                        raw.append([noise, theta, model, subset, rep, *map(repr, values)])
    cells = _aggregate(scores, ((0, np.mean), (1, np.mean), (2, np.mean)))

    verdicts = []
    if zero_noise:
        # ELU floors at -1, so exact recovery is asserted where the latents
        # are revealed (the ELU net cannot represent deep-negative latents).
        ok = True
        worst = 1.0
        for (noise, theta, model, subset), (r2, _, _) in cells.items():
            if model in ("c-linear", "c-elu") and subset == "non_censored_test":
                worst = min(worst, r2)
                ok = ok and r2 >= 1.0 - 1e-6
        verdicts.append(_verdict("t2 zero-noise exact recovery", ok, f"min aware non-censored R^2 {worst}"))
    else:
        # Median row: censorship-aware linear nails it, unaware lands mid-0.9s.
        for noise in datagen.NOISES:
            r2, mae, _ = cells[(noise, 0.5, "c-linear", "all_test")]
            verdicts.append(
                _verdict(
                    f"t2 median c-linear {noise}",
                    r2 >= 0.99 and mae <= 0.05,
                    f"R^2 {r2:.3f} (>=0.99), MAE {mae:.3f} (<=0.05)",
                )
            )
            tl_r2 = cells[(noise, 0.5, "tl-linear", "all_test")][0]
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
                        cells[(noise, theta, "c-linear", subset)][0],
                        cells[(noise, theta, "c-elu", subset)][0],
                    )
                    unaware = cells[(noise, theta, "tl-linear", subset)][0]
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
        got = {m: cells[("standard_gaussian", 0.05, m, "all_test")][0] for m in _t2_models()}
        order_ok = got["c-elu"] > got["c-linear"] > got["tl-linear"]
        bands_ok = all(abs(got[m] - PUBLISHED_T2_SG_005[m]) <= 0.15 for m in _t2_models())
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
    rows = []
    for theta in THETA_GRID:
        for model in _t2_models():
            for subset in metrics.SUBSETS:
                row = [theta, model, subset]
                for noise in datagen.NOISES:
                    r2, mae, rmse = cells[(noise, theta, model, subset)]
                    row += [_fmt(r2), _fmt(mae), _fmt(rmse)]
                rows.append(row)
    return TableRun(
        name="Table 2: predictive quality for conditional quantiles",
        columns=["noise", "theta", "model", "subset", "rep", "r2", "mae", "rmse"],
        raw_rows=raw,
        cells={"header": header, "rows": rows, "values": cells},
        verdicts=verdicts,
    )


def run_t3(master_seed=0, replicates=5, n=1000) -> TableRun:
    """Parametric Tobit vs censored quantile pair, ICP / MIL."""
    cfg = TrainConfig(learning_rate=0.01)
    raw, scores = [], []
    for noise in datagen.NOISES:
        for rep in range(replicates):
            seed = child_seed(master_seed, "t3", noise, "data", rep)
            ds = datagen.gen_synthetic(datagen.SyntheticSpec(noise, n, seed))
            train, val, test = datagen.split(
                ds, seed=child_seed(master_seed, "t3", noise, "split", rep)
            )
            tob_net = fit_model("tobit", train, val, cfg, None).net
            tob_lo, tob_hi = (tob_net.quantile(test.X, theta) for theta in INTERVAL_PAIR)
            cqr_lo = fit_model("c-linear", train, val, cfg, INTERVAL_PAIR[0]).predict(test.X)
            cqr_hi = fit_model("c-linear", train, val, cfg, INTERVAL_PAIR[1]).predict(test.X)
            for model, (lo, hi) in (("tobit", (tob_lo, tob_hi)), ("c-linear", (cqr_lo, cqr_hi))):
                for subset in metrics.SUBSETS:
                    rp = metrics.subset_report(test, subset, lower=lo, upper=hi)
                    scores.append(((noise, model, subset), (rp.icp, rp.mil, rp.n_crossed)))
                    raw.append([noise, model, subset, rep, repr(rp.icp), repr(rp.mil), rp.n_crossed])
    cells = _aggregate(scores, ((0, np.mean), (1, np.mean), (2, np.sum)))

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
    rows = []
    for noise in datagen.NOISES:
        for model in ("tobit", "c-linear"):
            row = [noise, model]
            for subset in metrics.SUBSETS:
                icp, mil, _ = cells[(noise, model, subset)]
                row += [_fmt(icp), _fmt(mil)]
            rows.append(row)
    return TableRun(
        name="Table 3: non-parametric censored QR vs parametric Tobit",
        columns=["noise", "model", "subset", "rep", "icp", "mil", "n_crossed"],
        raw_rows=raw,
        cells={"header": header, "rows": rows, "values": cells},
        verdicts=verdicts,
    )


T4_MODELS = ("tl-linear", "c-linear", "c-reg-linear", "c-lstm")


def _t4_cell(task):
    """One (alpha, replicate, model) fleet cell; module-level for pools.

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
    master_seed, alpha, rep, model, trips, lags = task
    # Finite budget: the sub-0.1 grid rates crawl from the N(0,1) init and
    # would burn the full default cap without ever winning the validation
    # selection; 1500 epochs is past convergence for the rates that do win.
    cfg = TrainConfig(max_epochs=1500)
    cs = datagen.censor_fleet(trips, alpha, seed=child_seed(master_seed, "t4", "censor", alpha, rep))
    ds = datagen.build_lagged_dataset(cs, lags)
    ds = datagen.CensoredDataset(
        X=ds.X, y=ds.y, tau=2.0 * ds.y / (1.0 - alpha), censored=ds.censored,
        side="right", y_star=ds.y_star,
    )
    train, val, test = datagen.split(ds, (1 / 3, 1 / 3, 1 / 3), consecutive=True)
    preds = {}
    for theta in INTERVAL_PAIR:
        result = fit_model(
            model, train, val, cfg, theta,
            init_scheme="standard_normal",
            init_seed=child_seed(master_seed, "t4", "init", alpha, rep, model, theta),
            use_lr_grid=True,
        )
        preds[theta] = result.predict(test.X)
    rp = metrics.subset_report(
        test, "all_test", lower=preds[INTERVAL_PAIR[0]], upper=preds[INTERVAL_PAIR[1]]
    )
    return model, alpha, rep, rp.icp, rp.mil


def _map_tasks(fn, tasks, jobs):
    """fn over tasks in order, in `jobs` worker processes when jobs > 1 and
    there are several tasks; yields each result once it and those before it are done."""
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(fn, tasks)
    else:
        yield from map(fn, tasks)


def run_t4(master_seed=0, replicates=3, alphas=(0.1, 0.2, 0.3, 0.4),
           n_days=730, lags=7, models=T4_MODELS, jobs=1) -> TableRun:
    """Complete fleet censorship on the synthetic trip table (directional).

    The underlying data is a synthetic stand-in, so this reproduces the
    layout and the directional findings only: censorship-aware models
    beat the unaware one on ICP distance, and every model deteriorates
    as the removed fleet fraction grows.
    """
    trips = datagen.gen_trip_table(
        n_days, datagen.BUNDLED_SERIES_VEHICLES, datagen.BUNDLED_SERIES_RATE,
        datagen.BUNDLED_SERIES_AMPLITUDE, seed=child_seed(master_seed, "t4", "trips"),
    )
    tasks = [
        (master_seed, alpha, rep, model, trips, lags)
        for alpha in alphas
        for rep in range(replicates)
        for model in models
    ]
    raw, scores = [], []
    for model, alpha, rep, icp, mil in _map_tasks(_t4_cell, tasks, jobs):
        scores.append(((model, alpha), (icp, mil)))
        raw.append([model, alpha, rep, repr(icp), repr(mil)])
    cells = _aggregate(scores, ((0, np.mean), (0, np.std), (1, np.mean), (1, np.std)))

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
    rows = []
    for model in models:
        row = [model]
        for a in alphas:
            icp, icp_sd, mil, mil_sd = cells[(model, a)]
            row += [f"{icp:.3f}+/-{icp_sd:.2f}", f"{mil:.0f}+/-{mil_sd:.0f}"]
        rows.append(row)
    return TableRun(
        name="Table 4 (synthetic stand-in, directional): complete fleet censorship",
        columns=["model", "alpha", "rep", "icp", "mil"],
        raw_rows=raw,
        cells={"header": header, "rows": rows, "values": cells},
        verdicts=verdicts,
        notes=["synthetic trip-table stand-in; orderings directional, values not comparable to published numbers"],
    )


def run_bike_protocol(master_seed=0, gammas=(0.3, 0.6, 0.9),
                      c_ranges=((0.01, 0.33), (0.34, 0.66), (0.67, 0.99)),
                      replicates=3, n_inits=3, models=("tl-linear", "c-linear"),
                      n_days=730, lags=7) -> TableRun:
    """Partial censoring of the bundled daily series (§-style protocol).

    Per censored replicate: consecutive thirds, train-ratio threshold
    imputation, lag-7 covariates, N(0,1) random initializations with the
    validation-MIL filter and ICP-closest-to-0.9 selection, then test
    ICP/MIL averaged over replicates.
    """
    cfg = TrainConfig()
    series = datagen.bundled_daily_series(n_days, seed=child_seed(master_seed, "bike", "series"))
    raw, scores = [], []
    for gamma in gammas:
        for cr in c_ranges:
            for rep in range(replicates):
                cs = datagen.censor_partial(
                    series, gamma, cr[0], cr[1],
                    seed=child_seed(master_seed, "bike", "censor", gamma, cr, rep),
                )
                # consecutive thirds of the series; lag row r targets point r + lags
                thirds = datagen.split_indices(cs.n, (1 / 3, 1 / 3, 1 / 3), consecutive=True)
                ratio = train_mean_ratio(cs.y_star[thirds[0]], cs.y[thirds[0]])
                ds = datagen.build_lagged_dataset(impute_thresholds(ratio, cs), lags)
                train, val, test = (ds.subset(part[part >= lags] - lags) for part in thirds)
                train_mean = float(np.mean(train.y))
                for model in models:
                    candidates = []
                    for i in range(n_inits):
                        pair = {}
                        for theta in INTERVAL_PAIR:
                            result = fit_model(
                                model, train, val, cfg, theta,
                                init_scheme="standard_normal",
                                init_seed=child_seed(master_seed, "bike", "init", gamma, cr, rep, model, i, theta),
                                use_lr_grid=True,
                            )
                            pair[theta] = result
                        val_icp, val_mil, _ = metrics.interval_metrics(
                            pair[INTERVAL_PAIR[0]].predict(val.X),
                            pair[INTERVAL_PAIR[1]].predict(val.X),
                            val.y_star,
                        )
                        candidates.append(InitCandidate(seed=i, val_icp=val_icp, val_mil=val_mil, payload=pair))
                    winner, fallback = select_initialization(candidates, train_mean)
                    pair = winner.payload
                    lo = pair[INTERVAL_PAIR[0]].predict(test.X)
                    hi = pair[INTERVAL_PAIR[1]].predict(test.X)
                    for subset in metrics.SUBSETS:
                        rp = metrics.subset_report(test, subset, lower=lo, upper=hi)
                        scores.append(((model, gamma, cr, subset), (rp.icp, rp.mil)))
                        raw.append(
                            [model, gamma, cr[0], cr[1], subset, rep,
                             repr(rp.icp), repr(rp.mil), int(fallback)]
                        )
    cells = _aggregate(scores, ((0, np.mean), (1, np.mean)))

    verdicts = []
    if "tl-linear" in models and "c-linear" in models:
        passing = []
        for cr in c_ranges:
            ok_both = True
            detail = []
            for subset in metrics.SUBSETS:
                aware = float(np.mean([abs(cells[("c-linear", g, cr, subset)][0] - 0.9) for g in gammas]))
                unaware = float(np.mean([abs(cells[("tl-linear", g, cr, subset)][0] - 0.9) for g in gammas]))
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

    header = ["model", "gamma", "c-range", "subset", "ICP", "MIL"]
    rows = []
    for model in models:
        for gamma in gammas:
            for cr in c_ranges:
                for subset in metrics.SUBSETS:
                    icp, mil = cells[(model, gamma, cr, subset)]
                    rows.append([model, gamma, f"{cr[0]}-{cr[1]}", subset, _fmt(icp), _fmt(mil, 1)])
    return TableRun(
        name="Bike-sharing protocol (synthetic stand-in, directional)",
        columns=["model", "gamma", "c1", "c2", "subset", "rep", "icp", "mil", "fallback"],
        raw_rows=raw,
        cells={"header": header, "rows": rows, "values": cells},
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
