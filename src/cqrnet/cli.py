"""Command-line entry point: generate / fit / evaluate / replicate.

Every run writes a JSON manifest recording the exact argv, the resolved
configuration and its hash, the master seed, and the produced files, so
any output's provenance chain reconstructs the command line. File writes
are atomic (write temp, then rename). Replicate exit status is nonzero
iff any replication verdict fails or a stage errors.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__, datagen, metrics
from .experiments import (INTERVAL_PAIR, MODEL_NAMES, TABLES, _map_tasks, child_seed, fit_model, parse_model_name,
                          reuse_fit, training_problem)
from .models import net_from_dict
from .training import TrainConfig, impute_thresholds, train_mean_ratio


# ---------------------------------------------------------------------------
# IO helpers

def _atomic_write(path, payload: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _read_json_object(path, what) -> dict:
    """The JSON object in `path`, which holds `what`; a file that is not
    valid JSON, or holds another kind of value, is a ValueError naming it."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: {what} is a JSON object, not a {type(doc).__name__}")
    return doc


def _config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _manifest(path, command, args, config, outputs, stats=None):
    config = {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.items()}
    _write_json(
        path,
        {
            "tool": "cqrnet",
            "version": __version__,
            "command": command,
            "argv": args._argv,
            "config": config,
            "config_hash": _config_hash(config),
            "master_seed": args.seed,
            "outputs": outputs,
            "stats": stats or {},
        },
    )


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args, parser):
    os.makedirs(args.out_dir, exist_ok=True)
    if bool(args.synthetic) == bool(args.censor):
        parser.error("generate needs exactly one of --synthetic NOISE or --censor SCHEME")
    if args.synthetic:
        spec = datagen.SyntheticSpec(args.synthetic, args.n, child_seed(args.seed, "generate", args.synthetic))
        ds = datagen.gen_synthetic(spec, zero_noise=args.zero_noise)
        data_path = os.path.join(args.out_dir, f"synthetic-{args.synthetic}.csv")
        stats = {"n": ds.n, "censored_fraction": float(ds.censored.mean()),
                 "side": ds.side, "noise": args.synthetic, "lags": None}
    else:
        if args.input:
            series = datagen.load_daily_series_csv(args.input)
        else:
            series = datagen.bundled_daily_series(args.n_days, seed=child_seed(args.seed, "generate", "series"))
        if args.censor == "partial":
            cs = datagen.censor_partial(series, args.gamma, args.c1, args.c2,
                                        seed=child_seed(args.seed, "generate", "partial"))
        else:
            trips = datagen.bundled_trip_table(args.n_days, seed=child_seed(args.seed, "generate", "trips"))
            cs = datagen.censor_fleet(trips, args.alpha, seed=child_seed(args.seed, "generate", "fleet"))
        ds = datagen.build_lagged_dataset(cs, args.lags)
        data_path = os.path.join(args.out_dir, f"censored-{args.censor}.csv")
        stats = {
            "n": ds.n, "censored_fraction": float(ds.censored.mean()), "side": ds.side,
            "noise": None, "lags": args.lags, "scheme": args.censor,
            "observed_over_latent_mean": float(np.mean(cs.y) / np.mean(cs.y_star)),
        }
    _atomic_write(data_path, datagen.dataset_csv_text(ds))
    config = {k: getattr(args, k) for k in
              ("synthetic", "censor", "n", "n_days", "gamma", "c1", "c2", "alpha", "lags", "zero_noise", "input")}
    manifest_path = os.path.join(args.out_dir, "generate-manifest.json")
    _manifest(manifest_path, "generate", args, config, [data_path], stats)
    print(f"wrote {data_path}")
    print(f"manifest: {manifest_path} (censored fraction {stats['censored_fraction']:.3f})")
    return 0


# ---------------------------------------------------------------------------
# fit

def _load_dataset_with_manifest(data_path):
    manifest_path = os.path.join(os.path.dirname(os.path.abspath(data_path)), "generate-manifest.json")
    side, noise = "left", None
    if os.path.exists(manifest_path):
        stats = _read_json_object(manifest_path, "a generate manifest").get("stats", {})
        if not isinstance(stats, dict):
            raise ValueError(f"{manifest_path}: a manifest's stats are a JSON object, not a {type(stats).__name__}")
        side, noise = stats.get("side", "left"), stats.get("noise")
        if side not in ("left", "right"):
            raise ValueError(f"{manifest_path}: stats.side is 'left' or 'right', got {side!r}")
        if noise is not None and noise not in datagen.NOISES:
            raise ValueError(f"{manifest_path}: stats.noise is one of {datagen.NOISES} or null, got {noise!r}")
    return datagen.load_dataset_csv(data_path, side=side), noise


def _prepare_for_fit(ds, seed):
    """Train/val/test: random 62/15/23 for cross-sectional data, consecutive
    thirds for (right-censored) series datasets; missing thresholds imputed
    with the training rows' ratio."""
    if ds.side == "right":
        train, val, test = datagen.split(ds, (1 / 3, 1 / 3, 1 / 3), consecutive=True)
    else:
        train, val, test = datagen.split(ds, seed=seed)
    if np.any(np.isnan(ds.tau)):
        ratio = train_mean_ratio(train.y_star, train.y)
        train, val, test = (impute_thresholds(ratio, part) for part in (train, val, test))
    return train, val, test


def _split_digest(test) -> str:
    """SHA-256 of the test rows' X and y bytes: which rows `evaluate` may score."""
    return hashlib.sha256(test.X.tobytes() + test.y.tobytes()).hexdigest()


def _fit_cell(task):
    """One (model, theta) cell's fit; module-level so worker processes can run it."""
    (model, theta, train, val, fit_seed, cfg_kwargs, use_grid, init_scheme, init_seed) = task
    cfg = TrainConfig(seed=fit_seed, **cfg_kwargs)
    return fit_model(model, train, val, cfg, theta, init_scheme=init_scheme, init_seed=init_seed,
                     use_lr_grid=use_grid)


def cmd_fit(args, parser):
    os.makedirs(args.out_dir, exist_ok=True)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    unknown = []
    for m in models:
        try:
            parse_model_name(m)
        except ValueError:
            unknown.append(m)
    if unknown:
        parser.error(f"unknown models: {unknown} (choose from {sorted(MODEL_NAMES)} or c-stacked-<act>-<units>)")
    thetas = [float(t) for t in args.thetas.split(",") if t.strip()]
    ds, _ = _load_dataset_with_manifest(args.data)
    train, val, test = _prepare_for_fit(ds, child_seed(args.seed, "fit", "split"))
    split_keys = {"master_seed": args.seed, "test_split_sha256": _split_digest(test)}

    cfg_kwargs = {k: getattr(args, k) for k in ("learning_rate", "patience", "max_epochs")
                  if getattr(args, k) is not None}
    use_grid = args.learning_rate is None

    # every cell is checked before any is fitted, and each training problem is fitted once
    cells, tasks, skipped = [], {}, 0
    for model in models:
        for theta in thetas:
            cell_path = os.path.join(args.out_dir, f"fit-{model}-theta{theta:g}.json")
            if os.path.exists(cell_path) and not args.force:
                doc = _read_json_object(cell_path, "a fit result")
                if doc.get("test_split_sha256") != split_keys["test_split_sha256"]:
                    raise ValueError(
                        f"{cell_path} was fitted on another split (fit --seed {doc.get('master_seed', 'not recorded')}) "
                        f"than fit --seed {args.seed} holds out of {args.data}; refit it with --force")
                skipped += 1
                continue
            fit_seed = child_seed(args.seed, "fit", model, theta)
            init_seed = child_seed(args.seed, "fit", "init", model, theta)
            try:
                problem = training_problem(model, theta, train, val, args.init, init_seed)
            except ValueError as exc:
                raise ValueError(f"fit-{model}-theta{theta:g}: {exc}") from None
            # Tobit cells keep the fixed rate: the grid would fit each of them four times
            tasks.setdefault(problem, (model, theta, train, val, fit_seed, cfg_kwargs,
                                       use_grid and model != "tobit", args.init, init_seed))
            cells.append((model, theta, fit_seed, problem))

    outputs, fits = [], {}
    results = _map_tasks(_fit_cell, list(tasks.values()), args.jobs)
    for model, theta, fit_seed, problem in cells:
        if problem in fits:
            result = reuse_fit(fits[problem], model, theta, fit_seed)
        else:  # a problem's first cell: its fit is the next one out
            result = fits[problem] = next(results)
        cell_path = os.path.join(args.out_dir, f"fit-{model}-theta{theta:g}.json")
        _write_json(cell_path, {**result.to_json_dict(), **split_keys})
        outputs.append(cell_path)
        if result.diagnostics.get("clamp_share") == 1.0:
            print(f"warning: fit-{model}-theta{theta:g}: every training row is clamped at its threshold at the fitted "
                  "weights, where the censored NLL has no gradient (clamp_share 1.0); try --init standard_normal",
                  file=sys.stderr)
        if args.dump_traces:
            trace_path = os.path.join(args.out_dir, f"trace-{model}-theta{theta:g}.csv")
            rows = [[e, repr(tr), repr(va)] for e, (tr, va) in enumerate(zip(result.train_trace, result.val_trace))]
            _write_csv(trace_path, ["epoch", "train_loss", "val_loss"], rows)
            outputs.append(trace_path)
    results.close()  # the worker pool, if any, shuts down here

    config = {"data": args.data, "models": models, "thetas": thetas,
              "learning_rate": args.learning_rate, "patience": args.patience,
              "max_epochs": args.max_epochs, "init": args.init}
    _manifest(os.path.join(args.out_dir, "fit-manifest.json"), "fit", args, config, outputs,
              {"skipped_existing": skipped, "fitted": len(cells), "trained": len(tasks)})
    print(f"fitted {len(cells)} cells ({len(tasks)} trained), skipped {skipped} existing; results in {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def cmd_evaluate(args, parser):
    os.makedirs(args.out_dir, exist_ok=True)
    ds, noise = _load_dataset_with_manifest(args.data)
    _, _, test = _prepare_for_fit(ds, child_seed(args.seed, "fit", "split"))
    digest = _split_digest(test)

    fits = {}
    for name in sorted(os.listdir(args.fits)):
        if not (name.startswith("fit-") and "-theta" in name and name.endswith(".json")):
            continue
        doc = _read_json_object(os.path.join(args.fits, name), "a fit result")
        if doc.get("test_split_sha256") != digest:
            raise ValueError(
                f"{name} was fitted on another split than the test rows that evaluate --seed {args.seed} "
                f"holds out of {args.data} (fit --seed {doc.get('master_seed', 'not recorded')}); "
                f"evaluate with the seed the fit used")
        model = name[len("fit-"):].rsplit("-theta", 1)[0]
        try:
            fits[(model, float(doc["theta"]))] = net_from_dict(doc["net"])
        except (KeyError, TypeError, ValueError) as exc:
            why = f"a fit result needs the key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"{name}: {why}") from None
    if not fits:
        parser.error(f"no fit-*.json results under {args.fits}")

    subsets, skipped = [args.subset], []
    if args.subset == "both":
        skipped = metrics.empty_subsets(test)  # listed in the manifest, not scored
        subsets = [s for s in metrics.SUBSETS if s not in skipped]
    rows, reports = [], {}
    for model in sorted({m for m, _ in fits}):
        thetas = sorted(t for m, t in fits if m == model)
        for theta in thetas:
            if noise is None:
                continue  # no analytic ground truth for series data
            preds = fits[(model, theta)].quantile(test.X, theta)
            truth = datagen.latent_quantile(noise, theta, test.X, mixture_compat=args.mixture_compat)
            for subset in subsets:
                rp = metrics.subset_report(test, subset, preds=preds, true_quantiles=truth)
                reports[(model, str(theta), subset)] = rp
                rows.append([model, theta, subset, rp.n,
                             "" if rp.r2 is None else repr(rp.r2),
                             repr(rp.mae), repr(rp.rmse), "", ""])
        if set(INTERVAL_PAIR) <= set(thetas):
            lo, hi = (fits[(model, theta)].quantile(test.X, theta) for theta in INTERVAL_PAIR)
            for subset in subsets:
                rp = metrics.subset_report(test, subset, lower=lo, upper=hi)
                reports[(model, "interval", subset)] = rp
                rows.append([model, "0.05-0.95", subset, rp.n, "", "", "",
                             repr(rp.icp), repr(rp.mil)])

    if not rows:
        parser.error("nothing to evaluate: no ground truth for point metrics "
                     "and no (0.05, 0.95) pair for intervals")
    csv_path = os.path.join(args.out_dir, "evaluation.csv")
    _write_csv(csv_path, ["model", "theta", "subset", "n", "r2", "mae", "rmse", "icp", "mil"], rows)
    json_path = os.path.join(args.out_dir, "evaluation.json")
    _write_json(json_path, {f"{m}|{t}|{s}": rp.to_dict() for (m, t, s), rp in reports.items()})
    config = {"data": args.data, "fits": args.fits, "subset": args.subset,
              "mixture_compat": args.mixture_compat}
    _manifest(os.path.join(args.out_dir, "evaluate-manifest.json"), "evaluate", args, config,
              [csv_path, json_path], {"skipped_subsets": skipped})
    print(f"wrote {csv_path} and {json_path} ({len(rows)} rows)")
    return 0


# ---------------------------------------------------------------------------
# replicate

# replicate's flags that reach the table function as keywords of the same name
_TABLE_FLAGS = ("replicates", "zero_noise", "jobs")


def cmd_replicate(args, parser):
    run_table = TABLES[args.table]
    given = {k: getattr(args, k) for k in _TABLE_FLAGS if getattr(args, k) is not None}
    params = inspect.signature(run_table).parameters
    refused = ["--" + k.replace("_", "-") for k in given if k not in params]
    if refused:
        parser.error(f"replicate {args.table} does not take {', '.join(refused)}")
    os.makedirs(args.out_dir, exist_ok=True)
    run = run_table(master_seed=args.seed, **given)

    base = os.path.join(args.out_dir, args.table)
    raw_path = base + "-raw.csv"
    _write_csv(raw_path, run.columns, run.raw_rows)
    table_path = base + "-table.txt"
    _atomic_write(table_path, run.render())
    verdict_path = base + "-verdicts.json"
    _write_json(verdict_path, run.verdicts)
    _manifest(base + "-manifest.json", "replicate", args, {"table": args.table, **given},
              [raw_path, table_path, verdict_path])

    sys.stdout.write(run.render())
    print(f"raw rows: {raw_path}")
    if not run.passed:
        print("replication verdicts FAILED", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser

def _positive_int(text):
    if (value := int(text)) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cqrnet",
        description="Censored quantile regression experiments: generate, fit, evaluate, replicate.",
    )
    parser.add_argument("--version", action="version", version=f"cqrnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="master seed (stage seeds derive from it)")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--config", help="JSON config file; explicit CLI flags override it")

    g = subparsers["generate"] = sub.add_parser("generate", help="write dataset CSVs plus a manifest")
    common(g)
    g.add_argument("--synthetic", choices=datagen.NOISES, help="synthetic benchmark noise")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--zero-noise", action="store_true", help="debug hook: eps = 0")
    g.add_argument("--censor", choices=["partial", "fleet"], help="censorship scheme over a daily series")
    g.add_argument("--input", help="daily series CSV (date,count); default: bundled synthetic series")
    g.add_argument("--n-days", type=int, default=730)
    g.add_argument("--gamma", type=float, default=0.3)
    g.add_argument("--c1", type=float, default=0.34)
    g.add_argument("--c2", type=float, default=0.66)
    g.add_argument("--alpha", type=float, default=0.2)
    g.add_argument("--lags", type=int, default=7)
    g.set_defaults(func=cmd_generate)

    f = subparsers["fit"] = sub.add_parser("fit", help="fit model cells on a generated dataset")
    common(f)
    f.add_argument("--jobs", type=_positive_int, default=1, help="worker processes for independent cells")
    f.add_argument("--force", action="store_true", help="refit cells even if outputs exist")
    f.add_argument("--data", required=True, help="dataset CSV from `generate`")
    f.add_argument("--models", default="tl-linear,c-linear,c-elu")
    f.add_argument("--thetas", default="0.05,0.5,0.95")
    f.add_argument("--learning-rate", type=float, default=None,
                   help="fixed learning rate (validation grid selection when omitted)")
    f.add_argument("--patience", type=int, default=None)
    f.add_argument("--max-epochs", type=int, default=None)
    f.add_argument("--init", choices=["ones", "standard_normal"], default="ones")
    f.add_argument("--dump-traces", action="store_true", help="write epoch,train_loss,val_loss CSVs")
    f.set_defaults(func=cmd_fit)

    e = subparsers["evaluate"] = sub.add_parser("evaluate", help="score fit results on the test split")
    common(e)
    e.add_argument("--data", required=True)
    e.add_argument("--fits", required=True, help="directory with fit-*.json results")
    e.add_argument("--subset", choices=["all_test", "non_censored_test", "both"], default="both",
                   help="both skips a subset with no rows and lists it in the manifest")
    e.add_argument("--mixture-compat", action="store_true",
                   help="score mixture data against the single-Gaussian closed form")
    e.set_defaults(func=cmd_evaluate)

    r = subparsers["replicate"] = sub.add_parser("replicate", help="self-contained table replication")
    common(r)
    r.add_argument("table", choices=sorted(TABLES))
    # each reaches the table only when given, and only a table that takes it
    r.add_argument("--replicates", type=_positive_int, help="datasets (t1) or replicates per cell")
    r.add_argument("--zero-noise", action="store_true", default=None, help="t2 only: noiseless debug generator")
    r.add_argument("--jobs", type=_positive_int, help="t4-synthetic only: worker processes for its cells")
    r.set_defaults(func=cmd_replicate)

    return parser, subparsers


def _config_tokens(path, parser, subparser):
    """The `--config` file's keys as `--flag=value` tokens of the subcommand.
    A key that is no optional flag of it (a positional, a required flag,
    `config`) is a usage error: the command line alone gives those."""
    file_cfg = _read_json_object(path, "a config file")
    flags = {a.dest: a for a in subparser._actions
             if a.option_strings and not a.required and a.dest not in ("help", "config")}
    unknown = sorted(set(file_cfg) - set(flags))
    if unknown:
        parser.error(f"unknown config keys: {unknown}")
    tokens = []
    for key, value in file_cfg.items():
        flag = flags[key].option_strings[-1]
        if flags[key].nargs != 0:
            tokens.append(f"{flag}={value}")
        elif value is True:
            tokens.append(flag)
        elif value is not False:
            parser.error(f"config key {key!r} takes true or false, got {value!r}")
    return tokens


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's flags go first, so the command line's own flags win
            at = argv.index(args.command) + 1
            tokens = _config_tokens(args.config, parser, subparsers[args.command])
            args = parser.parse_args(argv[:at] + tokens + argv[at:])
        args._argv = argv
        return args.func(args, parser)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
