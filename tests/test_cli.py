"""End-to-end CLI behavior: generate, fit, evaluate, replicate, manifests."""

import csv
import json
import os

import numpy as np
import pytest

from cqrnet.cli import main


def run(args):
    return main([str(a) for a in args])


def read_manifest(path):
    with open(path) as fh:
        return json.load(fh)


def test_generate_synthetic(tmp_path):
    out = tmp_path / "data"
    assert run(["generate", "--synthetic", "heteroskedastic", "--n", 1000,
                "--seed", 1, "--out-dir", out]) == 0
    csv_path = out / "synthetic-heteroskedastic.csv"
    assert csv_path.exists()
    manifest = read_manifest(out / "generate-manifest.json")
    assert manifest["command"] == "generate"
    assert manifest["stats"]["censored_fraction"] == pytest.approx(0.30, abs=0.05)
    assert manifest["stats"]["n"] == 1000
    assert "--synthetic" in manifest["argv"]


def test_generate_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["generate", "--synthetic", "standard_gaussian", "--seed", 7, "--out-dir", out]) == 0
    same = (a / "synthetic-standard_gaussian.csv").read_bytes()
    assert same == (b / "synthetic-standard_gaussian.csv").read_bytes()


def test_generate_partial_gamma_zero_keeps_series(tmp_path):
    out = tmp_path / "p0"
    assert run(["generate", "--censor", "partial", "--gamma", 0.0, "--n-days", 60,
                "--seed", 3, "--out-dir", out]) == 0
    from cqrnet.datagen import load_dataset_csv

    ds = load_dataset_csv(out / "censored-partial.csv", side="right")
    assert np.array_equal(ds.y, ds.y_star)
    assert not ds.censored.any()


def test_generate_fleet(tmp_path):
    out = tmp_path / "fleet"
    assert run(["generate", "--censor", "fleet", "--alpha", 0.4, "--n-days", 200,
                "--seed", 4, "--out-dir", out]) == 0
    manifest = read_manifest(out / "generate-manifest.json")
    assert manifest["stats"]["observed_over_latent_mean"] == pytest.approx(0.6, abs=0.02)


def test_generate_needs_exactly_one_mode(tmp_path):
    with pytest.raises(SystemExit):
        run(["generate", "--out-dir", tmp_path / "x"])


def test_fit_evaluate_pipeline(tmp_path):
    data_dir = tmp_path / "data"
    assert run(["generate", "--synthetic", "standard_gaussian", "--seed", 5, "--out-dir", data_dir]) == 0
    data = data_dir / "synthetic-standard_gaussian.csv"

    fits = tmp_path / "fits"
    assert run(["fit", "--data", data, "--models", "tl-linear,c-linear,c-elu",
                "--thetas", "0.05,0.5,0.95", "--learning-rate", 0.01,
                "--seed", 5, "--out-dir", fits, "--dump-traces"]) == 0
    cells = sorted(p.name for p in fits.glob("fit-*-theta*.json"))
    assert len(cells) == 9  # cross product of models and thetas
    manifest = read_manifest(fits / "fit-manifest.json")
    # thresholds are all 0, so each c-elu cell reuses its c-linear fit
    assert manifest["stats"] == {"skipped_existing": 0, "fitted": 9, "trained": 6}
    # one trace per cell: a csv header and one row of repr strings per epoch
    traces = sorted(fits.glob("trace-*.csv"))
    assert len(traces) == 9
    for trace in traces:
        doc = json.loads((fits / trace.name.replace("trace-", "fit-").replace(".csv", ".json")).read_text())
        rows = [f"{e},{tr!r},{va!r}\r\n" for e, (tr, va) in enumerate(zip(doc["train_trace"], doc["val_trace"]))]
        assert trace.read_bytes() == ("epoch,train_loss,val_loss\r\n" + "".join(rows)).encode()

    # idempotent rerun: zero refits without --force
    assert run(["fit", "--data", data, "--models", "tl-linear,c-linear,c-elu",
                "--thetas", "0.05,0.5,0.95", "--learning-rate", 0.01,
                "--seed", 5, "--out-dir", fits]) == 0
    manifest = read_manifest(fits / "fit-manifest.json")
    assert manifest["stats"]["skipped_existing"] == 9
    assert manifest["stats"]["fitted"] == 0

    out = tmp_path / "eval"
    assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 5, "--out-dir", out]) == 0
    with open(out / "evaluation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 9 point cells x 2 subsets + 3 interval rows x 2 subsets
    assert len(rows) == 24
    with open(out / "evaluation.json") as fh:
        payload = json.load(fh)
    # JSON and CSV agree field-for-field
    for row in rows:
        theta = "interval" if row["theta"] == "0.05-0.95" else str(float(row["theta"]))
        doc = payload[f"{row['model']}|{theta}|{row['subset']}"]
        assert int(row["n"]) == doc["n"]
        for field, key in (("r2", "r2"), ("mae", "mae"), ("icp", "icp"), ("mil", "mil")):
            if row[field]:
                assert float(row[field]) == pytest.approx(doc[key])
            else:
                assert doc[key] is None


def test_fit_reads_dataset_once_and_jobs_agree(tmp_path, monkeypatch):
    from cqrnet import datagen

    data_dir = tmp_path / "data"
    assert run(["generate", "--censor", "partial", "--n-days", 150, "--seed", 3, "--out-dir", data_dir]) == 0
    data = data_dir / "censored-partial.csv"
    loads = []
    load = datagen.load_dataset_csv
    monkeypatch.setattr(datagen, "load_dataset_csv", lambda *a, **k: loads.append(a) or load(*a, **k))
    docs = {}
    for jobs in (1, 2):
        out = tmp_path / f"fits-{jobs}"
        assert run(["fit", "--data", data, "--models", "tl-linear,c-linear,tobit", "--thetas", "0.05,0.95",
                    "--max-epochs", 40, "--seed", 3, "--jobs", jobs, "--out-dir", out]) == 0
        docs[jobs] = {}
        for path in sorted(out.glob("fit-*-theta*.json")):
            doc = json.loads(path.read_text())
            doc.pop("wall_time")
            docs[jobs][path.name] = doc
    assert len(loads) == 2  # once per command, not once per cell
    assert len(docs[1]) == 6 and docs[1] == docs[2]


def _written_fits(out):
    """Each fit JSON under `out` without its wall time, then each trace CSV's bytes."""
    docs = {p.name: {k: v for k, v in json.loads(p.read_text()).items() if k != "wall_time"}
            for p in sorted(out.glob("fit-*-theta*.json"))}
    return docs, {p.name: p.read_bytes() for p in sorted(out.glob("trace-*.csv"))}


def test_fit_trains_each_problem_once_and_writes_what_fitting_every_cell_writes(tmp_path, monkeypatch):
    import cqrnet.cli as cli

    data_dir = tmp_path / "data"
    assert run(["generate", "--synthetic", "heteroskedastic", "--n", 300, "--seed", 2, "--out-dir", data_dir]) == 0
    data = data_dir / "synthetic-heteroskedastic.csv"
    base = ["fit", "--data", data, "--thetas", "0.05,0.95", "--max-epochs", 60, "--seed", 2, "--dump-traces"]

    def fit_dir(name, models, *extra):
        assert run([*base, "--models", models, "--out-dir", tmp_path / name, *extra]) == 0
        manifest = read_manifest(tmp_path / name / "fit-manifest.json")
        return _written_fits(tmp_path / name), manifest["stats"], [os.path.basename(p) for p in manifest["outputs"]]

    with monkeypatch.context() as patched:  # every cell its own problem: each one is fitted
        patched.setattr(cli, "training_problem", lambda model, theta, *args: (model, theta))
        want, stats, outputs = fit_dir("every-cell", "c-linear,c-elu,tobit")
    assert stats == {"skipped_existing": 0, "fitted": 6, "trained": 6}
    once = {"skipped_existing": 0, "fitted": 6, "trained": 3}
    assert fit_dir("once", "c-linear,c-elu,tobit", "--jobs", 2) == (want, once, outputs)
    assert fit_dir("reversed", "c-elu,c-linear,tobit")[:2] == (want, once)

    # a skipped cell is no source: the next cell of its problem is fitted
    (tmp_path / "skip").mkdir()
    cell = "fit-c-linear-theta0.05.json"
    (tmp_path / "skip" / cell).write_text((tmp_path / "once" / cell).read_text())
    (docs, traces), stats, _ = fit_dir("skip", "c-linear,c-elu,tobit")
    assert stats == {"skipped_existing": 1, "fitted": 5, "trained": 3}
    assert docs == want[0]
    assert traces == {k: v for k, v in want[1].items() if k != "trace-c-linear-theta0.05.csv"}


def test_fit_checks_every_cell_before_fitting_any(tmp_path, capsys):
    data_dir, out = tmp_path / "data", tmp_path / "fits"
    assert run(["generate", "--censor", "fleet", "--alpha", 0.4, "--n-days", 120, "--seed", 1,
                "--out-dir", data_dir]) == 0
    capsys.readouterr()
    assert run(["fit", "--data", data_dir / "censored-fleet.csv", "--models", "tl-linear,c-linear",
                "--thetas", "0.05,0.95", "--max-epochs", 30, "--seed", 1, "--out-dir", out]) == 2
    assert "fit-c-linear-theta0.05: every training row has y == tau" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_fit_warns_of_a_cell_whose_training_rows_all_sit_at_the_clamp(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert run(["generate", "--censor", "partial", "--gamma", 0.3, "--c1", 0.34, "--c2", 0.66, "--n-days", 150,
                "--seed", 1, "--out-dir", data_dir]) == 0
    shares = {}
    for init in ("ones", "standard_normal"):
        capsys.readouterr()
        assert run(["fit", "--data", data_dir / "censored-partial.csv", "--models", "c-linear", "--thetas", 0.05,
                    "--seed", 1, "--init", init, "--out-dir", tmp_path / init]) == 0
        warned = "warning: fit-c-linear-theta0.05: every training row is clamped" in capsys.readouterr().err
        doc = json.loads((tmp_path / init / "fit-c-linear-theta0.05.json").read_text())
        shares[init] = (warned, doc["diagnostics"]["clamp_share"])
    assert shares["ones"] == (True, 1.0)
    assert shares["standard_normal"][0] is False and 0.0 < shares["standard_normal"][1] < 1.0


def test_evaluate_refuses_fits_from_another_split(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert run(["generate", "--synthetic", "standard_gaussian", "--n", 300, "--seed", 1, "--out-dir", data_dir]) == 0
    data = data_dir / "synthetic-standard_gaussian.csv"
    fits = tmp_path / "fits"
    assert run(["fit", "--data", data, "--models", "c-linear", "--thetas", "0.5", "--learning-rate", 0.01,
                "--max-epochs", 50, "--seed", 1, "--out-dir", fits]) == 0
    capsys.readouterr()
    # the default --seed 0 holds out other rows, many of them training rows of the fit
    assert run(["evaluate", "--data", data, "--fits", fits, "--out-dir", tmp_path / "e0"]) == 2
    err = capsys.readouterr().err
    assert "--seed 0" in err and "--seed 1" in err
    assert not (tmp_path / "e0" / "evaluation.csv").exists()
    assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 1, "--out-dir", tmp_path / "e1"]) == 0
    # a fit that records no split is refused too
    cell = fits / "fit-c-linear-theta0.5.json"
    doc = json.loads(cell.read_text())
    del doc["test_split_sha256"], doc["master_seed"]
    cell.write_text(json.dumps(doc))
    assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 1, "--out-dir", tmp_path / "e2"]) == 2

    # right-censored series split into consecutive thirds: every seed holds out the same rows
    series_dir = tmp_path / "series"
    assert run(["generate", "--censor", "partial", "--n-days", 120, "--seed", 1, "--out-dir", series_dir]) == 0
    series = series_dir / "censored-partial.csv"
    series_fits = tmp_path / "series-fits"
    assert run(["fit", "--data", series, "--models", "tl-linear", "--thetas", "0.05,0.95", "--learning-rate", 0.1,
                "--max-epochs", 50, "--seed", 1, "--out-dir", series_fits]) == 0
    assert run(["evaluate", "--data", series, "--fits", series_fits, "--out-dir", tmp_path / "e3"]) == 0


def test_fit_refuses_to_skip_cells_of_another_split(tmp_path, capsys):
    """A second fit with another seed into the same directory exits 2 and
    leaves the first seed's cells alone; with --force it refits them, so the
    directory holds one split again."""
    data_dir = tmp_path / "data"
    assert run(["generate", "--synthetic", "standard_gaussian", "--n", 300, "--seed", 1, "--out-dir", data_dir]) == 0
    data = data_dir / "synthetic-standard_gaussian.csv"
    fits = tmp_path / "fits"
    common = ["fit", "--data", data, "--thetas", "0.05,0.95", "--learning-rate", 0.01, "--max-epochs", 50,
              "--out-dir", fits]
    assert run(common + ["--models", "c-linear", "--seed", 1]) == 0
    before = {p.name: p.read_bytes() for p in fits.iterdir()}
    capsys.readouterr()
    assert run(common + ["--models", "c-linear,tl-linear", "--seed", 2]) == 2
    err = capsys.readouterr().err
    assert "--seed 1" in err and "--seed 2" in err
    assert {p.name: p.read_bytes() for p in fits.iterdir()} == before
    # a cell that records no split is another split too
    cell = fits / "fit-c-linear-theta0.05.json"
    doc = json.loads(cell.read_text())
    del doc["test_split_sha256"]
    cell.write_text(json.dumps(doc))
    assert run(common + ["--models", "c-linear", "--seed", 1]) == 2
    assert run(common + ["--models", "c-linear,tl-linear", "--seed", 2, "--force"]) == 0
    assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 2, "--out-dir", tmp_path / "e2"]) == 0


def test_fit_rejects_tampered_dataset_csv(tmp_path, capsys):
    data_dir = tmp_path / "data"
    assert run(["generate", "--synthetic", "heteroskedastic", "--n", 300,
                "--seed", 1, "--out-dir", data_dir]) == 0
    path = data_dir / "synthetic-heteroskedastic.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    y, tau, cens, y_star = (header.index(k) for k in ("y", "tau", "censored", "y_star"))
    row = next(r for r in rows[1:] if r[cens] == "0")
    # a non-censored row pushed below its threshold, latent value kept consistent
    row[y] = row[y_star] = repr(float(row[tau]) - 1.0)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    code = run(["fit", "--data", path, "--models", "c-linear", "--thetas", "0.5",
                "--seed", 1, "--out-dir", tmp_path / "fits"])
    assert code != 0
    assert "y >= tau" in capsys.readouterr().err


def test_fit_tobit_via_cli(tmp_path):
    data_dir = tmp_path / "data"
    run(["generate", "--synthetic", "standard_gaussian", "--seed", 6, "--out-dir", data_dir])
    fits = tmp_path / "fits"
    assert run(["fit", "--data", data_dir / "synthetic-standard_gaussian.csv",
                "--models", "tobit", "--thetas", "0.05,0.95",
                "--learning-rate", 0.01, "--seed", 6, "--out-dir", fits]) == 0
    docs = [json.load(open(p)) for p in sorted(fits.glob("fit-tobit-*.json"))]
    assert len(docs) == 2
    assert docs[0]["net"]["family"] == "tobit"


def test_fit_unknown_model_errors(tmp_path):
    data_dir = tmp_path / "data"
    run(["generate", "--synthetic", "standard_gaussian", "--seed", 1, "--out-dir", data_dir])
    with pytest.raises(SystemExit):
        run(["fit", "--data", data_dir / "synthetic-standard_gaussian.csv",
             "--models", "c-quadratic", "--out-dir", tmp_path / "f"])


def test_replicate_t1_and_exit_status(tmp_path):
    out = tmp_path / "rep"
    code = run(["replicate", "t1", "--replicates", 5, "--seed", 0, "--out-dir", out])
    assert code == 0
    raw = (out / "t1-raw.csv").read_text().splitlines()
    assert raw[0] == "noise,theta,seed,zero_fraction"
    assert len(raw) == 1 + 9 * 5
    verdicts = json.load(open(out / "t1-verdicts.json"))
    assert all(v["passed"] for v in verdicts)
    table = (out / "t1-table.txt").read_text()
    assert "62." in table or "6" in table


def test_replicate_t2_zero_noise_debug(tmp_path):
    out = tmp_path / "zn"
    code = run(["replicate", "t2", "--zero-noise", "--replicates", 1, "--seed", 3, "--out-dir", out])
    assert code == 0
    verdicts = json.load(open(out / "t2-verdicts.json"))
    assert any("zero-noise" in v["check"] and v["passed"] for v in verdicts)


def test_replicate_determinism_raw_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        run(["replicate", "t1", "--replicates", 3, "--seed", 42, "--out-dir", out])
    assert (a / "t1-raw.csv").read_bytes() == (b / "t1-raw.csv").read_bytes()


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthetic": "gaussian_mixture", "n": 50}))
    out = tmp_path / "out"
    assert run(["generate", "--config", cfg, "--seed", 2, "--out-dir", out]) == 0
    manifest = read_manifest(out / "generate-manifest.json")
    assert manifest["stats"]["noise"] == "gaussian_mixture"
    assert manifest["stats"]["n"] == 50
    # explicit flag beats the file
    out2 = tmp_path / "out2"
    assert run(["generate", "--config", cfg, "--n", 80, "--seed", 2, "--out-dir", out2]) == 0
    assert read_manifest(out2 / "generate-manifest.json")["stats"]["n"] == 80


def test_config_precedence_explicit_flag_equal_to_default(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthetic": "standard_gaussian", "n": 500, "zero_noise": True}))
    # --n 1000 is also the default, yet it was given, so it beats the file
    out = tmp_path / "explicit"
    assert run(["generate", "--config", cfg, "--n", 1000, "--out-dir", out]) == 0
    manifest = read_manifest(out / "generate-manifest.json")
    assert manifest["stats"]["n"] == 1000
    assert manifest["config"]["zero_noise"] is True
    # without the flag the file's value applies
    out = tmp_path / "from-file"
    assert run(["generate", "--config", cfg, "--out-dir", out]) == 0
    assert read_manifest(out / "generate-manifest.json")["stats"]["n"] == 500


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    with pytest.raises(SystemExit):
        run(["generate", "--synthetic", "standard_gaussian", "--config", cfg,
             "--out-dir", tmp_path / "o"])


def test_cli_error_paths(tmp_path):
    # missing input file surfaces as a clean nonzero exit
    assert run(["fit", "--data", tmp_path / "nope.csv", "--out-dir", tmp_path / "f"]) == 2
    # evaluating a fleet dataset that has no ground-truth quantiles and no
    # interval pair fails with a clear message
    data_dir = tmp_path / "fleet"
    run(["generate", "--censor", "fleet", "--alpha", 0.2, "--n-days", 120,
         "--seed", 9, "--out-dir", data_dir])
    fits = tmp_path / "fleetfits"
    assert run(["fit", "--data", data_dir / "censored-fleet.csv", "--models", "tl-linear",
                "--thetas", "0.5", "--learning-rate", 0.1, "--max-epochs", 200,
                "--seed", 9, "--out-dir", fits]) == 0
    with pytest.raises(SystemExit):
        run(["evaluate", "--data", data_dir / "censored-fleet.csv", "--fits", fits,
             "--seed", 9, "--out-dir", tmp_path / "e"])


def test_replicate_failing_verdict_exits_nonzero(tmp_path):
    # single-replicate t2 cannot satisfy the hard-quantile ordering
    out = tmp_path / "t2"
    code = run(["replicate", "t2", "--replicates", 1, "--seed", 0, "--out-dir", out])
    assert code == 1
    assert (out / "t2-raw.csv").exists()  # raw rows still written


def test_fit_stacked_variant(tmp_path):
    data_dir = tmp_path / "data"
    run(["generate", "--synthetic", "standard_gaussian", "--n", 300, "--seed", 8,
         "--out-dir", data_dir])
    fits = tmp_path / "fits"
    assert run(["fit", "--data", data_dir / "synthetic-standard_gaussian.csv",
                "--models", "c-stacked-tanh-1", "--thetas", "0.5",
                "--learning-rate", 0.1, "--max-epochs", 300, "--init", "standard_normal",
                "--seed", 8, "--out-dir", fits]) == 0
    assert (fits / "fit-c-stacked-tanh-1-theta0.5.json").exists()


def test_evaluate_skips_the_empty_subset_of_fleet_data(tmp_path, capsys):
    """Fleet censorship censors every row, so under the default --subset both
    evaluate scores all_test and lists non_censored_test as skipped; asking
    for that subset alone still exits 2."""
    data_dir = tmp_path / "fleet"
    assert run(["generate", "--censor", "fleet", "--alpha", 0.3, "--n-days", 150, "--seed", 1,
                "--out-dir", data_dir]) == 0
    data = data_dir / "censored-fleet.csv"
    fits = tmp_path / "fits"
    assert run(["fit", "--data", data, "--models", "tl-linear", "--thetas", "0.05,0.95", "--learning-rate", 0.1,
                "--max-epochs", 200, "--seed", 1, "--out-dir", fits]) == 0
    out = tmp_path / "eval"
    assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 1, "--out-dir", out]) == 0
    assert read_manifest(out / "evaluate-manifest.json")["stats"] == {"skipped_subsets": ["non_censored_test"]}
    with open(out / "evaluation.csv", newline="") as fh:
        assert [(r["theta"], r["subset"]) for r in csv.DictReader(fh)] == [("0.05-0.95", "all_test")]
    capsys.readouterr()
    assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 1, "--subset", "non_censored_test",
                "--out-dir", tmp_path / "e2"]) == 2
    assert "non-censored subset is empty" in capsys.readouterr().err


def test_fit_refuses_the_censored_nll_on_fleet_data(tmp_path, capsys):
    """Fleet censorship puts every row at its threshold (y == tau), where the
    censored NLL is flat: fit exits 2 saying so rather than train on it."""
    data_dir = tmp_path / "fleet"
    assert run(["generate", "--censor", "fleet", "--alpha", 0.4, "--n-days", 150, "--seed", 1,
                "--out-dir", data_dir]) == 0
    for model in ("c-linear", "c-elu"):
        capsys.readouterr()
        assert run(["fit", "--data", data_dir / "censored-fleet.csv", "--models", model, "--thetas", "0.05,0.95",
                    "--learning-rate", 0.1, "--max-epochs", 50, "--seed", 1, "--out-dir", tmp_path / "fits"]) == 2
        assert "every training row has y == tau" in capsys.readouterr().err


def test_jobs_and_force_only_on_the_subcommands_that_act_on_them(tmp_path):
    generate = ["generate", "--synthetic", "standard_gaussian", "--n", 20, "--out-dir", tmp_path / "g"]
    evaluate = ["evaluate", "--data", tmp_path / "none.csv", "--fits", tmp_path, "--out-dir", tmp_path / "e"]
    for argv in (generate + ["--jobs", 8], generate + ["--force"], evaluate + ["--jobs", 2],
                 evaluate + ["--force"], ["replicate", "t1", "--replicates", 1, "--force", "--out-dir", tmp_path / "r"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"jobs": 2}))
    with pytest.raises(SystemExit):
        run(generate + ["--config", cfg])
    assert run(generate) == 0


@pytest.mark.parametrize("jobs", ["0", "-4"])
def test_jobs_must_be_a_positive_integer(tmp_path, capsys, jobs):
    for argv in (["fit", "--data", tmp_path / "none.csv", "--jobs", jobs, "--out-dir", tmp_path / "f"],
                 ["replicate", "t4-synthetic", "--replicates", 1, "--jobs", jobs, "--out-dir", tmp_path / "r"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv
        assert f"must be a positive integer, got {jobs}" in capsys.readouterr().err
    assert not (tmp_path / "f").exists() and not (tmp_path / "r").exists()


def test_replicate_bike_runs_the_registered_protocol(tmp_path, monkeypatch):
    """`replicate bike` calls `experiments.TABLES["bike"]`, the bike protocol
    (a stand-in here; criterion 9 runs the real one), and writes its outputs."""
    from cqrnet import experiments

    assert experiments.TABLES["bike"] is experiments.run_bike_protocol
    calls = []

    def protocol(master_seed, replicates):
        calls.append({"master_seed": master_seed, "replicates": replicates})
        return experiments.TableRun(name="bike", columns=["model", "icp"], raw_rows=[["c-linear", "0.9"]],
                                    cells={"header": ["model"], "rows": [["c-linear"]]},
                                    verdicts=[{"check": "stand-in", "passed": True, "detail": ""}])

    monkeypatch.setitem(experiments.TABLES, "bike", protocol)
    out = tmp_path / "rep"
    assert run(["replicate", "bike", "--replicates", 2, "--seed", 3, "--out-dir", out]) == 0
    assert calls == [{"master_seed": 3, "replicates": 2}]
    assert (out / "bike-raw.csv").read_text().splitlines() == ["model,icp", "c-linear,0.9"]
    manifest = read_manifest(out / "bike-manifest.json")
    assert manifest["config"]["table"] == "bike"
    assert manifest["outputs"] == [str(out / f"bike-{s}") for s in ("raw.csv", "table.txt", "verdicts.json")]


def test_config_values_parse_like_flags(tmp_path):
    """A --config value goes through its flag's type and choices: "300"
    is the integer 300, and a value the flag would refuse exits 2."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "300", "synthetic": "standard_gaussian"}))
    out = tmp_path / "ok"
    assert run(["generate", "--config", cfg, "--seed", 1, "--out-dir", out]) == 0
    assert read_manifest(out / "generate-manifest.json")["config"]["n"] == 300
    for bad in ({"n": "abc"}, {"n": 1.5}, {"synthetic": "cauchy"}, {"zero_noise": "yes"}, {"config": "x.json"}):
        cfg.write_text(json.dumps({"synthetic": "standard_gaussian", **bad}))
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--config", cfg, "--out-dir", tmp_path / "bad"])
        assert exc.value.code == 2, bad
    # positionals and required flags stay on the command line
    for argv, key in ((["replicate", "t2"], "table"), (["fit", "--data", "x.csv"], "data")):
        cfg.write_text(json.dumps({key: "t1"}))
        with pytest.raises(SystemExit) as exc:
            run([*argv, "--config", cfg, "--out-dir", tmp_path / "bad"])
        assert exc.value.code == 2, key
    assert not (tmp_path / "bad").exists()


def test_replicate_t1_takes_replicates(tmp_path):
    out = tmp_path / "rep"
    assert run(["replicate", "t1", "--replicates", 3, "--seed", 1, "--out-dir", out]) == 0
    assert len((out / "t1-raw.csv").read_text().splitlines()) == 1 + 27
    assert read_manifest(out / "t1-manifest.json")["config"] == {"table": "t1", "replicates": 3}


@pytest.mark.parametrize("argv", [["t1", "--zero-noise"], ["t3", "--jobs", 2], ["bike", "--jobs", 2],
                                  ["t1", "--replicates", 1, "--jobs", 1]],
                         ids=["t1-zero-noise", "t3-jobs", "bike-jobs", "t1-jobs"])
def test_replicate_refuses_a_flag_its_table_does_not_take(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(["replicate", *argv, "--out-dir", tmp_path / "rep"])
    assert exc.value.code == 2
    assert f"replicate {argv[0]} does not take" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_evaluate_refuses_net_documents_of_another_format(tmp_path, capsys):
    """A fit JSON whose net has a key the format does not have, or lacks one,
    exits 2 naming the family and the keys; `fit --force` mends it."""
    data_dir = tmp_path / "data"
    assert run(["generate", "--censor", "partial", "--n-days", 120, "--seed", 2, "--out-dir", data_dir]) == 0
    data = data_dir / "censored-partial.csv"
    fits = tmp_path / "fits"
    fit = ["fit", "--data", data, "--models", "c-linear", "--thetas", "0.05,0.95", "--learning-rate", 0.1,
           "--max-epochs", 50, "--seed", 2, "--out-dir", fits]
    assert run(fit) == 0
    evaluate = ["evaluate", "--data", data, "--fits", fits, "--seed", 2, "--out-dir", tmp_path / "e"]
    assert run(evaluate) == 0
    cell = fits / "fit-c-linear-theta0.05.json"
    saved = json.loads(cell.read_text())
    assert saved["net"]["family"] == "mirror"

    def tampered(change):
        doc = json.loads(json.dumps(saved))
        change(doc["net"])
        cell.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(evaluate) == 2
        return capsys.readouterr().err

    err = tampered(lambda net: net.update(config={"intercept_column": True}))
    assert "mirror" in err and "'config'" in err and "fit --force" in err
    err = tampered(lambda net: net["inner"]["config"].update(output_bias=True))
    assert "linear" in err and "'output_bias'" in err
    err = tampered(lambda net: net["inner"].pop("params"))
    assert "linear" in err and "'params'" in err
    err = tampered(lambda net: net["inner"]["params"].update(gamma=[1.0]))
    assert "'gamma'" in err
    assert run(fit + ["--force"]) == 0
    assert run(evaluate) == 0


@pytest.mark.parametrize("change, says", [
    (lambda doc: doc.pop("theta"), "'theta'"),
    (lambda doc: doc.pop("net"), "'net'"),
    (lambda doc: doc.update(theta="median"), "'median'"),
    (lambda doc: doc.update(theta=None), "NoneType"),
], ids=["no-theta", "no-net", "theta-string", "theta-null"])
def test_evaluate_refuses_a_fit_json_without_a_numeric_theta_or_a_net(tmp_path, capsys, change, says):
    data_dir = tmp_path / "data"
    assert run(["generate", "--synthetic", "standard_gaussian", "--n", 300, "--seed", 1, "--out-dir", data_dir]) == 0
    data = data_dir / "synthetic-standard_gaussian.csv"
    fits = tmp_path / "fits"
    assert run(["fit", "--data", data, "--models", "c-linear", "--thetas", "0.5", "--learning-rate", 0.01,
                "--max-epochs", 20, "--seed", 1, "--out-dir", fits]) == 0
    cell = fits / "fit-c-linear-theta0.5.json"
    doc = json.loads(cell.read_text())
    change(doc)
    cell.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 1, "--out-dir", tmp_path / "e"]) == 2
    err = capsys.readouterr().err
    assert "fit-c-linear-theta0.5.json" in err and says in err
    assert not (tmp_path / "e" / "evaluation.csv").exists()


@pytest.mark.parametrize("command, document", [
    ("fit", [1]),
    ("evaluate", [1]),
    ("evaluate", {"net": [1, 2]}),
    ("evaluate", {"net": {"family": "mirror", "inner": [1]}}),
], ids=["fit-list", "evaluate-list", "evaluate-net-list", "evaluate-inner-list"])
def test_a_fit_json_that_is_no_object_is_a_usage_error(tmp_path, capsys, command, document):
    """A fit file, its net or a mirror's inner net that is not a JSON object
    exits 2 naming the file, both where `fit` checks a cell it would skip and
    where `evaluate` loads it."""
    data_dir = tmp_path / "data"
    assert run(["generate", "--synthetic", "standard_gaussian", "--n", 300, "--seed", 1, "--out-dir", data_dir]) == 0
    data = data_dir / "synthetic-standard_gaussian.csv"
    fits = tmp_path / "fits"
    fit = ["fit", "--data", data, "--models", "c-linear", "--thetas", "0.5", "--learning-rate", 0.01,
           "--max-epochs", 20, "--seed", 1, "--out-dir", fits]
    assert run(fit) == 0
    cell = fits / "fit-c-linear-theta0.5.json"
    if isinstance(document, dict):
        document = {**json.loads(cell.read_text()), **document}
    cell.write_text(json.dumps(document))
    capsys.readouterr()
    if command == "fit":
        assert run(fit) == 2
    else:
        assert run(["evaluate", "--data", data, "--fits", fits, "--seed", 1, "--out-dir", tmp_path / "e"]) == 2
    err = capsys.readouterr().err
    assert "fit-c-linear-theta0.5.json" in err and "JSON object" in err and "Traceback" not in err
    assert json.loads(cell.read_text()) == document


@pytest.mark.parametrize("count", [0, -2])
def test_replicate_needs_a_positive_replicate_count(tmp_path, capsys, count):
    """A count below one is a usage error before any table runs, also from --config."""
    with pytest.raises(SystemExit) as exc:
        run(["replicate", "t3", "--replicates", count, "--out-dir", tmp_path / "rep"])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"replicates": count}))
    with pytest.raises(SystemExit) as exc:
        run(["replicate", "t3", "--config", config, "--out-dir", tmp_path / "rep"])
    assert exc.value.code == 2
    assert not (tmp_path / "rep").exists()


def test_readme_names_only_registered_flags():
    """Every --flag in README.md's CLI section is an option of some subcommand."""
    import re

    from cqrnet.cli import build_parser

    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")).read()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parser, subparsers = build_parser()
    registered = {flag for p in (parser, *subparsers.values()) for a in p._actions for flag in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert named and named <= registered, sorted(named - registered)


SERIES = "date,count\n" + "".join(f"2020-01-{d:02d},{10 + d}\n" for d in range(1, 13))
DATA = "data/synthetic-standard_gaussian.csv"


@pytest.mark.parametrize("path, text, command", [
    ("data/generate-manifest.json", "[1]", "fit"),
    ("data/generate-manifest.json", "[1]", "evaluate"),
    ("data/generate-manifest.json", '{"stats": [1]}', "fit"),
    ("data/generate-manifest.json", '{"stats": [1]}', "evaluate"),
    ("data/generate-manifest.json", lambda text: text.replace('"side": "left"', '"side": "up"'), "fit"),
    ("data/generate-manifest.json", lambda text: text.replace('"noise": "standard_gaussian"', '"noise": "cauchy"'),
     "evaluate"),
    ("fits/fit-c-linear-theta0.5.json", lambda text: text[:40], "fit"),
    ("fits/fit-c-linear-theta0.5.json", lambda text: text[:40], "evaluate"),
    ("cfg.json", "not json", "generate"),
    ("cfg.json", "[1]", "generate"),
    (DATA, "", "fit"),
    (DATA, lambda text: text.splitlines(True)[0], "fit"),
    (DATA, lambda text: text.replace(",0,", ",", 1), "fit"),
    (DATA, lambda text: text.replace(",0,", ",zero,", 1), "fit"),
    (DATA, lambda text: text.replace(",1,", ",7,", 1), "refit"),
    (DATA, lambda text: text.replace("\n", "\n1.0,nan,0.0,0.0,0,0.0\n", 1), "refit"),
    ("series.csv", SERIES.replace(",13\n", "\n"), "series"),
    ("series.csv", SERIES.replace(",13\n", ",nan\n"), "series"),
    ("series.csv", SERIES.replace(",13\n", ",-4\n"), "series"),
    ("series.csv", SERIES.replace(",13\n", ",inf\n"), "series"),
], ids=["manifest-list-fit", "manifest-list-evaluate", "manifest-stats-list-fit", "manifest-stats-list-evaluate",
        "manifest-side-up", "manifest-noise-cauchy",
        "fit-truncated-fit", "fit-truncated-evaluate", "config-not-json", "config-list", "dataset-empty",
        "dataset-header-only", "dataset-short-row", "dataset-not-a-number", "dataset-censored-7", "dataset-nan-x",
        "series-one-field", "series-nan", "series-negative", "series-inf"])
def test_a_malformed_file_exits_2_naming_it(tmp_path, capsys, path, text, command):
    """Every kind of file the CLI reads, made malformed in an otherwise valid
    run directory: the command exits 2 without a traceback and names the file."""
    assert run(["generate", "--synthetic", "standard_gaussian", "--n", 300, "--seed", 1,
                "--out-dir", tmp_path / "data"]) == 0
    fit = ["fit", "--data", tmp_path / DATA, "--models", "c-linear", "--thetas", "0.5", "--learning-rate", 0.01,
           "--max-epochs", 20, "--seed", 1, "--out-dir", tmp_path / "fits"]
    assert run(fit) == 0
    target = tmp_path / path
    target.write_text(text(target.read_text()) if callable(text) else text)
    argv = {
        "fit": fit,
        # refit trains on the rows; without --force, fit would stop at the existing
        # cell, whose split no longer matches, with a message naming the data file
        "refit": fit + ["--force"],
        "evaluate": ["evaluate", "--data", tmp_path / DATA, "--fits", tmp_path / "fits", "--seed", 1,
                     "--out-dir", tmp_path / "eval"],
        "generate": ["generate", "--config", target, "--synthetic", "standard_gaussian", "--out-dir", tmp_path / "g"],
        "series": ["generate", "--censor", "partial", "--input", target, "--lags", 2, "--out-dir", tmp_path / "g"],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert str(target) in err and "Traceback" not in err
