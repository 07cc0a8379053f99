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
    assert manifest["stats"] == {"skipped_existing": 0, "fitted": 9}
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
    code = run(["replicate", "t1", "--n-seeds", 5, "--seed", 0, "--out-dir", out])
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
        run(["replicate", "t1", "--n-seeds", 3, "--seed", 42, "--out-dir", out])
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
