"""Seed derivation, harness determinism, model registry, table rendering."""

import hashlib
import json

import numpy as np
import pytest

from cqrnet.experiments import (
    child_seed,
    parse_model_name,
    run_bike_protocol,
    run_t1,
    run_t2,
    run_t4,
)


def test_child_seed_is_stable_and_path_sensitive():
    # frozen value: sha256-derived, must never drift across runs/platforms
    assert child_seed(0, "t1") == child_seed(0, "t1")
    assert child_seed(0, "t1") != child_seed(1, "t1")
    assert child_seed(0, "t1") != child_seed(0, "t2")
    assert child_seed(0, "a", "b") != child_seed(0, "a/b-ish")
    assert 0 <= child_seed(123, "x", 4, 0.5) < 2**64


def test_parse_model_name():
    assert parse_model_name("c-linear").loss_kind == "censored_nll"
    assert parse_model_name("tl-linear").loss_kind == "tilted"
    assert parse_model_name("tobit").loss_kind == "tobit"
    spec = parse_model_name("c-stacked-sigmoid-10")
    assert spec.loss_kind == "censored_nll"
    net = spec.build(3)
    assert (type(net).__name__, net.activation, net.units, net.dim) == ("StackedUnitNet", "sigmoid", 10, 3)
    for bad in ("c-quadratic", "c-stacked-step-3", "c-stacked-tanh-x"):
        with pytest.raises(ValueError):
            parse_model_name(bad)


def test_build_net_dims():
    assert parse_model_name("c-lstm").build(8).dim == 8
    assert parse_model_name("c-reg-linear").build(5).dropout_rate == 0.2
    assert parse_model_name("c-stacked-relu-10").build(4).units == 10
    assert parse_model_name("tobit").build(3).to_dict()["config"] == {"dim": 3, "sigma": 1.0, "estimate_sigma": False}


def test_t1_cells_match_analytic_values():
    run = run_t1(master_seed=0, replicates=10)
    values = run.cells["values"]
    # analytic all-rows fractions under the compat mixture quantile
    expected = {
        ("standard_gaussian", 0.05): 0.656,
        ("standard_gaussian", 0.5): 0.261,
        ("standard_gaussian", 0.95): 0.025,
        ("heteroskedastic", 0.05): 0.688,
        ("heteroskedastic", 0.5): 0.261,
        ("heteroskedastic", 0.95): 0.131,
        ("gaussian_mixture", 0.05): 0.573,
        ("gaussian_mixture", 0.5): 0.261,
        ("gaussian_mixture", 0.95): 0.049,
    }
    for key, target in expected.items():
        assert values[key] == pytest.approx(target, abs=0.02), key


def test_t4_raw_rows_identical_across_jobs():
    kwargs = dict(master_seed=5, replicates=1, alphas=(0.2, 0.4),
                  n_days=240, models=("tl-linear", "c-linear"))
    serial = run_t4(jobs=1, **kwargs)
    parallel = run_t4(jobs=2, **kwargs)
    assert serial.raw_rows == parallel.raw_rows


def test_table_render_contains_verdicts():
    run = run_t1(master_seed=0, replicates=2)
    text = run.render()
    assert "Table 1" in text
    assert "[PASS]" in text or "[FAIL]" in text
    assert "theta=0.5" in text


def test_t4_lstm_cell_pinned():
    """Table 4's c-lstm cell at a fixed seed: ICPs exact, MILs to 1e-6."""
    run = run_t4(master_seed=1, replicates=2, alphas=(0.2,), n_days=180, models=("c-lstm",), jobs=1)
    assert [row[:3] for row in run.raw_rows] == [["c-lstm", 0.2, 0], ["c-lstm", 0.2, 1]]
    assert [float(row[3]) for row in run.raw_rows] == [0.6140350877192983, 0.6140350877192983]
    mils = [float(row[4]) for row in run.raw_rows]
    assert mils == pytest.approx([90.9172366289812, 101.52178552829204], rel=1e-6)
    assert run.passed


# Each harness at seed 1 on a small grid, and the raw-row columns pinned for
# it, looked up by name so that a column added later leaves the pin alone.
TABLE_PINS = {
    "t1": (lambda: run_t1(master_seed=1, replicates=4),
           ("noise", "theta", "seed", "zero_fraction"),
           "ee70cf9f20e5eafa2e35b130e24b77e0fec0007fe3c9d31abfb9dbc072d3beec"),
    "t2": (lambda: run_t2(master_seed=1, replicates=2, n=400),
           ("noise", "theta", "model", "subset", "rep", "r2", "mae", "rmse"),
           "0e64b164a04e26b7f13d058ba8a209e5ba4dcc10ed3ce70e9b08ec1c200f0008"),
    "t2-zero-noise": (lambda: run_t2(master_seed=1, replicates=1, n=300, zero_noise=True),
                      ("noise", "theta", "model", "subset", "rep", "r2", "mae", "rmse"),
                      "883e2b64b16e815184a3b36ba2727cce9edf97a1a0ddf3b74c74e3a33e039980"),
    "t4": (lambda: run_t4(master_seed=1, replicates=1, alphas=(0.2, 0.4), n_days=120,
                          models=("tl-linear", "c-linear")),
           ("model", "alpha", "rep", "icp", "mil"),
           "ba2e5d0e6cef75a8dee0a6d5b47beddf31655219579756a22db8ea6b21e0dddd"),
    "bike": (lambda: run_bike_protocol(master_seed=1, gammas=(0.3, 0.9),
                                       c_ranges=((0.01, 0.33), (0.67, 0.99)),
                                       replicates=1, n_inits=2, n_days=200),
             ("model", "gamma", "c1", "c2", "subset", "rep", "icp", "mil", "fallback"),
             "6a052b066243a2af928fb2668f0b8bca9a4c4883e15e04d9d2cae711913cbca9"),
}


@pytest.mark.parametrize("table", sorted(TABLE_PINS))
def test_table_outputs_pinned(table):
    """SHA-256 of the verdicts and of every raw row's pinned columns, recorded
    before ground truth and the consecutive split each got one code path: a
    change anywhere in generation, splitting, fitting or scoring fails here.
    The digests hold for one numpy and BLAS build; record them again if it
    changes."""
    run_table, columns, want = TABLE_PINS[table]
    run = run_table()
    at = [run.columns.index(c) for c in columns]
    digest = hashlib.sha256(json.dumps(run.verdicts, sort_keys=True).encode())
    for row in run.raw_rows:
        digest.update(repr([row[i] for i in at]).encode())
    assert digest.hexdigest() == want
