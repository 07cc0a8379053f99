"""Seed derivation, harness determinism, model registry, table rendering."""

import numpy as np
import pytest

from cqrnet.experiments import (
    child_seed,
    parse_model_name,
    run_t1,
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
