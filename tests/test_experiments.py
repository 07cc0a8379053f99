"""Seed derivation, harness determinism, model registry, table rendering."""

import hashlib
import json
import weakref

import numpy as np
import pytest

from cqrnet import datagen, experiments
from cqrnet.experiments import (
    FitCell,
    child_seed,
    fit_cells,
    fit_model,
    parse_model_name,
    reuse_fit,
    run_bike_protocol,
    run_t1,
    run_t2,
    run_t3,
    run_t4,
    training_problem,
)
from cqrnet.metrics import interval_metrics
from cqrnet.models import MirrorWrapper
from cqrnet.training import TrainConfig


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


def _bit_equal_fits(got, want):
    """Traces, epochs, rate, level, seed, diagnostics, net and parameter bits agree."""
    for attr in ("train_trace", "val_trace", "best_epoch", "stopping_epoch", "learning_rate", "theta", "seed",
                 "diagnostics"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert type(got.net) is type(want.net) and got.net.to_dict() == want.net.to_dict()
    inner = [r.net.inner if isinstance(r.net, MirrorWrapper) else r.net for r in (got, want)]
    assert inner[0].params["beta"].tobytes() == inner[1].params["beta"].tobytes()


@pytest.mark.parametrize("noise", datagen.NOISES)
def test_c_elu_fit_is_the_c_linear_fit_wherever_thresholds_are_nonnegative(noise):
    """From all-ones weights, with every threshold the censored NLL sees >= 0,
    fitting c-elu is fitting c-linear: at every level and grid rate, the
    reused c-linear fit is the real c-elu fit to the bit. The mirrored set,
    right-censored with thresholds <= 0, reaches the loss as thresholds >= 0."""
    ds = datagen.gen_synthetic(datagen.SyntheticSpec(noise, 400, child_seed(7, "rule", noise)))
    train, val, _ = datagen.split(ds, seed=child_seed(7, "rule-split", noise))
    for sets in ((train, val), (train.mirrored(), val.mirrored())):
        for theta in (0.05, 0.5, 0.95):
            assert training_problem("c-elu", theta, *sets) == training_problem("c-linear", theta, *sets)
            for rate in TrainConfig().lr_grid:
                cfg = TrainConfig(learning_rate=rate, max_epochs=600, seed=11)
                source = fit_model("c-linear", *sets, cfg, theta)
                _bit_equal_fits(reuse_fit(source, "c-elu", theta, 11), fit_model("c-elu", *sets, cfg, theta))


def test_training_problem_tells_distinct_fits_apart():
    ds = datagen.gen_synthetic(datagen.SyntheticSpec("standard_gaussian", 200, 3))
    train, val, _ = datagen.split(ds, seed=4)
    assert training_problem("tobit", 0.05, train, val) == training_problem("tobit", 0.95, train, val)
    assert training_problem("c-linear", 0.05, train, val) != training_problem("c-linear", 0.95, train, val)
    assert training_problem("c-linear", 0.5, train, val) != training_problem("tl-linear", 0.5, train, val)
    # one negative threshold: an ELU prediction in (-1, 0) may sit above it
    tau = train.tau.copy()
    tau[np.flatnonzero(~train.censored)[0]] = -0.5
    lowered = datagen.CensoredDataset(train.X, train.y, tau, train.censored, "left", train.y_star)
    assert training_problem("c-elu", 0.5, lowered, val) != training_problem("c-linear", 0.5, lowered, val)
    # cmd_fit seeds each cell's N(0,1) draw by its model and theta
    normal = [training_problem(m, 0.5, train, val, "standard_normal", child_seed(0, "fit", "init", m, 0.5))
              for m in ("c-elu", "c-linear")]
    assert normal[0] != normal[1]
    with pytest.raises(ValueError, match="unimputed"):
        nan_tau = datagen.CensoredDataset(train.X, train.y, np.full(train.n, np.nan), train.censored, "left")
        training_problem("c-linear", 0.5, nan_tau, val)


def test_fit_cells_fits_each_problem_of_a_table_2_split_once(monkeypatch):
    """One split's nine Table 2 cells pose six problems (c-elu repeats c-linear
    at every level): fit_cells fits each once, in first-seen order; every
    cell's result is its own fit_model result to the bit; two worker
    processes give the same results."""
    ds = datagen.gen_synthetic(datagen.SyntheticSpec("heteroskedastic", 300, child_seed(3, "t2", "data")))
    train, val, _ = datagen.split(ds, seed=child_seed(3, "t2", "split"))
    cfg = TrainConfig(learning_rate=0.01, max_epochs=300)
    cells = [FitCell(model, train, val, cfg, theta) for theta in experiments.THETA_GRID
             for model in experiments.T2_MODELS]
    calls = []
    with monkeypatch.context() as patched:
        patched.setattr(experiments, "fit_model", lambda *cell: calls.append((cell[0], cell[4])) or fit_model(*cell))
        results = list(fit_cells(cells))
    assert calls == [(model, theta) for theta in experiments.THETA_GRID for model in ("tl-linear", "c-linear")]
    for cell, result in zip(cells, results, strict=True):
        _bit_equal_fits(result, fit_model(*cell))
    for got, want in zip(fit_cells(cells, jobs=2), results, strict=True):
        _bit_equal_fits(got, want)


def test_fit_cells_holds_a_fit_only_while_a_later_cell_poses_its_problem():
    """A fit outlives its last cell only in the consumer's hands: c-elu reuses
    c-linear's fit and Tobit at 0.95 reuses Tobit at 0.05, so each source is
    held until that cell, and freed once it is yielded and the consumer has
    dropped it (checked at the next request, before any later fit runs)."""
    ds = datagen.gen_synthetic(datagen.SyntheticSpec("standard_gaussian", 200, child_seed(4, "held")))
    train, val, _ = datagen.split(ds, seed=child_seed(4, "held-split"))
    cfg = TrainConfig(learning_rate=0.01, max_epochs=40)
    cells = [FitCell(model, train, val, cfg, theta) for model, theta in
             (("c-linear", 0.5), ("tobit", 0.05), ("c-elu", 0.5), ("tobit", 0.95), ("tl-linear", 0.5))]
    results, refs, alive = fit_cells(cells), [], []
    for _ in cells:
        refs.append(weakref.ref(next(results)))
        alive.append([ref() is not None for ref in refs])
    assert next(results, None) is None
    # the newest result is held until the next request; sources until their problem's last cell
    assert alive == [[True], [True, True], [False, True, True], [False, False, False, True],
                     [False, False, False, False, True]]
    assert not any(ref() for ref in refs)


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
        assert values[key][0] == pytest.approx(target, abs=0.02), key


def test_t4_raw_rows_identical_across_jobs():
    kwargs = dict(master_seed=5, replicates=1, alphas=(0.2, 0.4),
                  n_days=240, models=("tl-linear", "c-linear"))
    serial = run_t4(jobs=1, **kwargs)
    parallel = run_t4(jobs=2, **kwargs)
    assert serial.raw_rows == parallel.raw_rows


@pytest.mark.parametrize("model", ["tl-linear", "c-linear", "c-reg-linear", "c-lstm"])
def test_t4_cell_grid_per_model(model, monkeypatch):
    """Table 4's c-lstm grid leaves out rate 0.001; the linear models keep the full grid."""
    grids = []

    class Sentinel(Exception):
        pass

    def record(net_factory, loss_kind, train, val, cfg, theta=None):
        grids.append(cfg.lr_grid)
        raise Sentinel

    monkeypatch.setattr(experiments, "fit_with_lr_grid", record)
    with pytest.raises(Sentinel):
        run_t4(master_seed=0, replicates=1, alphas=(0.2,), n_days=60, models=(model,))
    assert grids == [(0.01, 0.1, 1.0) if model == "c-lstm" else TrainConfig().lr_grid]


def _recorded_interval_reports(monkeypatch):
    """The (dataset, subset, lower, upper) of every interval report the harness makes."""
    calls, report = [], experiments.metrics.subset_report
    monkeypatch.setattr(experiments.metrics, "subset_report",
                        lambda ds, subset, **kw: calls.append((ds, subset, kw["lower"], kw["upper"]))
                        or report(ds, subset, **kw))
    return calls


def _crossed(ds, subset, lower, upper):
    mask = np.ones(ds.n, dtype=bool) if subset == "all_test" else ~ds.censored
    return interval_metrics(lower[mask], upper[mask], ds.y_star[mask])[2]


def test_t4_raw_row_counts_crossed_intervals(monkeypatch):
    """A Table 4 cell whose c-linear pair crosses on every test row (master
    seed 1, alpha 0.1, rep 1, full size) records that count after its score columns."""
    calls = _recorded_interval_reports(monkeypatch)
    run = run_t4(master_seed=1, replicates=2, alphas=(0.1,), models=("c-linear",))
    row = run.raw_rows[1]
    assert len(calls) == 2 and row[:3] == ["c-linear", 0.1, 1]
    assert row[5] == _crossed(*calls[1]) == calls[1][0].n == 241


def test_bike_raw_rows_count_crossed_intervals(monkeypatch):
    calls = _recorded_interval_reports(monkeypatch)
    run = run_bike_protocol(master_seed=1, gammas=(0.3,), c_ranges=((0.34, 0.66),), replicates=1, n_inits=1,
                            n_days=200)
    assert run.columns[-1] == "n_crossed" and len(run.raw_rows) == len(calls) == 4
    assert [row[-1] for row in run.raw_rows] == [_crossed(*call) for call in calls]


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
    "t3": (lambda: run_t3(master_seed=1, replicates=2, n=400),
           ("noise", "model", "subset", "rep", "icp", "mil", "n_crossed"),
           "36addbe75f8d32042ef7b86da71036d59f9eddc834a35fdcca9a87ce2962b399"),
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
    before ground truth and the consecutive split each got one code path (t3's
    before the harnesses' scores came from their raw rows): a change anywhere
    in generation, splitting, fitting or scoring fails here.
    The digests hold for one numpy and BLAS build; record them again if it
    changes."""
    run_table, columns, want = TABLE_PINS[table]
    run = run_table()
    at = [run.columns.index(c) for c in columns]
    digest = hashlib.sha256(json.dumps(run.verdicts, sort_keys=True).encode())
    for row in run.raw_rows:
        digest.update(repr([row[i] for i in at]).encode())
    assert digest.hexdigest() == want


# The rendered text of a harness with one value per cell (t1) and of one with
# several (t3), at the TABLE_PINS runs.
RENDER_PINS = {
    "t1": "68d60f8bdd5956bf6d391042ba4b56be46122df195995b38ffb59f2d4b7ebc32",
    "t3": "fd2e825506e348edce1dcbd00a8b3394f4c89053025c84d9e80076f90f782dcb",
}


@pytest.mark.parametrize("table", sorted(RENDER_PINS))
def test_rendered_table_pinned(table):
    """SHA-256 of `TableRun.render()`, recorded while each harness still laid
    out its table rows by hand: the pins above hash raw rows and verdicts,
    and would pass with a table that lost its cells."""
    run = TABLE_PINS[table][0]()
    assert hashlib.sha256(run.render().encode()).hexdigest() == RENDER_PINS[table]
