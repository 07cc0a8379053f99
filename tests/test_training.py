"""Adam loop, early stopping, learning-rate grid, imputation, selection."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cqrnet.datagen import (
    CensoredDataset,
    SyntheticSpec,
    censor_partial,
    gen_synthetic,
    split,
)
from cqrnet.models import (
    LinearQuantileNet,
    LstmQuantileNet,
    MirrorWrapper,
    RegularizedLinearNet,
    StackedUnitNet,
    init_weights,
    net_from_dict,
)
from cqrnet.tobit import TobitNet
from cqrnet.training import (
    AllFitsDivergedError,
    NonFiniteLossError,
    TrainConfig,
    _adam_step,
    _adam_step_scalar,
    fit,
    fit_with_lr_grid,
    impute_thresholds,
    select_initialization,
    train_mean_ratio,
)


def linear_dataset(beta, n=200, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.normal(size=(n, len(beta) - 1))])
    y = X @ np.asarray(beta) + noise * rng.normal(size=n)
    return CensoredDataset(X=X, y=y, tau=np.full(n, -np.inf), censored=np.zeros(n, dtype=bool), side="left")


def test_adam_zero_gradient_is_noop():
    flat = np.array([1.0, -2.0])
    m, v = np.zeros(2), np.zeros(2)
    assert not _adam_step(flat, {"beta": np.zeros(2)}, {"beta": slice(0, 2)}, m, v, 1, TrainConfig())
    assert np.array_equal(flat, np.array([1.0, -2.0]))


@pytest.mark.parametrize("sizes", [(1,), (3,), (7,), (8,), (9,), (15,), (16,), (8, 1), (3, 9, 4)],
                         ids=lambda sizes: "+".join(map(str, sizes)))
def test_scalar_adam_step_equals_numpy_step(sizes):
    """The Python-float step sums the clip norm in numpy's order (sequential
    below 8 elements, 8 running sums from 8 on), so norm, clip and Adam step
    equal the numpy path's bit for bit, with the keys given in reverse."""
    rng = np.random.default_rng(len(sizes) * 100 + sum(sizes))
    cfg = TrainConfig(learning_rate=0.03)
    ends = np.cumsum(sizes).tolist()
    slices = {f"p{i}": slice(end - size, end) for i, (size, end) in enumerate(zip(sizes, ends))}
    flat = rng.normal(size=ends[-1])
    want, m, v = flat.copy(), np.zeros(flat.size), np.zeros(flat.size)
    got, m_list, v_list = flat.copy(), [0.0] * flat.size, [0.0] * flat.size
    clipped = 0
    for t in range(1, 500):
        scale = 10.0 ** rng.integers(-9, 4)
        grads = {k: rng.normal(size=sl.stop - sl.start) * scale for k, sl in reversed(slices.items())}
        got_clipped = _adam_step_scalar(got, grads, slices, m_list, v_list, t, cfg)
        assert _adam_step(want, grads, slices, m, v, t, cfg) == got_clipped
        assert np.array_equal(got, want), t
        clipped += got_clipped
    assert m.tolist() == m_list and v.tolist() == v_list
    assert 0 < clipped < 499


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(lr_grid=(0.1, -1.0))
    # a rate or clip norm must be finite too: NaN compares False with 0.0
    nan, inf = float("nan"), float("inf")
    for field, value in (("learning_rate", nan), ("learning_rate", inf), ("lr_grid", (nan, 0.1)),
                         ("lr_grid", (0.1, inf)), ("clip_norm", nan), ("clip_norm", inf), ("max_epochs", 0)):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            TrainConfig(**{field: value})


def test_fit_recovers_exact_linear_data():
    beta_true = np.array([0.5, 2.0, -1.0])
    train = linear_dataset(beta_true, seed=1)
    val = linear_dataset(beta_true, seed=2)
    net = init_weights(LinearQuantileNet(3), "ones")
    result = fit(net, "tilted", train, val, TrainConfig(learning_rate=0.1, max_epochs=3000), theta=0.5)
    assert np.max(np.abs(result.net.params["beta"] - beta_true)) < 1e-2


def test_fit_median_on_benchmark_reaches_truth():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 1000, 5))
    train, val, test = split(ds, seed=6)
    net = init_weights(LinearQuantileNet(3), "ones")
    result = fit(net, "censored_nll", train, val, TrainConfig(learning_rate=0.01), theta=0.5)
    # latent median is x . (1,1,1); R^2 target handled in acceptance; here: betas close
    assert np.max(np.abs(result.net.params["beta"] - 1.0)) < 0.15


def test_fit_traces_are_deterministic():
    ds = gen_synthetic(SyntheticSpec("gaussian_mixture", 300, 7))
    train, val, _ = split(ds, seed=8)
    runs = []
    for _ in range(2):
        net = init_weights(LinearQuantileNet(3), "ones")
        runs.append(fit(net, "censored_nll", train, val, TrainConfig(seed=9), theta=0.05))
    assert runs[0].train_trace == runs[1].train_trace
    assert runs[0].val_trace == runs[1].val_trace
    assert np.array_equal(runs[0].net.params["beta"], runs[1].net.params["beta"])


def test_early_stopping_contract():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 400, 10))
    train, val, _ = split(ds, seed=11)
    net = init_weights(LinearQuantileNet(3), "ones")
    cfg = TrainConfig(learning_rate=0.01, patience=10)
    result = fit(net, "censored_nll", train, val, cfg, theta=0.5)
    assert result.stopping_epoch <= result.best_epoch + cfg.patience
    assert result.val_trace[result.best_epoch] == min(result.val_trace)
    # returned parameters reproduce the recorded best validation loss
    from cqrnet.losses import censored_qr_nll

    va = censored_qr_nll(val.y, val.tau, result.net.forward(val.X), 0.5) / val.n
    assert va == pytest.approx(result.best_val_loss)


def test_train_loss_nonincreasing_small_lr_without_clipping():
    # descent phase: init (ones) far from the optimum (3, -2)
    for seed in range(50):
        train = linear_dataset([3.0, -2.0], n=60, seed=seed, noise=0.3)
        val = linear_dataset([3.0, -2.0], n=30, seed=seed + 1000, noise=0.3)
        net = init_weights(LinearQuantileNet(2), "ones")
        cfg = TrainConfig(learning_rate=1e-4, clip_norm=1e12, max_epochs=10, patience=10)
        result = fit(net, "tilted", train, val, cfg, theta=0.5)
        diffs = np.diff(result.train_trace)
        assert np.all(diffs <= 1e-12), f"seed {seed}"


def test_fit_requires_theta_for_quantile_losses():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 50, 1))
    with pytest.raises(ValueError):
        fit(init_weights(LinearQuantileNet(3), "ones"), "tilted", ds, ds, TrainConfig())


def test_fit_mirrors_right_censored_data():
    """`fit` takes right-censored data under the censored NLL through the
    mirror; the loss object itself still refuses it, and a missing level is
    the loss's ValueError, not arithmetic on None."""
    from cqrnet.losses import CensoredQrLoss

    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 60, 2)).mirrored()
    net = init_weights(LinearQuantileNet(3), "ones")
    result = fit(net.copy(), "censored_nll", ds, ds, TrainConfig(max_epochs=20), theta=0.3)
    assert isinstance(result.net, MirrorWrapper) and result.theta == 0.3
    assert not isinstance(result.net.inner, MirrorWrapper)
    with pytest.raises(ValueError, match="left-censored"):
        CensoredQrLoss(ds, ds, 0.5, net)
    with pytest.raises(ValueError, match="quantile level"):
        fit(net.copy(), "censored_nll", ds, ds, TrainConfig())


def test_fit_aborts_on_non_finite_loss():
    ds = linear_dataset([1.0, 1.0], n=20, seed=3)
    ds.y[0] = np.inf
    net = init_weights(LinearQuantileNet(2), "ones")
    with pytest.raises(NonFiniteLossError):
        fit(net, "tilted", ds, ds, TrainConfig(), theta=0.5)


def test_lr_grid_selection():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 500, 12))
    train, val, _ = split(ds, seed=13)

    net = init_weights(LinearQuantileNet(3), "ones")
    single = fit_with_lr_grid(net, "censored_nll", train, val,
                              TrainConfig(lr_grid=(0.01,)), theta=0.5)
    direct = fit(net, "censored_nll", train, val, TrainConfig(learning_rate=0.01), theta=0.5)
    assert single.learning_rate == 0.01
    assert single.train_trace == direct.train_trace

    picked = fit_with_lr_grid(net, "censored_nll", train, val,
                              TrainConfig(lr_grid=(0.01, 1000.0)), theta=0.5)
    assert np.isfinite(picked.best_val_loss)
    assert picked.best_val_loss <= direct.best_val_loss + 1e-12


@pytest.mark.parametrize("max_epochs", [5, 400])
def test_fit_calls_forward_train_once_per_epoch_first(max_epochs):
    """Each epoch opens with one forward_train call and makes no forward
    call; the benchmark's epoch clock relies on it. The one forward call
    follows the last epoch: the censored fit's clamp share."""
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 300, 21))
    train, val, _ = split(ds, seed=22)
    net = init_weights(RegularizedLinearNet(3), "ones")
    calls = []

    def recorded(name, method):
        def call(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return call

    for name in ("forward", "forward_train", "backward"):
        setattr(net, name, recorded(name, getattr(net, name)))
    result = fit(net, "censored_nll", train, val, TrainConfig(learning_rate=0.05, max_epochs=max_epochs), 0.5)
    expected = ["forward_train", "backward"] * (result.stopping_epoch + 1)
    if result.diagnostics["stop_reason"] == "patience":
        expected.pop()  # the stopping epoch ends before backward
    expected.append("forward")
    assert result.diagnostics["stop_reason"] == ("max_epochs" if max_epochs == 5 else "patience")
    assert calls == expected


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lr_grid_calls_fit_once_per_rate(monkeypatch):
    import cqrnet.training as training

    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 200, 23))
    train, val, _ = split(ds, seed=24)
    rates = []

    def counting_fit(net, loss_kind, train, val, cfg, theta=None, _fit=training.fit):
        rates.append(cfg.learning_rate)
        return _fit(net, loss_kind, train, val, cfg, theta)

    monkeypatch.setattr(training, "fit", counting_fit)
    fit_with_lr_grid(init_weights(LinearQuantileNet(3), "ones"), "censored_nll", train, val,
                     TrainConfig(lr_grid=(1.0, 0.01, 1e308, 0.1), max_epochs=200), theta=0.5)
    assert rates == [0.01, 0.1, 1.0, 1e308]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lr_grid_records_every_rate(monkeypatch):
    """The winner's diagnostics["grid"] holds every rate in the order they
    ran, the diverged rate's message too; its epochs add up to the forward
    passes the fits ran, and the fit JSON and a reused fit carry it."""
    import json

    from cqrnet.experiments import reuse_fit

    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 200, 23))
    train, val, _ = split(ds, seed=24)
    passes = []
    forward_train = LinearQuantileNet.forward_train
    monkeypatch.setattr(LinearQuantileNet, "forward_train",
                        lambda net, *args: passes.append(1) or forward_train(net, *args))
    result = fit_with_lr_grid(init_weights(LinearQuantileNet(3), "ones"), "censored_nll", train, val,
                              TrainConfig(lr_grid=(1.0, 0.01, 1e308, 0.1), max_epochs=200), theta=0.5)
    grid = result.diagnostics["grid"]
    assert [entry["lr"] for entry in grid] == [0.01, 0.1, 1.0, 1e308]
    assert grid[-1].keys() == {"lr", "epochs", "diverged"}
    assert grid[-1]["diverged"].startswith("non-finite loss at epoch")
    assert all(entry.keys() == {"lr", "epochs", "best_val_loss", "stop_reason"} for entry in grid[:-1])
    assert {"lr": result.learning_rate, "epochs": result.stopping_epoch + 1, "best_val_loss": result.best_val_loss,
            "stop_reason": result.diagnostics["stop_reason"]} in grid
    assert sum(entry["epochs"] for entry in grid) == len(passes)
    assert json.loads(json.dumps(result.to_json_dict()))["diagnostics"]["grid"] == grid
    assert reuse_fit(result, "c-elu", 0.5, 7).diagnostics["grid"] == grid


def test_lr_grid_all_diverged():
    ds = linear_dataset([1.0, 1.0], n=20, seed=4)
    ds.y[0] = np.nan

    with pytest.raises(AllFitsDivergedError) as exc:
        fit_with_lr_grid(init_weights(LinearQuantileNet(2), "ones"), "tilted", ds, ds,
                         TrainConfig(lr_grid=(0.01, 0.1)), theta=0.5)
    assert [(entry["lr"], entry["epochs"]) for entry in exc.value.grid] == [(0.01, 1), (0.1, 1)]
    assert "lr=0.01: non-finite loss at epoch 0" in str(exc.value)


def test_fit_leaves_its_net_as_given(monkeypatch):
    """`fit` and the lr grid train copies: the net keeps its own arrays,
    bit-equal, so one net fitted twice gives the same fit, and a grid over
    N(0,1) weights drawn with no seed starts every rate from one draw."""
    import cqrnet.training as training
    from cqrnet.experiments import fit_model

    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 300, 7))
    train, val, _ = split(ds, seed=8)
    net = init_weights(LinearQuantileNet(3), "standard_normal", seed=9)
    arrays = dict(net.params)
    saved = {k: v.copy() for k, v in arrays.items()}

    def as_given():
        return net.params.keys() == arrays.keys() and all(
            net.params[k] is arrays[k] and np.array_equal(arrays[k], saved[k]) for k in arrays)

    cfg = TrainConfig(learning_rate=0.05)
    first, second = (fit(net, "censored_nll", train, val, cfg, theta=0.5) for _ in range(2))
    assert as_given()
    assert (first.train_trace, first.val_trace, first.best_epoch, first.stopping_epoch) == (
        second.train_trace, second.val_trace, second.best_epoch, second.stopping_epoch)
    assert np.array_equal(first.net.params["beta"], second.net.params["beta"])
    assert not np.array_equal(first.net.params["beta"], saved["beta"])

    starts = []

    def recording_fit(net, *args, _fit=training.fit):
        starts.append(net.params["beta"].copy())
        return _fit(net, *args)

    monkeypatch.setattr(training, "fit", recording_fit)
    grid = TrainConfig(lr_grid=(0.01, 0.1, 1.0), max_epochs=30)
    fit_with_lr_grid(net, "censored_nll", train, val, grid, theta=0.5)
    assert as_given() and len(starts) == 3 and all(np.array_equal(s, saved["beta"]) for s in starts)
    starts.clear()
    fit_model("c-linear", train, val, grid, 0.5, init_scheme="standard_normal", use_lr_grid=True)
    assert len(starts) == 3 and all(np.array_equal(s, starts[0]) for s in starts)


# -- mirror fitting ----------------------------------------------------------

def test_mirror_fit_matches_direct_fit_on_negated_benchmark():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 600, 14))
    train, val, test = split(ds, seed=15)
    cfg = TrainConfig(learning_rate=0.01, seed=16)

    direct = fit(init_weights(LinearQuantileNet(3), "ones"), "censored_nll",
                 train, val, cfg, theta=0.05)
    mirrored = fit(init_weights(LinearQuantileNet(3), "ones"), "censored_nll",
                   train.mirrored(), val.mirrored(), cfg, theta=0.95)
    assert isinstance(mirrored.net, MirrorWrapper)
    got = mirrored.net.forward(test.mirrored().X)
    want = -direct.net.forward(test.X)
    assert np.max(np.abs(got - want)) < 1e-6


# -- threshold imputation ----------------------------------------------------

def test_impute_ratio_examples():
    series = np.arange(1.0, 101.0)
    cs = censor_partial(series, 0.0, 0.3, 0.6, seed=18)
    ratio = train_mean_ratio(cs.y_star[:50], cs.y[:50])
    assert ratio == pytest.approx(1.0)
    filled = impute_thresholds(ratio, cs)
    assert type(filled) is CensoredDataset and filled.X is cs.X
    assert np.allclose(filled.tau, filled.y)

    cs = censor_partial(series, 1.0, 0.5, 0.5, seed=19)
    ratio = train_mean_ratio(cs.y_star[:50], cs.y[:50])
    assert ratio == pytest.approx(2.0)
    # everything censored: imputation leaves the scheme thresholds alone
    filled = impute_thresholds(ratio, cs)
    assert np.allclose(filled.tau, cs.y)
    assert filled.tau is not cs.tau and filled.y is not cs.y


@given(st.integers(0, 2**32 - 2), st.floats(1e-3, 1e3))
@example(seed=20, c=7.0)
def test_impute_ratio_scale_invariance(seed, c):
    """Censoring a series scaled by c > 0 scales y, y* and tau by c, and
    threshold imputation commutes with it: the ratio stays and the imputed
    thresholds scale by c."""
    series = np.random.default_rng(seed).uniform(10, 30, 200)
    cs = censor_partial(series, 0.4, 0.2, 0.6, seed=seed + 1)
    scaled = censor_partial(series * c, 0.4, 0.2, 0.6, seed=seed + 1)
    assert np.array_equal(scaled.censored, cs.censored)
    for got, want in ((scaled.y, cs.y), (scaled.tau, cs.tau), (scaled.y_star, cs.y_star)):
        assert got == pytest.approx(c * want, nan_ok=True)
    r1 = train_mean_ratio(cs.y_star, cs.y)
    r2 = train_mean_ratio(scaled.y_star, scaled.y)
    assert r1 == pytest.approx(r2)
    assert impute_thresholds(r2, scaled).tau == pytest.approx(c * impute_thresholds(r1, cs).tau)


def test_impute_zero_mean_errors():
    with pytest.raises(ValueError):
        train_mean_ratio(np.ones(3), np.zeros(3))


def test_imputed_thresholds_respect_right_censoring():
    series = np.random.default_rng(22).uniform(5, 15, 300)
    cs = censor_partial(series, 0.5, 0.2, 0.8, seed=23)
    filled = impute_thresholds(train_mean_ratio(cs.y_star, cs.y), cs)
    assert np.all(filled.y <= filled.tau + 1e-12)


# -- initialization selection -------------------------------------------------

def test_select_single_candidate():
    index, fallback = select_initialization([(0.7, 1.0)], train_observed_mean=1.0)
    assert index == 0 and not fallback


def test_select_closest_icp():
    index, _ = select_initialization([(0.88, 1.0), (0.97, 1.0)], train_observed_mean=1.0)
    assert index == 0


@pytest.mark.parametrize("icps", [(0.6, 0.8, 1.0), (0.6, 1.0, 0.8), (0.6, 0.8, 0.8)])
def test_select_ties_go_to_the_lower_index(icps):
    """0.8 and 1.0 are equally far from 0.9, in floats too."""
    assert abs(0.8 - 0.9) == abs(1.0 - 0.9)
    index, _ = select_initialization([(icp, 1.0) for icp in icps], train_observed_mean=1.0)
    assert index == 1


def test_select_filters_high_mil():
    index, fallback = select_initialization([(0.90, 3.0), (0.80, 1.5)], train_observed_mean=1.0)
    assert index == 1 and not fallback


def test_select_fallback_when_all_filtered():
    index, fallback = select_initialization([(0.90, 5.0), (0.85, 9.0)], train_observed_mean=1.0)
    assert index == 0 and fallback


def test_select_empty_errors():
    with pytest.raises(ValueError):
        select_initialization([], train_observed_mean=1.0)


@pytest.mark.parametrize("mean", [0.0, -2.0, float("nan"), float("inf")])
def test_select_rejects_nonpositive_or_nonfinite_mean(mean):
    with pytest.raises(ValueError, match="positive finite mean"):
        select_initialization([(0.90, 1.0), (0.80, 3.0)], train_observed_mean=mean)


def test_fit_result_serialization_round_trip():
    import json

    from cqrnet.models import net_from_dict

    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 200, 24))
    train, val, test = split(ds, seed=25)
    result = fit(init_weights(LinearQuantileNet(3), "ones"), "censored_nll",
                 train, val, TrainConfig(), theta=0.5)
    doc = result.to_json_dict()
    loaded = json.loads(json.dumps(doc))
    clone = net_from_dict(loaded["net"])
    assert np.allclose(clone.forward(test.X), result.net.forward(test.X))
    assert loaded["diagnostics"] == result.diagnostics
    ran_out = result.stopping_epoch == TrainConfig().max_epochs - 1
    assert loaded["diagnostics"]["stop_reason"] == ("max_epochs" if ran_out else "patience")
    assert 0.0 <= loaded["diagnostics"]["clip_share"] <= 1.0


FIT_NETS = {
    "linear": (lambda: LinearQuantileNet(8), "censored_nll"),
    "elu": (lambda: LinearQuantileNet(8, activation="elu"), "tilted"),
    "reg-linear": (lambda: RegularizedLinearNet(8), "censored_nll"),
    "stacked": (lambda: StackedUnitNet(8, units=3), "censored_nll"),
    "lstm": (lambda: LstmQuantileNet(lags=7, hidden_size=8), "censored_nll"),
    "tobit": (lambda: TobitNet(8, estimate_sigma=True), "tobit"),
}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("case", sorted(FIT_NETS))
def test_fitted_nets_carry_no_training_state(case, side):
    """The net a fit returns, its copies and a copy of the net it trained
    pickle to the size of the same net rebuilt from its saved form: no
    recorded pass or reused buffer travels to a worker's result or a file."""
    import pickle

    make, loss_kind = FIT_NETS[case]
    rng = np.random.default_rng(6)
    X = np.column_stack([np.ones(90), rng.normal(size=(90, 7))])
    y_star = X @ rng.normal(size=8) + rng.normal(size=90)
    tau = np.zeros(90)
    censored = y_star < tau if side == "left" else y_star > tau
    data = CensoredDataset(X=X, y=np.where(censored, tau, y_star), tau=tau, censored=censored, side=side)
    train, val = data.subset(np.arange(45)), data.subset(np.arange(45, 90))
    net = init_weights(make(), "standard_normal", seed=2)
    result = fit(net, loss_kind, train, val, TrainConfig(max_epochs=5), theta=0.5)
    size = len(pickle.dumps(net_from_dict(result.net.to_dict())))
    assert len(pickle.dumps(result.net)) == size
    assert len(pickle.dumps(result.net.copy())) == size
    assert len(pickle.dumps(net.copy())) == len(pickle.dumps(net_from_dict(net.to_dict())))


def test_unaware_val_icp_worse_under_heavy_partial_censoring():
    """gamma=0.9: the censorship-unaware tilted fit's validation ICP sits
    farther from 0.9 than the censored fit's, on the bundled series."""
    from cqrnet.datagen import build_lagged_dataset, bundled_daily_series, split_indices
    from cqrnet.experiments import fit_model, child_seed
    from cqrnet.metrics import interval_metrics

    series = bundled_daily_series(730, seed=child_seed(0, "bike", "series"))
    dists = {"tl-linear": [], "c-linear": []}
    for rep in range(2):
        cs = censor_partial(series, 0.9, 0.34, 0.66, seed=child_seed(0, "inv", rep))
        thirds = split_indices(cs.n, (1 / 3, 1 / 3, 1 / 3), consecutive=True)
        ratio = train_mean_ratio(cs.y_star[thirds[0]], cs.y[thirds[0]])
        ds = build_lagged_dataset(impute_thresholds(ratio, cs), 7)
        train, val, _ = (ds.subset(part[part >= 7] - 7) for part in thirds)
        for model in dists:
            preds = {}
            for theta in (0.05, 0.95):
                r = fit_model(model, train, val, TrainConfig(), theta,
                               init_scheme="standard_normal",
                               init_seed=child_seed(0, "inv", rep, model, theta),
                               use_lr_grid=True)
                preds[theta] = r.predict(val.X)
            icp, _, _ = interval_metrics(preds[0.05], preds[0.95], val.y_star)
            dists[model].append(abs(icp - 0.9))
    assert np.mean(dists["c-linear"]) < np.mean(dists["tl-linear"])
