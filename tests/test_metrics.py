"""Point and interval measures plus subset-scoped reports."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cqrnet.datagen import SyntheticSpec, gen_synthetic, latent_quantile
from cqrnet.metrics import EvalReport, empty_subsets, interval_metrics, point_metrics, subset_report
from cqrnet.normal import std_normal_quantile


def test_point_metrics_examples():
    true = np.array([1.0, 2.0, 3.0])
    assert point_metrics(true, true) == pytest.approx((1.0, 0.0, 0.0))
    r2, mae, rmse = point_metrics(true + 1.0, true)
    assert (mae, rmse) == pytest.approx((1.0, 1.0))
    r2, mae, rmse = point_metrics(np.zeros(2), np.array([-1.0, 1.0]))
    assert r2 == pytest.approx(0.0)
    assert mae == pytest.approx(1.0) and rmse == pytest.approx(1.0)


def test_point_metrics_degenerate_denominator():
    r2, mae, rmse = point_metrics(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
    assert r2 is None
    assert mae == pytest.approx(1.5)


def test_point_metrics_shape_errors():
    with pytest.raises(ValueError):
        point_metrics(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        point_metrics(np.ones(1), np.ones(1))


pairs = st.lists(st.tuples(st.floats(-1e4, 1e4), st.floats(-1e4, 1e4)), min_size=2, max_size=30)


@given(pairs)
@example([(5472.301064999182, 0.0)] * 11)  # equal errors: the mean rounds up and the root down, two ulps apart
@example([(0.0, 0.0), (0.0, 5.548197777863642e-263)])  # the squared error underflows to 0
def test_rmse_at_least_mae(rows):
    pred = np.array([p for p, _ in rows])
    true = np.array([t for _, t in rows])
    _, mae, rmse = point_metrics(pred, true)
    # each side rounds (about 50 ulps of relative slack), and a square below 1e-308 loses its bits
    assert rmse >= mae * (1 - 1e-14) - 1e-150


def test_interval_metrics_examples():
    ys = np.array([0.0, 1.0, 2.0])
    icp, mil, crossed = interval_metrics(np.full(3, -1e9), np.full(3, 1e9), ys)
    assert icp == 1.0 and crossed == 0
    icp, mil, crossed = interval_metrics(ys, ys, ys)  # zero-width at the point
    assert icp == 1.0 and mil == 0.0
    icp, mil, crossed = interval_metrics(ys + 0.1, ys + 0.2, ys)
    assert icp == 0.0


def test_interval_metrics_crossed_pairs():
    icp, mil, crossed = interval_metrics(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert crossed == 1
    assert mil == pytest.approx(0.0)  # signed lengths -1 and +1 average to 0
    assert icp == pytest.approx(0.5)


def test_true_gaussian_pair_coverage():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=10_000)
    ys = mu + rng.standard_normal(10_000)
    z = std_normal_quantile(0.95)
    icp, mil, _ = interval_metrics(mu - z, mu + z, ys)
    assert icp == pytest.approx(0.90, abs=0.01)
    assert mil == pytest.approx(3.290, abs=0.001)


@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
def test_icp_invariant_under_increasing_affine(scale, shift):
    rng = np.random.default_rng(1)
    lo = rng.normal(size=50)
    hi = lo + rng.uniform(0.5, 2.0, size=50)
    ys = rng.normal(size=50)
    base = interval_metrics(lo, hi, ys)[0]
    transformed = interval_metrics(scale * lo + shift, scale * hi + shift, scale * ys + shift)[0]
    assert base == pytest.approx(transformed)


def test_subset_report_partition_and_identity():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 300, 2))
    truth = latent_quantile("standard_gaussian", 0.5, ds.X)
    preds = truth + 0.1
    all_rep = subset_report(ds, "all_test", preds=preds, true_quantiles=truth)
    nc_rep = subset_report(ds, "non_censored_test", preds=preds, true_quantiles=truth)
    assert all_rep.n == nc_rep.n + int(ds.censored.sum())
    assert all_rep.mae == pytest.approx(0.1)

    uncensored = ds.subset(np.flatnonzero(~ds.censored))
    a = subset_report(uncensored, "all_test", preds=preds[~ds.censored],
                      true_quantiles=truth[~ds.censored])
    b = subset_report(uncensored, "non_censored_test", preds=preds[~ds.censored],
                      true_quantiles=truth[~ds.censored])
    assert a.to_dict() == {**b.to_dict(), "subset": "all_test"}


def test_subset_report_interval_needs_latents():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 50, 3))
    ds.y_star = None
    with pytest.raises(ValueError):
        subset_report(ds, "all_test", lower=np.zeros(50), upper=np.ones(50))


def test_subset_report_empty_subset_errors():
    ds = gen_synthetic(SyntheticSpec("standard_gaussian", 50, 4))
    fully = ds.subset(np.flatnonzero(ds.censored))
    with pytest.raises(ValueError):
        subset_report(fully, "non_censored_test", lower=np.zeros(fully.n), upper=np.ones(fully.n))
    assert empty_subsets(fully) == ["non_censored_test"]
    assert empty_subsets(ds) == []


def test_eval_report_validation():
    with pytest.raises(ValueError):
        EvalReport(subset="nope", n=3)
    with pytest.raises(ValueError):
        EvalReport(subset="all_test", n=0)
    with pytest.raises(ValueError):
        EvalReport(subset="all_test", n=3, icp=1.4)
