"""Loss values and (sub)gradients, checked against finite differences."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cqrnet.datagen import CensoredDataset
from cqrnet.losses import (
    CensoredQrLoss,
    TobitLoss,
    censored_qr_nll,
    censored_qr_nll_grad,
    tilted_loss,
    tilted_loss_subgrad,
    tobit_nll,
    tobit_nll_grad_mean,
)
from cqrnet.models import TobitNet

from gradcheck import training_loss_fd_check

finite_reals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
thetas = st.floats(min_value=1e-6, max_value=1 - 1e-6)


# -- tilted loss -------------------------------------------------------------

def test_tilted_loss_examples():
    assert tilted_loss(0.0, 0.3) == 0.0
    assert tilted_loss(1.0, 0.95) == pytest.approx(0.95)
    assert tilted_loss(-1.0, 0.95) == pytest.approx(0.05)
    assert tilted_loss(-2.0, 0.05) == pytest.approx(1.9)


def test_tilted_subgrad_examples():
    assert tilted_loss_subgrad(2.0, 0.5) == 0.5
    assert tilted_loss_subgrad(-2.0, 0.5) == -0.5
    assert tilted_loss_subgrad(1e-9, 0.05) == pytest.approx(0.05)
    # kink tie-break: upper branch
    assert tilted_loss_subgrad(0.0, 0.3) == pytest.approx(0.3)


def test_theta_domain_errors():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            tilted_loss(1.0, bad)
        with pytest.raises(ValueError):
            tilted_loss_subgrad(1.0, bad)


@given(finite_reals, thetas)
@example(r=5e-324, theta=0.5)
def test_tilted_nonnegative_zero_iff_zero(r, theta):
    val = tilted_loss(r, theta)
    assert val >= 0.0
    # zero iff r == 0, or the product on the active side underflows to (-)0,
    # as 0.5 * 5e-324 does
    active = theta * r if r >= 0.0 else (theta - 1.0) * r
    assert (val == 0.0) == (r == 0.0 or active == 0.0)


@given(finite_reals)
def test_tilted_median_is_half_abs(r):
    assert tilted_loss(r, 0.5) == pytest.approx(0.5 * abs(r))


@given(finite_reals, thetas)
def test_tilted_mirror_symmetry(r, theta):
    assert tilted_loss(r, theta) == pytest.approx(tilted_loss(-r, 1.0 - theta))


def test_tilted_subgrad_matches_fd_away_from_kink():
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(1000):
        r = rng.uniform(-5, 5)
        if abs(r) <= 1e-4:
            continue
        theta = rng.uniform(0.01, 0.99)
        fd = (tilted_loss(r + h, theta) - tilted_loss(r - h, theta)) / (2 * h)
        assert tilted_loss_subgrad(r, theta) == pytest.approx(fd, rel=1e-5)


# -- censored quantile NLL ---------------------------------------------------

def test_censored_nll_examples():
    assert censored_qr_nll([0.0], [0.0], [0.0], 0.5) == 0.0
    # hand evaluation: rho_.5(1-2) + rho_.5(0 - max(0,-3)) = 0.5 + 0
    got = censored_qr_nll([1.0, 0.0], [0.0, 0.0], [2.0, -3.0], 0.5)
    assert got == pytest.approx(0.5)


def test_censored_nll_shape_errors():
    with pytest.raises(ValueError):
        censored_qr_nll([1.0, 2.0], [0.0], [1.0, 2.0], 0.5)
    with pytest.raises(ValueError):
        censored_qr_nll([], [], [], 0.5)


def test_censored_nll_grad_examples():
    y, tau = np.array([1.0]), np.array([0.0])
    assert censored_qr_nll_grad(y, tau, np.array([-3.0]), 0.5)[0] == 0.0
    assert censored_qr_nll_grad(y, tau, np.array([2.0]), 0.5)[0] == pytest.approx(0.5)
    assert censored_qr_nll_grad(y, tau, np.array([0.5]), 0.5)[0] == pytest.approx(-0.5)


def test_censored_nll_grad_matches_fd():
    rng = np.random.default_rng(11)
    h = 1e-6
    checked = 0
    while checked < 1000:
        theta = rng.uniform(0.02, 0.98)
        y = rng.normal(size=5)
        tau = y - rng.uniform(0.5, 2.0, size=5)  # left-censored: y >= tau
        q = rng.normal(scale=2.0, size=5)
        # stay away from both kinks: q == tau (clamp) and q == y (residual)
        if np.any(np.abs(q - tau) < 1e-4) or np.any(np.abs(q - y) < 1e-4):
            continue
        grad = censored_qr_nll_grad(y, tau, q, theta)
        i = rng.integers(5)
        e = np.zeros(5)
        e[i] = h
        fd = (censored_qr_nll(y, tau, q + e, theta) - censored_qr_nll(y, tau, q - e, theta)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-12)
        checked += 1


def test_censored_nll_without_thresholds_is_plain_tilted():
    rng = np.random.default_rng(3)
    y = rng.normal(size=50)
    q = rng.normal(size=50)
    tau = np.full(50, -np.inf)
    expected = float(np.sum(tilted_loss(y - q, 0.3)))
    assert censored_qr_nll(y, tau, q, 0.3) == pytest.approx(expected)


def test_censored_nll_tie_passes_gradient_through_prediction():
    # q == tau: gradient flows as if the prediction branch were active
    g = censored_qr_nll_grad(np.array([1.0]), np.array([0.5]), np.array([0.5]), 0.4)
    assert g[0] == pytest.approx(-0.4)


def test_censored_nll_refuses_training_rows_all_at_their_thresholds():
    """With y == tau on every training row the objective is flat (zero for
    any prediction on the clamped side), so the loss object refuses it;
    one row off its threshold, or validation rows at theirs, are fine."""
    y = np.array([3.0, 1.0, 2.0])
    at_tau = CensoredDataset(X=np.ones((3, 1)), y=y, tau=y.copy(), censored=np.ones(3, dtype=bool))
    with pytest.raises(ValueError, match="every training row has y == tau"):
        CensoredQrLoss(at_tau, at_tau, 0.5, None)
    one_off = CensoredDataset(X=np.ones((3, 1)), y=y, tau=y - [0.0, 0.0, 1.0], censored=np.array([1, 1, 0], bool))
    CensoredQrLoss(one_off, at_tau, 0.5, None)


# -- Tobit NLL ---------------------------------------------------------------

def right_censored_nll(y, censored, means, sigma):
    """Oracle: the summed Tobit NLL of right-censored rows (latent at or above
    y where censored), from `math.erfc` and the Gaussian density directly."""
    z = (np.asarray(y) - means) / sigma
    upper_tail = [-math.log(0.5 * math.erfc(v / math.sqrt(2.0))) for v in z]
    density = 0.5 * z * z + 0.5 * math.log(2 * math.pi) + math.log(sigma)
    return float(np.sum(np.where(censored, upper_tail, density)))


def test_tobit_examples():
    # non-censored at the mean: -log(phi(0)) = log(sqrt(2*pi))
    got = tobit_nll(np.array([1.0]), np.array([False]), np.array([1.0]), 1.0)
    assert got == pytest.approx(0.5 * math.log(2 * math.pi))
    assert got == pytest.approx(0.9189, abs=5e-5)
    # censored at the clamp: -log(Phi(0)) = log(2)
    got = tobit_nll(np.array([0.0]), np.array([True]), np.array([0.0]), 1.0)
    assert got == pytest.approx(math.log(2.0))
    # a right-censored row one sigma above its mean, passed mirrored: -log(1 - Phi(1))
    got = tobit_nll(-np.array([1.0]), np.array([True]), -np.array([0.0]), 1.0)
    assert got == pytest.approx(-math.log(0.5 * math.erfc(1.0 / math.sqrt(2.0))), rel=1e-14)


def test_tobit_domain_errors():
    y = np.array([1.0])
    c = np.array([False])
    for sigma in (0.0, -1.0, math.inf, math.nan):
        for fn in (tobit_nll, tobit_nll_grad_mean):
            with pytest.raises(ValueError, match="sigma"):
                fn(y, c, y, sigma)
    with pytest.raises(ValueError, match="left-censored"):
        TobitLoss(CensoredDataset(X=np.ones((1, 1)), y=y, tau=y, censored=c, side="right"),
                  CensoredDataset(X=np.ones((1, 1)), y=y, tau=y, censored=c), None, TobitNet(1))


def test_tobit_equals_gaussian_nll_without_censoring():
    rng = np.random.default_rng(5)
    y = rng.normal(size=40)
    mu = rng.normal(size=40)
    sigma = 1.7
    z = (y - mu) / sigma
    expected = float(np.sum(0.5 * z**2 + 0.5 * math.log(2 * math.pi) + math.log(sigma)))
    got = tobit_nll(y, np.zeros(40, dtype=bool), mu, sigma)
    assert got == pytest.approx(expected)


def test_tobit_extreme_censored_term_is_finite():
    # deep in the clamped tail the floored probability keeps the loss finite
    got = tobit_nll(np.array([0.0]), np.array([True]), np.array([60.0]), 1.0)
    assert math.isfinite(got)


# "upper": right-censored rows, which reach the likelihood mirrored (y and means
# negated), checked against differences of the right-censored oracle above

@pytest.mark.parametrize("side", ["lower", "upper"])
def test_tobit_mean_gradient_matches_fd(side):
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(500):
        n = 6
        mu = rng.normal(scale=1.5, size=n)
        y = mu + rng.normal(size=n)
        cens = rng.random(n) < 0.4
        sigma = rng.uniform(0.5, 2.0)
        if side == "lower":
            nll, grad = tobit_nll, tobit_nll_grad_mean(y, cens, mu, sigma)
        else:
            nll, grad = right_censored_nll, -tobit_nll_grad_mean(-y, cens, -mu, sigma)
            assert tobit_nll(-y, cens, -mu, sigma) == pytest.approx(nll(y, cens, mu, sigma), rel=1e-12)
        i = rng.integers(n)
        e = np.zeros(n)
        e[i] = h
        fd = (nll(y, cens, mu + e, sigma) - nll(y, cens, mu - e, sigma)) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_tobit_log_sigma_gradient_matches_fd(side):
    """The training loss's gradient for a learned scale, summed over the rows
    (n times its mean), against central differences of the summed NLL."""
    rng = np.random.default_rng(17)
    nll = tobit_nll if side == "lower" else right_censored_nll
    for _ in range(100):
        n = 6
        mu = rng.normal(scale=1.5, size=n)
        y = mu + rng.normal(size=n)
        cens = rng.random(n) < 0.4
        log_sigma = rng.uniform(-0.5, 0.7)
        h = 1e-6
        ds = CensoredDataset(X=np.ones((n, 1)), y=y, tau=y, censored=cens,
                             side="left" if side == "lower" else "right")
        means = mu
        if side == "upper":
            ds, means = ds.mirrored(), -mu
        net = TobitNet(1, estimate_sigma=True)
        loss = TobitLoss(ds, ds, None, net)
        net.params["log_sigma"] = np.array([log_sigma])
        grad = n * loss(np.concatenate([means, means]))[3]["log_sigma"][0]
        fd = (
            nll(y, cens, mu, math.exp(log_sigma + h))
            - nll(y, cens, mu, math.exp(log_sigma - h))
        ) / (2 * h)
        assert grad == pytest.approx(fd, rel=1e-5, abs=1e-9)


# -- training objectives -----------------------------------------------------

@pytest.mark.parametrize("kind, learned_scale", [
    ("tilted", False), ("censored_nll", False), ("tobit", False), ("tobit", True),
])
def test_training_loss_gradients_match_fd(kind, learned_scale):
    """Each object in TRAINING_LOSSES on criterion 6's draws, one loss at a time."""
    training_loss_fd_check(kind, learned_scale)
