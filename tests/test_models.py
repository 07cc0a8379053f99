"""Net forwards, hand-written backprop vs finite differences, init, mirror."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from cqrnet.datagen import CensoredDataset
from cqrnet.models import (
    _sigmoid,
    LinearQuantileNet,
    LstmQuantileNet,
    MirrorWrapper,
    RegularizedLinearNet,
    StackedUnitNet,
    init_weights,
    net_from_dict,
)
from cqrnet.tobit import TobitNet

from gradcheck import fd_check


# -- forwards ----------------------------------------------------------------

def test_linear_forward_example():
    net = init_weights(LinearQuantileNet(3), "ones")
    assert net.forward(np.array([[1.0, 1.0, 0.5]]))[0] == pytest.approx(2.5)


def test_elu_forward_negative_branch():
    net = LinearQuantileNet(2, activation="elu")
    net.params["beta"] = np.array([-1.0, 0.0])
    out = net.forward(np.array([[1.0, 3.0]]))  # pre-activation -1
    assert out[0] == pytest.approx(math.exp(-1.0) - 1.0)
    assert out[0] == pytest.approx(-0.6321, abs=5e-5)


def test_lstm_zero_weights_outputs_zero():
    net = LstmQuantileNet(lags=7, hidden_size=3)
    X = np.random.default_rng(0).normal(size=(4, 8))
    assert np.allclose(net.forward(X), 0.0)


def test_dimension_mismatch_errors():
    net = LinearQuantileNet(3)
    with pytest.raises(ValueError):
        net.forward(np.ones((2, 4)))
    with pytest.raises(ValueError):
        LstmQuantileNet(lags=7).forward(np.ones((2, 5)))


def test_backward_without_forward_is_usage_error():
    net = init_weights(LinearQuantileNet(3), "ones")
    with pytest.raises(RuntimeError):
        net.backward(np.ones(2))


# -- gradients ---------------------------------------------------------------

def test_linear_backward_is_design_matrix():
    net = init_weights(LinearQuantileNet(3), "ones")
    X = np.array([[1.0, 2.0, -1.0], [1.0, 0.5, 3.0]])
    net.forward_train(X)
    grads = net.backward(np.array([1.0, 0.0]))
    assert np.allclose(grads["beta"], X[0])


def test_elu_backward_derivative_at_negative_preactivation():
    net = LinearQuantileNet(2, activation="elu")
    net.params["beta"] = np.array([-1.0, 0.0])
    X = np.array([[1.0, 5.0]])  # z = -1
    net.forward_train(X)
    grads = net.backward(np.array([1.0]))
    assert grads["beta"][0] == pytest.approx(math.exp(-1.0))


def test_lstm_gradients_match_fd_small():
    rng = np.random.default_rng(21)
    net = init_weights(LstmQuantileNet(lags=5, hidden_size=2), "standard_normal", seed=1)
    X = np.column_stack([np.ones(6), rng.normal(size=(6, 5))])
    fd_check(net, X, rng)


def test_lstm_gradients_match_fd_every_parameter():
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        net = init_weights(LstmQuantileNet(lags=4, hidden_size=3), "standard_normal", seed=seed)
        X = rng.normal(size=(6, net.dim))
        X[:, 0] = 1.0
        fd_check(net, X, rng, n_checks=None)


def _reference_lstm(params, X, upstream):
    """Step-by-step LSTM with plain logistic gates: (outputs, gradients)."""
    w_x, w_h, b, w_out = params["w_x"], params["w_h"], params["b"], params["w_out"]
    hsz = w_out.shape[0]
    seq = X[:, :0:-1]
    h = c = np.zeros((X.shape[0], hsz))
    steps = []
    for t in range(seq.shape[1]):
        z = seq[:, t, None] * w_x + h @ w_h.T + b
        gi, gf, go = (1.0 / (1.0 + np.exp(-z[:, k * hsz : (k + 1) * hsz])) for k in range(3))
        gc = np.tanh(z[:, 3 * hsz :])
        steps.append((seq[:, t], h, c, gi, gf, go, gc))
        c = gf * c + gi * gc
        h = go * np.tanh(c)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    grads["w_out"] = h.T @ upstream
    grads["b_out"] = np.array([upstream.sum()])
    dh, dc = upstream[:, None] * w_out, np.zeros_like(h)
    for x_t, h_prev, c_prev, gi, gf, go, gc in reversed(steps):
        tanh_c = np.tanh(gf * c_prev + gi * gc)
        dc = dc + dh * go * (1.0 - tanh_c**2)
        dz = np.concatenate([dc * gc * gi * (1.0 - gi), dc * c_prev * gf * (1.0 - gf),
                             dh * tanh_c * go * (1.0 - go), dc * gi * (1.0 - gc**2)], axis=1)
        grads["w_x"] += dz.T @ x_t
        grads["w_h"] += dz.T @ h_prev
        grads["b"] += dz.sum(axis=0)
        dh, dc = dz @ w_h, dc * gf
    return h @ w_out + params["b_out"][0], grads


def test_lstm_matches_reference_loop():
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        net = init_weights(LstmQuantileNet(lags=7, hidden_size=8), "standard_normal", seed=seed)
        X = np.column_stack([np.ones(60), 2.0 * rng.normal(size=(60, 7))])
        upstream = rng.normal(size=60)
        ref_out, ref_grads = _reference_lstm(net.params, X, upstream)
        assert np.max(np.abs(net.forward_train(X) - ref_out)) <= 1e-12
        grads = net.backward(upstream)
        for k, g in ref_grads.items():
            assert np.max(np.abs(grads[k] - g)) <= 1e-12 * np.max(np.abs(g)), k


# SHA-256 of forward_train's outputs and backward's gradients (param_order),
# recorded before the gate-major layout: any change of summation order or
# operand orientation in the LSTM moves a last bit and fails here. The
# digests hold for one numpy and BLAS build; record them again if it changes.
LSTM_BITS = {
    8: "befb136c4d995c93a524b40c6e74122d137b47d3b9689508c5811509bb714f2c",
    58: "feb8b82e71c7b1839f6ce1ff724df83510d79df36cd623c9cf5d4dfb06061ae5",
    241: "b935edf05083cf3f69813e632ce22ff4c5d08db2076b1482c4d66137c05ddbf1",
}


@pytest.mark.parametrize("n", sorted(LSTM_BITS))
def test_lstm_bits_pinned(n):
    """n training rows stacked on n validation rows, lags 7, hidden 8."""
    import hashlib

    net = init_weights(LstmQuantileNet(lags=7, hidden_size=8), "standard_normal", seed=n)
    rng = np.random.default_rng(1000 + n)
    X = np.column_stack([np.ones(2 * n), 2.0 * rng.normal(size=(2 * n, 7))])
    digest = hashlib.sha256(net.forward_train(X, None, n).tobytes())
    grads = net.backward(rng.normal(size=n))
    for k in net.param_order:
        digest.update(grads[k].tobytes())
    assert digest.hexdigest() == LSTM_BITS[n]


def test_lstm_forward_equals_forward_train_exactly():
    rng = np.random.default_rng(31)
    net = init_weights(LstmQuantileNet(lags=7, hidden_size=8), "standard_normal", seed=5)
    X = np.column_stack([np.ones(60), 2.0 * rng.normal(size=(60, 7))])
    assert np.array_equal(net.forward(X), net.forward_train(X))


# Eight inputs and eight hidden units: at these widths one matrix-vector
# product over stacked rows changes the last bit of most outputs.
ONE_PASS_NETS = {
    "linear-identity": lambda: LinearQuantileNet(8),
    "linear-elu": lambda: LinearQuantileNet(8, activation="elu"),
    "reg-linear-dropout": lambda: RegularizedLinearNet(8, dropout_rate=0.3, l2_coeff=1e-2),
    **{f"stacked-{act}": (lambda act=act: StackedUnitNet(8, units=8, activation=act))
       for act in ("tanh", "sigmoid", "elu", "relu")},
    "lstm": lambda: LstmQuantileNet(lags=7, hidden_size=8),
    "tobit-fixed-sigma": lambda: TobitNet(8, sigma=1.5),
    "tobit-learned-sigma": lambda: TobitNet(8, estimate_sigma=True),
}


@pytest.mark.parametrize("case", sorted(ONE_PASS_NETS))
@pytest.mark.parametrize("n_a, n_b", [(57, 23), (116, 58), (620, 150)])
def test_one_pass_forward_equals_separate_calls(case, n_a, n_b):
    """forward_train over [A; B] with n_train = len(A) gives, bit for bit,
    forward_train(A) then forward(B): outputs, gradients and rng state."""
    net = init_weights(ONE_PASS_NETS[case](), "standard_normal", seed=n_a)
    rng = np.random.default_rng(n_b)
    X = 1.0 + np.abs(rng.normal(size=(n_a + n_b, net.dim)))
    X[:, 0] = 1.0
    A, B = X[:n_a].copy(), X[n_a:].copy()
    dpred = rng.normal(size=n_a)
    separate_rng, one_pass_rng = np.random.default_rng(7), np.random.default_rng(7)

    want = np.concatenate([net.forward_train(A, separate_rng), net.forward(B)])
    want_grads = net.backward(dpred)
    got = net.forward_train(np.vstack([A, B]), one_pass_rng, n_a)
    got_grads = net.backward(dpred)

    assert np.array_equal(got, want)
    assert list(got_grads) == list(want_grads)
    for k, g in want_grads.items():
        assert np.array_equal(got_grads[k], g), k
    assert one_pass_rng.bit_generator.state == separate_rng.bit_generator.state


@pytest.mark.parametrize("case", sorted(ONE_PASS_NETS))
def test_forward_between_a_training_pass_and_backward_changes_nothing(case):
    """Evaluation passes over another row count, and over other rows of
    the training pass's count, leave what backward reads alone, also when
    the training pass reuses the buffers of the one before."""
    net = init_weights(ONE_PASS_NETS[case](), "standard_normal", seed=3)
    rng = np.random.default_rng(4)
    X = 1.0 + np.abs(rng.normal(size=(139, net.dim)))
    X[:, 0] = 1.0
    A, B = X[:116], X[116:]
    dpred = rng.normal(size=58)

    # a copy: the linear nets' training pass returns the buffer the next one overwrites
    want = net.forward_train(A, np.random.default_rng(5), 58).copy()
    want_grads = net.backward(dpred)
    for _ in range(2):
        got = net.forward_train(A, np.random.default_rng(5), 58)
        net.forward(B)
        net.forward(X[23:])
        got_grads = net.backward(dpred)
        assert np.array_equal(got, want)
        assert list(got_grads) == list(want_grads)
        for k, g in want_grads.items():
            assert np.array_equal(got_grads[k], g), k


def test_sigmoid_tails_and_accuracy():
    tails = _sigmoid(np.array([-800.0, 800.0]))
    assert np.all(np.isfinite(tails))
    assert np.all((tails >= 0.0) & (tails <= 1.0))
    z = np.linspace(-30.0, 30.0, 60001)
    assert np.max(np.abs(_sigmoid(z) - 1.0 / (1.0 + np.exp(-z)))) <= 3e-16


@pytest.mark.parametrize("family", ["linear", "elu", "reg", "stacked", "lstm"])
def test_gradient_suite_seeded_configs(family):
    """Full-parameter finite-difference checks on seeded random configs."""
    for seed in range(25):
        rng = np.random.default_rng(1000 + seed)
        n, lags = 5, 4
        X = np.column_stack([np.ones(n), rng.normal(size=(n, lags))])
        if family == "linear":
            net = LinearQuantileNet(lags + 1)
        elif family == "elu":
            net = LinearQuantileNet(lags + 1, activation="elu")
        elif family == "reg":
            net = RegularizedLinearNet(lags + 1, dropout_rate=0.3, l2_coeff=0.01)
        elif family == "stacked":
            net = StackedUnitNet(lags + 1, units=3, activation="tanh")
        else:
            net = LstmQuantileNet(lags=lags, hidden_size=3)
        init_weights(net, "standard_normal", seed=seed)
        mask = None
        if family == "reg":
            keep = rng.random((n, lags)) >= net.dropout_rate
            mask = keep / (1.0 - net.dropout_rate)
        fd_check(net, X, rng, mask=mask)


# -- dropout -----------------------------------------------------------------

def test_dropout_eval_mode_is_identity():
    rng = np.random.default_rng(2)
    net = init_weights(RegularizedLinearNet(4, dropout_rate=0.5), "standard_normal", seed=4)
    X = np.column_stack([np.ones(10), rng.normal(size=(10, 3))])
    plain = LinearQuantileNet(4)
    plain.params["beta"] = net.params["beta"].copy()
    assert np.allclose(net.forward(X), plain.forward(X))


def test_dropout_train_mode_masks_inputs():
    rng = np.random.default_rng(3)
    net = init_weights(RegularizedLinearNet(4, dropout_rate=0.5), "ones")
    X = np.ones((200, 4))
    preds = net.forward_train(X, rng=np.random.default_rng(9))
    # intercept always survives; each lag contributes 0 or 2 (inverted scaling)
    assert not np.allclose(preds, preds[0])
    assert np.all((preds - 1.0) % 2.0 == pytest.approx(0.0, abs=1e-12))


def test_dropout_training_passes_reuse_their_row_blocks():
    """Two training passes over one X keep the first pass's row blocks, and
    only the training rows' non-intercept inputs are ever scaled."""
    rng = np.random.default_rng(5)
    net = init_weights(RegularizedLinearNet(4, dropout_rate=0.5), "standard_normal", seed=6)
    X = np.column_stack([np.ones(30), 1.0 + np.abs(rng.normal(size=(30, 3)))])
    X_before = X.copy()
    masks = np.random.default_rng(8)
    first = net.forward_train(X, masks, 20).copy()
    blocks = net._cache
    second = net.forward_train(X, masks, 20)
    assert all(a is b for a, b in zip(net._cache, blocks))
    assert not np.array_equal(first[:20], second[:20])
    assert np.array_equal(first[20:], net.forward(X[20:])) and np.array_equal(second[20:], first[20:])
    head, tail = net._cache[2], net._cache[3]
    assert np.array_equal(tail, X[20:]) and np.all(head[:, 0] == 1.0)
    assert np.array_equal(X, X_before)


def test_dropout_masks_are_drawn_into_kept_buffers():
    """Fifty seeded training passes drop out exactly what the formula
    (rng.random((n, d - 1)) >= rate) / (1 - rate) drops, to the bit, leave
    the generator where the formula leaves it, and draw into one set of buffers."""
    net = init_weights(RegularizedLinearNet(8, dropout_rate=0.2), "standard_normal", seed=3)
    X = np.column_stack([np.ones(620), np.random.default_rng(4).normal(size=(620, 7))])
    ours, formula = np.random.default_rng(5), np.random.default_rng(5)
    net.forward_train(X, ours, 500)
    kept = net._dropped
    formula.random((500, 7))
    for _ in range(50):
        net.forward_train(X, ours, 500)
        mask = (formula.random((500, 7)) >= 0.2) / (1.0 - 0.2)
        assert all(a is b for a, b in zip(net._dropped, kept))
        assert kept[5].tobytes() == mask.tobytes()
        assert kept[2][:500, 1:].tobytes() == (X[:500, 1:] * mask).tobytes()
        assert np.array_equal(kept[2][:, 0], X[:, 0]) and np.array_equal(kept[2][500:], X[500:])
    assert ours.bit_generator.state == formula.bit_generator.state
    assert net.copy()._dropped is None


def test_dropout_requires_rng_or_mask():
    net = RegularizedLinearNet(3, dropout_rate=0.2)
    with pytest.raises(ValueError):
        net.forward_train(np.ones((2, 3)))


# -- init --------------------------------------------------------------------

def test_init_ones_linear():
    net = init_weights(LinearQuantileNet(3), "ones")
    assert np.array_equal(net.params["beta"], np.ones(3))


def test_init_standard_normal_deterministic():
    a = init_weights(LinearQuantileNet(5), "standard_normal", seed=7).params["beta"]
    b = init_weights(LinearQuantileNet(5), "standard_normal", seed=7).params["beta"]
    assert np.array_equal(a, b)


def test_init_standard_normal_moments():
    net = init_weights(LinearQuantileNet(100_000), "standard_normal", seed=11)
    draws = net.params["beta"]
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_init_lstm_recurrent_scaling():
    net = init_weights(LstmQuantileNet(lags=7, hidden_size=16), "standard_normal", seed=3)
    # recurrent block scaled by 1/sqrt(hidden); others unit-scale
    assert net.params["w_h"].std() == pytest.approx(1.0 / 4.0, rel=0.15)
    assert net.params["w_x"].std() == pytest.approx(1.0, rel=0.2)


@pytest.mark.parametrize("scheme", ["ones", "standard_normal"])
def test_init_keeps_a_learned_tobit_scale_at_the_constructor_sigma(scheme):
    net = init_weights(TobitNet(2, sigma=2.0, estimate_sigma=True), scheme, seed=0)
    assert net.params["log_sigma"].tolist() == [np.log(2.0)]
    fixed = init_weights(TobitNet(2, sigma=2.0), scheme, seed=0)
    assert np.array_equal(net.params["beta"], fixed.params["beta"])


def test_init_unknown_scheme():
    with pytest.raises(ValueError):
        init_weights(LinearQuantileNet(2), "zeros")


# -- mirror wrapper ----------------------------------------------------------

def test_mirror_definition():
    rng = np.random.default_rng(5)
    inner = init_weights(LinearQuantileNet(4, activation="elu"), "standard_normal", seed=8)
    wrapper = MirrorWrapper(inner)
    X = np.column_stack([np.ones(6), rng.normal(size=(6, 3))])
    Xneg = X.copy()
    Xneg[:, 1:] *= -1.0
    assert np.allclose(wrapper.forward(X), -inner.forward(Xneg))


def test_mirror_twice_is_identity():
    rng = np.random.default_rng(6)
    inner = init_weights(LstmQuantileNet(lags=5, hidden_size=3), "standard_normal", seed=9)
    double = MirrorWrapper(MirrorWrapper(inner))
    X = np.column_stack([np.ones(8), rng.normal(size=(8, 5))])
    assert np.max(np.abs(double.forward(X) - inner.forward(X))) < 1e-12


@st.composite
def datasets(draw):
    """Unvalidated datasets of any side: the mirror only negates, so every
    float (NaN thresholds included) must come back unchanged."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    floats = st.floats(allow_nan=False, width=64)
    return CensoredDataset(
        X=draw(arrays(np.float64, (n, d), elements=floats)),
        y=draw(arrays(np.float64, n, elements=floats)),
        tau=draw(arrays(np.float64, n, elements=st.floats(width=64))),
        censored=draw(arrays(np.bool_, n)),
        side=draw(st.sampled_from(["left", "right"])),
        y_star=draw(st.none() | arrays(np.float64, n, elements=floats)),
    )


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@given(datasets())
def test_mirroring_a_dataset_twice_gives_it_back_bit_for_bit(ds):
    back = ds.mirrored().mirrored()
    assert back.side == ds.side
    for name in ("X", "y", "tau", "censored", "y_star"):
        want, got = getattr(ds, name), getattr(back, name)
        assert (got is None) if want is None else same_bits(got, want)


class _Recorder:
    """An inner net that keeps the inputs it is given."""

    def forward(self, X):
        self.X = X
        return np.zeros(X.shape[0])


@given(datasets())
def test_wrapper_mirrors_inputs_as_the_dataset_does(ds):
    inner = _Recorder()
    MirrorWrapper(inner).forward(ds.X)
    assert same_bits(inner.X, ds.mirrored().X)


def test_mirror_does_not_train_directly():
    wrapper = MirrorWrapper(init_weights(LinearQuantileNet(3), "ones"))
    with pytest.raises(RuntimeError):
        wrapper.forward_train(np.ones((2, 3)))


def test_fit_of_a_mirror_raises_its_runtime_error():
    """`fit` calls forward_train as it does for every net; the wrapper takes
    that call and refuses it with its own RuntimeError, not a TypeError."""
    from cqrnet.datagen import SyntheticSpec, gen_synthetic, split
    from cqrnet.training import TrainConfig, fit

    train, val, _ = split(gen_synthetic(SyntheticSpec("standard_gaussian", 60, 3)), seed=4)
    with pytest.raises(RuntimeError, match="evaluation view"):
        fit(MirrorWrapper(init_weights(LinearQuantileNet(3), "ones")), "tilted", train, val, TrainConfig(), theta=0.5)


# -- serialization -----------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda: (LinearQuantileNet, dict(dim=4, activation="elu")),
    lambda: (RegularizedLinearNet, dict(dim=4, dropout_rate=0.3, l2_coeff=0.05)),
    lambda: (StackedUnitNet, dict(dim=4, units=2, activation="relu")),
    lambda: (LstmQuantileNet, dict(lags=3, hidden_size=2)),
    lambda: (TobitNet, dict(dim=4, sigma=2.0, estimate_sigma=True)),
])
def test_serialization_round_trip(make):
    """The saved config is the constructor's keyword arguments, and the
    reloaded net, like a pickled one, computes the same bits."""
    import json
    import pickle

    cls, kwargs = make()
    rng = np.random.default_rng(10)
    net = init_weights(cls(**kwargs), "standard_normal", seed=12)
    X = np.column_stack([np.ones(5), rng.normal(size=(5, net.dim - 1))])
    doc = json.loads(json.dumps(net.to_dict()))
    assert doc["config"] == kwargs
    clone = net_from_dict(doc)
    assert type(clone) is cls
    assert same_bits(clone.forward(X), net.forward(X))
    assert same_bits(pickle.loads(pickle.dumps(net)).forward(X), net.forward(X))


def test_mirror_serialization_round_trip():
    net = MirrorWrapper(init_weights(LinearQuantileNet(3), "standard_normal", seed=2))
    X = np.column_stack([np.ones(4), np.random.default_rng(1).normal(size=(4, 2))])
    clone = net_from_dict(net.to_dict())
    assert np.allclose(net.forward(X), clone.forward(X))


def test_lstm_constant_sequence_batch_order_invariance():
    net = init_weights(LstmQuantileNet(lags=7, hidden_size=4), "standard_normal", seed=14)
    X = np.column_stack([np.ones(10), np.full((10, 7), 3.7)])
    out = net.forward(X)
    assert np.allclose(out, out[0])
    perm = np.random.default_rng(0).permutation(10)
    assert np.allclose(net.forward(X[perm]), out[perm])
