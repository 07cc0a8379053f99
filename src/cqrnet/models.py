"""Small neural quantile predictors with hand-written backpropagation.

Families
--------
* LinearQuantileNet: out = eta(x . beta), eta identity or ELU. Column 0 of
  the covariate matrix is the intercept slot (x0 = 1).
* RegularizedLinearNet: adds inverted input dropout (training only) and L2
  weight decay; the intercept slot is exempt from both.
* StackedUnitNet: one hidden layer of k units (tanh/sigmoid/elu/relu) with a
  linear output aggregation; kept behind the same interface but not part of
  the default model lists.
* LstmQuantileNet: a single LSTM cell unrolled over the lag window (scalar
  inputs, oldest lag first) followed by a linear aggregation of the final
  hidden state. One step loop serves evaluation and the recorded training
  pass; each step takes one matmul and one tanh for all four gates (see
  the class docstring for the fused gates and the cache layout).
* TobitNet: the linear mean x . beta of the Tobit latent N(x . beta,
  sigma^2), sigma fixed or learned as log_sigma; `quantile(X, theta)` is
  x . beta + sigma * Phi^{-1}(theta).
* MirrorWrapper: negates inputs and outputs of an inner net, which is how
  right-censored data is handled: `training.fit` fits the inner net on the
  negated, left-censored dataset at level 1 - theta and returns it wrapped.

All nets share the same contract: `forward(X)` for evaluation,
`quantile(X, theta)` for the estimate at a level (a quantile net's output,
trained for its one level; Tobit's mean plus its scaled normal quantile),
`forward_train(X, rng, n_train)` to record the state backprop needs, and
`backward(dpred)` returning parameter gradients for the summed upstream
signal. Gradients include the L2 term where applicable.

A net's saved form (`to_dict`) is its family, its constructor's arguments
and its parameters. The arguments are read back from the attributes of the
same name (`_Net.config`), and the activation pair is looked up by name at
call time, so a net holds only plain data and pickles as it is.

One pass serves a training epoch: `forward_train` records and drops out
only the first `n_train` rows (training rows stacked on validation rows)
and evaluates the rest as `forward`, the same pass, would. Elementwise work
runs once; each matmul is split at the boundary (`_matmul_rows`).

The sigmoid is computed as 0.5 + 0.5 * tanh(z / 2): it needs no branch on
the sign of z, stays finite in both tails and agrees with 1 / (1 + e^-z)
to within 2.2e-16.
"""

from __future__ import annotations

import inspect

import numpy as np

from .datagen import mirror_covariates
from .normal import std_normal_quantile

__all__ = [
    "LinearQuantileNet",
    "RegularizedLinearNet",
    "StackedUnitNet",
    "LstmQuantileNet",
    "TobitNet",
    "MirrorWrapper",
    "init_weights",
    "net_from_dict",
]


def _elu(z):
    return np.where(z > 0.0, z, np.expm1(z))


def _elu_deriv(z):
    return np.where(z > 0.0, 1.0, np.exp(np.minimum(z, 0.0)))


def _sigmoid(z):
    # tanh form: finite in both tails, no branch on the sign of z
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(z, dtype=float))


_ACTIVATIONS = {
    "identity": (lambda z: z, lambda z: np.ones_like(z)),
    "elu": (_elu, _elu_deriv),
    "tanh": (np.tanh, lambda z: 1.0 - np.tanh(z) ** 2),
    "sigmoid": (_sigmoid, lambda z: (s := _sigmoid(z)) * (1.0 - s)),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
}


def _matmul_rows(A, B, n, out=None):
    """A @ B, rows [:n] and [n:] of A in separate calls when 0 < n < len(A):
    BLAS sums in an order set by the row count, so each block keeps the
    bits of its own call. (`np.dot` writes to `out` faster than matmul.)"""
    out = np.empty(A.shape[:1] + B.shape[1:]) if out is None else out
    if 0 < n < A.shape[0]:
        np.dot(A[:n], B, out=out[:n])
        np.dot(A[n:], B, out=out[n:])
    else:
        np.dot(A, B, out=out)
    return out


class _Net:
    """Shared plumbing: parameter dict, cache handling, serialization."""

    family = "base"
    param_order: tuple

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self._cache = None

    # -- evaluation / training forward ------------------------------------
    def forward(self, X):
        """Outputs for every row of X; records nothing."""
        return self._pass(self._check(X), 0)

    def forward_train(self, X, rng=None, n_train=None):
        """Outputs for every row of X; the first `n_train` (all by default) are recorded."""
        X = self._check(X)
        return self._pass(X, X.shape[0] if n_train is None else n_train)

    def quantile(self, X, theta):
        """Outputs at level theta: a quantile net is trained for its one level."""
        return self.forward(X)

    def _check(self, X):
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"covariates must have shape (n, {self.dim}), got {X.shape}")
        return X

    def _require_cache(self):
        if self._cache is None:
            raise RuntimeError("backward called without a recorded forward pass")
        return self._cache

    def l2_penalty(self) -> float:
        return 0.0

    # -- housekeeping ------------------------------------------------------
    def copy(self):
        import copy as _copy

        dup = _copy.copy(self)
        dup.params = {k: v.copy() for k, v in self.params.items()}
        dup._cache = None
        return dup

    def config(self) -> dict:
        """The constructor's arguments, read back from the attributes of the same name."""
        names = list(inspect.signature(type(self).__init__).parameters)[1:]
        return {name: getattr(self, name) for name in names}

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "config": self.config(),
            "params": {k: self.params[k].tolist() for k in self.param_order},
        }

    def _load_params(self, params: dict):
        for k in self.param_order:
            arr = np.asarray(params[k], dtype=float)
            if arr.shape != self.params[k].shape:
                raise ValueError(f"parameter {k} has shape {arr.shape}, expected {self.params[k].shape}")
            self.params[k] = arr


class LinearQuantileNet(_Net):
    """Single neuron: out = eta(x . beta)."""

    family = "linear"
    param_order = ("beta",)

    def __init__(self, dim, activation="identity"):
        super().__init__()
        if activation not in ("identity", "elu"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.dim = int(dim)
        self.activation = activation
        self.params = {"beta": np.zeros(self.dim)}

    # bound on the class itself: perfbench wraps these two by class
    forward, forward_train = _Net.forward, _Net.forward_train

    def _pass(self, X, n):
        z = _matmul_rows(X, self.params["beta"], n)
        if n:
            self._cache = (X[:n], z[:n])
        return _ACTIVATIONS[self.activation][0](z)

    def backward(self, dpred):
        X, z = self._require_cache()
        dz = np.asarray(dpred, dtype=float)
        if self.activation != "identity":
            dz = dz * _ACTIVATIONS[self.activation][1](z)
        return {"beta": X.T @ dz}


class RegularizedLinearNet(LinearQuantileNet):
    """Linear neuron with inverted input dropout and L2 weight decay.

    Dropout multiplies each retained non-intercept input by 1/(1 - rate)
    during training and is the identity at evaluation. The decay term adds
    l2_coeff * beta to the weight gradient, intercept excluded.
    """

    family = "reg_linear"

    def __init__(self, dim, activation="identity", dropout_rate=0.2, l2_coeff=1e-3):
        super().__init__(dim, activation)
        if not 0.0 <= dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        if l2_coeff < 0.0:
            raise ValueError(f"l2_coeff must be nonnegative, got {l2_coeff}")
        self.dropout_rate = float(dropout_rate)
        self.l2_coeff = float(l2_coeff)

    def forward_train(self, X, rng=None, n_train=None, dropout_mask=None):
        X = self._check(X)
        n = X.shape[0] if n_train is None else n_train
        if dropout_mask is None and self.dropout_rate > 0.0:
            if rng is None:
                raise ValueError("training forward with dropout needs an rng or an explicit mask")
            keep = rng.random((n, self.dim - 1)) >= self.dropout_rate
            dropout_mask = keep / (1.0 - self.dropout_rate)
        if dropout_mask is not None:
            X = X.copy()
            X[:n, 1:] = X[:n, 1:] * dropout_mask
        return self._pass(X, n)

    def backward(self, dpred):
        grads = super().backward(dpred)
        decay = self.l2_coeff * self.params["beta"]
        decay[0] = 0.0
        grads["beta"] = grads["beta"] + decay
        return grads

    def l2_penalty(self) -> float:
        beta = self.params["beta"]
        return 0.5 * self.l2_coeff * float(np.sum(beta[1:] ** 2))


class StackedUnitNet(_Net):
    """One hidden layer of `units` nonlinear neurons, linear aggregation."""

    family = "stacked"
    param_order = ("w_hidden", "w_out", "b_out")

    def __init__(self, dim, units=1, activation="tanh", l2_coeff=0.0):
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unsupported activation {activation!r}")
        self.dim = int(dim)
        self.units = int(units)
        self.activation = activation
        self.l2_coeff = float(l2_coeff)
        self.params = {
            "w_hidden": np.zeros((self.units, self.dim)),
            "w_out": np.zeros(self.units),
            "b_out": np.zeros(1),
        }

    def _pass(self, X, n):
        z1 = _matmul_rows(X, self.params["w_hidden"].T, n)
        hidden = _ACTIVATIONS[self.activation][0](z1)
        if n:
            self._cache = (X[:n], z1[:n], hidden[:n])
        return _matmul_rows(hidden, self.params["w_out"], n) + self.params["b_out"][0]

    def backward(self, dpred):
        X, z1, hidden = self._require_cache()
        d = np.asarray(dpred, dtype=float)
        dhidden = d[:, None] * self.params["w_out"][None, :]
        dz1 = dhidden * _ACTIVATIONS[self.activation][1](z1)
        grads = {
            "w_hidden": dz1.T @ X,
            "w_out": hidden.T @ d,
            "b_out": np.array([d.sum()]),
        }
        if self.l2_coeff > 0.0:
            grads["w_hidden"] = grads["w_hidden"] + self.l2_coeff * self.params["w_hidden"]
            grads["w_out"] = grads["w_out"] + self.l2_coeff * self.params["w_out"]
        return grads

    def l2_penalty(self) -> float:
        if self.l2_coeff == 0.0:
            return 0.0
        return 0.5 * self.l2_coeff * float(
            np.sum(self.params["w_hidden"] ** 2) + np.sum(self.params["w_out"] ** 2)
        )


class LstmQuantileNet(_Net):
    """LSTM over the scalar lag sequence, then linear output aggregation.

    Covariate rows follow the lag-matrix convention (intercept slot first,
    then lags newest-first); the recurrence consumes the lags oldest-first.
    Gate order in the stacked parameters is (input, forget, output,
    candidate); sigmoid gates, tanh candidate and cell output.

    Each step computes all four gates with one matmul and one tanh. Step
    t multiplies the row [h_{t-1}, x_t, 1] by the stacked weights
    [w_h^T; w_x; b] of shape (h + 2, 4h), whose columns are scaled by s:
    1/2 for the sigmoid gates, 1 for the candidate. Each gate is then
    s * tanh(s * z) + 1 - s, which is sigmoid(z) for s = 1/2 and tanh(z)
    for s = 1. `forward` and `forward_train` run the same loop (`_pass`)
    over state arrays for all rows; a training pass keeps their first n
    rows (the gates as a contiguous copy, which `backward` reads faster).
    The cache over n rows and T lags holds:

    * rows (T + 1, n, h + 2): [h_{t-1}, x_t, 1] for each step; the hidden
      part of the last slot is the final hidden state;
    * gates (T, n, 4h): the gate activations in gate order;
    * cs (T + 1, n, h): the cell states, from the zero initial state on;
    * tanh_cs (T, n, h): tanh of each step's new cell state;
    * scale (n, 4h): s repeated over the rows.

    `backward` writes each step's pre-activation gradients into one
    (T, n, 4h) buffer, and one contraction of that buffer with `rows`
    gives the w_h, w_x and b gradients together.
    """

    family = "lstm"
    param_order = ("w_x", "w_h", "b", "w_out", "b_out")

    def __init__(self, lags=7, hidden_size=8, output_bias=True, intercept_column=True):
        super().__init__()
        self.lags = int(lags)
        self.hidden_size = int(hidden_size)
        if self.lags < 1 or self.hidden_size < 1:
            raise ValueError("lags and hidden_size must be positive")
        self.output_bias = bool(output_bias)
        self.intercept_column = bool(intercept_column)
        h = self.hidden_size
        self.params = {
            "w_x": np.zeros(4 * h),
            "w_h": np.zeros((4 * h, h)),
            "b": np.zeros(4 * h),
            "w_out": np.zeros(h),
            "b_out": np.zeros(1),
        }
        # per-column gate scale s; then d gate / dz = (gate - (1 - 2s)) * (1 - gate)
        self._gate_scale = np.repeat([0.5, 0.5, 0.5, 1.0], h)

    @property
    def dim(self):
        return self.lags + (1 if self.intercept_column else 0)

    # bound on the class itself: perfbench wraps these two by class
    forward, forward_train = _Net.forward, _Net.forward_train

    def _pass(self, X, n):
        lag_cols = X[:, 1:] if self.intercept_column else X
        # lag columns are newest-first; the recurrence runs oldest-first,
        # so row t of the (T, rows) sequence is step t
        seq = lag_cols[:, ::-1].T
        steps, n_rows = seq.shape
        hsz = self.hidden_size
        # step t multiplies the row [h_{t-1}, x_t, 1] by the stacked weights
        weights = np.vstack([self.params["w_h"].T, self.params["w_x"], self.params["b"]]) * self._gate_scale
        rows = np.empty((steps + 1, n_rows, hsz + 2))
        rows[0, :, :hsz] = 0.0
        rows[:-1, :, hsz] = seq
        rows[:, :, hsz + 1] = 1.0
        scale = np.broadcast_to(self._gate_scale, (n_rows, 4 * hsz)).copy()
        shift = 1.0 - scale
        gates = np.empty((steps, n_rows, 4 * hsz))
        cs = np.zeros((steps + 1, n_rows, hsz))
        tanh_cs = np.empty((steps, n_rows, hsz))
        for row, h, g, c_prev, c, tanh_c in zip(rows, rows[1:, :, :hsz], gates, cs, cs[1:], tanh_cs):
            _matmul_rows(row, weights, n, out=g)
            np.tanh(g, out=g)
            g *= scale
            g += shift
            np.multiply(g[:, hsz : 2 * hsz], c_prev, out=c)
            c += g[:, :hsz] * g[:, 3 * hsz :]
            np.multiply(g[:, 2 * hsz : 3 * hsz], np.tanh(c, out=tanh_c), out=h)
        if n:
            self._cache = (rows[:, :n], np.ascontiguousarray(gates[:, :n]), cs[:, :n], tanh_cs[:, :n], scale[:n])
        out = _matmul_rows(rows[-1, :, :hsz], self.params["w_out"], n)
        if self.output_bias:
            out += self.params["b_out"][0]
        return out

    def backward(self, dpred):
        rows, gates, cs, tanh_cs, scale = self._require_cache()
        d = np.asarray(dpred, dtype=float)
        steps, n, width = gates.shape
        hsz = self.hidden_size
        grads = {"w_out": rows[-1, :, :hsz].T @ d, "b_out": np.zeros(1)}
        if self.output_bias:
            grads["b_out"] = np.array([d.sum()])
        gi, gf, go, gc = (gates[:, :, k * hsz : (k + 1) * hsz] for k in range(4))
        # g(1 - g) for the sigmoid gates, (1 + g)(1 - g) for the candidate
        dgates = (gates - (1.0 - 2.0 * scale)) * (1.0 - gates)
        dtanh = go * (1.0 - tanh_cs**2)
        dz_all = np.empty(gates.shape)
        w_h = self.params["w_h"]
        dh = d[:, None] * self.params["w_out"][None, :]
        dc = np.zeros_like(dh)
        for t in range(steps - 1, -1, -1):
            dz = dz_all[t]
            dc = dc + dh * dtanh[t]
            np.multiply(dc, gc[t], out=dz[:, :hsz])
            np.multiply(dc, cs[t], out=dz[:, hsz : 2 * hsz])
            np.multiply(dh, tanh_cs[t], out=dz[:, 2 * hsz : 3 * hsz])
            np.multiply(dc, gi[t], out=dz[:, 3 * hsz :])
            dz *= dgates[t]
            dh = dz @ w_h
            dc = dc * gf[t]
        # one contraction over steps and rows for w_h, w_x and b together
        stacked = dz_all.reshape(steps * n, width).T @ rows[:-1].reshape(steps * n, hsz + 2)
        grads["w_h"] = stacked[:, :hsz]
        grads["w_x"] = stacked[:, hsz]
        grads["b"] = stacked[:, hsz + 1]
        return grads


class TobitNet(LinearQuantileNet):
    """Linear mean model carrying the scale for the Tobit likelihood."""

    family = "tobit"

    def __init__(self, dim, sigma=1.0, estimate_sigma=False):
        super().__init__(dim, activation="identity")
        if not (np.isfinite(sigma) and sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        self.sigma = float(sigma)
        self.estimate_sigma = bool(estimate_sigma)
        if estimate_sigma:
            self.param_order = ("beta", "log_sigma")
            self.params["log_sigma"] = np.array([np.log(self.sigma)])

    def current_sigma(self) -> float:
        if self.estimate_sigma:
            return float(np.exp(self.params["log_sigma"][0]))
        return self.sigma

    # bound here for perfbench; a learned log_sigma's gradient comes from losses.TobitLoss
    backward = LinearQuantileNet.backward

    def quantile(self, X, theta):
        """q_theta(y*|x) = x . beta + sigma * Phi^{-1}(theta); the interval
        width between two levels is the same for every row."""
        if theta is None:
            raise ValueError("a Tobit quantile needs a level theta")
        return self._check(X) @ self.params["beta"] + self.current_sigma() * std_normal_quantile(theta)


class MirrorWrapper(_Net):
    """Negate-and-mirror view of an inner net for right-censored data.

    predict(x; theta) = -inner.predict(-x; 1-theta); the training pipeline
    fits the inner net on the negated (left-censored) dataset, so this
    wrapper only has to mirror evaluation. Inputs are mirrored as the
    dataset's covariates are (`datagen.mirror_covariates`): the intercept
    slot keeps its +1 convention and is not negated.
    """

    family = "mirror"
    param_order = ()

    def __init__(self, inner):
        self.inner = inner

    @property
    def params(self):
        return self.inner.params

    def forward(self, X):
        return -self.inner.forward(mirror_covariates(X))

    def forward_train(self, X, rng=None):
        raise RuntimeError(
            "MirrorWrapper is an evaluation view; train the inner net on the mirrored dataset instead"
        )

    def backward(self, dpred):
        raise RuntimeError("MirrorWrapper does not backpropagate; train the inner net")

    def copy(self):
        return MirrorWrapper(self.inner.copy())

    def to_dict(self):
        # the saved form records the intercept convention; every mirror keeps column 0
        return {"family": self.family, "config": {"intercept_column": True}, "inner": self.inner.to_dict()}


def init_weights(net, scheme, seed=None):
    """Initialize parameters in place and return the net.

    scheme "ones" fills every parameter with 1; "standard_normal" draws
    each parameter i.i.d. N(0,1) from a generator seeded with `seed`,
    except the LSTM recurrent matrix which is scaled by 1/sqrt(hidden)
    to keep the unrolled cell trainable. A learned Tobit scale keeps the
    constructor's sigma; it is last in `param_order`, so no draw moves.
    """
    names = [name for name in net.param_order if name != "log_sigma"]
    if scheme == "ones":
        for name in names:
            net.params[name] = np.ones_like(net.params[name])
    elif scheme == "standard_normal":
        rng = np.random.default_rng(seed)
        for name in names:
            draw = rng.standard_normal(net.params[name].shape)
            if name == "w_h":
                draw = draw / np.sqrt(net.hidden_size)
            net.params[name] = draw
    else:
        raise ValueError(f"unknown init scheme {scheme!r}")
    return net


_FAMILIES = {
    "linear": LinearQuantileNet,
    "reg_linear": RegularizedLinearNet,
    "stacked": StackedUnitNet,
    "lstm": LstmQuantileNet,
    "tobit": TobitNet,
}


def net_from_dict(payload):
    """Rebuild a net of any family from its to_dict() document."""
    family = payload["family"]
    if family == "mirror":
        return MirrorWrapper(net_from_dict(payload["inner"]))
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown net family {family!r}") from None
    net = cls(**payload["config"])
    net._load_params(payload["params"])
    return net
