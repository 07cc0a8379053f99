"""Small neural quantile predictors with hand-written backpropagation.

Families
--------
* LinearQuantileNet: out = eta(x . beta), eta identity or ELU. Column 0 of
  the covariate matrix is the intercept slot (x0 = 1).
* RegularizedLinearNet: the identity neuron plus inverted input dropout
  (training only) and L2 weight decay; the intercept slot is exempt from
  both.
* StackedUnitNet: one hidden layer of k units (tanh/sigmoid/elu/relu) with a
  linear output aggregation and no weight decay; kept behind the same
  interface but not part of the default model lists.
* LstmQuantileNet: a single LSTM cell unrolled over the lag window (scalar
  inputs, oldest lag first) followed by a linear aggregation of the final
  hidden state plus an output bias. Its rows carry the intercept slot like
  every other family's; the cell reads only the lag columns after it. One
  step loop serves evaluation and the recorded training pass; each step
  takes one stacked matmul and one tanh for all four gates, held
  gate-major so that every elementwise op runs on a contiguous block. A
  training pass reuses its state buffers while the row counts stay the
  same (see the class docstring for the fused gates and the buffers).
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
`net_from_dict` takes exactly those keys: a document with another set
(one saved under another format) is a ValueError naming the keys.

One pass serves a training epoch: `forward_train` records and drops out
only the first `n_train` rows (training rows stacked on validation rows)
and evaluates the rest as `forward`, the same pass, would. Elementwise work
runs once; each matmul is split at the boundary (`_matmul_rows`). A linear
net keeps its training pass's row blocks and output buffer while X and
n_train stay the same, so the result of `forward_train` lives until the
next training pass; `forward` always returns fresh arrays.

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


def _matmul_rows(A, B, n):
    """A @ B, rows [:n] and [n:] of A in separate calls when 0 < n < len(A):
    BLAS sums in an order set by the row count, so each block keeps the
    bits of its own call. (`np.dot` writes to `out` faster than matmul.)"""
    out = np.empty(A.shape[:1] + B.shape[1:])
    if 0 < n < A.shape[0]:
        np.dot(A[:n], B, out=out[:n])
        np.dot(A[n:], B, out=out[n:])
    else:
        np.dot(A, B, out=out)
    return out


def _arg_names(cls):
    """The constructor's argument names: the keys of a saved net's config."""
    return list(inspect.signature(cls.__init__).parameters)[1:]


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
        return {name: getattr(self, name) for name in _arg_names(type(self))}

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
        if not n:
            return _ACTIVATIONS[self.activation][0](_matmul_rows(X, self.params["beta"], 0))
        # a training pass over the same X and n reuses its row blocks and output buffer
        if self._cache is None or self._cache[0] is not X or self._cache[1] != n:
            z = np.empty(X.shape[0])
            self._cache = (X, n, X[:n], X[n:], X[:n].T, z, z[:n], z[n:])
        _, _, head, tail, _, z, z_head, z_tail = self._cache
        np.dot(head, self.params["beta"], out=z_head)
        np.dot(tail, self.params["beta"], out=z_tail)
        return _ACTIVATIONS[self.activation][0](z)

    def backward(self, dpred):
        _, _, _, _, head_t, _, z_head, _ = self._require_cache()
        if self.activation != "identity":
            dpred = dpred * _ACTIVATIONS[self.activation][1](z_head)
        return {"beta": head_t @ dpred}


class RegularizedLinearNet(LinearQuantileNet):
    """Linear neuron with inverted input dropout and L2 weight decay.

    Dropout multiplies each retained non-intercept input by 1/(1 - rate)
    during training and is the identity at evaluation. The decay term adds
    l2_coeff * beta to the weight gradient, intercept excluded.
    """

    family = "reg_linear"

    def __init__(self, dim, dropout_rate=0.2, l2_coeff=1e-3):
        super().__init__(dim)
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

    def __init__(self, dim, units=1, activation="tanh"):
        super().__init__()
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unsupported activation {activation!r}")
        self.dim = int(dim)
        self.units = int(units)
        self.activation = activation
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
        return {
            "w_hidden": dz1.T @ X,
            "w_out": hidden.T @ d,
            "b_out": np.array([d.sum()]),
        }


class LstmQuantileNet(_Net):
    """LSTM over the scalar lag sequence, then linear output aggregation.

    Covariate rows follow the lag-matrix convention (intercept slot first,
    then lags newest-first); the recurrence consumes the lags oldest-first.
    Gate order in the stacked parameters is (input, forget, output,
    candidate); sigmoid gates, tanh candidate and cell output.

    Each step computes all four gates with one stacked matmul and one tanh:
    the row [h_{t-1}, x_t, 1] times the stacked weights [w_h^T; w_x; b],
    whose sigmoid columns are scaled by 1/2, viewed gate-major as
    (4, h + 2, h). A sigmoid gate is then 0.5 * tanh(z / 2) + 0.5, and the
    candidate tanh(z) + 0.0 (the shift turns a -0.0 into +0.0). `forward`
    and `forward_train` run the same loop (`_pass`), whose elementwise ops
    all act on contiguous (rows, h) or (3, rows, h) blocks. The buffers
    over T lags, of which `backward` reads the first n rows, are:

    * rows (T + 1, rows, h + 2): [h_{t-1}, x_t, 1] for each step; the
      hidden part of the last slot is the final hidden state;
    * gates (T, 4, rows, h): the gate activations, gate-major;
    * cs (T + 1, rows, h) and tanh_cs (T, rows, h): the cell states from
      the zero initial state on, and tanh of each new one;
    * dz (T, n, 4h), row-major, dgates (T, 4, n, h) and dtanh (T, n, h).

    They and their per-step views are built once per (rows, n) and kept
    in the cache, so a training pass of the same shape reuses them and
    `copy` drops them; `forward` builds its own and keeps none.

    `backward` writes each step's four gate products into one (4, n, h)
    block and multiplies it by the gate derivatives straight into dz's
    row-major step slot. The orientation of dz sets the last bit of
    `dz @ w_h` and of the one contraction of dz with `rows` that gives the
    w_h, w_x and b gradients together, so both keep the row-major operands.
    """

    family = "lstm"
    param_order = ("w_x", "w_h", "b", "w_out", "b_out")

    def __init__(self, lags=7, hidden_size=8):
        super().__init__()
        self.lags = int(lags)
        self.hidden_size = int(hidden_size)
        if self.lags < 1 or self.hidden_size < 1:
            raise ValueError("lags and hidden_size must be positive")
        h = self.hidden_size
        self.params = {
            "w_x": np.zeros(4 * h),
            "w_h": np.zeros((4 * h, h)),
            "b": np.zeros(4 * h),
            "w_out": np.zeros(h),
            "b_out": np.zeros(1),
        }

    @property
    def dim(self):
        return self.lags + 1

    # bound on the class itself: perfbench wraps these two by class
    forward, forward_train = _Net.forward, _Net.forward_train

    def _buffers(self, n_rows, n):
        """The state buffers of a pass over n_rows rows that records the
        first n, with the per-step views of both loops (backward's last
        step first)."""
        steps, hsz = self.lags, self.hidden_size
        rows = np.zeros((steps + 1, n_rows, hsz + 2))
        rows[:, :, hsz + 1] = 1.0
        gates = np.empty((steps, 4, n_rows, hsz))
        cs = np.zeros((steps + 1, n_rows, hsz))
        tanh_cs = np.empty((steps, n_rows, hsz))
        dz, dgates, dtanh = np.empty((steps, n, 4 * hsz)), np.empty((steps, 4, n, hsz)), np.empty((steps, n, hsz))
        forward = list(zip(rows[:-1, :n], rows[:-1, n:], gates[:, :, :n], gates[:, :, n:], gates, gates[:, :3],
                           *gates.transpose(1, 0, 2, 3), cs, cs[1:], tanh_cs, rows[1:, :, :hsz]))
        backward = list(zip(dtanh, gates[:, 0, :n], gates[:, 1, :n], gates[:, 3, :n], cs[:-1, :n], tanh_cs[:, :n],
                            dgates, dz, dz.reshape(steps, n, 4, hsz).transpose(0, 2, 1, 3)))[::-1] if n else None
        return (n_rows, n), rows, gates, tanh_cs, dz, dgates, dtanh, np.empty((4, n, hsz)), forward, backward

    def _pass(self, X, n):
        hsz = self.hidden_size
        shape = (X.shape[0], n)
        work = self._cache if n and self._cache is not None and self._cache[0] == shape else self._buffers(*shape)
        rows, forward = work[1], work[-2]
        # lag columns are newest-first; the recurrence runs oldest-first
        rows[:-1, :, hsz] = X[:, :0:-1].T
        weights = np.vstack([self.params["w_h"].T, self.params["w_x"], self.params["b"]])
        weights[:, : 3 * hsz] *= 0.5
        stacked = weights.reshape(hsz + 2, 4, hsz).transpose(1, 0, 2)
        # rows [:n] and [n:] in separate matmuls, as in `_matmul_rows`
        for head, tail, g_head, g_tail, g, sig, gi, gf, go, gc, c_prev, c, tanh_c, h in forward:
            np.matmul(head, stacked, out=g_head)
            np.matmul(tail, stacked, out=g_tail)
            np.tanh(g, out=g)
            sig *= 0.5
            sig += 0.5
            gc += 0.0
            np.multiply(gf, c_prev, out=c)
            c += gi * gc
            np.multiply(go, np.tanh(c, out=tanh_c), out=h)
        if n:
            self._cache = work
        out = _matmul_rows(rows[-1, :, :hsz], self.params["w_out"], n)
        out += self.params["b_out"][0]
        return out

    def backward(self, dpred):
        (_, n), rows, gates, tanh_cs, dz_all, dgates, dtanh, prod, _, backward = self._require_cache()
        d = np.asarray(dpred, dtype=float)
        steps, hsz = self.lags, self.hidden_size
        grads = {"w_out": rows[-1, :n, :hsz].T @ d, "b_out": np.array([d.sum()])}
        g = gates[:, :, :n]
        # d gate / dz: g(1 - g) for the sigmoid gates, (1 + g)(1 - g) for the candidate
        np.subtract(1.0, g, out=dgates)
        dgates[:, :3] *= g[:, :3]
        dgates[:, 3] *= g[:, 3] + 1.0
        np.multiply(g[:, 2], 1.0 - tanh_cs[:, :n] ** 2, out=dtanh)
        w_h = self.params["w_h"]
        dh = d[:, None] * self.params["w_out"][None, :]
        dc = np.zeros_like(dh)
        for dtanh_t, gi, gf, gc, c_prev, tanh_c, dg, dz, dz_gates in backward:
            dc = dc + dh * dtanh_t
            np.multiply(dc, gc, out=prod[0])
            np.multiply(dc, c_prev, out=prod[1])
            np.multiply(dh, tanh_c, out=prod[2])
            np.multiply(dc, gi, out=prod[3])
            np.multiply(prod, dg, out=dz_gates)
            dh = dz @ w_h
            dc = dc * gf
        # one contraction over steps and rows for w_h, w_x and b together
        stacked = dz_all.reshape(steps * n, 4 * hsz).T @ rows[:-1, :n].reshape(steps * n, hsz + 2)
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
        return {"family": self.family, "inner": self.inner.to_dict()}


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


def _check_keys(family, part, got, want):
    unknown, missing = sorted(set(got) - set(want)), sorted(set(want) - set(got))
    if unknown or missing:
        raise ValueError(f"saved {family} net: {part} has unknown keys {unknown} and lacks keys {missing}; "
                         "it was written in another format, so refit it (fit --force)")


def net_from_dict(payload):
    """Rebuild a net of any family from its to_dict() document; a document that
    is no object, or whose keys differ from what `to_dict` writes, is a ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(f"a saved net is a JSON object, not a {type(payload).__name__}")
    family = payload.get("family")
    if family == "mirror":
        _check_keys(family, "the document", payload, ("family", "inner"))
        return MirrorWrapper(net_from_dict(payload["inner"]))
    try:
        cls = _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown net family {family!r}") from None
    _check_keys(family, "the document", payload, ("family", "config", "params"))
    _check_keys(family, "config", payload["config"], _arg_names(cls))
    net = cls(**payload["config"])
    _check_keys(family, "params", payload["params"], net.param_order)
    net._load_params(payload["params"])
    return net
