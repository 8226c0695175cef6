"""Minimal feed-forward network engine on numpy.

Configurable MLPs with ReLU hidden layers and a sigmoid or linear
output, exact analytic backpropagation for BCE/MSE, Adam updates, and a
deterministic mini-batch training loop with a held-out validation
split. Parameters, gradients and Adam moments share one flat layout
(MlpParams.flat), so an Adam step is one vectorized pass. Everything is
a pure function of its inputs and seed; training never mutates your
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericalError, undecodable_is_data_error
from .linalg import read_rows, write_rows

HIDDEN_ACTIVATIONS = ("relu",)
OUTPUT_ACTIVATIONS = ("sigmoid", "linear")

# Clamp for BCE so log(0) can never occur.
BCE_CLAMP = 1e-12

# Adam defaults; the learning rate follows the training setup, the
# moment decays and epsilon are the optimizer's canonical constants.
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class MlpConfig:
    """Network shape: layer widths from input to output, activations,
    and which layer is the encoder output (latent)."""

    layer_widths: tuple[int, ...]
    output_activation: str
    latent_index: int
    hidden_activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        if len(self.layer_widths) < 3:
            raise ConfigError("an MLP needs at least input, one hidden, and output layers")
        if any(w < 1 for w in self.layer_widths):
            raise ConfigError(f"layer widths must be >= 1, got {self.layer_widths}")
        if not 0 < self.latent_index < len(self.layer_widths) - 1:
            raise ConfigError(
                f"latent_index {self.latent_index} must name a hidden layer "
                f"(1..{len(self.layer_widths) - 2})"
            )
        if self.hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ConfigError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in OUTPUT_ACTIVATIONS:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")

    @property
    def n_layers(self) -> int:
        """Number of weight layers (connections), not counting the input."""
        return len(self.layer_widths) - 1

    @property
    def n_params(self) -> int:
        """Number of weights and biases over all layers."""
        w = self.layer_widths
        return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(w[:-1], w[1:]))

    def loss_kind(self) -> str:
        """The loss paired with the output activation: sigmoid <-> bce,
        linear <-> mse."""
        return "bce" if self.output_activation == "sigmoid" else "mse"


@dataclass
class MlpParams:
    """Per-layer weight matrices (in x out) and bias vectors.

    Every weight and bias is a view into `flat`, one contiguous float64
    buffer laid out layer by layer (row-major weights, then bias).
    backward() returns gradients in this same layout, so an Adam step
    updates all parameters in one vectorized pass. Writing into a view
    writes into `flat`; rebinding a list entry does not.
    """

    config: MlpConfig
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape != (self.config.n_params,) or self.flat.dtype != np.float64:
            raise ConfigError(
                f"parameter buffer must be float64 of shape ({self.config.n_params},), "
                f"got {self.flat.dtype} {self.flat.shape}"
            )
        self.weights, self.biases = [], []
        at = 0
        widths = self.config.layer_widths
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.weights.append(self.flat[at : at + fan_in * fan_out].reshape(fan_in, fan_out))
            at += fan_in * fan_out
            self.biases.append(self.flat[at : at + fan_out])
            at += fan_out

    def copy(self) -> "MlpParams":
        return MlpParams(config=self.config, flat=self.flat.copy())


@dataclass
class AdamState:
    """First/second moment accumulators over a flat parameter vector,
    the step count, and the learning rate."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = ADAM_LR

    @classmethod
    def for_params(cls, params: MlpParams, lr: float = ADAM_LR) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


@dataclass
class ForwardCache:
    """Pre-activations z[l] and post-activations a[l] per layer;
    activations[0] is the input batch."""

    pre: list[np.ndarray]
    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


@dataclass
class TrainHistory:
    """Per-epoch training and validation losses. val_loss is empty when
    no validation rows were held out."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_loss,val_loss\n")
            for i, tr in enumerate(self.train_loss):
                val = f"{self.val_loss[i]:.17g}" if i < len(self.val_loss) else ""
                fh.write(f"{i + 1},{tr:.17g},{val}\n")


def init_params(config: MlpConfig, seed: int) -> MlpParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    params = MlpParams(config=config, flat=np.zeros(config.n_params))
    for W in params.weights:
        fan_in, fan_out = W.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return params


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # min(z, -z) = -|z|, so exp cannot overflow: e is exp(-z) where
    # z >= 0 and exp(z) elsewhere, the stable form for each sign. min
    # returns a NaN z itself, keeping its sign bit (-abs would flip it).
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_input(config: MlpConfig, X) -> np.ndarray:
    """X as a finite float64 batch of the network's input width."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigError("X must be 2-D (batch x features)")
    if not np.isfinite(X).all():
        raise DataError("network input contains non-finite values")
    if X.shape[1] != config.layer_widths[0]:
        raise ConfigError(
            f"input width {X.shape[1]} != network input width {config.layer_widths[0]}"
        )
    return X


def forward(params: MlpParams, X) -> ForwardCache:
    """Run the network on a batch, keeping every layer's values for
    backpropagation."""
    return _forward(params, _check_input(params.config, X))


def _forward(params: MlpParams, X: np.ndarray) -> ForwardCache:
    """forward() on a batch already checked by _check_input()."""
    cfg = params.config
    pre, acts = [], [X]
    a = X
    last = cfg.n_layers - 1
    for l, (W, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ W + b
        pre.append(z)
        if l < last:
            a = np.maximum(z, 0.0)
        elif cfg.output_activation == "sigmoid":
            a = _sigmoid(z)
        else:
            a = z
        acts.append(a)
    return ForwardCache(pre=pre, activations=acts)


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ConfigError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")


def bce_loss(pred, target) -> float:
    """Mean binary cross-entropy over all entries, with predictions
    clamped to [BCE_CLAMP, 1 - BCE_CLAMP]."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_shapes(pred, target)
    return _bce(pred, target)


def _bce(pred: np.ndarray, target: np.ndarray) -> float:
    p = np.clip(pred, BCE_CLAMP, 1.0 - BCE_CLAMP)
    return float(-np.mean(target * np.log(p) + (1.0 - target) * np.log1p(-p)))


def mse_loss(pred, target) -> float:
    """Mean squared error over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_shapes(pred, target)
    return _mse(pred, target)


def _mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def backward(params: MlpParams, cache: ForwardCache, target, loss_kind: str) -> MlpParams:
    """Exact gradients of the scalar loss w.r.t. every weight and bias,
    in the parameters' layout: grads.weights[l] is dL/dW[l].

    loss_kind must match the output activation: 'bce' with sigmoid,
    'mse' with linear.
    """
    cfg = params.config
    if loss_kind != cfg.loss_kind():
        raise ConfigError(
            f"loss {loss_kind!r} does not match output activation "
            f"{cfg.output_activation!r}"
        )
    target = np.asarray(target, dtype=np.float64)
    out = cache.output
    _check_shapes(out, target)
    batch, out_dim = out.shape
    scale = 1.0 / (batch * out_dim)
    # For both sigmoid+BCE and linear+MSE the output-layer delta
    # collapses to (prediction - target) times the mean-loss scale
    # (MSE carries its factor 2).
    if loss_kind == "bce":
        delta = (out - target) * scale
    else:
        delta = 2.0 * (out - target) * scale

    grads = MlpParams(config=cfg, flat=np.empty(cfg.n_params))
    for l in range(cfg.n_layers - 1, -1, -1):
        np.matmul(cache.activations[l].T, delta, out=grads.weights[l])
        delta.sum(axis=0, out=grads.biases[l])
        if l > 0:
            delta = (delta @ params.weights[l].T) * (cache.pre[l - 1] > 0)
    return grads


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState):
    """One Adam update with bias correction, fused over the flat
    parameter buffer, with grads as backward() returns them. Parameters
    and state are updated in place and returned."""
    if grads.config.layer_widths != params.config.layer_widths:
        raise ConfigError("gradient layout does not match the parameter layout")
    _adam_update(params.flat, grads.flat, state)
    return params, state


def _adam_update(theta: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam step on the flat vector theta, in place,
    with g its gradient and state its moments."""
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    # Operation order is part of the result: (1 - b2) * g * g and
    # (1 - b2) * g**2 round differently, and models are byte-compared.
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    theta -= state.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def train(
    config: MlpConfig,
    X,
    Y,
    *,
    epochs: int,
    batch_size: int,
    val_fraction: float,
    seed: int,
    lr: float = ADAM_LR,
) -> tuple[MlpParams, TrainHistory]:
    """Mini-batch Adam training with a validation split held out before
    any training step.

    The epoch training loss is the row-weighted mean of the mini-batch
    losses (equals the loss over all training rows visited that epoch);
    the validation loss is evaluated on frozen parameters at each epoch
    end. Deterministic given the seed. A non-finite loss aborts with a
    diagnostic instead of propagating NaNs.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ConfigError("X and Y must be 2-D with equal row counts")
    if Y.shape[1] != config.layer_widths[-1]:
        raise ConfigError(
            f"target width {Y.shape[1]} != network output width {config.layer_widths[-1]}"
        )
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    # Checked once here: every batch below is a row subset of X, so the
    # loop runs the unchecked forward pass and loss.
    X = _check_input(config, X)
    n = X.shape[0]
    loss_fn = _bce if config.loss_kind() == "bce" else _mse

    params = init_params(config, seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = int(round(val_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if batch_size > train_idx.size:
        raise ConfigError(
            f"batch_size {batch_size} exceeds the {train_idx.size} training rows"
        )
    X_val, Y_val = X[val_idx], Y[val_idx]

    history = TrainHistory()
    state = AdamState.for_params(params, lr=lr)
    for epoch in range(epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        total, seen = 0.0, 0
        for lo in range(0, order.size, batch_size):
            batch = order[lo : lo + batch_size]
            Y_batch = Y[batch]
            cache = _forward(params, X[batch])
            loss = loss_fn(cache.output, Y_batch)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}, "
                    f"batch starting at row {lo}"
                )
            total += loss * batch.size
            seen += batch.size
            grads = backward(params, cache, Y_batch, config.loss_kind())
            adam_step(params, grads, state)
        history.train_loss.append(total / seen)
        if n_val > 0:
            val = loss_fn(_forward(params, X_val).output, Y_val)
            if not np.isfinite(val):
                raise NumericalError(
                    f"training diverged: non-finite validation loss at epoch {epoch + 1}"
                )
            history.val_loss.append(val)
    return params, history


MODEL_FORMAT = "tabfair-mlp 1"


def save_mlp(path, params: MlpParams) -> None:
    """Persist a network as text (17 significant digits, exact round-trip)."""
    cfg = params.config
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MODEL_FORMAT + "\n")
        fh.write("widths " + " ".join(str(w) for w in cfg.layer_widths) + "\n")
        fh.write(f"hidden_activation {cfg.hidden_activation}\n")
        fh.write(f"output_activation {cfg.output_activation}\n")
        fh.write(f"latent_index {cfg.latent_index}\n")
        for l, (W, b) in enumerate(zip(params.weights, params.biases)):
            fh.write(f"layer {l} weight {W.shape[0]} {W.shape[1]}\n")
            write_rows(fh, W)
            fh.write(f"layer {l} bias {b.shape[0]}\n")
            write_rows(fh, b[None, :])


def load_mlp(path) -> MlpParams:
    """Load a network written by save_mlp(). A truncated or malformed
    file, or one that is not UTF-8 text, is a DataError."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh, undecodable_is_data_error(path):
        if fh.readline() != MODEL_FORMAT + "\n":
            raise DataError(f"{path}: not a {MODEL_FORMAT!r} file")

        def fields(key: str) -> list[str]:
            parts = fh.readline().split()
            if not parts or parts[0] != key:
                raise DataError(f"{path}: expected a {key!r} line")
            return parts[1:]

        def expect(line: str) -> None:
            if fh.readline() != line + "\n":
                raise DataError(f"{path}: expected {line!r}")

        # A cut header line runs out of fields (IndexError) or leaves a
        # bad number (ValueError) or an invalid shape (ConfigError).
        try:
            widths = tuple(int(w) for w in fields("widths"))
            hidden = fields("hidden_activation")[0]
            output = fields("output_activation")[0]
            latent = int(fields("latent_index")[0])
            config = MlpConfig(
                layer_widths=widths,
                output_activation=output,
                latent_index=latent,
                hidden_activation=hidden,
            )
        except (IndexError, ValueError, ConfigError) as exc:
            raise DataError(f"{path}: truncated or malformed model file: {exc}") from exc
        weights, biases = [], []
        for l, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            expect(f"layer {l} weight {fan_in} {fan_out}")
            weights.append(read_rows(fh, fan_in, fan_out, f"{path}: layer {l} weight"))
            expect(f"layer {l} bias {fan_out}")
            biases.append(read_rows(fh, 1, fan_out, f"{path}: layer {l} bias")[0])
    # Every block is read and size-checked before the buffer exists, so
    # a corrupt size line is refused rather than allocated.
    flat = np.concatenate([t.ravel() for pair in zip(weights, biases) for t in pair])
    return MlpParams(config=config, flat=flat)
