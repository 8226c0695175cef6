"""Minimal feed-forward network engine on numpy.

Configurable MLPs with ReLU hidden layers and a sigmoid or linear
output, exact analytic backpropagation for BCE/MSE, Adam updates, and a
deterministic mini-batch training loop with a held-out validation
split, which keeps the epoch of lowest validation loss and stops
PATIENCE epochs after it. Parameters, gradients and Adam moments share
one flat layout (MlpParams.flat), so an Adam step is one vectorized
pass. That layout stores each layer as its weights, row-major, then its
bias: a (fan_in + 1) x fan_out block [W; b]. A layer is one GEMM over
it: each layer's input is kept with a trailing ones column, the
pre-activations are z = [a, 1] @ [W; b], and backward() writes
[dW; db] = [a, 1]^T delta into the gradient's block with one product;
extract_latent() runs these layers up to the latent one and no further.
The BCE of the sigmoid network is taken from its logits z, exact
without a clamp. A training run allocates its buffers (layer inputs and
pre-activations, gradient, Adam scratch, the best epoch's parameters)
once and reuses them on every step, with the same operations in the
same order as a fresh computation, so results are bit-identical to it.
Everything is a pure function of its inputs and seed; training never
mutates your data.
"""

from __future__ import annotations

import errno
import math
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError, as_matrix

OUTPUT_ACTIVATIONS = ("sigmoid", "linear")

# Adam defaults; the learning rate follows the training setup, the
# moment decays and epsilon are the optimizer's canonical constants.
ADAM_LR = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# train() stops after this many epochs in a row whose validation loss is
# not strictly below the best so far, and returns the best epoch's
# parameters.
PATIENCE = 10


@dataclass(frozen=True)
class MlpConfig:
    """Network shape: layer widths from input to output, the output
    activation (hidden layers are ReLU), and the latent layer."""

    layer_widths: tuple[int, ...]
    output_activation: str
    latent_index: int

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


@dataclass
class MlpParams:
    """Per-layer blocks [W; b] ((in + 1) x out), weight matrices
    (in x out) and bias vectors.

    Every block, weight and bias is a view into `flat`, one contiguous
    float64 buffer laid out layer by layer (row-major weights, then
    bias), so blocks[l] is weights[l] with biases[l] as its last row.
    backward() returns gradients in this same layout, so an Adam step
    updates all parameters in one vectorized pass. Writing into a view
    writes into `flat`; rebinding a list entry does not.
    """

    config: MlpConfig
    flat: np.ndarray
    blocks: list[np.ndarray] = field(init=False, repr=False)
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape != (self.config.n_params,) or self.flat.dtype != np.float64:
            raise ConfigError(
                f"parameter buffer must be float64 of shape ({self.config.n_params},), "
                f"got {self.flat.dtype} {self.flat.shape}"
            )
        self.blocks = []
        at = 0
        widths = self.config.layer_widths
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            size = (fan_in + 1) * fan_out
            self.blocks.append(self.flat[at : at + size].reshape(fan_in + 1, fan_out))
            at += size
        self.weights = [block[:-1] for block in self.blocks]
        self.biases = [block[-1] for block in self.blocks]


@dataclass
class AdamState:
    """First/second moment accumulators over a flat parameter vector,
    the step count, and the learning rate.

    Two scratch arrays shaped like m, made here, hold an update's
    temporaries, so a step allocates nothing; they carry no state
    between steps."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = ADAM_LR
    scratch: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def for_params(cls, params: MlpParams, lr: float = ADAM_LR) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), lr=lr)


@dataclass
class ForwardCache:
    """Per layer l, its input [a[l], 1] (the activations with a
    trailing ones column; a[0] is the input batch) and its
    pre-activations z[l] = [a[l], 1] @ [W; b]; and the network's output.
    For a sigmoid output, exp_neg_abs is exp(-|z|) of the output
    layer's z, from which both the sigmoid and the BCE are taken."""

    inputs: list[np.ndarray]
    pre: list[np.ndarray]
    output: np.ndarray
    exp_neg_abs: np.ndarray | None = field(default=None, repr=False)

    @property
    def activations(self) -> list[np.ndarray]:
        """a[l] per layer, the input batch first and the output last."""
        return [x[:, :-1] for x in self.inputs] + [self.output]


@dataclass
class TrainHistory:
    """Per-epoch training and validation losses of the epochs that ran,
    and the 1-based epoch whose parameters train() returned. val_loss is
    empty and best_epoch None when no validation rows were held out or
    no epoch ran."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int | None = None


def init_params(config: MlpConfig, seed: int) -> MlpParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    params = MlpParams(config=config, flat=np.zeros(config.n_params))
    for W in params.weights:
        fan_in, fan_out = W.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W[...] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    return params


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    # min(z, -z) = -|z|, so exp cannot overflow. min returns a NaN z
    # itself, keeping its sign bit (-abs would flip it).
    return np.exp(np.minimum(z, -z))


def _sigmoid(z: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """The logistic function of z, given or computing e = exp(-|z|)."""
    if e is None:
        e = _exp_neg_abs(z)
    # e is exp(-z) where z >= 0 and exp(z) elsewhere, the stable form
    # for each sign.
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _check_input(config: MlpConfig, X) -> np.ndarray:
    """as_matrix(X, "X"), refused also (a ConfigError) unless it has the
    network's input width."""
    X = as_matrix(X, "X")
    if X.shape[1] != config.layer_widths[0]:
        raise ConfigError(
            f"input width {X.shape[1]} != network input width {config.layer_widths[0]}"
        )
    return X


def forward(params: MlpParams, X) -> ForwardCache:
    """Run the network on a batch, keeping every layer's values for
    backpropagation."""
    X = _check_input(params.config, X)
    inputs, pre = _forward_buffers(params.config, X.shape[0])
    inputs[0][:, :-1] = X
    return _forward(params, inputs, pre)


def _forward_buffers(config: MlpConfig, rows: int) -> tuple[list, list]:
    """Arrays for a forward pass over `rows` rows, carved from one
    allocation: per layer, its input (rows x (fan_in + 1), the ones
    column set here) and its pre-activations (rows x fan_out). A pass
    over the first m rows uses each array's first m rows."""
    widths = config.layer_widths
    shapes = [(rows, w + 1) for w in widths[:-1]] + [(rows, w) for w in widths[1:]]
    flat = np.empty(sum(r * c for r, c in shapes))
    arrays, at = [], 0
    for r, c in shapes:
        arrays.append(flat[at : at + r * c].reshape(r, c))
        at += r * c
    inputs, pre = arrays[: config.n_layers], arrays[config.n_layers :]
    for x in inputs:
        x[:, -1] = 1.0
    return inputs, pre


def _forward(params: MlpParams, inputs: list, pre: list) -> ForwardCache:
    """forward() into buffers of _forward_buffers(), of which inputs[0]
    holds the checked batch [X, 1]. Each layer is one GEMM into its
    pre-activations; a hidden layer's ReLU is written into the next
    layer's input beside its ones column."""
    last = params.config.n_layers - 1
    for l, block in enumerate(params.blocks):
        np.matmul(inputs[l], block, out=pre[l])
        if l < last:
            np.maximum(pre[l], 0.0, out=inputs[l + 1][:, :-1])
    z = pre[-1]
    if params.config.output_activation == "linear":
        return ForwardCache(inputs=inputs, pre=pre, output=z)
    e = _exp_neg_abs(z)
    return ForwardCache(inputs=inputs, pre=pre, output=_sigmoid(z, e), exp_neg_abs=e)


def extract_latent(params: MlpParams, X, out: np.ndarray | None = None) -> np.ndarray:
    """Post-activation values at the network's latent layer, the same
    bits as forward(params, X).activations[latent_index]. Given `out`,
    a rows x latent-width array (a column slice of Z, say), they are
    written into it and it is returned; otherwise into a new array.

    It stops at the latent layer: the layers after it, which only the
    reconstruction needs, are never evaluated. The layers before it are
    hidden layers, so each is the GEMM [a, 1] @ [W; b] and a ReLU
    applied in place; below the latent layer the GEMM writes beside a
    ones column that the next layer reads.
    """
    X = _check_input(params.config, X)
    rows, k = X.shape[0], params.config.latent_index
    if out is None:
        out = np.empty((rows, params.config.layer_widths[k]))
    a = np.empty((rows, X.shape[1] + 1))
    a[:, :-1] = X
    a[:, -1] = 1.0
    *below, latent = params.blocks[:k]
    for block in below:
        h = np.empty((rows, block.shape[1] + 1))
        h[:, -1] = 1.0
        np.matmul(a, block, out=h[:, :-1])
        np.maximum(h[:, :-1], 0.0, out=h[:, :-1])
        a = h
    np.matmul(a, latent, out=out)
    np.maximum(out, 0.0, out=out)
    return out


def _check_shapes(pred: np.ndarray, target: np.ndarray) -> None:
    if pred.shape != target.shape:
        raise ConfigError(f"shape mismatch: pred {pred.shape} vs target {target.shape}")


def bce_loss(logits, target) -> float:
    """Mean binary cross-entropy of sigmoid(logits) against target over
    all entries, taken from the logits z: max(z, 0) - t z + log1p(e)
    with e = exp(-|z|), exact for every finite z without a clamp."""
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_shapes(logits, target)
    return _bce(logits, target, _exp_neg_abs(logits))


def _bce(z: np.ndarray, target: np.ndarray, e: np.ndarray) -> float:
    # -log(sigmoid(z)) = max(-z, 0) + log1p(e) and -log(1 - sigmoid(z))
    # = max(z, 0) + log1p(e), for e = exp(-|z|).
    return float(np.mean(np.maximum(z, 0.0) - target * z + np.log1p(e)))


def _loss(config: MlpConfig, cache: ForwardCache, target: np.ndarray) -> float:
    """The loss of a forward pass that train() reports: the BCE on the
    logits for a sigmoid output, the MSE for a linear one."""
    if config.output_activation == "sigmoid":
        return _bce(cache.pre[-1], target, cache.exp_neg_abs)
    return _mse(cache.output, target)


def mse_loss(pred, target) -> float:
    """Mean squared error over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    _check_shapes(pred, target)
    return _mse(pred, target)


def _mse(pred: np.ndarray, target: np.ndarray) -> float:
    return float(np.mean((pred - target) ** 2))


def backward(
    params: MlpParams, cache: ForwardCache, target, out: MlpParams | None = None
) -> MlpParams:
    """Exact gradients of the scalar loss w.r.t. every weight and bias,
    in the parameters' layout: grads.weights[l] is dL/dW[l], and
    grads.blocks[l] = [a[l], 1]^T delta[l] is one product.

    The loss follows the output activation: BCE for sigmoid, MSE for
    linear. Given `out`, an MlpParams of the same network, the gradients
    overwrite it and it is returned; the values are the same bits as
    without it. Otherwise a new MlpParams is returned.
    """
    cfg = params.config
    target = np.asarray(target, dtype=np.float64)
    pred = cache.output
    _check_shapes(pred, target)
    batch, out_dim = pred.shape
    scale = 1.0 / (batch * out_dim)
    # For both sigmoid+BCE and linear+MSE the output-layer delta
    # collapses to (prediction - target) times the mean-loss scale
    # (MSE carries its factor 2).
    if cfg.output_activation == "sigmoid":
        delta = (pred - target) * scale
    else:
        delta = 2.0 * (pred - target) * scale

    if out is None:
        out = MlpParams(config=cfg, flat=np.empty(cfg.n_params))
    for l in range(cfg.n_layers - 1, -1, -1):
        np.matmul(cache.inputs[l].T, delta, out=out.blocks[l])
        if l > 0:
            delta = delta @ params.weights[l].T
            delta *= cache.pre[l - 1] > 0
    return out


def adam_step(params: MlpParams, grads: MlpParams, state: AdamState):
    """One Adam update with bias correction, fused over the flat
    parameter buffer, with grads as backward() returns them. Parameters
    and state are updated in place and returned."""
    if grads.config.layer_widths != params.config.layer_widths:
        raise ConfigError("gradient layout does not match the parameter layout")
    g = grads.flat
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    m, v = state.m, state.v
    a, b = state.scratch
    # Operation order is part of the result: (1 - b2) * g * g and
    # (1 - b2) * g**2 round differently, and models are byte-compared.
    # This is m += (1 - b1) * g, v += (1 - b2) * g * g and
    # flat -= lr * (m / c1) / (sqrt(v / c2) + eps), evaluated in that
    # order into the scratch arrays.
    m *= ADAM_BETA1
    np.multiply(1.0 - ADAM_BETA1, g, out=a)
    m += a
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=a)
    a *= g
    v += a
    np.divide(v, c2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS
    np.divide(m, c1, out=b)
    b *= state.lr
    b /= a
    params.flat -= b
    return params, state


def train_rows(n: int, val_fraction: float) -> int:
    """How many of n rows train() trains on; the other
    round(val_fraction * n) validate."""
    return n - int(round(val_fraction * n))


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
    end. An epoch is the best so far when its validation loss is
    strictly below every earlier epoch's. Training stops after PATIENCE
    epochs in a row without a new best, or after `epochs`, the cap, and
    returns the best epoch's parameters, bit for bit those of a run
    capped at that epoch; history lists the epochs that ran and names
    the best. With no validation rows every epoch runs and the last
    epoch's parameters are returned. Deterministic given the seed. A
    non-finite loss aborts with a diagnostic instead of propagating
    NaNs. Refused before any step, in order: X as _check_input() refuses
    it, Y as as_matrix() does with X's rows, then (ConfigError) a Y not
    of the output width, and val_fraction, epochs, batch_size out of range.
    """
    # Checked once here: every batch below is a row subset of X and Y,
    # so the loop runs the unchecked forward pass and loss.
    X = _check_input(config, X)
    Y = as_matrix(Y, "Y", rows=X.shape[0])
    if Y.shape[1] != config.layer_widths[-1]:
        raise ConfigError(
            f"target width {Y.shape[1]} != network output width {config.layer_widths[-1]}"
        )
    if not 0.0 <= val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in [0, 1), got {val_fraction}")
    if epochs < 0 or batch_size < 1:
        raise ConfigError("epochs must be >= 0 and batch_size >= 1")
    n = X.shape[0]

    params = init_params(config, seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_val = n - train_rows(n, val_fraction)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if batch_size > train_idx.size:
        raise ConfigError(
            f"batch_size {batch_size} exceeds the {train_idx.size} training rows"
        )
    # The validation rows' buffers hold [X_val, 1] for the whole run.
    val_inputs, val_pre = _forward_buffers(config, n_val)
    val_inputs[0][:, :-1] = X[val_idx]
    Y_val = Y[val_idx]

    history = TrainHistory()
    state = AdamState.for_params(params, lr=lr)
    grads = MlpParams(config=config, flat=np.empty(config.n_params))
    n_batches = math.ceil(train_idx.size / batch_size)
    # The step buffers' views for a full batch and for the last one,
    # which has fewer rows when batch_size does not divide the rows.
    step_inputs, step_pre = _forward_buffers(config, batch_size)
    last = train_idx.size - (n_batches - 1) * batch_size
    views = {m: ([x[:m] for x in step_inputs], [z[:m] for z in step_pre])
             for m in (batch_size, last)}
    best, best_val = np.empty_like(params.flat), math.inf
    for epoch in range(epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        total, seen = 0.0, 0
        for i in range(n_batches):
            batch = order[i * batch_size : (i + 1) * batch_size]
            m = batch.size
            inputs, pre = views[m]
            inputs[0][:, :-1] = X[batch]
            Y_batch = Y[batch]
            cache = _forward(params, inputs, pre)
            loss = _loss(config, cache, Y_batch)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"training diverged: non-finite loss at epoch {epoch + 1}, "
                    f"batch {i + 1} of {n_batches}"
                )
            total += loss * m
            seen += m
            backward(params, cache, Y_batch, out=grads)
            adam_step(params, grads, state)
        history.train_loss.append(total / seen)
        if n_val > 0:
            val = _loss(config, _forward(params, val_inputs, val_pre), Y_val)
            if not np.isfinite(val):
                raise NumericalError(
                    f"training diverged: non-finite validation loss at epoch {epoch + 1}"
                )
            history.val_loss.append(val)
            if val < best_val:
                best_val, history.best_epoch = val, epoch + 1
                np.copyto(best, params.flat)
            elif epoch + 1 - history.best_epoch == PATIENCE:
                break
    if history.best_epoch is not None:
        np.copyto(params.flat, best)
    return params, history


MODEL_FORMAT = "tabfair-mlp 2"


def save_mlp(path, params: MlpParams) -> None:
    """Persist a network as one uncompressed .npz: the format tag, the
    shape, and MlpParams.flat bit for bit. numpy dates every member
    1980-01-01, so equal networks give equal bytes."""
    cfg = params.config
    with open(path, "wb") as fh:  # a path np.savez gets would gain ".npz"
        np.savez(fh, format=MODEL_FORMAT, widths=np.array(cfg.layer_widths),
                 output_activation=cfg.output_activation,
                 latent_index=cfg.latent_index, flat=params.flat)


def load_mlp(path) -> MlpParams:
    """Load a network written by save_mlp(). A file that is not such an
    archive, a truncated or malformed one, or parameters that do not
    fit the network are a DataError, raised before any array larger
    than the file is allocated. An OSError reading the file passes."""
    # Opened here, not by np.load, which leaves a file it opened unclosed
    # when the archive is unreadable.
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as z:
                # np.load allocates what an npy header declares before it
                # reads the data, so a forged size is refused from the header.
                for name in ("format", "widths", "output_activation", "latent_index", "flat"):
                    with z.zip.open(f"{name}.npy") as member:
                        np.lib.format.read_magic(member)
                        shape, _, dtype = np.lib.format.read_array_header_1_0(member)
                    if math.prod(shape) * dtype.itemsize > os.fstat(fh.fileno()).st_size:
                        raise DataError(f"{path}: member {name!r} declares more data "
                                        "than the file holds")
                if str(z["format"]) != MODEL_FORMAT:
                    raise DataError(f"{path}: not a {MODEL_FORMAT!r} file")
                config = MlpConfig(tuple(z["widths"].tolist()), str(z["output_activation"]),
                                   int(z["latent_index"]))
                return MlpParams(config=config, flat=z["flat"])
        except (ValueError, SyntaxError, TypeError, KeyError, EOFError, NotImplementedError,
                zipfile.BadZipFile, ConfigError, OSError) as exc:
            # zipfile seeks to where a corrupt end record points; a
            # negative offset is EINVAL. Any other OSError is real I/O.
            if isinstance(exc, OSError) and exc.errno != errno.EINVAL:
                raise
            raise DataError(f"{path}: not a readable {MODEL_FORMAT!r} file: {exc}") from exc
