"""Cross-reconstruction embedding of mixed tabular data.

Two independent networks are trained without labels or sensitive
attributes: one maps the numerical block to a latent code and decodes
the categorical indicators (sigmoid output, BCE loss), the other maps
the categorical block to a latent code and decodes the standardized
numerical block (linear output, MSE loss). encode_dataset() places
the two latent codes side by side, numerical side first, as the n x p
mixed-space representation Z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .linalg import run_both
from .neuralnet import MlpConfig, MlpParams, TrainHistory, _check_input, train


@dataclass(frozen=True)
class MixedEncoderConfig:
    """Shapes and training hyperparameters for both networks.

    hidden_num_cat / hidden_cat_num count hidden layers including the
    latent layer, which sits at the middle position. latent_num +
    latent_cat is the mixed-space dimension p.
    """

    latent_num: int
    latent_cat: int
    hidden_num_cat: int = 3
    hidden_cat_num: int = 3
    epochs: int = 100
    batch_size: int = 64
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.hidden_num_cat < 1 or self.hidden_cat_num < 1:
            raise ConfigError("both networks need at least one hidden layer")
        if self.latent_num < 1 or self.latent_cat < 1:
            raise ConfigError("latent dimensions must be >= 1")
        if self.epochs < 0:
            raise ConfigError(f"encoder 'epochs' must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"encoder 'batch_size' must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError(
                f"encoder 'val_fraction' must be in [0, 1), got {self.val_fraction}"
            )

    @property
    def p(self) -> int:
        return self.latent_num + self.latent_cat


def interpolated_widths(start: int, end: int, steps: int) -> list[int]:
    """Rounded geometric interpolation between two widths; returns the
    steps-1 intermediate widths."""
    if start < 1 or end < 1 or steps < 1:
        raise ConfigError("widths and steps must be >= 1")
    ratio = end / start
    return [max(1, int(round(start * ratio ** (i / steps)))) for i in range(1, steps)]


def _layer_widths(input_dim: int, latent_dim: int, output_dim: int, hidden: int):
    """Hidden widths interpolate input -> latent -> output geometrically
    with the latent layer at the middle hidden position."""
    mid = hidden // 2
    pre = interpolated_widths(input_dim, latent_dim, mid + 1)
    post = interpolated_widths(latent_dim, output_dim, hidden - mid)
    widths = [input_dim, *pre, latent_dim, *post, output_dim]
    latent_index = 1 + mid
    return tuple(widths), latent_index


def build_num_cat(d1: int, d2: int, config: MixedEncoderConfig) -> MlpConfig:
    """Network reconstructing categorical indicators from numerical
    inputs: sigmoid output, trained with BCE."""
    widths, latent_index = _layer_widths(d1, config.latent_num, d2, config.hidden_num_cat)
    return MlpConfig(layer_widths=widths, output_activation="sigmoid", latent_index=latent_index)


def build_cat_num(d2: int, d1: int, config: MixedEncoderConfig) -> MlpConfig:
    """Network reconstructing the numerical block from categorical
    inputs: linear output, trained with MSE."""
    widths, latent_index = _layer_widths(d2, config.latent_cat, d1, config.hidden_cat_num)
    return MlpConfig(layer_widths=widths, output_activation="linear", latent_index=latent_index)


@dataclass
class MixedTrainResult:
    params_num_cat: MlpParams
    params_cat_num: MlpParams
    history_num_cat: TrainHistory
    history_cat_num: TrainHistory


def train_mixed(X_num, X_cat, config: MixedEncoderConfig) -> MixedTrainResult:
    """Train both networks on the feature blocks only.

    The sensitive matrix S and the labels y are never part of either
    network's inputs or targets. The two trainings are independent;
    their seeds derive from config.seed (seed and seed + 1). The
    cat->num network trains in a second process when run_both() allows;
    it sends back its flat buffer, from which MlpParams rebuilds the
    per-layer views.
    """
    d1, d2 = X_num.shape[1], X_cat.shape[1]
    num_cat, cat_num = build_num_cat(d1, d2, config), build_cat_num(d2, d1, config)

    def fit(net, X, Y, seed):
        return train(net, X, Y, epochs=config.epochs, batch_size=config.batch_size,
                     val_fraction=config.val_fraction, seed=seed)

    def fit_cat_num():
        params, history = fit(cat_num, X_cat, X_num, config.seed + 1)
        return params.flat, history

    (params_nc, hist_nc), (flat_cn, hist_cn) = run_both(
        lambda: fit(num_cat, X_num, X_cat, config.seed), fit_cat_num)
    return MixedTrainResult(params_nc, MlpParams(cat_num, flat_cn), hist_nc, hist_cn)


def extract_latent(params: MlpParams, X) -> np.ndarray:
    """Post-activation values at the network's latent layer, the same
    bits as forward(params, X).activations[latent_index].

    It stops at the latent layer: the layers after it, which only the
    reconstruction needs, are never evaluated. The layers before it are
    hidden layers, so each is a ReLU, applied in place.
    """
    a = _check_input(params.config, X)
    k = params.config.latent_index
    for W, b in zip(params.weights[:k], params.biases[:k]):
        a = a @ W
        a += b
        np.maximum(a, 0.0, out=a)
    return a


def encode_dataset(X_num, X_cat, config: MixedEncoderConfig):
    """Train both networks on the two feature blocks and return
    (Z, train result). Z is the n x p mixed-space representation: the
    two latent codes side by side, the numerical side's first."""
    result = train_mixed(X_num, X_cat, config)
    Z = np.hstack([extract_latent(result.params_num_cat, X_num),
                   extract_latent(result.params_cat_num, X_cat)])
    return Z, result
