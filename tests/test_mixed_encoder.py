"""Cross-reconstruction encoder: network shapes, the mixed-space
representation, determinism, and the sensitive-data firewall."""

import inspect

import numpy as np
import pytest

from tabfair.errors import ConfigError, DataError
from tabfair.mixed_encoder import (
    MixedEncoderConfig,
    build_cat_num,
    build_num_cat,
    encode_dataset,
    extract_latent,
    interpolated_widths,
    train_mixed,
)
from tabfair.neuralnet import MlpConfig, bce_loss, forward, init_params, mse_loss


def small_config(**overrides):
    defaults = dict(
        latent_num=8,
        latent_cat=8,
        hidden_num_cat=3,
        hidden_cat_num=3,
        epochs=8,
        batch_size=32,
        val_fraction=0.1,
        seed=0,
    )
    defaults.update(overrides)
    return MixedEncoderConfig(**defaults)


class TestWidths:
    def test_interpolation_is_geometric_rounded(self):
        # sqrt(6*50) = 17.32 -> 17; sqrt(50*20) = 31.62 -> 32.
        assert interpolated_widths(6, 50, 2) == [17]
        assert interpolated_widths(50, 20, 2) == [32]
        # cube-root spacing: 6*(100/6)^(1/3), 6*(100/6)^(2/3).
        assert interpolated_widths(6, 100, 3) == [15, 39]

    def test_single_step_has_no_intermediates(self):
        assert interpolated_widths(6, 50, 1) == []

    def test_minimal_depth(self):
        cfg = small_config(hidden_num_cat=1)
        net = build_num_cat(4, 9, cfg)
        assert net.layer_widths == (4, 8, 9)
        assert net.latent_index == 1

    def test_three_hidden_layers(self):
        cfg = small_config(latent_num=50, hidden_num_cat=3)
        net = build_num_cat(6, 20, cfg)
        assert net.layer_widths == (6, 17, 50, 32, 20)
        assert net.latent_index == 2
        assert net.layer_widths[net.latent_index] == 50

    def test_five_hidden_layers(self):
        cfg = small_config(latent_num=100, hidden_num_cat=5)
        net = build_num_cat(6, 40, cfg)
        assert len(net.layer_widths) == 7
        assert net.latent_index == 3
        assert net.layer_widths[3] == 100

    def test_activations_and_orientation(self):
        cfg = small_config()
        nc = build_num_cat(5, 11, cfg)
        cn = build_cat_num(11, 5, cfg)
        assert nc.output_activation == "sigmoid"
        assert cn.output_activation == "linear"
        assert nc.layer_widths[0] == 5 and nc.layer_widths[-1] == 11
        assert cn.layer_widths[0] == 11 and cn.layer_widths[-1] == 5

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            small_config(hidden_num_cat=0)
        with pytest.raises(ConfigError):
            small_config(latent_num=0)
        for bad in ({"epochs": -1}, {"batch_size": 0}, {"val_fraction": 1.0},
                    {"val_fraction": -0.1}):
            with pytest.raises(ConfigError, match=repr(next(iter(bad)))):
                small_config(**bad)


class TestTrainMixed:
    def test_shapes_and_concatenation(self, encoded):
        cfg = small_config()
        Z, result = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        assert Z.shape == (encoded.n, cfg.p)
        assert cfg.p == 16
        # First block comes from the numerical-side network.
        z_num = extract_latent(result.params_num_cat, encoded.X_num)
        assert np.array_equal(Z[:, :8], z_num)

    def test_deterministic(self, encoded):
        cfg = small_config(epochs=4)
        Z1, _ = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        Z2, _ = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        assert np.array_equal(Z1, Z2)

    def test_seed_changes_result(self, encoded):
        Z1, _ = encode_dataset(encoded.X_num, encoded.X_cat, small_config(epochs=4, seed=0))
        Z2, _ = encode_dataset(encoded.X_num, encoded.X_cat, small_config(epochs=4, seed=1))
        assert not np.array_equal(Z1, Z2)

    def test_sensitive_and_label_never_used(self, encoded):
        # Firewall: scrambling S and y must not change the learned
        # representation in any bit.
        cfg = small_config(epochs=4)
        # The encoder's only data inputs are the two feature blocks.
        for fn in (train_mixed, encode_dataset):
            assert list(inspect.signature(fn).parameters) == ["X_num", "X_cat", "config"]
        Z1, _ = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        Z2, _ = encode_dataset(encoded.X_num.copy(), encoded.X_cat.copy(), cfg)
        assert np.array_equal(Z1, Z2)

    def test_zero_epochs_keeps_initialization(self, encoded):
        cfg = small_config(epochs=0)
        result = train_mixed(encoded.X_num, encoded.X_cat, cfg)
        ref = init_params(build_num_cat(encoded.d1, encoded.d2, cfg), seed=cfg.seed)
        for w, r in zip(result.params_num_cat.weights, ref.weights):
            assert np.array_equal(w, r)

    def test_beats_trivial_baselines(self, encoded):
        # Constant-0.5 BCE baseline is ln 2; the column-mean MSE
        # baseline is 1.0 under z-scored targets.
        cfg = small_config(epochs=40)
        result = train_mixed(encoded.X_num, encoded.X_cat, cfg)
        logits_cat = forward(result.params_num_cat, encoded.X_num).pre[-1]
        assert bce_loss(logits_cat, encoded.X_cat) < np.log(2.0)
        pred_num = forward(result.params_cat_num, encoded.X_cat).output
        assert mse_loss(pred_num, encoded.X_num) < 1.0

    def test_validation_loss_improves(self, encoded):
        cfg = small_config(epochs=40)
        result = train_mixed(encoded.X_num, encoded.X_cat, cfg)
        for hist in (result.history_num_cat, result.history_cat_num):
            assert hist.val_loss[-1] < hist.val_loss[0]


class Unusable:
    """Stands in for a weight matrix that must never be multiplied."""

    __array_ufunc__ = None  # numpy defers a @ self to __rmatmul__

    def __rmatmul__(self, other):
        raise AssertionError("a layer past the latent was evaluated")


class TestLatent:
    def test_zero_net_gives_zero_latent(self, encoded):
        cfg = small_config()
        net = build_num_cat(encoded.d1, encoded.d2, cfg)
        params = init_params(net, seed=0)
        for w in params.weights:
            w[:] = 0.0
        z = extract_latent(params, encoded.X_num)
        assert z.shape == (encoded.n, 8)
        assert np.all(z == 0.0)

    def test_matches_forward_cache(self, encoded):
        cfg = small_config()
        net = build_num_cat(encoded.d1, encoded.d2, cfg)
        params = init_params(net, seed=3)
        cache = forward(params, encoded.X_num)
        assert np.array_equal(
            extract_latent(params, encoded.X_num),
            cache.activations[net.latent_index],
        )

    @pytest.mark.parametrize("widths, latent_index", [((2, 7, 3, 5), 1), ((2, 9, 1, 4, 5), 2),
                                                       ((2, 6, 8, 3, 5), 3)])
    def test_writes_into_a_column_slice(self, encoded, widths, latent_index):
        # The latent as the first, a middle or the last hidden layer, of
        # width 1 among them, written into a column slice of a wider
        # array as encode_dataset() writes Z: the bits of forward().
        net = MlpConfig(widths, "sigmoid", latent_index)
        params = init_params(net, seed=4)
        for b in params.biases:
            b[:] = np.random.default_rng(4).normal(size=b.shape)
        want = forward(params, encoded.X_num).activations[latent_index]
        Z = np.full((encoded.n, widths[latent_index] + 3), np.nan)
        got = extract_latent(params, encoded.X_num, out=Z[:, 2:-1])
        assert got.base is Z
        assert np.array_equal(Z[:, 2:-1], want)
        assert np.isnan(Z[:, :2]).all() and np.isnan(Z[:, -1]).all()
        assert np.array_equal(extract_latent(params, encoded.X_num), want)

    def test_evaluates_no_layer_past_the_latent(self, encoded):
        net = build_num_cat(encoded.d1, encoded.d2, small_config())
        params = init_params(net, seed=3)
        k = net.latent_index
        want = forward(params, encoded.X_num).activations[k]
        for t in params.weights[k:] + params.biases[k:]:
            t[...] = np.nan
        assert np.array_equal(extract_latent(params, encoded.X_num), want)
        # Multiplying by a later layer's weights at all, even discarded,
        # is the wasted pass this function must not make.
        params.weights[k:] = [Unusable()] * (net.n_layers - k)
        assert np.array_equal(extract_latent(params, encoded.X_num), want)

    def test_input_is_checked(self, encoded):
        params = init_params(build_num_cat(encoded.d1, encoded.d2, small_config()), seed=0)
        X = encoded.X_num.copy()
        X[3, 1] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            extract_latent(params, X)
        with pytest.raises(ConfigError, match="input width"):
            extract_latent(params, encoded.X_num[:, 1:])

    def test_trained_latent_not_constant(self, encoded):
        cfg = small_config(epochs=10)
        result = train_mixed(encoded.X_num, encoded.X_cat, cfg)
        z = extract_latent(result.params_num_cat, encoded.X_num)
        assert np.max(z.var(axis=0)) > 0.0
