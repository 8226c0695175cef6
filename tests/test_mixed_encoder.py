"""Cross-reconstruction encoder: network shapes, the concatenated
representation, determinism, and the sensitive-data firewall."""

import inspect

import numpy as np
import pytest

from tabfair.errors import ConfigError
from tabfair.mixed_encoder import (
    MixedEncoderConfig,
    build_cat_num,
    build_num_cat,
    concatenate_latents,
    encode_dataset,
    extract_latent,
    interpolated_widths,
    train_mixed,
)
from tabfair.neuralnet import bce_loss, forward, init_params, mse_loss


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
        assert nc.output_activation == "sigmoid" and nc.loss_kind() == "bce"
        assert cn.output_activation == "linear" and cn.loss_kind() == "mse"
        assert nc.layer_widths[0] == 5 and nc.layer_widths[-1] == 11
        assert cn.layer_widths[0] == 11 and cn.layer_widths[-1] == 5

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            small_config(hidden_num_cat=0)
        with pytest.raises(ConfigError):
            small_config(latent_num=0)


class TestTrainMixed:
    def test_shapes_and_concatenation(self, encoded):
        cfg = small_config()
        rep, result = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        assert rep.Z.shape == (encoded.n, cfg.p)
        assert cfg.p == 16
        # First block comes from the numerical-side network.
        z_num = extract_latent(result.params_num_cat, encoded.X_num)
        assert np.array_equal(rep.Z[:, :8], z_num)

    def test_deterministic(self, encoded):
        cfg = small_config(epochs=4)
        rep1, _ = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        rep2, _ = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        assert np.array_equal(rep1.Z, rep2.Z)

    def test_seed_changes_result(self, encoded):
        rep1, _ = encode_dataset(encoded.X_num, encoded.X_cat, small_config(epochs=4, seed=0))
        rep2, _ = encode_dataset(encoded.X_num, encoded.X_cat, small_config(epochs=4, seed=1))
        assert not np.array_equal(rep1.Z, rep2.Z)

    def test_sensitive_and_label_never_used(self, encoded):
        # Firewall: scrambling S and y must not change the learned
        # representation in any bit.
        cfg = small_config(epochs=4)
        # The encoder's only data inputs are the two feature blocks.
        for fn in (train_mixed, encode_dataset):
            assert list(inspect.signature(fn).parameters) == ["X_num", "X_cat", "config"]
        rep1, _ = encode_dataset(encoded.X_num, encoded.X_cat, cfg)
        rep2, _ = encode_dataset(encoded.X_num.copy(), encoded.X_cat.copy(), cfg)
        assert np.array_equal(rep1.Z, rep2.Z)

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
        pred_cat = forward(result.params_num_cat, encoded.X_num).output
        assert bce_loss(pred_cat, encoded.X_cat) < np.log(2.0)
        pred_num = forward(result.params_cat_num, encoded.X_cat).output
        assert mse_loss(pred_num, encoded.X_num) < 1.0

    def test_validation_loss_improves(self, encoded):
        cfg = small_config(epochs=40)
        result = train_mixed(encoded.X_num, encoded.X_cat, cfg)
        for hist in (result.history_num_cat, result.history_cat_num):
            assert hist.val_loss[-1] < hist.val_loss[0]


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

    def test_trained_latent_not_constant(self, encoded):
        cfg = small_config(epochs=10)
        result = train_mixed(encoded.X_num, encoded.X_cat, cfg)
        z = extract_latent(result.params_num_cat, encoded.X_num)
        assert np.max(z.var(axis=0)) > 0.0

    def test_concatenate_checks_rows(self):
        with pytest.raises(ConfigError):
            concatenate_latents(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_concatenate_order(self):
        rep = concatenate_latents(np.ones((2, 2)), np.zeros((2, 3)))
        assert rep.Z.shape == (2, 5)
        assert np.all(rep.Z[:, :2] == 1.0)
        assert np.all(rep.Z[:, 2:] == 0.0)
        assert rep.p == 5
