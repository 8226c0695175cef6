"""Network engine tests.

Gradients are checked against central finite differences; forward
passes, losses, and Adam updates against hand-iterated values frozen
below (pure-Python arithmetic, no numpy in the derivation).
"""

import io
import math
import zipfile

import numpy as np
import pytest

from conftest import random_finite_floats
from tabfair import neuralnet
from tabfair.errors import ConfigError, DataError, NumericalError
from tabfair.neuralnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_LR,
    PATIENCE,
    AdamState,
    MlpConfig,
    MlpParams,
    _sigmoid,
    adam_step,
    backward,
    bce_loss,
    forward,
    init_params,
    load_mlp,
    mse_loss,
    save_mlp,
    train,
)


def loss_at(params, X, Y):
    """The loss train() pairs with the output activation: BCE on the
    logits for sigmoid, MSE for linear."""
    loss_fn = bce_loss if params.config.output_activation == "sigmoid" else mse_loss
    return loss_fn(forward(params, X).pre[-1], Y)


def fd_gradients(params, X, Y, h=1e-5):
    """Central finite differences on every weight and bias entry."""
    grads_w, grads_b = [], []
    for arrs, grads in ((params.weights, grads_w), (params.biases, grads_b)):
        for arr in arrs:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                hi = loss_at(params, X, Y)
                arr[idx] = orig - h
                lo = loss_at(params, X, Y)
                arr[idx] = orig
                g[idx] = (hi - lo) / (2.0 * h)
            grads.append(g)
    return grads_w, grads_b


def max_rel_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestConfig:
    def test_needs_three_layers(self):
        with pytest.raises(ConfigError):
            MlpConfig(layer_widths=(3, 2), output_activation="linear", latent_index=1)

    def test_latent_must_be_hidden(self):
        for bad in (0, 2):
            with pytest.raises(ConfigError):
                MlpConfig(layer_widths=(3, 4, 2), output_activation="linear", latent_index=bad)


class TestInit:
    def test_deterministic(self):
        cfg = MlpConfig(layer_widths=(2, 3, 1), output_activation="linear", latent_index=1)
        a = init_params(cfg, seed=42)
        b = init_params(cfg, seed=42)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_glorot_bound(self):
        cfg = MlpConfig(layer_widths=(2, 3, 1), output_activation="linear", latent_index=1)
        params = init_params(cfg, seed=0)
        assert np.max(np.abs(params.weights[0])) <= np.sqrt(6.0 / 5.0)
        assert np.max(np.abs(params.weights[1])) <= np.sqrt(6.0 / 4.0)
        assert all(np.all(b == 0) for b in params.biases)

    def test_weight_mean_near_zero(self):
        cfg = MlpConfig(layer_widths=(4, 8, 4), output_activation="linear", latent_index=1)
        values = [init_params(cfg, seed=s).weights[0].mean() for s in range(100)]
        assert abs(np.mean(values)) < 0.05


class TestSigmoid:
    @staticmethod
    def masked_sigmoid(z):
        # Reference: each sign's stable form on its own boolean mask.
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_bits_match_masked_reference(self):
        edges = [0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 5e-324, -5e-324,
                 2.2e-308, -2.2e-308, np.nan, -np.nan, np.inf, -np.inf]
        rng = np.random.default_rng(5)
        z = np.concatenate([edges, rng.normal(scale=30.0, size=5000)]).reshape(-1, 2)
        with np.errstate(under="ignore"):
            got, want = _sigmoid(z), self.masked_sigmoid(z)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestForward:
    def test_zero_params_sigmoid_is_half(self):
        cfg = MlpConfig(layer_widths=(3, 2, 4), output_activation="sigmoid", latent_index=1)
        params = init_params(cfg, seed=0)
        for w in params.weights:
            w[:] = 0.0
        out = forward(params, np.random.default_rng(0).normal(size=(5, 3))).output
        assert np.all(out == 0.5)

    def test_hand_computed_chain(self):
        # x=[1,2]; W1=[[.1,-.3],[.2,.4]], b1=[.05,-.05] -> pre [0.55, 0.45];
        # W2=[[.3],[-.2]], b2=[.1] -> pre 0.175.
        cfg = MlpConfig(layer_widths=(2, 2, 1), output_activation="sigmoid", latent_index=1)
        params = init_params(cfg, seed=0)
        params.weights[0][:] = [[0.1, -0.3], [0.2, 0.4]]
        params.biases[0][:] = [0.05, -0.05]
        params.weights[1][:] = [[0.3], [-0.2]]
        params.biases[1][:] = [0.1]
        cache = forward(params, [[1.0, 2.0]])
        assert np.allclose(cache.pre[0], [[0.55, 0.45]], atol=1e-12)
        assert np.allclose(cache.pre[1], [[0.175]], atol=1e-12)
        assert np.allclose(cache.output, [[0.5436386872370789]], atol=1e-12)

    def test_linear_output_passthrough(self):
        cfg = MlpConfig(layer_widths=(2, 2, 1), output_activation="linear", latent_index=1)
        params = init_params(cfg, seed=0)
        params.weights[0][:] = [[0.1, -0.3], [0.2, 0.4]]
        params.biases[0][:] = [0.05, -0.05]
        params.weights[1][:] = [[0.3], [-0.2]]
        params.biases[1][:] = [0.1]
        out = forward(params, [[1.0, 2.0]]).output
        assert np.allclose(out, [[0.175]], atol=1e-14)

    def test_relu_kills_negative_preactivations(self):
        cfg = MlpConfig(layer_widths=(1, 1, 1), output_activation="linear", latent_index=1)
        params = init_params(cfg, seed=0)
        params.weights[0][:] = [[-1.0]]
        params.weights[1][:] = [[5.0]]
        out = forward(params, [[2.0]]).output  # relu(-2) = 0 -> 0*5
        assert np.allclose(out, [[0.0]])

    def test_width_mismatch(self):
        cfg = MlpConfig(layer_widths=(3, 2, 1), output_activation="linear", latent_index=1)
        with pytest.raises(ConfigError):
            forward(init_params(cfg, seed=0), np.zeros((4, 2)))

    def test_non_finite_input(self):
        cfg = MlpConfig(layer_widths=(2, 2, 1), output_activation="linear", latent_index=1)
        with pytest.raises(DataError):
            forward(init_params(cfg, seed=0), np.array([[1.0, np.nan]]))


class TestLosses:
    # bce_loss takes the logits z; the prediction is sigmoid(z).
    def test_bce_perfect_prediction(self):
        # Logits of +-80 against their own sign's target: the loss is
        # log1p(exp(-80)), about 1.8e-35, not a clamp's 1e-12.
        z = np.array([[80.0, -80.0], [-80.0, 80.0]])
        loss = bce_loss(z, (z > 0).astype(np.float64))
        assert 0.0 <= loss <= 1e-34

    def test_bce_saturated_wrong_prediction_is_exact(self):
        # Against the wrong target, every entry costs |z| = 80 exactly;
        # clamping the prediction to 1e-12 scored it -log(1e-12) = 27.63.
        z = np.array([[80.0, -80.0], [-80.0, 80.0]])
        assert bce_loss(z, (z < 0).astype(np.float64)) == 80.0

    def test_bce_half_is_ln2(self):
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert bce_loss(np.zeros((2, 2)), target) == pytest.approx(
            0.6931471805599453, abs=1e-15
        )

    def test_bce_hand_case(self):
        # sigmoid(ln 9) = 0.9 against 1, sigmoid(ln(1/4)) = 0.2 against 0.
        got = bce_loss(np.array([[math.log(9.0), math.log(0.25)]]), np.array([[1.0, 0.0]]))
        assert got == pytest.approx(0.164252033486018, abs=1e-12)

    def test_mse_cases(self):
        assert mse_loss(np.ones((3, 2)), np.ones((3, 2))) == 0.0
        assert mse_loss(np.ones((3, 2)), np.zeros((3, 2))) == 1.0
        assert mse_loss(np.array([[1.0, 3.0]]), np.array([[0.0, 1.0]])) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            bce_loss(np.ones((2, 2)), np.ones((2, 3)))
        with pytest.raises(ConfigError):
            mse_loss(np.ones((2, 2)), np.ones((3, 2)))


class TestBackward:
    def test_zero_mse_loss_zero_gradients(self):
        cfg = MlpConfig(layer_widths=(2, 2, 2), output_activation="linear", latent_index=1)
        params = init_params(cfg, seed=1)
        X = np.abs(np.random.default_rng(1).normal(size=(4, 2)))  # keep relu active
        cache = forward(params, X)
        grads = backward(params, cache, cache.output)
        for g in grads.weights + grads.biases:
            assert np.allclose(g, 0.0)

    def test_output_delta_bce(self):
        # Single sigmoid unit: dL/dz = (p - t)/batch, seen in the bias grad.
        cfg = MlpConfig(layer_widths=(1, 1, 1), output_activation="sigmoid", latent_index=1)
        params = init_params(cfg, seed=2)
        X = np.array([[1.0], [2.0], [0.5]])
        T = np.array([[1.0], [0.0], [1.0]])
        cache = forward(params, X)
        grads = backward(params, cache, T)
        expected = np.sum(cache.output - T) / 3.0
        assert grads.biases[-1][0] == pytest.approx(expected, abs=1e-15)

    def test_gradients_match_finite_differences(self):
        # 50 random small nets, both losses; max relative error < 1e-5.
        # Cases with a hidden pre-activation near the ReLU kink are
        # redrawn: central differences straddle the kink there and the
        # comparison is meaningless at non-differentiable points.
        rng = np.random.default_rng(99)
        worst = 0.0
        checked = 0
        for trial in range(50):
            for _ in range(20):
                depth = int(rng.integers(3, 6))
                widths = tuple(int(rng.integers(1, 7)) for _ in range(depth))
                output = "sigmoid" if trial % 2 == 0 else "linear"
                cfg = MlpConfig(
                    layer_widths=widths,
                    output_activation=output,
                    latent_index=int(rng.integers(1, depth - 1)),
                )
                params = init_params(cfg, seed=int(rng.integers(0, 2**31)))
                for b in params.biases:
                    b[:] = rng.normal(scale=0.3, size=b.shape)
                X = rng.normal(size=(int(rng.integers(1, 5)), widths[0]))
                cache = forward(params, X)
                margin = min(float(np.min(np.abs(z))) for z in cache.pre[:-1])
                if margin > 1e-3:
                    break
            else:
                continue
            if output == "sigmoid":
                Y = rng.integers(0, 2, size=(X.shape[0], widths[-1])).astype(float)
            else:
                Y = rng.normal(size=(X.shape[0], widths[-1]))
            grads = backward(params, cache, Y)
            fd_w, fd_b = fd_gradients(params, X, Y)
            worst = max(worst, max_rel_error(grads.weights, fd_w))
            worst = max(worst, max_rel_error(grads.biases, fd_b))
            checked += 1
        assert checked >= 45
        assert worst < 1e-5

    def test_bits_match_per_tensor_products(self):
        # backward() writes each layer's gradient block [dW; db] into its
        # slice of one buffer; the values must be those of a fresh
        # [a, 1].T @ delta per block, bit for bit.
        rng = np.random.default_rng(7)
        for trial in range(60):
            depth = int(rng.integers(3, 6))
            widths = [int(rng.integers(1, 40)) for _ in range(depth)]
            if trial % 4 == 0:  # width-1 input and hidden layers
                widths[0] = widths[int(rng.integers(1, depth - 1))] = 1
            output = "sigmoid" if trial % 2 == 0 else "linear"
            cfg = MlpConfig(layer_widths=widths, output_activation=output, latent_index=1)
            params = init_params(cfg, seed=trial)
            for b in params.biases:
                b[:] = rng.normal(scale=0.3, size=b.shape)
            # 37 rows: the ragged last batch of 101 rows taken 64 at a time.
            batch = (1, 64, 37)[trial % 3]
            X = rng.normal(size=(batch, widths[0]))
            Y = rng.integers(0, 2, size=(batch, widths[-1])).astype(float)
            cache = forward(params, X)
            grads = backward(params, cache, Y)
            diff, scale = cache.output - Y, 1.0 / (batch * widths[-1])
            delta = diff * scale if output == "sigmoid" else 2.0 * diff * scale
            for l in range(cfg.n_layers - 1, -1, -1):
                a1 = np.hstack([cache.activations[l], np.ones((batch, 1))])
                ref = a1.T @ delta
                assert np.array_equal(grads.blocks[l].view(np.uint64), ref.view(np.uint64))
                if l > 0:
                    delta = (delta @ params.weights[l].T) * (cache.pre[l - 1] > 0)

    def test_one_gemm_per_layer_keeps_the_weight_bits(self):
        # forward's pre-activations are [a, 1] @ [W; b], bit for bit. Of
        # backward's [a, 1].T @ delta, the weight rows are a.T @ delta
        # bit for bit; only the bias row's sum is a GEMM's, not
        # delta.sum(axis=0)'s, and may differ from it in the last bits.
        rng = np.random.default_rng(17)
        for trial in range(40):
            depth = int(rng.integers(3, 7))
            widths = [int(rng.integers(1, 110)) for _ in range(depth)]
            output = "sigmoid" if trial % 2 == 0 else "linear"
            cfg = MlpConfig(layer_widths=widths, output_activation=output, latent_index=1)
            params = init_params(cfg, seed=trial)
            for b in params.biases:
                b[:] = rng.normal(scale=0.3, size=b.shape)
            batch = (1, 64, 37, 555)[trial % 4]
            X = rng.normal(size=(batch, widths[0]))
            Y = rng.integers(0, 2, size=(batch, widths[-1])).astype(float)
            cache = forward(params, X)
            ones = np.ones((batch, 1))
            for l, block in enumerate(params.blocks):
                a = np.ascontiguousarray(cache.activations[l])
                ref = np.hstack([a, ones]) @ np.vstack([params.weights[l], params.biases[l]])
                assert np.array_equal(cache.pre[l].view(np.uint64), ref.view(np.uint64))
                assert cache.activations[l].shape == (batch, widths[l])
            grads = backward(params, cache, Y)
            diff, scale = cache.output - Y, 1.0 / (batch * widths[-1])
            delta = diff * scale if output == "sigmoid" else 2.0 * diff * scale
            for l in range(cfg.n_layers - 1, -1, -1):
                ref_w = np.ascontiguousarray(cache.activations[l]).T @ delta
                assert np.array_equal(grads.weights[l].view(np.uint64), ref_w.view(np.uint64))
                assert np.allclose(grads.biases[l], delta.sum(axis=0), rtol=1e-12, atol=1e-300)
                if l > 0:
                    delta = (delta @ params.weights[l].T) * (cache.pre[l - 1] > 0)

    def test_out_buffer_is_filled_and_returned(self):
        # train() reuses one gradient buffer; filling it must give the
        # bits of a fresh call, whatever the buffer held before.
        rng = np.random.default_rng(5)
        for output in ("sigmoid", "linear"):
            cfg = MlpConfig(layer_widths=(4, 6, 3, 5), output_activation=output, latent_index=1)
            params = init_params(cfg, seed=2)
            X = rng.normal(size=(9, 4))
            Y = rng.integers(0, 2, size=(9, 5)).astype(float)
            cache = forward(params, X)
            g = MlpParams(config=cfg, flat=rng.normal(size=cfg.n_params))
            assert backward(params, cache, Y, out=g) is g
            fresh = backward(params, cache, Y)
            assert g.flat.tobytes() == fresh.flat.tobytes()


def scalar_net():
    cfg = MlpConfig(layer_widths=(1, 1, 1), output_activation="linear", latent_index=1)
    params = init_params(cfg, seed=0)
    for w in params.weights:
        w[:] = 1.0
    return params


def _grads_with_first_weight(params, g):
    grads = MlpParams(config=params.config, flat=np.zeros(params.config.n_params))
    grads.weights[0][0, 0] = g
    return grads


class TestAdam:
    def test_zero_gradient_no_change(self):
        params = scalar_net()
        before = [w.copy() for w in params.weights]
        state = AdamState.for_params(params)
        adam_step(params, _grads_with_first_weight(params, 0.0), state)
        for w, b in zip(params.weights, before):
            assert np.array_equal(w, b)
        assert state.t == 1

    def test_first_step_hand_value(self):
        # p=1, g=0.5, lr=0.001: bias-corrected mhat=g, vhat=g^2, so the
        # update is lr * g/(|g|+eps) -> 0.99900000002.
        params = scalar_net()
        state = AdamState.for_params(params)
        adam_step(params, _grads_with_first_weight(params, 0.5), state)
        assert params.weights[0][0, 0] == pytest.approx(0.99900000002, abs=1e-15)

    def test_three_step_recurrence(self):
        # Hand-iterated scalar Adam with gradients [0.5, -0.25, 1.0].
        params = scalar_net()
        state = AdamState.for_params(params)
        for g in (0.5, -0.25, 1.0):
            adam_step(params, _grads_with_first_weight(params, g), state)
        assert params.weights[0][0, 0] == pytest.approx(0.9980755513967708, abs=1e-14)
        assert state.t == 3

    def test_other_layout_is_refused_untouched(self):
        # (1, 4, 1) and (3, 2, 1, 1) have the 13 parameters of (2, 3, 1)
        # in other layers, (2, 4, 1) has 17: none may be applied.
        params = init_params(MlpConfig((2, 3, 1), "linear", 1), seed=0)
        state = AdamState.for_params(params)
        adam_step(params, _grads_with_first_weight(params, 0.5), state)
        before = (params.flat.copy(), state.m.copy(), state.v.copy(), state.t)
        for widths in ((1, 4, 1), (3, 2, 1, 1), (2, 4, 1)):
            other = init_params(MlpConfig(widths, "linear", 1), seed=1)
            with pytest.raises(ConfigError, match="layout"):
                adam_step(params, _grads_with_first_weight(other, 0.5), state)
            assert np.array_equal(params.flat, before[0])
            assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
            assert state.t == before[3]


def reference_train(config, X, Y, *, epochs, batch_size, val_fraction, seed, lr=ADAM_LR):
    """train() written out with the public, checked forward, backward
    and losses (on the output pre-activations), and Adam applied one
    tensor at a time."""
    loss_fn = bce_loss if config.output_activation == "sigmoid" else mse_loss
    params = init_params(config, seed)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(X.shape[0])
    n_val = int(round(val_fraction * X.shape[0]))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    tensors = params.weights + params.biases
    ms = [np.zeros_like(p) for p in tensors]
    vs = [np.zeros_like(p) for p in tensors]
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    t = 0
    train_loss, val_loss = [], []
    for _ in range(epochs):
        order = train_idx[rng.permutation(train_idx.size)]
        total = 0.0
        for lo in range(0, order.size, batch_size):
            batch = order[lo : lo + batch_size]
            cache = forward(params, X[batch])
            total += loss_fn(cache.pre[-1], Y[batch]) * batch.size
            grads = backward(params, cache, Y[batch])
            t += 1
            c1 = 1.0 - b1**t
            c2 = 1.0 - b2**t
            for p, g, m, v in zip(tensors, grads.weights + grads.biases, ms, vs):
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        train_loss.append(total / order.size)
        val_loss.append(loss_fn(forward(params, X[val_idx]).pre[-1], Y[val_idx]))
    return params, train_loss, val_loss


class TestTrain:
    def make_linear_data(self, n=128):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(n, 3))
        return X, X.copy()

    def test_zero_epochs_returns_init(self):
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data()
        params, history = train(cfg, X, Y, epochs=0, batch_size=16, val_fraction=0.1, seed=5)
        ref = init_params(cfg, seed=5)
        for w, r in zip(params.weights, ref.weights):
            assert np.array_equal(w, r)
        assert history.train_loss == [] and history.val_loss == []
        assert history.best_epoch is None

    def test_deterministic_given_seed(self):
        cfg = MlpConfig(layer_widths=(3, 5, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data()
        _, h1 = train(cfg, X, Y, epochs=5, batch_size=16, val_fraction=0.2, seed=9)
        _, h2 = train(cfg, X, Y, epochs=5, batch_size=16, val_fraction=0.2, seed=9)
        assert h1.train_loss == h2.train_loss
        assert h1.val_loss == h2.val_loss

    def test_learns_identity_map(self):
        cfg = MlpConfig(layer_widths=(3, 8, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data()
        _, history = train(
            cfg, X, Y, epochs=200, batch_size=32, val_fraction=0.0, seed=3, lr=0.01
        )
        assert history.train_loss[-1] < 1e-3

    def test_validation_rows_held_out_and_tracked(self):
        cfg = MlpConfig(layer_widths=(3, 5, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(100)
        _, history = train(cfg, X, Y, epochs=4, batch_size=10, val_fraction=0.25, seed=1)
        assert len(history.val_loss) == 4
        assert all(np.isfinite(v) for v in history.val_loss)

    @pytest.mark.parametrize("output", ["sigmoid", "linear"])
    def test_bits_match_per_tensor_reference(self, output):
        # 103 rows, 15 held out: 88 training rows in batches of 16 leave
        # a ragged last batch of 8.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(103, 5))
        cfg = MlpConfig(layer_widths=(5, 7, 3, 4), output_activation=output, latent_index=2)
        if output == "sigmoid":
            Y = (X[:, :4] + rng.normal(scale=0.5, size=(103, 4)) > 0).astype(np.float64)
        else:
            Y = X[:, 1:] * 2.0 - 0.5
        kwargs = dict(epochs=6, batch_size=16, val_fraction=0.15, seed=8, lr=0.01)
        params, history = train(cfg, X, Y, **kwargs)
        ref, train_loss, val_loss = reference_train(cfg, X, Y, **kwargs)
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases):
            assert got.tobytes() == want.tobytes()
        assert history.train_loss == train_loss
        assert history.val_loss == val_loss
        assert len(val_loss) == 6

    @staticmethod
    def make_noisy_data(output):
        # 80 rows, 20 held out, with noisy targets: the validation loss
        # bottoms out after a few epochs and rises as the net overfits.
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 5))
        if output == "sigmoid":
            Y = (X[:, :4] + rng.normal(scale=0.5, size=(80, 4)) > 0).astype(np.float64)
        else:
            Y = X[:, 1:] + rng.normal(scale=0.5, size=(80, 4))
        cfg = MlpConfig(layer_widths=(5, 32, 3, 32, 4), output_activation=output, latent_index=2)
        return cfg, X, Y

    @pytest.mark.parametrize("output", ["sigmoid", "linear"])
    def test_early_stop_returns_the_run_capped_at_its_best_epoch(self, output):
        cfg, X, Y = self.make_noisy_data(output)
        kwargs = dict(batch_size=8, val_fraction=0.25, seed=3, lr=0.01)
        params, history = train(cfg, X, Y, epochs=200, **kwargs)
        best = history.best_epoch
        assert 1 < best and len(history.train_loss) == len(history.val_loss) == best + PATIENCE
        # The best epoch is the first minimum, and no later epoch beats it.
        assert history.val_loss[best - 1] < min(history.val_loss[: best - 1])
        assert history.val_loss[best - 1] <= min(history.val_loss[best:])
        capped, capped_history = train(cfg, X, Y, epochs=best, **kwargs)
        assert params.flat.tobytes() == capped.flat.tobytes()
        assert history.train_loss[:best] == capped_history.train_loss
        assert history.val_loss[:best] == capped_history.val_loss
        assert capped_history.best_epoch == best

    def test_falling_validation_loss_runs_to_the_cap_as_the_reference(self):
        # The validation loss falls at each of 30 epochs, more than
        # PATIENCE, so the last epoch is the best and nothing stops.
        cfg = MlpConfig(layer_widths=(3, 5, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(103)
        kwargs = dict(epochs=30, batch_size=16, val_fraction=0.15, seed=8, lr=0.01)
        params, history = train(cfg, X, Y, **kwargs)
        ref, train_loss, val_loss = reference_train(cfg, X, Y, **kwargs)
        assert 30 > PATIENCE and all(b < a for a, b in zip(val_loss, val_loss[1:]))
        assert params.flat.tobytes() == ref.flat.tobytes()
        assert history.train_loss == train_loss and history.val_loss == val_loss
        assert history.best_epoch == 30

    def test_without_validation_rows_every_epoch_runs(self):
        # Held-out rows stop this run before its 40 epochs; without them
        # every epoch runs.
        cfg, X, Y = self.make_noisy_data("linear")
        kwargs = dict(batch_size=8, seed=3, lr=0.01)
        _, held_out = train(cfg, X, Y, epochs=40, val_fraction=0.25, **kwargs)
        _, history = train(cfg, X, Y, epochs=40, val_fraction=0.0, **kwargs)
        assert len(held_out.train_loss) < 40
        assert len(history.train_loss) == 40 and history.val_loss == []
        assert history.best_epoch is None

    def test_one_backward_and_adam_step_per_batch(self, monkeypatch):
        # The benchmark's neuralnet.steps counts adam_step calls: train()
        # must make one backward and one adam_step call per mini-batch.
        calls = {"backward": 0, "adam_step": 0}

        def counted(name):
            fn = getattr(neuralnet, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(neuralnet, name, counted(name))
        cfg = MlpConfig(layer_widths=(3, 5, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(103)
        # 103 rows, round(0.15 * 103) = 15 held out: 88 training rows in
        # batches of 16 are 6 steps an epoch, the last one ragged.
        train(cfg, X, Y, epochs=4, batch_size=16, val_fraction=0.15, seed=0)
        steps = math.ceil((103 - 15) / 16) * 4
        assert calls == {"backward": steps, "adam_step": steps}

    def test_target_width_checked_before_training(self):
        # The batch loop's loss skips its shape check; a wrong Y width
        # must fail up front, before any step (even with zero epochs).
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(20)
        with pytest.raises(ConfigError):
            train(cfg, X, Y[:, :1], epochs=0, batch_size=4, val_fraction=0.0, seed=0)

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_non_finite_target_is_a_data_error(self, epochs):
        # Refused before any step: not a silent return at epochs=0, nor a
        # divergence at epochs=1.
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(20)
        Y[4, 2] = np.nan
        with pytest.raises(DataError, match="^Y contains non-finite entries$"):
            train(cfg, X, Y, epochs=epochs, batch_size=4, val_fraction=0.0, seed=0)

    def test_row_counts_must_match(self):
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(20)
        with pytest.raises(ConfigError, match="^Y has 19 rows, expected 20$"):
            train(cfg, X, Y[1:], epochs=1, batch_size=4, val_fraction=0.0, seed=0)

    def test_batch_size_exceeding_train_rows(self):
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(20)
        with pytest.raises(ConfigError):
            train(cfg, X, Y, epochs=1, batch_size=19, val_fraction=0.5, seed=0)

    def test_divergence_is_loud(self):
        # the overflow is the point; silence numpy's warning about it
        cfg = MlpConfig(layer_widths=(1, 2, 1), output_activation="linear", latent_index=1)
        # Finite data whose loss overflows: (1e200)**2 is inf.
        Y = X = np.full((8, 1), 1e200)
        with np.errstate(over="ignore"), pytest.raises(NumericalError,
                                                      match="^training diverged: non-finite "
                                                            "loss at epoch 1, batch 1 of 2$"):
            train(cfg, X, Y, epochs=3, batch_size=4, val_fraction=0.0, seed=0)

    def test_divergence_names_the_batch(self):
        # The message counts batches within the epoch; it names no row,
        # since a batch is drawn from the epoch's shuffled order.
        cfg = MlpConfig(layer_widths=(1, 2, 1), output_activation="linear", latent_index=1)
        X = np.ones((10, 1))
        Y = X.copy()
        Y[np.random.default_rng(0).permutation(10)[:1]] = 1e200
        with np.errstate(over="ignore"), pytest.raises(NumericalError) as info:
            train(cfg, X, Y, epochs=1, batch_size=4, val_fraction=0.0, seed=0)
        message = str(info.value)
        assert message.startswith("training diverged: non-finite loss at epoch 1, batch ")
        assert message.endswith(" of 3") and "row" not in message


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = MlpConfig(layer_widths=(4, 6, 3, 5), output_activation="sigmoid", latent_index=2)
        params = init_params(cfg, seed=21)
        path = tmp_path / "model.npz"
        save_mlp(path, params)
        back = load_mlp(path)
        assert back.config == cfg
        for w1, w2 in zip(params.weights, back.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, back.biases):
            assert np.array_equal(b1, b2)

    def test_matches_per_value_oracles(self, tmp_path):
        # Every member by name and dtype, and the flat buffer bit for bit
        # (random_finite_floats holds +-0, subnormals and extremes).
        cfg = MlpConfig(layer_widths=(9, 7, 5, 3), output_activation="linear", latent_index=2)
        flat = random_finite_floats(np.random.default_rng(8), (cfg.n_params,))
        path = tmp_path / "model.npz"
        save_mlp(path, MlpParams(config=cfg, flat=flat))
        with zipfile.ZipFile(path) as zf:
            assert zf.namelist() == ["format.npy", "widths.npy", "output_activation.npy",
                                     "latent_index.npy", "flat.npy"]
            assert all(info.compress_type == zipfile.ZIP_STORED for info in zf.infolist())
        with np.load(path, allow_pickle=False) as z:
            members = {name: z[name] for name in z.files}
        assert members["format"].dtype.kind == "U" and members["format"] == "tabfair-mlp 2"
        assert members["widths"].dtype == np.int64
        assert members["widths"].tolist() == [9, 7, 5, 3]
        assert members["output_activation"].dtype.kind == "U"
        assert members["output_activation"] == "linear"
        assert members["latent_index"].dtype == np.int64 and members["latent_index"] == 2
        assert members["flat"].dtype == np.float64 and members["flat"].shape == (cfg.n_params,)
        assert np.array_equal(members["flat"].view(np.uint64), flat.view(np.uint64))
        back = load_mlp(path)
        assert back.config == cfg
        assert np.array_equal(back.flat.view(np.uint64), flat.view(np.uint64))

    def test_saves_are_byte_identical(self, tmp_path):
        params = init_params(MlpConfig((4, 6, 3, 5), "sigmoid", 2), seed=21)
        save_mlp(tmp_path / "a.npz", params)
        save_mlp(tmp_path / "b.npz", params)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()
        # No member carries the clock.
        with zipfile.ZipFile(tmp_path / "a.npz") as zf:
            assert {info.date_time for info in zf.infolist()} == {(1980, 1, 1, 0, 0, 0)}

    @staticmethod
    def forged_model(path, widths, flat_shape) -> None:
        """A model archive whose flat.npy header declares flat_shape,
        followed by only 8 bytes of data."""
        members = {"format": np.array("tabfair-mlp 2"), "widths": np.array(widths),
                   "output_activation": np.array("linear"), "latent_index": np.array(1)}
        with zipfile.ZipFile(path, "w") as zf:
            for name, value in members.items():
                buf = io.BytesIO()
                np.save(buf, value)
                zf.writestr(f"{name}.npy", buf.getvalue())
            buf = io.BytesIO()
            np.lib.format.write_array_header_1_0(
                buf, {"descr": "<f8", "fortran_order": False, "shape": flat_shape})
            zf.writestr("flat.npy", buf.getvalue() + bytes(8))

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "model.npz"
        # a model in the old text format
        path.write_text("tabfair-mlp 1\nwidths 3 4 2\nhidden_activation relu\n"
                        "output_activation linear\nlatent_index 1\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_mlp(path)
        # A parameter buffer of billions of values must be refused from
        # its header, not allocated: with widths it does not fit, and
        # with widths it fits but the file cannot hold.
        wide = (3, 1_000_000_000, 2)
        for widths, n in (((3, 4, 2), 4_000_000_000),
                          (wide, MlpConfig(wide, "linear", 1).n_params)):
            self.forged_model(path, widths, (n,))
            with pytest.raises(DataError):
                load_mlp(path)

    def test_byte_flips_are_data_errors(self, tmp_path):
        # Invert each byte of a saved model in turn. A flip the zip reader
        # sees is a DataError; flips in the end record's directory offset
        # made zipfile seek before the file start (OSError EINVAL). The
        # rest hit bytes it does not use (the local headers' copies of
        # sizes, CRCs and dates, their zip64 fields, the directory's dates
        # and versions): those files load the saved network, bit for bit.
        params = init_params(MlpConfig((4, 6, 3, 5), "sigmoid", 1), seed=0)
        path = tmp_path / "model.npz"
        save_mlp(path, params)
        data = path.read_bytes()
        for i in range(len(data)):
            path.write_bytes(data[:i] + bytes([data[i] ^ 0xFF]) + data[i + 1 :])
            try:
                back = load_mlp(path)
            except DataError:
                continue
            assert back.config == params.config, i
            assert back.flat.tobytes() == params.flat.tobytes(), i
