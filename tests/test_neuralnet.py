"""Network engine tests.

Gradients are checked against central finite differences; forward
passes, losses, and Adam updates against hand-iterated values frozen
below (pure-Python arithmetic, no numpy in the derivation).
"""

import numpy as np
import pytest

from conftest import per_token_values, per_value_text, random_finite_floats
from tabfair.errors import ConfigError, DataError, NumericalError
from tabfair.linalg import READ_CHUNK_ROWS
from tabfair.neuralnet import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_LR,
    AdamState,
    Gradients,
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


def loss_at(params, X, Y, loss_kind):
    cache = forward(params, X)
    return bce_loss(cache.output, Y) if loss_kind == "bce" else mse_loss(cache.output, Y)


def fd_gradients(params, X, Y, loss_kind, h=1e-5):
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
                hi = loss_at(params, X, Y, loss_kind)
                arr[idx] = orig - h
                lo = loss_at(params, X, Y, loss_kind)
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

    def test_loss_kind_pairing(self):
        sig = MlpConfig(layer_widths=(2, 3, 2), output_activation="sigmoid", latent_index=1)
        lin = MlpConfig(layer_widths=(2, 3, 2), output_activation="linear", latent_index=1)
        assert sig.loss_kind() == "bce"
        assert lin.loss_kind() == "mse"


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
    def test_bce_perfect_prediction(self):
        assert bce_loss(np.ones((2, 2)), np.ones((2, 2))) < 1e-10

    def test_bce_half_is_ln2(self):
        target = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert bce_loss(np.full((2, 2), 0.5), target) == pytest.approx(
            0.6931471805599453, abs=1e-15
        )

    def test_bce_hand_case(self):
        got = bce_loss(np.array([[0.9, 0.2]]), np.array([[1.0, 0.0]]))
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
        grads = backward(params, cache, cache.output, "mse")
        for g in grads.weights + grads.biases:
            assert np.allclose(g, 0.0)

    def test_output_delta_bce(self):
        # Single sigmoid unit: dL/dz = (p - t)/batch, seen in the bias grad.
        cfg = MlpConfig(layer_widths=(1, 1, 1), output_activation="sigmoid", latent_index=1)
        params = init_params(cfg, seed=2)
        X = np.array([[1.0], [2.0], [0.5]])
        T = np.array([[1.0], [0.0], [1.0]])
        cache = forward(params, X)
        grads = backward(params, cache, T, "bce")
        expected = np.sum(cache.output - T) / 3.0
        assert grads.biases[-1][0] == pytest.approx(expected, abs=1e-15)

    def test_loss_activation_mismatch(self):
        cfg = MlpConfig(layer_widths=(2, 2, 1), output_activation="sigmoid", latent_index=1)
        params = init_params(cfg, seed=0)
        cache = forward(params, np.zeros((1, 2)))
        with pytest.raises(ConfigError):
            backward(params, cache, np.zeros((1, 1)), "mse")

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
            grads = backward(params, cache, Y, cfg.loss_kind())
            fd_w, fd_b = fd_gradients(params, X, Y, cfg.loss_kind())
            worst = max(worst, max_rel_error(grads.weights, fd_w))
            worst = max(worst, max_rel_error(grads.biases, fd_b))
            checked += 1
        assert checked >= 45
        assert worst < 1e-5


def scalar_net():
    cfg = MlpConfig(layer_widths=(1, 1, 1), output_activation="linear", latent_index=1)
    params = init_params(cfg, seed=0)
    for w in params.weights:
        w[:] = 1.0
    return params


def _grads_with_first_weight(params, g):
    grads = Gradients(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )
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


def reference_train(config, X, Y, *, epochs, batch_size, val_fraction, seed, lr=ADAM_LR):
    """train() written out with the public, checked forward, backward
    and losses, and Adam applied one tensor at a time."""
    loss_fn = bce_loss if config.loss_kind() == "bce" else mse_loss
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
            total += loss_fn(cache.output, Y[batch]) * batch.size
            grads = backward(params, cache, Y[batch], config.loss_kind())
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
        val_loss.append(loss_fn(forward(params, X[val_idx]).output, Y[val_idx]))
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

    def test_target_width_checked_before_training(self):
        # The batch loop's loss skips its shape check; a wrong Y width
        # must fail up front, before any step (even with zero epochs).
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(20)
        with pytest.raises(ConfigError):
            train(cfg, X, Y[:, :1], epochs=0, batch_size=4, val_fraction=0.0, seed=0)

    def test_batch_size_exceeding_train_rows(self):
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(20)
        with pytest.raises(ConfigError):
            train(cfg, X, Y, epochs=1, batch_size=19, val_fraction=0.5, seed=0)

    def test_divergence_is_loud(self):
        # the overflow is the point; silence numpy's warning about it
        cfg = MlpConfig(layer_widths=(1, 2, 1), output_activation="linear", latent_index=1)
        X = np.full((8, 1), 1e200)
        with np.errstate(over="ignore"), pytest.raises((NumericalError, DataError)):
            train(cfg, X, X * 1e200, epochs=3, batch_size=4, val_fraction=0.0, seed=0)

    def test_history_csv(self, tmp_path):
        cfg = MlpConfig(layer_widths=(3, 4, 3), output_activation="linear", latent_index=1)
        X, Y = self.make_linear_data(40)
        _, history = train(cfg, X, Y, epochs=3, batch_size=8, val_fraction=0.1, seed=2)
        path = tmp_path / "loss.csv"
        history.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4
        epoch, tr, val = lines[1].split(",")
        assert epoch == "1"
        assert float(tr) == history.train_loss[0]
        assert float(val) == history.val_loss[0]


class TestPersistence:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = MlpConfig(layer_widths=(4, 6, 3, 5), output_activation="sigmoid", latent_index=2)
        params = init_params(cfg, seed=21)
        path = tmp_path / "model.txt"
        save_mlp(path, params)
        back = load_mlp(path)
        assert back.config == cfg
        for w1, w2 in zip(params.weights, back.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(params.biases, back.biases):
            assert np.array_equal(b1, b2)

    def test_matches_per_value_oracles(self, tmp_path):
        # Weight blocks one row short of, at and one row past a read chunk.
        widths = (READ_CHUNK_ROWS + 1, READ_CHUNK_ROWS, READ_CHUNK_ROWS - 1, 3)
        cfg = MlpConfig(layer_widths=widths, output_activation="linear", latent_index=2)
        flat = random_finite_floats(np.random.default_rng(8), (cfg.n_params,))
        params = MlpParams(config=cfg, flat=flat)
        path = tmp_path / "model.txt"
        save_mlp(path, params)
        want = "tabfair-mlp 1\n" + f"widths {widths[0]} {widths[1]} {widths[2]} {widths[3]}\n"
        want += "hidden_activation relu\noutput_activation linear\nlatent_index 2\n"
        for l, (W, b) in enumerate(zip(params.weights, params.biases)):
            want += f"layer {l} weight {W.shape[0]} {W.shape[1]}\n" + per_value_text(W)
            want += f"layer {l} bias {b.shape[0]}\n" + per_value_text([b])
        text = path.read_text(encoding="utf-8")
        assert text == want
        rows = [line for line in text.splitlines()[5:] if not line.startswith("layer ")]
        oracle = np.array([v for row in per_token_values(rows) for v in row])
        back = load_mlp(path)
        assert back.config == cfg
        assert np.array_equal(back.flat.view(np.uint64), oracle.view(np.uint64))
        assert np.array_equal(back.flat.view(np.uint64), flat.view(np.uint64))

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "model.txt"
        # not a model file, and a width no file this size can hold (a
        # 3 x 4e9 weight block must be refused, not allocated)
        huge = ("tabfair-mlp 1\nwidths 3 4000000000 2\nhidden_activation relu\n"
                "output_activation linear\nlatent_index 1\nlayer 0 weight 3 4000000000\n0\n")
        for text in ("something else\n", huge):
            path.write_text(text, encoding="utf-8")
            with pytest.raises(DataError):
                load_mlp(path)
