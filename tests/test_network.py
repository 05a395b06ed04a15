import numpy as np
import pytest

from ctcx import (
    ModelConfig,
    ModelParams,
    forward,
    init_params,
    log_softmax,
    tensor_spec,
)
from ctcx.network import (
    backward_batch,
    validate_params,
    zeros_like_params,
)
from helpers import ctc_one, direction, hidden_outputs
from oracles import max_relative_error, network_fd_grads


def small_cfg(bidirectional=False, dropout_keep=1.0, seed=3):
    return ModelConfig(
        feature_dim=3, num_classes=4, hidden=4, num_layers=2,
        bidirectional=bidirectional, dropout_keep=dropout_keep, seed=seed,
    )


class TestTensorLayout:
    def test_unidirectional_tensor_set(self):
        spec = tensor_spec(small_cfg())
        names = [n for n, _ in spec]
        assert len(names) == 8
        assert names[0] == "layer1.fwd.w_input"
        assert names[-2:] == ["dense.w", "dense.b"]
        shapes = dict(spec)
        assert shapes["layer1.fwd.w_input"] == (16, 3)
        assert shapes["layer2.fwd.w_input"] == (16, 4)
        assert shapes["dense.w"] == (4, 4)

    def test_bidirectional_tensor_set(self):
        spec = tensor_spec(small_cfg(bidirectional=True))
        names = [n for n, _ in spec]
        assert len(names) == 14
        assert sum(1 for n in names if n.startswith("layer")) == 12
        shapes = dict(spec)
        assert shapes["layer1.bwd.w_input"] == (16, 3)
        assert shapes["layer2.fwd.w_input"] == (16, 8)  # takes both directions
        assert shapes["dense.w"] == (4, 8)

    def test_named_tensors_follow_spec_order(self):
        cfg = small_cfg(bidirectional=True)
        params = init_params(cfg)
        assert list(params.tensors) == [n for n, _ in tensor_spec(cfg)]

    @pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
    def test_layer_views_write_through(self, bidirectional):
        cfg = small_cfg(bidirectional=bidirectional)
        params = init_params(cfg)
        for li in range(cfg.num_layers):
            for view in params.layer(li, cfg):
                before = params.vector.copy()
                view += 1.0
                assert np.count_nonzero(params.vector != before) == view.size

    @pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
    def test_layer_blocks_tile_the_recurrent_prefix(self, bidirectional):
        cfg = small_cfg(bidirectional=bidirectional)
        params = init_params(cfg)
        params.vector[...] = np.arange(params.vector.size)  # every value names its slot
        n = cfg.directions
        blocks = [
            np.concatenate([w.reshape(n, -1) for w in params.layer(li, cfg)], axis=1).ravel()
            for li in range(cfg.num_layers)
        ]
        recurrent = params.vector.size - params.dense_w.size - params.dense_b.size
        np.testing.assert_array_equal(np.concatenate(blocks), params.vector[:recurrent])

    @pytest.mark.parametrize("bidirectional", [False, True], ids=["lstm", "bilstm"])
    def test_layer_slice_is_the_named_tensor(self, bidirectional):
        cfg = small_cfg(bidirectional=bidirectional)
        params = init_params(cfg)
        for li in range(cfg.num_layers):
            stacked = params.layer(li, cfg)
            for d, name in enumerate(cfg.direction_names):
                for kind, view in zip(("w_input", "w_recurrent", "bias"), stacked):
                    tensor = params.tensors[f"layer{li + 1}.{name}.{kind}"]
                    assert view[d].ctypes.data == tensor.ctypes.data
                    assert (view[d].shape, view[d].strides) == (tensor.shape, tensor.strides)

    def test_validate_catches_shape_drift(self):
        params = init_params(small_cfg())
        drifted = ModelConfig(feature_dim=3, num_classes=5, hidden=4, num_layers=2)
        with pytest.raises(ValueError, match="dense.b"):
            validate_params(params, drifted)


class TestInit:
    def test_forget_gate_bias_is_one_rest_zero(self):
        params = init_params(small_cfg())
        for name, bias in params.tensors.items():
            if not name.endswith(".bias"):
                continue
            h = len(bias) // 4
            np.testing.assert_array_equal(bias[h : 2 * h], np.ones(h))
            np.testing.assert_array_equal(bias[:h], np.zeros(h))
            np.testing.assert_array_equal(bias[2 * h :], np.zeros(2 * h))

    def test_weights_within_glorot_bound(self):
        cfg = small_cfg(bidirectional=True)
        params = init_params(cfg)
        for name, arr in params.tensors.items():
            if name.endswith(("bias", ".b")):
                continue
            fan_out, fan_in = arr.shape
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(arr)) <= limit

    def test_values_sit_on_the_float32_grid(self):
        params = init_params(small_cfg(seed=11))
        for _, arr in params.tensors.items():
            np.testing.assert_array_equal(arr, arr.astype(np.float32).astype(np.float64))

    def test_seed_determinism(self):
        a = init_params(small_cfg(seed=5))
        b = init_params(small_cfg(seed=5))
        c = init_params(small_cfg(seed=6))
        for (_, x), (_, y) in zip(a.tensors.items(), b.tensors.items()):
            np.testing.assert_array_equal(x, y)
        assert any(
            not np.array_equal(x, y)
            for (_, x), (_, y) in zip(a.tensors.items(), c.tensors.items())
        )


class TestGateEquations:
    def test_bias_only_cell_recurrence(self):
        # zero weights isolate the gate equations: with constant gates
        # c_t = f c_{t-1} + i g and h_t = o tanh(c_t)
        h = 1
        bias = np.array([0.5, 0.25, 0.3, -0.2])  # [input, forget, cell, output]
        cfg = ModelConfig(feature_dim=2, num_classes=2, hidden=1, num_layers=1)
        params = zeros_like_params(init_params(cfg))
        params.tensors["layer1.fwd.bias"][...] = bias

        out = hidden_outputs(params, cfg, np.zeros((3, 2)))[0]

        sig = lambda z: 1 / (1 + np.exp(-z))
        i, f, g, o = sig(0.5), sig(0.25), np.tanh(0.3), sig(-0.2)
        c = 0.0
        for t in range(3):
            c = f * c + i * g
            np.testing.assert_allclose(out[t, 0], o * np.tanh(c), rtol=1e-12)

    def test_saturated_gates_stay_finite(self, rng):
        # pre-activations of +-800 overflow a naive 1 / (1 + exp(-z)); with
        # i = o = 1, f = 0 and g = +-1 every state is c = g, h = tanh(g)
        cfg = small_cfg(bidirectional=True)
        params = init_params(cfg)
        h = cfg.hidden
        sign = np.where(np.arange(h) < h // 2, 1.0, -1.0)
        for name, view in params.tensors.items():
            if name.endswith(".bias"):
                view[...] = np.concatenate([[800.0] * h, [-800.0] * h, 800.0 * sign, [800.0] * h])
        x = rng.standard_normal((6, 3))

        with np.errstate(over="raise", invalid="raise"):
            hidden = hidden_outputs(params, cfg, x)
            logits, cache = forward(params, cfg, x)
            grads = backward_batch(params, cache, rng.standard_normal(logits.shape)[:, None])

        expected = np.tile(np.tanh(sign), (6, 2))
        for out in hidden:
            np.testing.assert_array_equal(out, expected)
        assert np.all(np.isfinite(logits)) and np.all(np.isfinite(grads.vector))
        for name, g in grads.tensors.items():
            if name.startswith("layer"):
                assert not g.any(), f"{name}: a saturated gate passes no gradient"
        assert grads.dense_w.any()


class TestForward:
    def test_logit_shape(self):
        cfg = small_cfg(bidirectional=True)
        params = init_params(cfg)
        logits, _ = forward(params, cfg, np.random.default_rng(0).standard_normal((7, 3)))
        assert logits.shape == (7, 4)

    def test_eval_is_deterministic(self, rng):
        cfg = small_cfg()
        params = init_params(cfg)
        x = rng.standard_normal((6, 3))
        a, _ = forward(params, cfg, x)
        b, _ = forward(params, cfg, x)
        np.testing.assert_array_equal(a, b)

    def test_bad_feature_dim_rejected(self, rng):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="feature_dim"):
            forward(init_params(cfg), cfg, rng.standard_normal((6, 5)))

    def test_empty_input_rejected(self):
        cfg = small_cfg()
        with pytest.raises(ValueError, match="at least one frame"):
            forward(init_params(cfg), cfg, np.zeros((0, 3)))


class TestDropout:
    def test_keep_one_matches_eval(self, rng):
        cfg = small_cfg(dropout_keep=1.0)
        params = init_params(cfg)
        x = rng.standard_normal((6, 3))
        train, _ = forward(params, cfg, x, train_mode=True, dropout_seed=9)
        eval_, _ = forward(params, cfg, x, train_mode=False)
        np.testing.assert_array_equal(train, eval_)

    def test_same_seed_same_masks(self, rng):
        cfg = small_cfg(dropout_keep=0.5)
        params = init_params(cfg)
        x = rng.standard_normal((6, 3))
        a, _ = forward(params, cfg, x, train_mode=True, dropout_seed=4)
        b, _ = forward(params, cfg, x, train_mode=True, dropout_seed=4)
        c, _ = forward(params, cfg, x, train_mode=True, dropout_seed=5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_masks_are_inverted_scale(self, rng):
        cfg = small_cfg(dropout_keep=0.5)
        params = init_params(cfg)
        x = rng.standard_normal((20, 3))
        _, cache = forward(params, cfg, x, train_mode=True, dropout_seed=4)
        assert len(cache.masks) == 2
        for mask in cache.masks:
            values = set(np.unique(mask))
            assert values <= {0.0, 2.0}

    def test_eval_mode_applies_no_masks(self, rng):
        cfg = small_cfg(dropout_keep=0.5)
        _, cache = forward(init_params(cfg), cfg, rng.standard_normal((5, 3)))
        assert cache.masks == [None, None]


class TestLogSoftmax:
    def test_known_values(self):
        probs = np.exp(log_softmax(np.array([[1.0, 2.0, 3.0]])))[0]
        np.testing.assert_allclose(probs, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)

    def test_rows_normalize(self, rng):
        lp = log_softmax(rng.standard_normal((10, 7)) * 50)
        np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        lp = log_softmax(np.array([[1e4, -1e4, 0.0]]))
        assert np.all(np.isfinite(lp[0][:1]))


class TestDirectionSymmetry:
    def test_swapping_directions_equals_reversing_time(self, rng):
        # swapping fwd/bwd parameter roles (and the input-column halves
        # every direction-concatenated layer feeds forward) must produce
        # exactly the time-reversed, half-swapped hidden sequence
        cfg = small_cfg(bidirectional=True, seed=8)
        params = init_params(cfg)
        h = cfg.hidden

        def col_swapped(arr):
            return np.hstack([arr[:, h:], arr[:, :h]])

        swapped = ModelParams(params.spec, params.vector.copy())
        for li in range(cfg.num_layers):
            for to, frm in ((0, 1), (1, 0)):
                w_input, w_recurrent, bias = direction(params, li, cfg, frm)
                if li > 0:
                    w_input = col_swapped(w_input)
                for dst, src in zip(direction(swapped, li, cfg, to), (w_input, w_recurrent, bias)):
                    dst[...] = src

        x = rng.standard_normal((6, 3))
        original = hidden_outputs(params, cfg, x)
        mirrored = hidden_outputs(swapped, cfg, x[::-1])
        # column swapping reorders the matmul reduction, so agreement is
        # to float rounding rather than bit-for-bit
        for out, mir in zip(original, mirrored):
            np.testing.assert_allclose(
                mir, np.hstack([out[:, h:], out[:, :h]])[::-1], rtol=1e-9, atol=1e-12
            )


class TestBackward:
    def test_config_mismatch_rejected(self, rng):
        cfg = small_cfg()
        _, cache = forward(init_params(cfg), cfg, rng.standard_normal((5, 3)))
        other = init_params(small_cfg(bidirectional=True))
        with pytest.raises(ValueError, match="params/config tensor mismatch"):
            backward_batch(other, cache, np.zeros((5, 1, 4)))

    def test_dlogits_shape_checked(self, rng):
        cfg = small_cfg()
        params = init_params(cfg)
        _, cache = forward(params, cfg, rng.standard_normal((5, 3)))
        with pytest.raises(ValueError, match="dlogits shape"):
            backward_batch(params, cache, np.zeros((4, 1, 4)))

    def test_gradient_shapes_mirror_params(self, rng):
        cfg = small_cfg(bidirectional=True)
        params = init_params(cfg)
        x = rng.standard_normal((5, 3))
        logits, cache = forward(params, cfg, x)
        dlogits = ctc_one(log_softmax(logits), [0, 1])[1]
        grads = backward_batch(params, cache, dlogits[:, None])
        for (n1, p), (n2, g) in zip(params.tensors.items(), grads.tensors.items()):
            assert n1 == n2 and p.shape == g.shape

    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_gradients_match_finite_differences(self, bidirectional, rng):
        cfg = ModelConfig(feature_dim=3, num_classes=4, hidden=3, num_layers=2,
                          bidirectional=bidirectional, dropout_keep=1.0, seed=2)
        params = init_params(cfg)
        x = rng.standard_normal((4, 3))
        labels = [0, 2]
        logits, cache = forward(params, cfg, x, train_mode=False)
        dlogits = ctc_one(log_softmax(logits), labels)[1]
        analytic = list(backward_batch(params, cache, dlogits[:, None]).tensors.items())
        numeric = network_fd_grads(params, cfg, x, labels, train_mode=False, dropout_seed=0)
        assert max_relative_error(analytic, numeric, floor=1e-6) < 1e-4


class TestZerosLike:
    def test_matches_structure(self):
        params = init_params(small_cfg(bidirectional=True))
        zeros = zeros_like_params(params)
        for (n1, p), (n2, z) in zip(params.tensors.items(), zeros.tensors.items()):
            assert n1 == n2
            assert z.shape == p.shape
            assert not z.any()
