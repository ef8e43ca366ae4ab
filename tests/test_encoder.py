import dataclasses
import struct

import numpy as np
import pytest

from helpers import central_difference, max_rel_error, unit_rows
from ranksmooth.encoder import (
    AdamState,
    CheckpointFormatError,
    EncoderParams,
    TwoLayerParams,
    adam_step,
    encode,
    encode_backward,
    init_encoder,
    load_encoder,
    param_arrays,
    save_encoder,
)
from ranksmooth.linalg import NormalizationError, normalize_rows


class TestEncode:
    def test_identity_weight_passthrough(self):
        rng = np.random.default_rng(0)
        x = unit_rows(rng, 5, 4)
        params = EncoderParams(weight=np.eye(4))
        batch = encode(x, np.arange(5), params)
        assert np.allclose(batch.vectors, x, atol=1e-12)

    def test_output_rows_unit_norm(self):
        rng = np.random.default_rng(1)
        params = init_encoder(10, 4, seed=3)
        batch = encode(rng.normal(size=(7, 10)), np.zeros(7, dtype=int), params)
        assert np.abs(np.linalg.norm(batch.vectors, axis=1) - 1.0).max() < 1e-9

    def test_weight_scale_invariance(self):
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(6, 8))
        params = init_encoder(8, 3, seed=0)
        scaled = EncoderParams(weight=5.0 * params.weight)
        a = encode(feats, np.arange(6), params)
        b = encode(feats, np.arange(6), scaled)
        assert np.allclose(a.vectors, b.vectors, atol=1e-12)

    def test_zero_projection_is_error(self):
        feats = np.array([[1.0, 0.0], [0.0, 0.0]])
        params = EncoderParams(weight=np.eye(2))
        with pytest.raises(NormalizationError, match="row 1"):
            encode(feats, np.arange(2), params)

    @pytest.mark.parametrize("hidden_dim", [None, 5])
    def test_feature_width_mismatch_names_both_widths(self, hidden_dim):
        params = init_encoder(8, 4, seed=0, hidden_dim=hidden_dim)
        feats = np.ones((3, 10))
        message = "^features have 10 columns; the encoder takes 8$"
        with pytest.raises(ValueError, match=message):
            encode(feats, np.arange(3), params)
        with pytest.raises(ValueError, match=message):
            encode_backward(feats, params, np.ones((3, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_error(self, bad):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [bad, 1.0]])
        with pytest.raises(NormalizationError, match="row 2 has non-finite norm"):
            normalize_rows(x)

    def test_class_ids_passed_through(self):
        rng = np.random.default_rng(3)
        ids = np.array([4, 4, 9])
        batch = encode(rng.normal(size=(3, 5)), ids, init_encoder(5, 2, seed=1))
        assert np.array_equal(batch.class_ids, ids)


class TestEncodeBackward:
    def test_radial_upstream_contributes_nothing(self):
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(5, 6))
        params = init_encoder(6, 3, seed=2)
        batch = encode(feats, np.arange(5), params)
        grads = encode_backward(feats, params, batch.vectors * rng.uniform(0.5, 2, size=(5, 1)))
        assert np.abs(grads["weight"]).max() < 1e-12

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        feats = rng.normal(size=(4, 6))
        params = init_encoder(6, 3, seed=2, bias=True)
        grads = encode_backward(feats, params, np.zeros((4, 3)))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_matches_finite_difference_linear(self):
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(6, 5))
        params = init_encoder(5, 3, seed=4, bias=True)
        direction = rng.normal(size=(6, 3))

        grads = encode_backward(feats, params, direction)

        def value_w(w):
            out = encode(feats, np.arange(6), EncoderParams(weight=w, bias=params.bias))
            return float(np.sum(out.vectors * direction))

        def value_b(b):
            out = encode(feats, np.arange(6), EncoderParams(weight=params.weight, bias=b))
            return float(np.sum(out.vectors * direction))

        assert max_rel_error(grads["weight"], central_difference(value_w, params.weight)) < 1e-6
        assert max_rel_error(grads["bias"], central_difference(value_b, params.bias)) < 1e-6

    def test_matches_finite_difference_two_layer(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(5, 4))
        params = init_encoder(4, 3, seed=5, hidden_dim=6)
        direction = rng.normal(size=(5, 3))
        grads = encode_backward(feats, params, direction)

        def value(w_in):
            p = TwoLayerParams(weight_in=w_in, weight_out=params.weight_out)
            out = encode(feats, np.arange(5), p)
            return float(np.sum(out.vectors * direction))

        assert max_rel_error(grads["weight_in"], central_difference(value, params.weight_in)) < 1e-6

        def value_out(w_out):
            p = TwoLayerParams(weight_in=params.weight_in, weight_out=w_out)
            out = encode(feats, np.arange(5), p)
            return float(np.sum(out.vectors * direction))

        assert (
            max_rel_error(grads["weight_out"], central_difference(value_out, params.weight_out))
            < 1e-6
        )


class TestInit:
    def test_deterministic_and_bounded(self):
        a = init_encoder(16, 4, seed=11)
        b = init_encoder(16, 4, seed=11)
        assert np.array_equal(a.weight, b.weight)
        assert np.abs(a.weight).max() <= 1.0 / np.sqrt(16)
        assert a.bias is None

    def test_bias_flag(self):
        params = init_encoder(4, 2, seed=0, bias=True)
        assert np.all(params.bias == 0.0)

    def test_hidden_variant(self):
        params = init_encoder(8, 3, seed=0, hidden_dim=5)
        assert isinstance(params, TwoLayerParams)
        assert params.weight_in.shape == (8, 5)
        assert params.weight_out.shape == (5, 3)


class TestAdam:
    def test_zero_grad_no_decay_leaves_params(self):
        params = init_encoder(6, 3, seed=0)
        state = AdamState.initial(params, lr=1e-3, weight_decay=0.0)
        new_params, new_state = adam_step(params, {"weight": np.zeros((6, 3))}, state)
        assert np.array_equal(new_params.weight, params.weight)
        assert new_state.step_count == 1

    def test_first_step_closed_form(self):
        rng = np.random.default_rng(8)
        params = init_encoder(5, 2, seed=1)
        g = rng.normal(size=(5, 2))
        lr, eps = 1e-3, 1e-8
        state = AdamState.initial(params, lr=lr, weight_decay=0.0)
        new_params, _ = adam_step(params, {"weight": g}, state)
        want = params.weight - lr * g / (np.abs(g) + eps)
        assert np.allclose(new_params.weight, want, atol=1e-15)

    def test_determinism_and_purity(self):
        rng = np.random.default_rng(9)
        params = init_encoder(4, 3, seed=2)
        g = {"weight": rng.normal(size=(4, 3))}
        state = AdamState.initial(params, lr=1e-5, weight_decay=4e-5)
        before = params.weight.copy()
        a_params, a_state = adam_step(params, g, state)
        b_params, b_state = adam_step(params, g, state)
        assert np.array_equal(a_params.weight, b_params.weight)
        assert np.array_equal(a_state.moment1["weight"], b_state.moment1["weight"])
        assert np.array_equal(params.weight, before)
        assert state.step_count == 0

    def test_weight_decay_shrinks_params(self):
        params = EncoderParams(weight=np.full((2, 2), 2.0))
        state = AdamState.initial(params, lr=1e-2, weight_decay=0.1)
        new_params, _ = adam_step(params, {"weight": np.zeros((2, 2))}, state)
        assert np.all(new_params.weight < params.weight)

    def test_shape_mismatch_rejected(self):
        params = init_encoder(3, 2, seed=0)
        state = AdamState.initial(params, lr=1e-5, weight_decay=4e-5)
        with pytest.raises(ValueError, match="shape"):
            adam_step(params, {"weight": np.zeros((2, 2))}, state)
        with pytest.raises(ValueError, match="keys"):
            adam_step(params, {"nope": np.zeros((3, 2))}, state)

    def test_two_identical_sequences_identical_trajectories(self):
        rng = np.random.default_rng(10)
        grads = [{"weight": rng.normal(size=(3, 2))} for _ in range(5)]

        def run():
            params = init_encoder(3, 2, seed=4)
            state = AdamState.initial(params, lr=1e-2, weight_decay=4e-5)
            for g in grads:
                params, state = adam_step(params, g, state)
            return params.weight

        assert np.array_equal(run(), run())


class TestCheckpoint:
    def test_round_trip_linear(self, tmp_path):
        params = init_encoder(7, 3, seed=6)
        path = tmp_path / "enc.bin"
        save_encoder(path, params)
        loaded = load_encoder(path)
        assert np.array_equal(loaded.weight, params.weight)
        assert loaded.bias is None
        # byte-exact on rewrite
        save_encoder(tmp_path / "enc2.bin", loaded)
        assert (tmp_path / "enc.bin").read_bytes() == (tmp_path / "enc2.bin").read_bytes()

    def test_round_trip_with_bias(self, tmp_path):
        params = EncoderParams(weight=np.arange(6.0).reshape(3, 2), bias=np.array([0.5, -0.5]))
        path = tmp_path / "enc.bin"
        save_encoder(path, params)
        loaded = load_encoder(path)
        assert np.array_equal(loaded.weight, params.weight)
        assert np.array_equal(loaded.bias, params.bias)

    def test_round_trip_two_layer(self, tmp_path):
        params = init_encoder(5, 2, seed=7, hidden_dim=4, bias=True)
        path = tmp_path / "enc.bin"
        save_encoder(path, params)
        loaded = load_encoder(path)
        assert isinstance(loaded, TwoLayerParams)
        for name, arr in param_arrays(params).items():
            assert np.array_equal(param_arrays(loaded)[name], arr)

    def test_header_layout(self, tmp_path):
        params = EncoderParams(weight=np.zeros((2, 3)))
        path = tmp_path / "enc.bin"
        save_encoder(path, params)
        raw = path.read_bytes()
        assert raw[:4] == b"RSM1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 3
        assert int.from_bytes(raw[12:16], "little") == 0
        assert len(raw) == 16 + 2 * 3 * 8

    @pytest.mark.parametrize("hidden_dim", [None, 4])
    @pytest.mark.parametrize("bias", [False, True])
    def test_bytes_match_documented_layout(self, tmp_path, hidden_dim, bias):
        # Pins the layout itself: a round trip would still pass if save and
        # load changed it in the same way.
        params = init_encoder(5, 3, seed=11, bias=bias, hidden_dim=hidden_dim)
        if bias:
            params = dataclasses.replace(params, bias=np.array([0.25, -1.5, 3.0]))
        if hidden_dim is None:
            want = struct.pack("<4sIII", b"RSM1", 5, 3, int(bias))
            matrices = [params.weight]
        else:
            want = struct.pack("<4sIIII", b"RSM2", 5, hidden_dim, 3, int(bias))
            matrices = [params.weight_in, params.weight_out]
        for array in matrices + ([params.bias] if bias else []):
            want += struct.pack(f"<{array.size}d", *array.ravel())
        path = tmp_path / "enc.bin"
        save_encoder(path, params)
        assert path.read_bytes() == want

    def test_truncation_names_what_was_being_read(self, tmp_path):
        path = tmp_path / "enc.bin"
        save_encoder(path, init_encoder(5, 3, seed=12, hidden_dim=4, bias=True))
        raw = path.read_bytes()
        for cut, what in [(18, "truncated header"), (20 + 8 * 20, "reading weight_out"),
                          (len(raw) - 8, "reading bias")]:
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointFormatError, match=what):
                load_encoder(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "enc.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_encoder(path)

    def test_truncation_rejected(self, tmp_path):
        params = init_encoder(4, 4, seed=8)
        path = tmp_path / "enc.bin"
        save_encoder(path, params)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load_encoder(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        params = init_encoder(2, 2, seed=9)
        path = tmp_path / "enc.bin"
        save_encoder(path, params)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_encoder(path)
