"""Surrogate function, LIF membrane dynamics, batch-norm behavior, and the
conv layer's patch-matrix lifetime."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeprune.errors import NumericError
from spikeprune.layers import (
    LIF,
    BatchNorm2d,
    Conv2d,
    LIFParams,
    lif_step,
    surrogate_g,
    surrogate_gprime,
)

TAU = 4.0 / 3.0


class TestSurrogate:
    def test_center_values(self):
        assert surrogate_g(0.0) == 0.5
        assert surrogate_gprime(0.0) == 1.0

    def test_value_at_one(self):
        # 1/(1 + pi^2), direct evaluation
        assert surrogate_gprime(1.0) == pytest.approx(0.09199966835037524, abs=1e-15)

    @given(st.floats(-50, 50))
    def test_odd_symmetry(self, x):
        assert surrogate_g(x) + surrogate_g(-x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(-5, 5))
    @settings(max_examples=50)
    def test_gprime_is_derivative_of_g(self, x):
        h = 1e-6
        numeric = (surrogate_g(x + h) - surrogate_g(x - h)) / (2 * h)
        assert abs(surrogate_gprime(x) - numeric) <= 1e-6

    @given(st.floats(-100, 100))
    def test_gprime_range(self, x):
        v = surrogate_gprime(x)
        assert 0.0 < v <= 1.0


def step(x, u, params, relaxed=False):
    """lif_step on fresh slots; returns (h, s, u)."""
    x = np.asarray(x, dtype=float)
    h, s = np.empty_like(x), np.empty_like(x)
    u = lif_step(x, u, params, h, s, relaxed=relaxed)
    return h, s, u


class TestLIFStep:
    """Hand evaluations of the charge/fire/reset recurrence."""

    def test_subthreshold(self):
        h, s, u = step(1.2, np.array(0.0), LIFParams(TAU, 1.0, 0.0))
        assert (h, s, u) == (0.9, 0.0, 0.9)
        assert surrogate_gprime(h - 1.0) == 0.9101698376462755

    def test_fire_and_reset(self):
        h, s, u = step(2.0, np.array(0.0), LIFParams(TAU, 1.0, 0.0))
        assert (h, s, u) == (1.5, 1.0, 0.0)

    def test_zero_case(self):
        h, s, u = step(0.0, np.array(0.0), LIFParams(TAU, 1.0, 0.0))
        assert (h, s, u) == (0.0, 0.0, 0.0)

    def test_threshold_tie_fires(self):
        # x = tau makes h land exactly on the threshold.
        h, s, u = step(TAU, np.array(0.0), LIFParams(TAU, 1.0, 0.0))
        assert h == 1.0 and s == 1.0 and u == 0.0

    def test_nonfinite_input(self):
        with pytest.raises(NumericError):
            step(np.nan, np.array(0.0), LIFParams())

    def test_relaxed_tie_emits_half(self):
        _, s, _ = step(TAU, np.array(0.0), LIFParams(TAU, 1.0, 0.0), relaxed=True)
        assert s == 0.5

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LIFParams(tau=0.5)
        with pytest.raises(ValueError):
            LIFParams(v_threshold=0.0, v_reset=0.0)


class TestLIFLayer:
    def _run(self, inputs, params, relaxed=False):
        layer = LIF(params)
        layer.relaxed = relaxed
        xs = np.array(inputs).reshape(-1, 1, 1)
        out = layer.forward(xs, training=True)
        return layer, out

    def test_spikes_binary(self):
        rng = np.random.default_rng(0)
        layer, out = self._run(rng.normal(0, 2, size=8), LIFParams())
        assert set(np.unique(out)) <= {0.0, 1.0}

    def test_reset_invariant(self):
        rng = np.random.default_rng(1)
        params = LIFParams(TAU, 1.0, 0.0)
        inputs = rng.normal(0, 2, size=16)
        layer, _ = self._run(inputs, params)
        st_ = layer.state
        # The layer keeps no running-membrane trace: replay lif_step for the reset.
        u = np.full((1, 1), params.v_reset)
        for t, x in enumerate(inputs.reshape(-1, 1, 1)):
            _, s, u = step(x, u, params)
            assert np.array_equal(s, st_.s[t])
            assert np.all(u[s == 1.0] == params.v_reset)
        assert np.all(st_.s[st_.h >= params.v_threshold] == 1.0)
        assert np.all(st_.s[st_.h < params.v_threshold] == 0.0)

    def test_gprime_recomputable_from_h(self):
        rng = np.random.default_rng(2)
        params = LIFParams()
        layer, _ = self._run(rng.normal(0, 2, size=8), params)
        st_ = layer.state
        np.testing.assert_array_equal(
            st_.gprime, surrogate_gprime(st_.h - params.v_threshold)
        )

    def test_relaxed_toggle_preserves_nothing_but_fire(self):
        params = LIFParams(TAU, 1.0, 0.0)
        _, spiking = self._run([TAU], params, relaxed=False)
        _, relaxed = self._run([TAU], params, relaxed=True)
        assert spiking[0, 0, 0] == 1.0
        assert relaxed[0, 0, 0] == 0.5


def bn_forward(bn, x, training):
    """BatchNorm2d on a [T, N, C, H, W] input, through the channels-last layout."""
    return np.moveaxis(bn.forward(np.moveaxis(x, 2, -1), training), -1, 2)


class TestBatchNorm:
    def test_identity_on_normalized_input(self):
        rng = np.random.default_rng(3)
        bn = BatchNorm2d(2, eps=1e-12)
        x = rng.normal(size=(1, 6, 2, 5, 5))
        x -= x.mean(axis=(0, 1, 3, 4), keepdims=True)
        x /= x.std(axis=(0, 1, 3, 4), keepdims=True)
        out = bn_forward(bn, x, training=True)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_gamma_zero_kills_channel(self):
        rng = np.random.default_rng(4)
        bn = BatchNorm2d(3)
        bn.gamma[1] = 0.0
        bn.beta[1] = 0.0
        out = bn_forward(bn, rng.normal(size=(2, 4, 3, 2, 2)), training=True)
        assert not out[:, :, 1].any()

    def test_constant_input_yields_beta(self):
        bn = BatchNorm2d(2)
        bn.beta = np.array([0.3, -0.7])
        x = np.ones((1, 2, 2, 3, 3))
        x[:, :, 1] = 5.0
        out = bn_forward(bn, x, training=True)
        np.testing.assert_allclose(out[:, :, 0], 0.3, atol=1e-12)
        np.testing.assert_allclose(out[:, :, 1], -0.7, atol=1e-12)

    def test_inference_uses_running_stats(self):
        bn = BatchNorm2d(1, eps=0.0)
        bn.running_mean = np.array([2.0])
        bn.running_var = np.array([4.0])
        out = bn_forward(bn, np.full((1, 1, 1, 1, 1), 6.0), training=False)
        assert out.item() == pytest.approx((6.0 - 2.0) / 2.0)


class TestConv2dPatches:
    @staticmethod
    def patch_matrices(conv):
        """2-D arrays the layer holds: its weight is 4-D, a patch matrix 2-D."""
        return [a for a in vars(conv).values() if isinstance(a, np.ndarray) and a.ndim == 2]

    def test_patch_matrix_lives_from_train_forward_to_backward(self):
        rng = np.random.default_rng(5)
        conv = Conv2d(2, 3, 3, 1, 1, rng)
        xs = rng.normal(size=(2, 4, 5, 6, 2))
        out = conv.forward(xs, training=False)
        assert self.patch_matrices(conv) == []
        gx_eval = conv.backward(np.ones_like(out))
        conv.forward(xs, training=True)
        assert [p.shape for p in self.patch_matrices(conv)] == [(2 * 4 * 5 * 6, 3 * 3 * 2)]
        gx_train = conv.backward(np.ones_like(out))
        assert self.patch_matrices(conv) == []
        np.testing.assert_array_equal(gx_train, gx_eval)
