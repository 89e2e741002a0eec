"""Kernel-level checks: hand examples, finite-difference and direct-loop
oracles, determinism.

The kernels take channels-last images [N, H, W, C]; the hand examples are
written as [N, C, H, W] and go through the NCHW wrappers below.
"""

import numpy as np
import pytest

from spikeprune import ops
from spikeprune.errors import DimensionError


def central_diff(f, x, h=1e-5):
    """Elementwise central finite differences of a scalar-valued f."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def nhwc(a):
    return np.ascontiguousarray(np.moveaxis(a, 1, -1))


def nchw(a):
    return np.moveaxis(a, -1, 1)


def conv2d(x, w, stride=1, padding=0):
    return nchw(ops.conv2d(nhwc(x), w, stride, padding)[0])


def conv2d_grad(gy, x, w, stride=1, padding=0, input_grad=True):
    gx, gw = ops.conv2d_grad(nhwc(gy), nhwc(x), w, stride, padding, input_grad)
    return (None if gx is None else nchw(gx)), gw


def avgpool2d(x, window, stride=None):
    return nchw(ops.avgpool2d(nhwc(x), window, stride))


def avgpool2d_grad(gy, x_shape, window, stride=None):
    n, c, h, w = x_shape
    return nchw(ops.avgpool2d_grad(nhwc(gy), (n, h, w, c), window, stride))


class TestMatmul:
    def test_identity(self):
        a = np.eye(2)
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ops.matmul(a, b), b)

    def test_projector(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ops.matmul(a, b), [[5.0, 6.0], [0.0, 0.0]])

    def test_hand_product(self):
        # [[1,2],[3,4]] x [[5,6],[7,8]]: row-by-column expansion by hand.
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ops.matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ops.matmul(np.ones((2, 3)), np.ones((2, 3)))

    def test_associativity(self):
        rng = np.random.default_rng(3)
        a, b, c = (rng.uniform(-1, 1, (4, 4)) for _ in range(3))
        lhs = ops.matmul(a, ops.matmul(b, c))
        rhs = ops.matmul(ops.matmul(a, b), c)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_grad_identity_case(self):
        ga, gb = ops.matmul_grad(np.eye(3), np.eye(3), np.eye(3))
        np.testing.assert_array_equal(gb, np.eye(3))

    def test_zero_upstream(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        ga, gb = ops.matmul_grad(np.zeros((3, 2)), a, b)
        assert not ga.any() and not gb.any()


class TestConv2d:
    def test_scaling(self):
        x = np.ones((1, 1, 3, 3))
        w = np.full((1, 1, 1, 1), 2.0)
        np.testing.assert_array_equal(conv2d(x, w), np.full((1, 1, 3, 3), 2.0))

    def test_window_sum(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.ones((1, 1, 2, 2))
        np.testing.assert_array_equal(conv2d(x, w), [[[[10.0]]]])

    def test_zero_weight(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 5, 5))
        out = conv2d(x, np.zeros((4, 3, 3, 3)), padding=1)
        assert not out.any()

    def test_one_by_one_kernel_is_scaling(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 1, 4, 4))
        w = np.full((1, 1, 1, 1), -1.7)
        np.testing.assert_allclose(conv2d(x, w), -1.7 * x, rtol=0, atol=0)

    def test_kernel_too_large(self):
        with pytest.raises(DimensionError):
            conv2d(np.ones((1, 1, 2, 2)), np.ones((1, 1, 4, 4)))

    def test_grad_of_window_sum(self):
        # Linearity of correlation: with upstream [[1]], dW equals the input.
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        w = np.ones((1, 1, 2, 2))
        gx, gw = conv2d_grad(np.ones((1, 1, 1, 1)), x, w)
        np.testing.assert_array_equal(gw, x.reshape(1, 1, 2, 2))
        np.testing.assert_array_equal(gx, w)

    def test_zero_upstream(self):
        x = np.ones((1, 2, 4, 4))
        w = np.ones((3, 2, 3, 3))
        gx, gw = conv2d_grad(np.zeros((1, 3, 2, 2)), x, w)
        assert not gx.any() and not gw.any()


class TestAvgPool:
    def test_constant(self):
        x = np.full((1, 2, 4, 4), 3.3)
        np.testing.assert_array_equal(avgpool2d(x, 2), np.full((1, 2, 2, 2), 3.3))

    def test_mean(self):
        x = np.array([[1.0, 3.0], [5.0, 7.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(avgpool2d(x, 2), [[[[4.0]]]])

    def test_zero(self):
        assert not avgpool2d(np.zeros((1, 1, 4, 4)), 2).any()

    def test_zero_window(self):
        with pytest.raises(DimensionError):
            avgpool2d(np.ones((1, 1, 4, 4)), 0)

    def test_grad_uniform_distribution(self):
        gy = np.ones((1, 1, 1, 1))
        gx = avgpool2d_grad(gy, (1, 1, 2, 2), 2)
        np.testing.assert_array_equal(gx, np.full((1, 1, 2, 2), 0.25))


class TestFiniteDifferences:
    """Every backward kernel matches central differences (rel err <= 1e-6, step 1e-5)."""

    def test_matmul_grads(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, (4, 5))
        gy = rng.uniform(-1, 1, (3, 5))
        ga, gb = ops.matmul_grad(gy, a, b)
        fa = central_diff(lambda: float((ops.matmul(a, b) * gy).sum()), a)
        fb = central_diff(lambda: float((ops.matmul(a, b) * gy).sum()), b)
        assert rel_err(ga, fa) <= 1e-6
        assert rel_err(gb, fb) <= 1e-6

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_conv_grads(self, stride, padding):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (2, 2, 4, 4))
        w = rng.uniform(-1, 1, (3, 2, 2, 2))
        out = conv2d(x, w, stride, padding)
        gy = rng.uniform(-1, 1, out.shape)

        def loss():
            return float((conv2d(x, w, stride, padding) * gy).sum())

        gx, gw = conv2d_grad(gy, x, w, stride, padding)
        assert rel_err(gx, central_diff(loss, x)) <= 1e-6
        assert rel_err(gw, central_diff(loss, w)) <= 1e-6
        no_gx, gw_only = conv2d_grad(gy, x, w, stride, padding, input_grad=False)
        assert no_gx is None
        np.testing.assert_array_equal(gw_only, gw)

    @pytest.mark.parametrize("window,stride", [(2, 2), (2, 1)])
    def test_avgpool_grads(self, window, stride):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, (2, 2, 4, 4))
        out = avgpool2d(x, window, stride)
        gy = rng.uniform(-1, 1, out.shape)

        def loss():
            return float((avgpool2d(x, window, stride) * gy).sum())

        gx = avgpool2d_grad(gy, x.shape, window, stride)
        assert rel_err(gx, central_diff(loss, x)) <= 1e-6


def conv_loops(x, w, stride, padding, gy):
    """Direct-loop convolution on x [N, H, W, Cin]: (out, dX, dW) for upstream gy."""
    n, h, wd, cin = x.shape
    cout, _, kh, kw = w.shape
    oh, ow = ops.conv_out_hw(h, wd, kh, kw, stride, padding)
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, cin))
    xp[:, padding:padding + h, padding:padding + wd] = x
    out = np.zeros((n, oh, ow, cout))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(n):
        for r in range(oh):
            for c in range(ow):
                for o in range(cout):
                    for ci in range(cin):
                        for i in range(kh):
                            for j in range(kw):
                                y, v = r * stride + i, c * stride + j
                                out[b, r, c, o] += xp[b, y, v, ci] * w[o, ci, i, j]
                                dxp[b, y, v, ci] += gy[b, r, c, o] * w[o, ci, i, j]
                                dw[o, ci, i, j] += gy[b, r, c, o] * xp[b, y, v, ci]
    return out, dxp[:, padding:padding + h, padding:padding + wd], dw


class TestConvDirectLoops:
    """The patch-matrix kernels against a direct loop over every product
    (sums in another order: rel err <= 1e-12)."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_forward_dx_dw(self, stride, padding):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 5, 6, 3))
        w = rng.normal(size=(4, 3, 3, 2))
        out, patches = ops.conv2d(x, w, stride, padding)
        gy = rng.normal(size=out.shape)
        ref_out, ref_dx, ref_dw = conv_loops(x, w, stride, padding, gy)
        gx, gw = ops.conv2d_grad(gy, x, w, stride, padding)
        assert out.shape == ref_out.shape
        assert rel_err(out, ref_out) <= 1e-12
        assert rel_err(gx, ref_dx) <= 1e-12
        assert rel_err(gw, ref_dw) <= 1e-12

    def test_cached_patches_give_identical_grads(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(3, 6, 5, 4))
        w = rng.normal(size=(5, 4, 3, 3))
        out, patches = ops.conv2d(x, w, 2, 1)
        gy = rng.normal(size=out.shape)
        gx, gw = ops.conv2d_grad(gy, x, w, 2, 1)
        gx_c, gw_c = ops.conv2d_grad(gy, x, w, 2, 1, patches=patches)
        np.testing.assert_array_equal(gw_c, gw)
        np.testing.assert_array_equal(gx_c, gx)


def patches_loop(x, kh, kw, stride, padding):
    """The patch matrix built one window at a time from a zero-padded copy."""
    n, h, w, cin = x.shape
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, cin))
    xp[:, padding:padding + h, padding:padding + w] = x
    oh, ow = ops.conv_out_hw(h, w, kh, kw, stride, padding)
    out = np.empty((n, oh, ow, kh, kw, cin))
    for r in range(oh):
        for c in range(ow):
            out[:, r, c] = xp[:, r * stride:r * stride + kh, c * stride:c * stride + kw]
    return out.reshape(n * oh * ow, kh * kw * cin)


class TestPatches:
    """The patch matrix is a copy, so it equals the loop-built one bit for bit."""

    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("cin", [1, 3, 12])
    def test_equals_loop(self, kernel, stride, padding, cin):
        x = np.random.default_rng(kernel * 100 + cin).normal(size=(2, 7, 6, cin))
        got = ops._patches(x, kernel, kernel, stride, padding)
        assert got.flags.c_contiguous
        assert np.array_equal(got, patches_loop(x, kernel, kernel, stride, padding))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_non_contiguous_input(self, padding):
        x = np.random.default_rng(17).normal(size=(3, 5, 7, 2)).transpose(0, 2, 1, 3)
        assert not x.flags.c_contiguous
        assert np.array_equal(ops._patches(x, 3, 2, 2, padding),
                              patches_loop(x, 3, 2, 2, padding))

    @pytest.mark.parametrize("padding", [0, 1])
    def test_kernel_as_large_as_padded_input(self, padding):
        x = np.random.default_rng(18).normal(size=(2, 4, 5, 3))
        kh, kw = 4 + 2 * padding, 5 + 2 * padding
        got = ops._patches(x, kh, kw, 1, padding)
        assert got.shape == (2, kh * kw * 3)
        assert np.array_equal(got, patches_loop(x, kh, kw, 1, padding))


class TestDeterminism:
    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 4, 9, 9))
        w = rng.normal(size=(5, 4, 3, 3))
        first = conv2d(x, w, stride=2, padding=1)
        for _ in range(3):
            again = conv2d(x, w, stride=2, padding=1)
            assert np.array_equal(first, again)

    def test_results_finite(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        assert np.isfinite(conv2d(x, w, padding=1)).all()
        assert np.isfinite(avgpool2d(x, 2)).all()
