"""Dense float64 kernels: matmul, 2-D convolution, average pooling, and their gradients.

Tensors are plain ``numpy.ndarray`` objects in float64, row-major. Convolution
uses the cross-correlation convention (no kernel flip) and is lowered to a
patch matrix (im2col) followed by a single matrix product, so the accumulation
order is the fixed reduction over the C*kh*kw axis. Pooling and the scatter
half of the convolution backward iterate window offsets in a fixed (i, j)
order. All kernels are pure functions: identical inputs give bit-identical
outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "matmul",
    "matmul_grad",
    "conv2d",
    "conv2d_grad",
    "avgpool2d",
    "avgpool2d_grad",
    "conv_out_hw",
]


def _as64(x) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product of a [m, k] and b [k, n]."""
    a = _as64(a)
    b = _as64(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return a @ b


def matmul_grad(upstream: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Gradients of matmul w.r.t. both operands: (dA, dB)."""
    upstream = _as64(upstream)
    a = _as64(a)
    b = _as64(b)
    if upstream.shape != (a.shape[0], b.shape[1]):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match product shape "
            f"({a.shape[0]}, {b.shape[1]})"
        )
    return upstream @ b.T, a.T @ upstream


def conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """Output spatial extent of a conv/pool window sweep: floor((x+2p-k)/s)+1."""
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """Strided view [N, C, oh, ow, kh, kw] over a padded input (read-only)."""
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    shape = (n, c, oh, ow, kh, kw)
    strides = (sn, sc, stride * sh, stride * sw, sh, sw)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides, writeable=False)


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def conv2d(x: np.ndarray, weight: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Cross-correlate x [N, Cin, H, W] with weight [Cout, Cin, kh, kw]."""
    x = _as64(x)
    weight = _as64(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input and weight, got {x.shape}, {weight.shape}")
    n, cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
    win = _windows(_pad(x, padding), kh, kw, stride, oh, ow)
    # [N, C, oh, ow, kh, kw] . [Cout, C, kh, kw] -> [N, oh, ow, Cout]
    out = np.tensordot(win, weight, axes=([1, 4, 5], [1, 2, 3]))
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def conv2d_grad(upstream: np.ndarray, x: np.ndarray, weight: np.ndarray,
                stride: int = 1, padding: int = 0, input_grad: bool = True):
    """Gradients of conv2d: (dX, dW) for upstream [N, Cout, oh, ow].

    With input_grad False only dW is computed and dX is None.
    """
    upstream = _as64(upstream)
    x = _as64(x)
    weight = _as64(weight)
    n, cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
    if upstream.shape != (n, cout, oh, ow):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match conv output ({n}, {cout}, {oh}, {ow})"
        )
    xp = _pad(x, padding)
    win = _windows(xp, kh, kw, stride, oh, ow)
    # dW: reduce over batch and output positions.
    dw = np.tensordot(upstream, win, axes=([0, 2, 3], [0, 2, 3]))
    if not input_grad:
        return None, dw
    # dX: one GEMM expands upstream onto input patches [kh, kw, Cin, oh, ow, N];
    # its (i, j) slabs are scattered in a fixed (i, j) order into a padded
    # buffer with the batch innermost, so each add runs over contiguous rows.
    dpatch = (weight.transpose(2, 3, 1, 0).reshape(-1, cout)
              @ upstream.transpose(1, 2, 3, 0).reshape(cout, -1)
              ).reshape(kh, kw, cin, oh, ow, n)
    dxp = np.zeros((cin,) + xp.shape[2:] + (n,))
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dpatch[i, j]
    dx = dxp[:, padding:padding + h, padding:padding + w].transpose(3, 0, 1, 2)
    return np.ascontiguousarray(dx), dw


def avgpool2d(x: np.ndarray, window: int, stride: int | None = None) -> np.ndarray:
    """Mean over each window x window patch of x [N, C, H, W]."""
    x = _as64(x)
    if x.ndim != 4:
        raise DimensionError(f"avgpool2d expects 4-D input, got {x.shape}")
    if window <= 0:
        raise DimensionError(f"zero-sized pooling window: {window}")
    stride = window if stride is None else stride
    n, c, h, w = x.shape
    if window > h or window > w:
        raise DimensionError(f"pool window {window} larger than input {h}x{w}")
    oh, ow = conv_out_hw(h, w, window, window, stride, 0)
    out = np.zeros((n, c, oh, ow))
    for i in range(window):
        for j in range(window):
            out += x[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return out / (window * window)


def avgpool2d_grad(upstream: np.ndarray, x_shape: tuple, window: int,
                   stride: int | None = None) -> np.ndarray:
    """Backward of avgpool2d: distribute each output gradient uniformly over its window."""
    upstream = _as64(upstream)
    stride = window if stride is None else stride
    n, c, h, w = x_shape
    oh, ow = conv_out_hw(h, w, window, window, stride, 0)
    if upstream.shape != (n, c, oh, ow):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match pool output ({n}, {c}, {oh}, {ow})"
        )
    share = upstream / (window * window)
    dx = np.zeros(x_shape)
    for i in range(window):
        for j in range(window):
            dx[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += share
    return dx
