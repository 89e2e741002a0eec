"""Dense float64 kernels: matmul, 2-D convolution, average pooling, and their gradients.

Tensors are plain ``numpy.ndarray`` objects in float64, row-major. Images are
channels-last, [N, H, W, C]; conv weights stay [Cout, Cin, kh, kw]. Convolution
uses the cross-correlation convention (no kernel flip) and is lowered to a
patch matrix (im2col) [N*oh*ow, kh*kw*Cin] followed by a single matrix
product, so the accumulation order is the fixed reduction over the kh*kw*Cin
axis; the weight gradient is one more product with the same patch matrix.
Pooling and the scatter half of the convolution backward iterate window
offsets in a fixed (i, j) order. All kernels are pure functions: identical
inputs give bit-identical outputs.
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


def _pad(x: np.ndarray, padding: int) -> np.ndarray:
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))


def _patches(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Patch matrix [N*oh*ow, kh*kw*Cin] of x [N, H, W, Cin]: row (n, r, c) holds
    the window under output position (r, c), with K in (kh, kw, Cin) order.

    A window row (kw positions x Cin) is one contiguous run of the padded
    input, so the matrix is filled by kh copies of such runs.
    """
    n, h, w, cin = x.shape
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
    xp = _pad(x, padding)
    rows = xp.reshape(n, xp.shape[1], -1)               # [N, Hp, Wp*Cin]
    runs = np.lib.stride_tricks.sliding_window_view(rows, kw * cin, axis=2)
    runs = runs[:, :, :stride * cin * ow:stride * cin]  # [N, Hp, ow, kw*Cin]
    patches = np.empty((n, oh, ow, kh, kw * cin))
    for i in range(kh):
        patches[:, :, :, i] = runs[:, i:i + stride * oh:stride]
    return patches.reshape(n * oh * ow, kh * kw * cin)


def conv2d(x: np.ndarray, weight: np.ndarray, stride: int = 1, padding: int = 0):
    """Cross-correlate x [N, H, W, Cin] with weight [Cout, Cin, kh, kw].

    Returns the output [N, oh, ow, Cout] and the patch matrix it was computed
    from, which conv2d_grad accepts so that backward need not rebuild it.
    """
    x = _as64(x)
    weight = _as64(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise DimensionError(f"conv2d expects 4-D input and weight, got {x.shape}, {weight.shape}")
    n, h, w, cin = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise DimensionError(f"conv2d channel mismatch: input has {cin}, weight expects {cin_w}")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
    patches = _patches(x, kh, kw, stride, padding)
    out = patches @ weight.transpose(2, 3, 1, 0).reshape(-1, cout)
    return out.reshape(n, oh, ow, cout), patches


def conv2d_grad(upstream: np.ndarray, x: np.ndarray, weight: np.ndarray,
                stride: int = 1, padding: int = 0, input_grad: bool = True,
                patches: np.ndarray | None = None):
    """Gradients of conv2d: (dX, dW) for upstream [N, oh, ow, Cout].

    patches is the patch matrix conv2d returned for x; when None it is
    rebuilt from x. With input_grad False only dW is computed and dX is None.
    """
    upstream = _as64(upstream)
    x = np.asarray(x)
    weight = _as64(weight)
    n, h, w, cin = x.shape
    cout, _, kh, kw = weight.shape
    oh, ow = conv_out_hw(h, w, kh, kw, stride, padding)
    if upstream.shape != (n, oh, ow, cout):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match conv output ({n}, {oh}, {ow}, {cout})"
        )
    if patches is None:
        patches = _patches(_as64(x), kh, kw, stride, padding)
    g = upstream.reshape(-1, cout)
    # dW: one GEMM reduces over batch and output positions.
    dw = (np.ascontiguousarray(g.T) @ patches).reshape(cout, kh, kw, cin)
    dw = np.ascontiguousarray(dw.transpose(0, 3, 1, 2))
    if not input_grad:
        return None, dw
    # dX: one GEMM expands upstream onto input patches [kh, kw, Cin, oh, ow, N];
    # its (i, j) slabs are scattered in a fixed (i, j) order into a padded
    # buffer with the batch innermost, so each add runs over contiguous rows
    # (twice as fast as channels-last rows of Cin).
    dpatch = (weight.transpose(2, 3, 1, 0).reshape(-1, cout)
              @ upstream.transpose(3, 1, 2, 0).reshape(cout, -1)
              ).reshape(kh, kw, cin, oh, ow, n)
    dxp = np.zeros((cin, h + 2 * padding, w + 2 * padding, n))
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dpatch[i, j]
    dx = dxp[:, padding:padding + h, padding:padding + w].transpose(3, 1, 2, 0)
    return np.ascontiguousarray(dx), dw


def avgpool2d(x: np.ndarray, window: int, stride: int | None = None) -> np.ndarray:
    """Mean over each window x window patch of x [N, H, W, C]."""
    x = _as64(x)
    if x.ndim != 4:
        raise DimensionError(f"avgpool2d expects 4-D input, got {x.shape}")
    if window <= 0:
        raise DimensionError(f"zero-sized pooling window: {window}")
    stride = window if stride is None else stride
    n, h, w, c = x.shape
    if window > h or window > w:
        raise DimensionError(f"pool window {window} larger than input {h}x{w}")
    oh, ow = conv_out_hw(h, w, window, window, stride, 0)
    out = np.zeros((n, oh, ow, c))
    for i in range(window):
        for j in range(window):
            out += x[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    out /= window * window
    return out


def avgpool2d_grad(upstream: np.ndarray, x_shape: tuple, window: int,
                   stride: int | None = None) -> np.ndarray:
    """Backward of avgpool2d: distribute each output gradient uniformly over its window."""
    upstream = _as64(upstream)
    stride = window if stride is None else stride
    n, h, w, c = x_shape
    oh, ow = conv_out_hw(h, w, window, window, stride, 0)
    if upstream.shape != (n, oh, ow, c):
        raise DimensionError(
            f"upstream shape {upstream.shape} does not match pool output ({n}, {oh}, {ow}, {c})"
        )
    share = upstream / (window * window)
    dx = np.zeros(x_shape)
    for i in range(window):
        for j in range(window):
            dx[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += share
    return dx
