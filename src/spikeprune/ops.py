"""Dense float64 kernels: matmul, 2-D convolution, average pooling, and their gradients.

Tensors are plain ``numpy.ndarray`` objects in float64, row-major. Images are
channels-last, [N, H, W, C]; conv weights stay [Cout, Cin, kh, kw]. Convolution
uses the cross-correlation convention (no kernel flip) and is lowered to a
patch matrix (im2col) [N*oh*ow, kh*kw*Cin], one contiguous copy of a strided
window view of the input, followed by a single matrix product, so the
accumulation order is the fixed reduction over the kh*kw*Cin axis; the
weight gradient is one more product with the same patch matrix.
Pooling and the scatter half of the convolution backward iterate window
offsets in a fixed (i, j) order. All kernels are pure functions: identical
inputs give bit-identical outputs.

Each kernel is written over a range of its samples (the input-grad half of
conv2d_grad over a range of input channels) and runs through cores.halves:
as two halves inside a training step, else as one range. Every output
element is computed from the same operands in the same order either way, so
the halves give the whole range's result bit for bit; a matrix product is
split only where row_halves says its sums keep.
"""

from __future__ import annotations

import math

import numpy as np

from . import cores
from .errors import DimensionError

__all__ = [
    "matmul",
    "matmul_grad",
    "conv2d",
    "conv2d_grad",
    "avgpool2d",
    "avgpool2d_grad",
    "conv_out_hw",
    "row_halves",
]

# OpenBLAS runs a product of at most 1e6 multiply-adds (m*k*n) through a
# small-matrix kernel whose sums differ from its blocked kernel's, and, below
# 4 output columns, with the row count; past that each output row's sums do
# not depend on the other rows (scanned on numpy 2.4's scipy-openblas 0.3.31
# over the conv shapes of 1-128 channels at 1-64 positions per sample).
SMALL_GEMM = 10**6


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


def row_halves(items: int, rows: int, k: int, n: int) -> bool:
    """Whether the product of an [items*rows, k] and a [k, n] matrix gives
    the same sums as two products over halves of its items: only where each
    half takes the same OpenBLAS kernel as the whole (see SMALL_GEMM). A
    rule on the shape, never on the cores."""
    half = items // 2 * rows
    if half < 2 or n < 4:
        return False
    return half * k * n > SMALL_GEMM or items * rows * k * n <= SMALL_GEMM


def conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    """Output spatial extent of a conv/pool window sweep: floor((x+2p-k)/s)+1."""
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


def _patches(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Patch matrix [N*oh*ow, kh*kw*Cin] of x [N, H, W, Cin], written into out
    when given: row (n, r, c) holds the window under output position (r, c),
    with K in (kh, kw, Cin) order.

    The windows are a strided view of x, or of a zero-bordered copy of it
    when padding > 0, ordered [N, oh, ow, kh, kw, Cin]; one copy of that
    view is the matrix.
    """
    n, h, w, cin = x.shape
    if padding:
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, cin))
        xp[:, padding:padding + h, padding:padding + w] = x
        x = xp
    win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)
    if out is None:
        out = np.empty((math.prod(win.shape[:3]), kh * kw * cin))
    out.reshape(win.shape)[...] = win
    return out


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
    positions, depth = oh * ow, kh * kw * cin
    wmat = weight.transpose(2, 3, 1, 0).reshape(depth, cout)
    patches = np.empty((n * positions, depth))
    out = np.empty((n, oh, ow, cout))

    def samples(lo, hi):
        rows = patches[lo * positions:hi * positions]
        _patches(x[lo:hi], kh, kw, stride, padding, rows)
        np.matmul(rows, wmat, out=out[lo:hi].reshape(-1, cout))

    cores.halves(samples, n, patches.size, split=row_halves(n, positions, depth, cout))
    return out, patches


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
    dw = []

    def weight_grad():
        # One GEMM reduces over batch and output positions.
        d = (np.ascontiguousarray(g.T) @ patches).reshape(cout, kh, kw, cin)
        dw.append(np.ascontiguousarray(d.transpose(0, 3, 1, 2)))

    if not input_grad:
        weight_grad()
        return None, dw[0]
    # dX: one GEMM per range of input channels expands upstream onto their
    # input patches [kh, kw, c, oh, ow, N]; its (i, j) slabs are scattered in
    # a fixed (i, j) order into a padded buffer with the batch innermost, so
    # each add runs over contiguous rows (twice as fast as channels-last rows
    # of Cin). Its rows split by channel, not by sample: a split of the
    # columns would change OpenBLAS's edge kernels and with them the sums.
    wt = weight.transpose(2, 3, 1, 0)
    gcols = upstream.transpose(3, 1, 2, 0).reshape(cout, -1)
    dx = np.empty((n, h, w, cin))

    def channels(lo, hi):
        dpatch = (wt[:, :, lo:hi].reshape(-1, cout) @ gcols).reshape(kh, kw, hi - lo, oh, ow, n)
        dxp = np.zeros((hi - lo, h + 2 * padding, w + 2 * padding, n))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dpatch[i, j]
        dx[..., lo:hi] = dxp[:, padding:padding + h, padding:padding + w].transpose(3, 1, 2, 0)

    cores.halves(channels, cin, kh * kw * cin * gcols.shape[1], also=weight_grad,
                 split=row_halves(cin, kh * kw, cout, gcols.shape[1]))
    return dx, dw[0]


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

    def samples(lo, hi):
        part = out[lo:hi]
        for i in range(window):
            for j in range(window):
                part += x[lo:hi, i:i + stride * oh:stride, j:j + stride * ow:stride]
        part /= window * window

    cores.halves(samples, n, x.size)
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
    dx = np.zeros(x_shape)

    def samples(lo, hi):
        share = upstream[lo:hi] / (window * window)
        for i in range(window):
            for j in range(window):
                dx[lo:hi, i:i + stride * oh:stride, j:j + stride * ow:stride] += share

    cores.halves(samples, n, dx.size)
    return dx
