"""LIF dynamics, the arctan surrogate, and the layer zoo.

Layers consume and produce time-stacked activations of shape [T, N, ...]
(T = 1 for the layers a network runs before its first LIF). Spatial
activations are channels-last, [T, N, H, W, C]; conv weights stay
[Cout, Cin, kh, kw], and Flatten emits features in (C, H, W) order.
Stateless layers fold the T axis into the batch; batch normalization computes
its statistics jointly over batch, time, and space on a 2-D [T*N*H*W, C]
view, which the folding gives for free. The LIF layer carries the membrane
recurrence across the T axis and records only the membrane h and the spikes
s; the surrogate derivative g' is derived from h when backward or a
criticality score first reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import cores, ops
from .errors import DimensionError, NumericError, StateError

PI_SQ = np.pi * np.pi


def surrogate_g(x):
    """Fire surrogate g(x) = arctan(pi*x)/pi + 1/2."""
    return np.arctan(np.pi * x) / np.pi + 0.5


def surrogate_gprime(x, out=None):
    """Exact derivative of the surrogate: g'(x) = 1/(1 + pi^2 x^2).

    With out given (it may be x itself), every step is written into it.
    """
    y = np.square(x, out=out)
    y = np.multiply(y, PI_SQ, out=out)
    y = np.add(y, 1.0, out=out)
    return np.divide(1.0, y, out=out)


@dataclass
class LIFParams:
    """Membrane constants. tau >= 1 and v_threshold > v_reset."""

    tau: float = 4.0 / 3.0
    v_threshold: float = 1.0
    v_reset: float = 0.0

    def __post_init__(self):
        if self.tau < 1.0:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if not self.v_threshold > self.v_reset:
            raise ValueError(
                f"v_threshold ({self.v_threshold}) must exceed v_reset ({self.v_reset})"
            )

    def to_dict(self):
        return {"tau": self.tau, "v_threshold": self.v_threshold, "v_reset": self.v_reset}


def lif_step(weighted_input: np.ndarray, prev_u: np.ndarray, params: LIFParams,
             h: np.ndarray, s: np.ndarray, relaxed: bool = False):
    """One membrane update: charge, fire, reset.

    h = u_prev + (x - u_prev)/tau
    s = 1 iff h >= v_threshold   (ties fire; relaxed mode emits g(h - v_th) instead)
    u = h*(1-s) + v_reset*s
    Writes h and s in place into the given arrays, shaped like x; returns u.
    """
    x = np.asarray(weighted_input, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise NumericError("lif_step received non-finite input")
    if x.shape != np.shape(prev_u):
        raise DimensionError(f"input shape {x.shape} != membrane shape {np.shape(prev_u)}")
    return _lif_update(x, prev_u, params, h, s, relaxed)


def _lif_update(x, prev_u, params, h, s, relaxed):
    """lif_step's update on a finite x shaped like prev_u, unchecked."""
    np.subtract(x, prev_u, out=h)
    h /= params.tau
    h += prev_u
    if relaxed:
        s[...] = surrogate_g(h - params.v_threshold)
        u = 1.0 - s
        u *= h
    else:
        np.greater_equal(h, params.v_threshold, out=s)
        u = np.multiply(h, s, out=np.empty_like(h))
        np.subtract(h, u, out=u)        # h*(1-s) for binary s, up to a zero's sign
    if params.v_reset:
        u += params.v_reset * s
    return u


@dataclass
class LIFState:
    """The membrane h and spikes s of one LIF layer, each stacked as [T, N, ...];
    gprime = g'(h - v_threshold) is derived on first read and kept."""

    h: np.ndarray
    s: np.ndarray
    v_threshold: float

    def derive_gprime(self, out: np.ndarray, lo: int, hi: int):
        """g'(h - v_threshold) of samples lo:hi at every step, into out."""
        d = np.subtract(self.h[:, lo:hi], self.v_threshold, out=out[:, lo:hi])
        surrogate_gprime(d, out=d)

    @cached_property
    def gprime(self) -> np.ndarray:
        out = np.empty(self.h.shape)
        self.derive_gprime(out, 0, self.h.shape[1])
        return out


class Layer:
    """Base layer: a training forward caches whatever backward needs; in
    inference, conv, linear and batch norm cache no array. Each of param_names
    is an array attribute with its gradient in "d" + name; backward writes
    gradients in place, so a network can rebind both to views of its arenas."""

    kind = "layer"
    param_names = ()

    def forward(self, xs: np.ndarray, training: bool) -> np.ndarray:
        raise NotImplementedError

    def backward(self, gys: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class Linear(Layer):
    kind = "linear"
    param_names = ("weight", "bias")

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        # Kaiming fan-in scaling.
        std = np.sqrt(2.0 / in_features)
        self.weight = rng.normal(0.0, std, size=(out_features, in_features))
        self.bias = np.zeros(out_features)
        self.dweight = np.zeros_like(self.weight)
        self.dbias = np.zeros_like(self.bias)
        self._x = None              # the last training forward's input

    def forward(self, xs, training):
        t, n = xs.shape[:2]
        if xs.ndim != 3 or xs.shape[2] != self.in_features:
            raise DimensionError(
                f"linear expects [T, N, {self.in_features}] input, got {xs.shape}"
            )
        flat = xs.reshape(t * n, self.in_features)
        self._x = flat if training else None
        out = ops.matmul(flat, self.weight.T) + self.bias
        return out.reshape(t, n, self.out_features)

    def backward(self, gys):
        if self._x is None:
            raise StateError("linear backward before a training forward")
        t, n = gys.shape[:2]
        gflat = gys.reshape(t * n, self.out_features)
        gx, gw_t = ops.matmul_grad(gflat, self._x, self.weight.T)
        self.dweight[...] = gw_t.T
        self.dbias[...] = gflat.sum(axis=0)
        return gx.reshape(t, n, self.in_features)


class Conv2d(Layer):
    """3x3-style conv block member; no bias (batch norm follows)."""

    kind = "conv"
    param_names = ("weight",)

    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int, padding: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        fan_in = in_channels * kernel * kernel
        std = np.sqrt(2.0 / fan_in)
        self.weight = rng.normal(0.0, std, size=(out_channels, in_channels, kernel, kernel))
        self.dweight = np.zeros_like(self.weight)
        self.input_grad = True      # False: backward fills dweight and returns None
        self._x = None              # a training forward's input and patch matrix;
        self._patches = None        # inference keeps neither, backward drops the patches

    def forward(self, xs, training):
        t, n = xs.shape[:2]
        flat = xs.reshape((t * n,) + xs.shape[2:])
        self._x = flat if training else None
        out, patches = ops.conv2d(flat, self.weight, self.stride, self.padding)
        self._patches = patches if training else None
        return out.reshape((t, n) + out.shape[1:])

    def backward(self, gys):
        if self._x is None:
            raise StateError("conv backward before a training forward")
        t, n = gys.shape[:2]
        gflat = gys.reshape((t * n,) + gys.shape[2:])
        gx, self.dweight[...] = ops.conv2d_grad(gflat, self._x, self.weight, self.stride,
                                                self.padding, self.input_grad, self._patches)
        self._patches = None
        return None if gx is None else gx.reshape((t, n) + gx.shape[1:])


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Per-channel sums of a [M, C] array, as one BLAS matrix-vector product
    (numpy's axis-0 reduction over a few columns takes ~10x longer)."""
    return np.ones(len(a)) @ a


class BatchNorm2d(Layer):
    """Per-channel normalization over batch, time, and spatial axes jointly.

    Training mode uses batch statistics and updates running ones; inference
    mode uses the running statistics and caches nothing. Running variance
    stores the biased batch variance (same quantity used for normalization).
    """

    kind = "batchnorm"
    param_names = ("gamma", "beta")

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1):
        self.channels = channels
        self.eps = eps
        self.momentum = momentum
        self.gamma = np.ones(channels)
        self.beta = np.zeros(channels)
        self.running_mean = np.zeros(channels)
        self.running_var = np.ones(channels)
        self.dgamma = np.zeros(channels)
        self.dbeta = np.zeros(channels)
        self._cache = None

    def state_arrays(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, xs, training):
        if xs.shape[-1] != self.channels:
            raise DimensionError(f"batchnorm expects {self.channels} channels, got {xs.shape[-1]}")
        x = xs.reshape(-1, self.channels)
        if not training:        # one affine map per channel
            scale = self.gamma * (1.0 / np.sqrt(self.running_var + self.eps))
            y = x * scale
            y += self.beta - self.running_mean * scale
            return y.reshape(xs.shape)
        # The channel sums couple the batch and run once over all rows; the
        # elementwise work between them runs as row halves (cores.halves).
        m = len(x)
        mean = _channel_sum(x) / m
        xhat, y = np.empty_like(x), np.empty_like(x)     # y holds xhat**2 first

        def centre(lo, hi):
            np.subtract(x[lo:hi], mean, out=xhat[lo:hi])
            np.square(xhat[lo:hi], out=y[lo:hi])

        cores.halves(centre, m, x.size)
        var = _channel_sum(y) / m
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var
        inv_std = 1.0 / np.sqrt(var + self.eps)

        def normalize(lo, hi):
            xhat[lo:hi] *= inv_std
            np.multiply(self.gamma, xhat[lo:hi], out=y[lo:hi])
            y[lo:hi] += self.beta

        cores.halves(normalize, m, x.size)
        self._cache = (xhat, inv_std)
        return y.reshape(xs.shape)

    def backward(self, gys):
        if self._cache is None:
            raise StateError("batchnorm backward before forward")
        xhat, inv_std = self._cache
        gy = gys.reshape(xhat.shape)
        m = len(gy)
        gx = np.empty_like(xhat)        # holds gy * xhat first

        def dbeta():
            self.dbeta[...] = _channel_sum(gy)

        cores.halves(lambda lo, hi: np.multiply(gy[lo:hi], xhat[lo:hi], out=gx[lo:hi]), m,
                     gx.size, also=dbeta)
        self.dgamma[...] = _channel_sum(gx)
        scale = self.gamma * inv_std

        # Through the batch mean and variance as well: their gradients are
        # the per-channel sums just taken.
        def rows(lo, hi):
            g = np.subtract(gy[lo:hi], self.dbeta / m, out=gx[lo:hi])
            g -= xhat[lo:hi] * (self.dgamma / m)
            g *= scale

        cores.halves(rows, m, gx.size)
        return gx.reshape(gys.shape)


class AvgPool2d(Layer):
    kind = "avgpool"

    def __init__(self, window: int, stride: int | None = None):
        self.window = window
        self.stride = window if stride is None else stride
        self._x_shape = None

    def forward(self, xs, training):
        t, n = xs.shape[:2]
        flat = xs.reshape((t * n,) + xs.shape[2:])
        self._x_shape = flat.shape
        out = ops.avgpool2d(flat, self.window, self.stride)
        return out.reshape((t, n) + out.shape[1:])

    def backward(self, gys):
        if self._x_shape is None:
            raise StateError("avgpool backward before forward")
        t, n = gys.shape[:2]
        gflat = gys.reshape((t * n,) + gys.shape[2:])
        gx = ops.avgpool2d_grad(gflat, self._x_shape, self.window, self.stride)
        return gx.reshape((t, n) + gx.shape[1:])


class Flatten(Layer):
    """[T, N, H, W, C] -> [T, N, C*H*W]: features in (C, H, W) order, the order
    head weights, head criticality and checkpoints index them by."""

    kind = "flatten"

    def __init__(self):
        self._shape = None

    def forward(self, xs, training):
        self._shape = xs.shape
        if xs.ndim == 5:
            xs = xs.transpose(0, 1, 4, 2, 3)
        return xs.reshape(xs.shape[0], xs.shape[1], -1)

    def backward(self, gys):
        if self._shape is None:
            raise StateError("flatten backward before forward")
        if len(self._shape) == 5:
            t, n, h, w, c = self._shape
            return gys.reshape(t, n, c, h, w).transpose(0, 1, 3, 4, 2)
        return gys.reshape(self._shape)


class LIF(Layer):
    """Leaky integrate-and-fire layer unrolled over the leading T axis.

    Standard mode emits binary spikes and backpropagates through the fire
    decision with the surrogate derivative; the reset factor (1 - s) is
    treated with s detached. Relaxed mode replaces the fire step function
    with the surrogate g itself and backpropagates the exact chain rule
    (including the reset path), which makes finite-difference checks valid.
    """

    kind = "lif"

    def __init__(self, params: LIFParams):
        self.lif_params = params
        self.relaxed = False
        self.state: LIFState | None = None

    def forward(self, xs, training):
        """Run the recurrence over xs [T, n, ...]; returns the spikes.

        Each call records a new state for its own n samples.
        """
        p = self.lif_params
        st = LIFState(np.empty(xs.shape), np.empty(xs.shape), p.v_threshold)

        def samples(lo, hi):
            x, h, s = xs[:, lo:hi], st.h[:, lo:hi], st.s[:, lo:hi]
            u = np.full(x.shape[1:], p.v_reset)
            for t in range(len(x)):
                # A time-broadcast input (T-stride 0) needs its finiteness checked once.
                step = lif_step if t == 0 or xs.strides[0] else _lif_update
                u = step(x[t], u, p, h[t], s[t], self.relaxed)

        cores.halves(samples, xs.shape[1], xs.size)
        self.state = st
        return st.s

    def backward(self, gys):
        if self.state is None:
            raise StateError("lif backward before forward")
        p = self.lif_params
        st = self.state
        leak = 1.0 - 1.0 / p.tau
        gx = np.empty(gys.shape)
        gp = np.empty(st.h.shape)

        def samples(lo, hi):
            st.derive_gprime(gp, lo, hi)        # each range derives its own g' first
            h, s, g, d, out = (a[:, lo:hi] for a in (st.h, st.s, gp, gys, gx))
            du = np.zeros(h.shape[1:])
            du_dh = np.empty_like(du)
            for t in range(len(h) - 1, -1, -1):
                np.subtract(1.0, s[t], out=du_dh)
                if self.relaxed:
                    du_dh += (p.v_reset - h[t]) * g[t]
                dh = np.multiply(d[t], g[t], out=out[t])
                du_dh *= du
                dh += du_dh                 # dh = g_s * g' + du * du/dh
                np.multiply(dh, leak, out=du)
                dh /= p.tau

        cores.halves(samples, gys.shape[1], gx.size)
        st.gprime = gp
        return gx
