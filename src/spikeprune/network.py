"""Feed-forward spiking networks unrolled over T timesteps.

The static input is injected as current at every timestep (direct encoding),
so the layers before the first LIF see the same input at every step: they
run once per batch on [1, N, ...], and their output is broadcast to
[T, N, ...] at the first LIF. Backward sums that LIF's input gradient over
T before it enters those layers, which is exact because conv, linear and
batch-norm backward are linear in the upstream gradient and batch-norm
statistics over T identical copies equal those over one.

The classifier head is a membrane-accumulator: the final linear layer's
output is averaged over time without a fire step, so the logits feed a
standard cross-entropy loss. Every hidden weighted layer is followed by a
LIF layer (conv layers through a batch-norm).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from . import cores
from .errors import DimensionError, StateError
from .layers import (
    LIF,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    Layer,
    LIFParams,
    Linear,
)
from .ops import conv_out_hw

WEIGHTED_KINDS = ("conv", "linear")
# An inference forward runs the whole layer stack on one tile of samples before
# starting the next, so that a tile's transients stay small. The tiles are
# shared with the pinned helper threads of spikeprune.cores: a new or
# just-woken thread starts on its caller's core and the kernel takes
# milliseconds to move it, so unpinned, a short forward ran its threads one
# after the other. The budget is set by two-thread scaling, not by L2 alone:
# a tile makes over a hundred short numpy calls, and two threads queue on the
# interpreter lock for them. On a 2-core Xeon (OpenBLAS at 1 thread) a
# 3000-sample desk-net forward ran 1.5x faster on two threads than on one at
# 1 MiB (32 samples a tile) and 1.7x at 2 MiB (64). A tile keeps no conv or
# linear input and no LIF h past its layer (SpikingNetwork.forward), so a
# 2 MiB tile peaks at about what a 1 MiB tile that kept them did. A training
# forward is one tile of the whole batch; its kernels split their rows in
# halves with the helpers instead.
TILE_BYTES = 2 << 20
# Arena position of each parameter name: weights, then biases, then BN affine.
_ARENA_RANK = {"weight": 0, "bias": 1, "gamma": 2, "beta": 2}


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    in_channels: int | None = None
    out_channels: int | None = None
    kernel: int | None = None
    stride: int | None = None
    padding: int | None = None
    window: int | None = None
    in_features: int | None = None
    out_features: int | None = None

    def to_dict(self):
        return {k: v for k, v in self.__dict__.items() if v is not None}

    @staticmethod
    def from_dict(d):
        return LayerSpec(**d)


@dataclass
class NetworkSpec:
    """Ordered layer descriptors plus the timestep count and membrane constants."""

    input_shape: tuple
    layers: list
    t_steps: int = 5
    lif: LIFParams = field(default_factory=LIFParams)

    def to_dict(self):
        return {
            "input_shape": list(self.input_shape),
            "layers": [l.to_dict() for l in self.layers],
            "t_steps": self.t_steps,
            "lif": self.lif.to_dict(),
        }

    @staticmethod
    def from_dict(d):
        return NetworkSpec(
            input_shape=tuple(d["input_shape"]),
            layers=[LayerSpec.from_dict(l) for l in d["layers"]],
            t_steps=int(d["t_steps"]),
            lif=LIFParams(**d["lif"]),
        )


def vgg_mini(input_shape=(1, 8, 8), channels=(8, 16), classes=3, kernel=3, pool=2,
             t_steps=5, lif=None) -> NetworkSpec:
    """VGG-style stack of conv+BN+LIF blocks with one average pool per block."""
    c, h, w = input_shape
    layers = []
    prev = c
    for ch in channels:
        layers.append(LayerSpec("conv", in_channels=prev, out_channels=ch,
                                kernel=kernel, stride=1, padding=kernel // 2))
        layers.append(LayerSpec("batchnorm", out_channels=ch))
        layers.append(LayerSpec("lif"))
        layers.append(LayerSpec("avgpool", window=pool, stride=pool))
        prev = ch
        h //= pool
        w //= pool
    layers.append(LayerSpec("flatten"))
    layers.append(LayerSpec("linear", in_features=prev * h * w, out_features=classes))
    return NetworkSpec(input_shape=tuple(input_shape), layers=layers,
                       t_steps=t_steps, lif=lif or LIFParams())


def linear_snn(widths, t_steps=5, lif=None) -> NetworkSpec:
    """Fully connected stack: a LIF after every linear layer but the head."""
    layers = []
    for i in range(len(widths) - 1):
        layers.append(LayerSpec("linear", in_features=widths[i], out_features=widths[i + 1]))
        if i < len(widths) - 2:
            layers.append(LayerSpec("lif"))
    return NetworkSpec(input_shape=(widths[0],), layers=layers,
                       t_steps=t_steps, lif=lif or LIFParams())


def trace_shapes(spec: NetworkSpec) -> list:
    """Activation shape after each layer; raises DimensionError if layers do not compose."""
    shape = tuple(spec.input_shape)
    out = []
    for i, ls in enumerate(spec.layers):
        if ls.kind == "conv":
            if len(shape) != 3 or shape[0] != ls.in_channels:
                raise DimensionError(f"layer {i}: conv expects [{ls.in_channels},H,W], got {shape}")
            h, w = conv_out_hw(shape[1], shape[2], ls.kernel, ls.kernel, ls.stride, ls.padding)
            if h <= 0 or w <= 0:
                raise DimensionError(f"layer {i}: conv output collapses to {h}x{w}")
            shape = (ls.out_channels, h, w)
        elif ls.kind == "batchnorm":
            if len(shape) != 3 or shape[0] != ls.out_channels:
                raise DimensionError(f"layer {i}: batchnorm width {ls.out_channels} vs {shape}")
        elif ls.kind == "avgpool":
            if len(shape) != 3:
                raise DimensionError(f"layer {i}: avgpool needs a spatial input, got {shape}")
            h, w = conv_out_hw(shape[1], shape[2], ls.window, ls.window, ls.stride, 0)
            if h <= 0 or w <= 0:
                raise DimensionError(f"layer {i}: pool output collapses to {h}x{w}")
            shape = (shape[0], h, w)
        elif ls.kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif ls.kind == "linear":
            if len(shape) != 1 or shape[0] != ls.in_features:
                raise DimensionError(
                    f"layer {i}: linear expects {ls.in_features} features, got {shape}"
                )
            shape = (ls.out_features,)
        elif ls.kind != "lif":
            raise DimensionError(f"layer {i}: unknown kind {ls.kind!r}")
        out.append(shape)
    return out


def inference_tile(spec: NetworkSpec) -> int:
    """Samples per inference tile: the largest power of two whose biggest
    [T, tile, ...] float64 activation fits TILE_BYTES (at least 1)."""
    per_sample = 8 * spec.t_steps * max(math.prod(s) for s in trace_shapes(spec))
    return 1 << (max(TILE_BYTES // per_sample, 1).bit_length() - 1)


def validate_spec(spec: NetworkSpec):
    """Shape composition plus the fire-placement rule.

    Every conv is followed by batchnorm then LIF; every linear except the
    final accumulator head is followed by LIF.
    """
    trace_shapes(spec)
    kinds = [l.kind for l in spec.layers]
    last_weighted = max(i for i, k in enumerate(kinds) if k in WEIGHTED_KINDS)
    for i, k in enumerate(kinds):
        if k == "conv":
            if kinds[i + 1:i + 3] != ["batchnorm", "lif"]:
                raise DimensionError(f"layer {i}: conv must be followed by batchnorm then lif")
        elif k == "linear" and i != last_weighted:
            if i + 1 >= len(kinds) or kinds[i + 1] != "lif":
                raise DimensionError(f"layer {i}: hidden linear must be followed by lif")
    if kinds[last_weighted] != "linear":
        raise DimensionError("the network head must be a linear layer")
    if spec.t_steps < 1:
        raise DimensionError(f"t_steps must be >= 1, got {spec.t_steps}")


class SpikingNetwork:
    """A network instance: owns the layer parameters and forward/backward caches.

    All parameters live in one flat float64 arena, `flat`, and their
    gradients in a second one, `grad`; every layer parameter and gradient
    attribute is a reshaped view into them. Arena order is conv/linear
    weights in layer order, then biases, then batch-norm gamma/beta, so the
    prunable weights are the prefix flat[:n_prunable] (the global pruning
    index space) and the weight-decayed entries the prefix flat[:n_decayed].
    Write parameters in place (`layer.gamma[...] = v`): rebinding an
    attribute detaches it, and parameters() then raises StateError.

    Single-writer: forward/backward mutate cached state and must not run
    concurrently on one instance. Read-only evaluation of distinct instances
    is independent. The helper threads of spikeprune.cores write only the
    rows of their pieces: an inference forward's tiles, which only read the
    shared parameters, or the halves of a training kernel's arrays. Each
    forward and kernel waits for its pieces before it returns.
    """

    def __init__(self, spec: NetworkSpec, rng: np.random.Generator):
        validate_spec(spec)
        self.spec = spec
        self.layers: list[Layer] = []
        for ls in spec.layers:
            if ls.kind == "conv":
                self.layers.append(Conv2d(ls.in_channels, ls.out_channels, ls.kernel,
                                          ls.stride, ls.padding, rng))
            elif ls.kind == "batchnorm":
                self.layers.append(BatchNorm2d(ls.out_channels))
            elif ls.kind == "lif":
                self.layers.append(LIF(spec.lif))
            elif ls.kind == "avgpool":
                self.layers.append(AvgPool2d(ls.window, ls.stride))
            elif ls.kind == "flatten":
                self.layers.append(Flatten())
            elif ls.kind == "linear":
                self.layers.append(Linear(ls.in_features, ls.out_features, rng))
        self._head_index = max(
            i for i, l in enumerate(self.layers) if l.kind in WEIGHTED_KINDS
        )
        # Where the once-run prefix output is broadcast over T (module docstring).
        self._first_lif = next((i for i, l in enumerate(self.layers) if l.kind == "lif"),
                               len(self.layers))
        self.tile = inference_tile(spec)
        self._t_out = None          # time extent of the last training forward's output
        self.features = None
        if self.layers[0].kind == "conv":
            self.layers[0].input_grad = False   # nothing reads the input image's gradient
        self._build_arenas()

    def _build_arenas(self):
        entries = sorted(((f"layers.{i}.{name}", layer, name)
                          for i, layer in enumerate(self.layers) for name in layer.param_names),
                         key=lambda e: _ARENA_RANK[e[2]])
        arrays = [getattr(layer, name) for _, layer, name in entries]
        self._shapes = {key: a.shape for (key, _, _), a in zip(entries, arrays)}
        self.flat = np.concatenate([a.ravel() for a in arrays])
        self.grad = np.zeros_like(self.flat)
        ranks = [(_ARENA_RANK[name], a.size) for (_, _, name), a in zip(entries, arrays)]
        self.n_prunable = sum(size for rank, size in ranks if rank == 0)
        self.n_decayed = sum(size for rank, size in ranks if rank < 2)
        self._params, self._grads = self.split(self.flat), self.split(self.grad)
        self._owners = {key: (layer, name) for key, layer, name in entries}
        self._state_owners = {f"layers.{i}.{name}": (layer, name)
                              for i, layer in enumerate(self.layers)
                              if isinstance(layer, BatchNorm2d)
                              for name in layer.state_arrays()}
        for key, (layer, name) in self._owners.items():
            setattr(layer, name, self._params[key])
            setattr(layer, "d" + name, self._grads[key])

    # ---- parameter access -------------------------------------------------

    def parameters(self) -> dict:
        """Name -> arena view, in arena order; StateError if a layer attribute
        (parameter or gradient) was rebound away from its view."""
        for key, (layer, name) in self._owners.items():
            if (getattr(layer, name) is not self._params[key]
                    or getattr(layer, "d" + name) is not self._grads[key]):
                raise StateError(f"{key} no longer views the parameter arena; "
                                 f"assign into it with [...] = instead of rebinding")
        return dict(self._params)

    def grads(self) -> dict:
        self.parameters()
        return dict(self._grads)

    def set_parameter(self, name: str, value: np.ndarray):
        cur = self.parameters()[name]
        if cur.shape != value.shape:
            raise DimensionError(f"{name}: shape {value.shape} != expected {cur.shape}")
        cur[...] = value

    def split(self, vec: np.ndarray) -> dict:
        """Name -> view of vec for each parameter vec covers, taking vec as a
        leading slice of the arena (e.g. a prune mask over flat[:n_prunable])."""
        out, off = {}, 0
        for key, shape in self._shapes.items():
            size = math.prod(shape)
            if off + size > vec.size:
                break
            out[key] = vec[off:off + size].reshape(shape)
            off += size
        return out

    def state_arrays(self) -> dict:
        return {key: getattr(layer, name) for key, (layer, name) in self._state_owners.items()}

    def set_state_array(self, name: str, value: np.ndarray):
        layer, attr = self._state_owners[name]
        setattr(layer, attr, np.array(value, dtype=np.float64))

    def clone(self) -> "SpikingNetwork":
        """Independent copy with identical parameters and running statistics."""
        other = SpikingNetwork(self.spec, np.random.default_rng(0))
        for name, arr in self.parameters().items():
            other.set_parameter(name, arr)
        for name, arr in self.state_arrays().items():
            other.set_state_array(name, arr.copy())
        return other

    # ---- criticality wiring ------------------------------------------------

    def lif_indices(self) -> list:
        return [i for i, l in enumerate(self.layers) if isinstance(l, LIF)]

    def lif_states(self) -> dict:
        """The last training forward's LIFState per LIF layer index, whatever
        inference ran since; StateError if no training forward has run."""
        out = {}
        for i in self.lif_indices():
            st = self.layers[i].state
            if st is None:
                raise StateError("no recorded LIF state; run a training forward first")
            out[i] = st
        return out

    def scoring_lif(self, layer_index: int) -> int | None:
        """The LIF layer whose units score layer_index's outputs (None for the head)."""
        for j in range(layer_index + 1, len(self.layers)):
            k = self.layers[j].kind
            if k == "lif":
                return j
            if k in WEIGHTED_KINDS or k in ("avgpool", "flatten"):
                return None
        return None

    # ---- execution ----------------------------------------------------------

    def set_relaxed(self, on: bool):
        for layer in self.layers:
            if isinstance(layer, LIF):
                layer.relaxed = bool(on)

    def _checked_input(self, x: np.ndarray) -> np.ndarray:
        """x as an array; DimensionError unless its samples fit the network input."""
        x = np.asarray(x)
        if x.shape[1:] != tuple(self.spec.input_shape):
            raise DimensionError(
                f"input shape {x.shape[1:]} != network input {tuple(self.spec.input_shape)}"
            )
        return x

    def layer_input(self, x: np.ndarray) -> np.ndarray:
        """x [N, C, H, W] (or [N, F]) as a fresh float64 array in the layers'
        channels-last layout [N, H, W, C]; the one place that converts it."""
        x = self._checked_input(x)
        if x.ndim == 4:
            x = x.transpose(0, 2, 3, 1)
        return np.array(x, dtype=np.float64, order="C")     # layers cache their input

    def forward(self, x: np.ndarray, training: bool = False, on_tile=None) -> np.ndarray:
        """Run the net on x [N, C, H, W]; returns logits [N, classes].

        Each tile's input is converted by layer_input, so no float64 copy of
        the whole input is made; every activation after it is channels-last,
        [T, N, H, W, C], until Flatten emits (C, H, W) ordered features. Conv
        weights, in the arena and in checkpoints, stay [Cout, Cin, kh, kw].

        Inference runs the whole layer stack on `tile` samples before starting
        the next tile; a training forward is one tile, since batch-norm
        statistics couple the batch. The logits and `features` cover the full
        batch. Only a training forward writes the caches of `layers`, so
        lif_states() and backward read the last training forward whatever
        inference ran since; a training forward clears them first, so one
        that raises leaves nothing to read. on_tile(rows, states), if given,
        is called after each tile with the tile's row slice and its LIF states
        by layer index.

        An inference tile keeps only what a later step reads: conv and linear
        copies cache no input, and each LIF copy's state is taken off it as
        soon as that layer returns, kept in the tile's states only for
        on_tile, so a LIF's h is freed before the next layer runs.

        A training forward, like backward, runs in a cores.training()
        region: each per-row kernel of its layers runs as two fixed halves,
        shared with a pinned helper thread; the kernels that couple the batch,
        the head, and the loss stay whole on the caller. The halves give the
        whole-batch results bit for bit.

        Inference shares its tiles with the helper threads (cores.share):
        each thread takes the next tile not yet taken, so a thread slowed by a
        busy core takes fewer. Every tile runs on shallow copies of the
        layers, which share the parameter arrays; a thread takes a set of
        copies no other thread holds and hands it back after its tile.
        Inference never splits halves. It waits for every tile before it
        returns or raises the error of the earliest tile that failed. A tile
        writes only its own rows, so no result depends on the number of
        threads or on who ran which tile.
        """
        t = self.spec.t_steps
        x = self._checked_input(x)
        n = len(x)
        if n == 0:
            raise DimensionError("forward needs at least one sample")
        head = self.layers[self._head_index]
        self.features = np.empty((n, head.in_features))
        logits = np.empty((n, head.out_features))
        spare = [self.layers] if training else []       # layer sets free for the next tile

        def tile(lo, hi):
            try:        # one list call each, so pop and append need no lock
                layers = spare.pop()
            except IndexError:
                layers = [copy.copy(l) for l in self.layers]
            rows, states = slice(lo, hi), {}
            acts = self.layer_input(x[rows])[None]
            for i, layer in enumerate(layers):
                if i == self._first_lif:
                    acts = np.broadcast_to(acts, (t,) + acts.shape[1:])
                if i == self._head_index:
                    np.mean(acts, axis=0, out=self.features[rows])
                acts = layer.forward(acts, training)
                if layer.kind == "lif":
                    if on_tile is not None:
                        states[i] = layer.state
                    if not training:        # its h is freed before the next layer runs
                        layer.state = None
            np.mean(acts, axis=0, out=logits[rows])
            if on_tile is not None:
                on_tile(rows, states)
            spare.append(layers)

        if training:
            self._t_out = None      # a forward that raises leaves nothing to backward
            for i in self.lif_indices():
                self.layers[i].state = None
            with cores.training():
                tile(0, n)
            self._t_out = t if self._first_lif < len(self.layers) else 1
        else:
            cores.share(tile, [(lo, min(lo + self.tile, n)) for lo in range(0, n, self.tile)])
        return logits

    def backward(self, dlogits: np.ndarray):
        """Propagate loss gradient through time and layers, from the last
        training forward's caches; fills layer grads."""
        t = self._t_out
        if t is None:
            raise StateError("backward before a training forward")
        g = np.broadcast_to(dlogits / t, (t,) + dlogits.shape)
        with cores.training():
            for i in range(len(self.layers) - 1, -1, -1):
                g = self.layers[i].backward(g)
                if i == self._first_lif:
                    g = g.sum(axis=0, keepdims=True)
        self._t_out = None
