"""Spans recorded around spikeprune's public functions, from outside the package.

A span is (name, start, end, parent, note). Spans stay in memory until the
run ends. ``PROBES`` are the few spans the end-to-end metrics need; a traced
pass adds ``FULL`` and one span per layer forward and backward. Each name is patched where its caller looks
it up: ``cli``, ``train``, ``unstructured`` and ``structured`` import many
functions by name, and a patch on the defining module would record nothing.
"""

from __future__ import annotations

import functools
import importlib
import os
from time import perf_counter

EVAL_SPANS = ("train.evaluate", "structured.criticality_over_dataset",
              "analysis.extract_features")
PRUNE_MARKERS = ("unstructured.prune_global_magnitude",
                 "structured.prune_and_regenerate_channels")
FIRST_WORK = ("train.train_step", "analysis.extract_features")


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.note = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.layer_index: dict = {}     # id(layer) -> index in its network

    def call(self, name, fn, args, kwargs, note=None):
        idx = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if note is not None:
            span.note = note(args, kwargs, result)
        return result

    def self_times(self) -> dict:
        """Per span name: total duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.dur
        out = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.dur - c
        return out


# ---------------------------------------------------------------------------
# Notes: counts taken at the span boundary, after the span has ended.

def _batch(a, kw, r):
    return a[1].shape[0]


def _eval_samples(a, kw, r):
    trainer = a[0]
    split = kw.get("split", a[1] if len(a) > 1 else "test")
    return (trainer.data.x_test if split == "test" else trainer.data.x_train).shape[0]


def _x_samples(a, kw, r):
    return a[1].shape[0]


def _file_bytes(a, kw, r):
    return os.path.getsize(a[0])


def _network_forward(a, kw):
    training = kw.get("training", a[2] if len(a) > 2 else False)
    return "network.forward_train" if training else "network.forward_eval"


# (module, attribute path, span name or name function, note)
PROBES = (
    ("spikeprune.train", "Trainer.train_step", "train.train_step", _batch),
    ("spikeprune.train", "Trainer.evaluate", "train.evaluate", _eval_samples),
    ("spikeprune.structured", "criticality_over_dataset",
     "structured.criticality_over_dataset", _x_samples),
    ("spikeprune.cli", "extract_features", "analysis.extract_features", _x_samples),
    ("spikeprune.unstructured", "prune_global_magnitude",
     "unstructured.prune_global_magnitude", None),
    ("spikeprune.structured", "prune_and_regenerate_channels",
     "structured.prune_and_regenerate_channels", None),
)

OPS = ("conv2d", "conv2d_grad", "matmul", "matmul_grad", "avgpool2d", "avgpool2d_grad")
LAYER_CLASSES = ("Conv2d", "BatchNorm2d", "LIF", "AvgPool2d", "Flatten", "Linear")

FULL = tuple(("spikeprune.ops", op, f"ops.{op}", None) for op in OPS) + (
    ("spikeprune.network", "SpikingNetwork.forward", _network_forward, None),
    ("spikeprune.network", "SpikingNetwork.backward", "network.backward", None),
    ("spikeprune.optim", "SGD.step", "optim.sgd_step", None),
    ("spikeprune.train", "loss_ce_l1", "optim.loss_ce_l1", None),
    ("spikeprune.unstructured", "regenerate", "unstructured.regenerate", None),
    ("spikeprune.unstructured", "score_batch", "criticality.score_batch", None),
    ("spikeprune.structured", "score_batch", "criticality.score_batch", None),
    ("spikeprune.unstructured", "network_connection_scores",
     "criticality.network_connection_scores", None),
    ("spikeprune.analysis", "SurvivalLedger.on_iteration",
     "analysis.ledger_on_iteration", None),
    ("spikeprune.cli", "survival_report", "analysis.survival_report", None),
    ("spikeprune.cli", "replay_mask_history", "analysis.replay_mask_history", None),
    ("spikeprune.checkpoint", "save", "checkpoint.save", _file_bytes),
    ("spikeprune.checkpoint", "load", "checkpoint.load", _file_bytes),
    ("spikeprune.structured", "slim", "structured.slim", None),
    ("spikeprune.structured", "count_flops", "structured.count_flops", None),
    ("spikeprune.cli", "load_dataset", "data.load_dataset", None),
    ("spikeprune.cli", "write_csv", "io.write_csv", None),
)


# Every span name but the per-layer ones; each is reported as ``<name>.ms``.
SPAN_NAMES = tuple(dict.fromkeys(
    n for _, _, n, _ in PROBES + FULL if isinstance(n, str))) + (
    "network.forward_train", "network.forward_eval")


def _wrapper(tracer, fn, name, note):
    if callable(name):
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            return tracer.call(name(a, kw), fn, a, kw, note)
    else:
        @functools.wraps(fn)
        def wrapped(*a, **kw):
            return tracer.call(name, fn, a, kw, note)
    return wrapped


def _layer_wrapper(tracer, fn, direction):
    @functools.wraps(fn)
    def wrapped(self, *a, **kw):
        idx = tracer.layer_index.get(id(self), "?")
        return tracer.call(f"layers.{idx}.{self.kind}.{direction}", fn, (self,) + a, kw)
    return wrapped


def _indexing(tracer, fn):
    """Refresh the layer -> index map before the network drives its layers."""
    @functools.wraps(fn)
    def wrapped(net, *a, **kw):
        tracer.layer_index = {id(layer): i for i, layer in enumerate(net.layers)}
        return fn(net, *a, **kw)
    return wrapped


class Installed:
    """Patches in place for the duration of a ``with`` block."""

    def __init__(self, tracer: Tracer, traced: bool):
        self.tracer = tracer
        self.traced = traced
        self.saved = []

    def _patch(self, owner, attr, make):
        orig = vars(owner)[attr]
        self.saved.append((owner, attr, orig))
        setattr(owner, attr, make(getattr(owner, attr)))

    def __enter__(self):
        tr = self.tracer
        try:
            for module, path, name, note in PROBES + (FULL if self.traced else ()):
                owner, attr = resolve(module, path)
                self._patch(owner, attr, lambda fn: _wrapper(tr, fn, name, note))
            if self.traced:
                mod = importlib.import_module("spikeprune.layers")
                for cls_name in LAYER_CLASSES:
                    cls = getattr(mod, cls_name)
                    self._patch(cls, "forward", lambda fn: _layer_wrapper(tr, fn, "fwd"))
                    self._patch(cls, "backward", lambda fn: _layer_wrapper(tr, fn, "bwd"))
                # Outermost, so the index map is fresh before the network span opens.
                net_cls = importlib.import_module("spikeprune.network").SpikingNetwork
                for attr in ("forward", "backward"):
                    self._patch(net_cls, attr, lambda fn: _indexing(tr, fn))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved.clear()
        return False


def resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if not callable(getattr(owner, attr, None)):
        raise AttributeError(f"{module}.{path} is not a callable to trace")
    return owner, attr
