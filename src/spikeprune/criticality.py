"""Criticality scores from the surrogate derivative of recorded membrane traces.

A unit's score is the time-mean of g'(h - v_threshold), spatially aggregated
per channel for conv features (max by default, mean behind the flag), then
averaged over samples: sample_scores gives each sample's row and
score_batch takes the mean. Conv traces are channels-last, [T, N, H, W, C],
like every activation inside a network; per-channel scores index the output
axis of the conv weights [Cout, Cin, kh, kw]. Scores live in (0, 1]: they
peak when the membrane potential habitually sits at the threshold and decay
quadratically with the distance from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, StateError
from .network import WEIGHTED_KINDS, trace_shapes

AGGREGATIONS = ("max", "mean")


def sample_scores(states: dict, aggregation: str = "max") -> dict:
    """Per-sample unit scores [n, units] of one recorded forward pass.

    states maps a LIF layer index to its LIFState. Conv-feature traces,
    channels-last [T, n, H, W, C], reduce over their spatial axes to
    per-channel scores; flat traces [T, n, F] score each neuron directly.
    Each sample's row depends on that sample's trace only, so the rows of a
    batch run in several forwards concatenate to those of one forward.
    """
    if aggregation not in AGGREGATIONS:
        raise ArgumentError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    if not states:
        raise StateError("no recorded LIF states to score")
    out = {}
    for key, st in states.items():
        g = st.gprime
        if g.ndim == 5 and aggregation == "max":
            # Division by T > 0 is monotone, so the max of the time-sum over
            # T is the max of the time-mean, bit for bit, from one pass less.
            per_sample = g.sum(axis=0).max(axis=(1, 2)) / g.shape[0]
        elif g.ndim == 5:
            per_sample = g.mean(axis=0).mean(axis=(1, 2))
        elif g.ndim == 3:
            per_sample = g.mean(axis=0)                  # time-mean, [n, F]
        else:
            raise StateError(f"layer {key}: unexpected trace shape {g.shape}")
        out[key] = per_sample
    return out


def score_batch(per_sample: dict, batch: int | None = None) -> dict:
    """Per-unit means of per-sample scores (sample_scores, concatenated over
    the forwards that ran the samples), keyed like per_sample.

    Each slice of batch consecutive rows (one slice of all rows by default)
    adds its mean times its row count; the sum is divided by the row count.
    Any batch therefore gives the same scores within fp roundoff.
    """
    if not per_sample:
        raise StateError("no per-sample scores to average")
    out = {}
    for key, rows in per_sample.items():
        if not len(rows):
            raise StateError(f"layer {key}: no samples to average")
        step = batch or len(rows)
        total = None
        for lo in range(0, len(rows), step):
            part = rows[lo:lo + step]
            add = part.mean(axis=0) * len(part)
            total = add if total is None else total + add
        out[key] = total / len(rows)
    return out


@dataclass(frozen=True)
class ConnectionRuns:
    """The network's flat prunable index space cut into runs: blocks of
    consecutive weights that share one criticality score. A hidden layer has
    one run per output unit (its fan-in). The head has no spiking output
    units and its weights inherit the score of their pre-synaptic unit, so
    each head row has one run per unit of the LIF before it (a channel's run
    covers its flattened spatial positions); a head with no LIF before it is
    one run scoring 0. The layout depends only on the network's spec.
    """

    layers: tuple               # per weighted layer: (scoring LIF index or None, units, rows)
    lengths: np.ndarray         # run lengths in flat order


def connection_runs(net) -> ConnectionRuns:
    """Run layout of net's prunable weights (see ConnectionRuns)."""
    shapes = trace_shapes(net.spec)
    layers, lengths = [], []
    for idx, layer in enumerate(net.layers):
        if layer.kind not in WEIGHTED_KINDS:
            continue
        lif, out = net.scoring_lif(idx), layer.weight.shape[0]
        prev = [j for j in range(idx) if net.layers[j].kind == "lif"]
        if lif is not None:
            entry = (lif, out, 1)
        elif prev:
            entry = (prev[-1], shapes[prev[-1]][0], out)
        else:
            entry = (None, 1, 1)
        layers.append(entry)
        runs = entry[1] * entry[2]
        lengths.append(np.full(runs, layer.weight.size // runs, dtype=np.intp))
    return ConnectionRuns(tuple(layers), np.concatenate(lengths))


def network_connection_scores(runs: ConnectionRuns, means: dict) -> np.ndarray:
    """One criticality score per run, in flat order: a hidden layer's runs
    take its post-synaptic unit scores, and each head row repeats the
    pre-synaptic ones."""
    out = []
    for lif, units, rows in runs.layers:
        if lif is None:
            out.append(np.zeros(1))
            continue
        if lif not in means:
            raise StateError(f"criticality means have no scores for LIF layer {lif}")
        if means[lif].shape != (units,):
            raise StateError(f"LIF layer {lif}: {means[lif].size} scores vs {units} units")
        out.append(np.tile(means[lif], rows))
    return np.concatenate(out)


def scores_to_rows(means: dict):
    """Flatten per-unit means into (layer, unit, score) rows for CSV export."""
    return [(key, unit, float(val))
            for key in sorted(means) for unit, val in enumerate(means[key])]
