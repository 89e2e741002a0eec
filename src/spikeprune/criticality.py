"""Criticality scores from the surrogate derivative of recorded membrane traces.

A unit's score is the time-mean of g'(h - v_threshold), spatially aggregated
per channel for conv features (max by default, mean behind the flag), then
averaged over samples. Conv traces are channels-last, [T, N, H, W, C], like
every activation inside a network; per-channel scores index the output axis
of the conv weights [Cout, Cin, kh, kw]. Scores live in (0, 1]: they peak
when the membrane potential habitually sits at the threshold and decay
quadratically with the distance from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, StateError
from .network import WEIGHTED_KINDS

AGGREGATIONS = ("max", "mean")


@dataclass
class BatchScores:
    """Per-unit batch means keyed by LIF layer index, plus the sample count."""

    scores: dict
    count: int


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
        per_sample = g.mean(axis=0)                      # time-mean, [n, ...]
        if per_sample.ndim == 4:
            if aggregation == "max":
                per_sample = per_sample.max(axis=(1, 2))
            else:
                per_sample = per_sample.mean(axis=(1, 2))
        elif per_sample.ndim != 2:
            raise StateError(f"layer {key}: unexpected trace shape {g.shape}")
        out[key] = per_sample
    return out


def score_batch(per_sample: dict) -> BatchScores:
    """Batch means of per-sample scores (sample_scores, concatenated over
    the forwards that ran the batch)."""
    if not per_sample:
        raise StateError("no per-sample scores to average")
    count = None
    for key, rows in per_sample.items():
        if count is None:
            count = len(rows)
        elif count != len(rows):
            raise StateError(f"layer {key}: sample count {len(rows)} disagrees with {count}")
    return BatchScores({key: rows.mean(axis=0) for key, rows in per_sample.items()}, count)


class CriticalityTable:
    """Running per-unit sums and sample counts; finalize() divides them out.

    Accumulation weights each batch by its sample count, so any partition of
    the same samples into batches finalizes to the same scores (within fp
    roundoff).
    """

    def __init__(self):
        self._sum = {}
        self._count = {}

    def accumulate(self, batch: BatchScores):
        for key, mean_scores in batch.scores.items():
            add = mean_scores * batch.count
            if key in self._sum:
                if self._sum[key].shape != add.shape:
                    raise StateError(f"layer {key}: score shape changed between batches")
                self._sum[key] += add
                self._count[key] += batch.count
            else:
                self._sum[key] = add.copy()
                self._count[key] = batch.count

    def finalize(self) -> dict:
        if not self._sum:
            raise StateError("finalize on an empty criticality table")
        out = {}
        for key, s in self._sum.items():
            cnt = self._count[key]
            if cnt == 0:
                raise StateError(f"layer {key}: finalize with zero samples")
            out[key] = s / cnt
        return out


def connection_scores(unit_scores: np.ndarray, weight_shape: tuple) -> np.ndarray:
    """Broadcast post-synaptic unit scores onto a weight tensor.

    Linear weights [out, in] and conv weights [cout, cin, kh, kw] both key on
    their leading (output-unit) axis.
    """
    if unit_scores.shape[0] != weight_shape[0]:
        raise StateError(
            f"{unit_scores.shape[0]} unit scores vs {weight_shape[0]} output units"
        )
    reps = (1,) * (len(weight_shape) - 1)
    return np.broadcast_to(unit_scores.reshape((-1,) + reps), weight_shape).copy()


def head_connection_scores(unit_scores: np.ndarray, weight_shape: tuple) -> np.ndarray:
    """Criticality for the accumulator head's weights.

    The head has no spiking output units, so each weight inherits the score
    of its pre-synaptic unit instead: per-channel scores of the last spiking
    layer repeat over that channel's flattened spatial positions.
    """
    out_features, in_features = weight_shape
    n = unit_scores.shape[0]
    if in_features % n:
        raise StateError(
            f"{in_features} head inputs do not split over {n} pre-synaptic units"
        )
    per_feature = np.repeat(unit_scores, in_features // n)
    return np.broadcast_to(per_feature, weight_shape).copy()


def network_connection_scores(net, finalized: dict) -> np.ndarray:
    """Per-weight criticality over the network's flat prunable index space.

    Hidden layers broadcast their post-synaptic unit scores; the head falls
    back to pre-synaptic scores (or 0 when no spiking layer precedes it).
    """
    out = []
    for idx, layer in enumerate(net.layers):
        if layer.kind not in WEIGHTED_KINDS:
            continue
        lif = net.scoring_lif(idx)
        prev = [j for j in range(idx) if net.layers[j].kind == "lif"]
        if lif is not None:
            if lif not in finalized:
                raise StateError(f"layers.{idx}.weight: criticality table has no "
                                 f"scores for LIF layer {lif}")
            scores = connection_scores(finalized[lif], layer.weight.shape)
        elif prev and prev[-1] in finalized:
            scores = head_connection_scores(finalized[prev[-1]], layer.weight.shape)
        else:
            scores = np.zeros(layer.weight.shape)
        out.append(scores.ravel())
    return np.concatenate(out)


def scores_to_rows(finalized: dict):
    """Flatten finalized scores into (layer, unit, score) rows for CSV export."""
    return [(key, unit, float(val))
            for key in sorted(finalized) for unit, val in enumerate(finalized[key])]
