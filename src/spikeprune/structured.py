"""Channel-level pruning: L1-trained batch-norm scaling factors, global
|gamma| ranking, criticality regeneration over the training set, physical
slimming of the network, and multiply-accumulate accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .criticality import sample_scores, score_batch
from .errors import ArgumentError, DimensionError
from .network import NetworkSpec, SpikingNetwork, trace_shapes
from .unstructured import extend_sparsity, prune_global_magnitude, regenerate, round_half_up

# The LayerSpec fields holding each narrowed kind's (output, input) widths.
_WIDTH_FIELDS = {"conv": ("out_channels", "in_channels"), "batchnorm": ("out_channels", None),
                 "linear": ("out_features", "in_features")}


@dataclass
class ChannelPlan:
    """Surviving original channel indices per batch-norm layer."""

    keep: dict                  # bn layer index -> sorted list of channel indices
    widths: dict                # bn layer index -> original channel count

    def __post_init__(self):
        for layer, idx in self.keep.items():
            if layer not in self.widths:
                raise ArgumentError(f"layer {layer}: the plan keeps channels but has no width")
            width = self.widths[layer]
            if len(idx) == 0:
                raise ArgumentError(f"layer {layer}: a channel plan needs >= 1 survivor")
            if list(idx) != sorted(set(idx)) or idx[-1] >= width or idx[0] < 0:
                raise ArgumentError(f"layer {layer}: bad channel indices {idx}")

    @property
    def total_channels(self) -> int:
        return sum(self.widths.values())

    def survivors(self) -> int:
        return sum(len(v) for v in self.keep.values())

    def to_dict(self):
        return {
            "keep": {str(k): list(map(int, v)) for k, v in self.keep.items()},
            "widths": {str(k): int(v) for k, v in self.widths.items()},
        }

    @staticmethod
    def from_dict(d):
        return ChannelPlan(
            keep={int(k): list(map(int, v)) for k, v in d["keep"].items()},
            widths={int(k): int(v) for k, v in d["widths"].items()},
        )


def bn_gammas(net: SpikingNetwork) -> dict:
    """Gamma vectors keyed by batch-norm layer index, in layer order."""
    return {
        i: layer.gamma
        for i, layer in enumerate(net.layers)
        if layer.kind == "batchnorm"
    }


@dataclass
class ChannelPruneInfo:
    k: int
    pruned: np.ndarray          # flat channel indices removed before regeneration, ascending
    regenerated: np.ndarray     # flat channel indices brought back, ascending
    force_kept: list            # (layer, channel) kept by the collapse guard


def prune_and_regenerate_channels(net: SpikingNetwork, percent: float, r: float,
                                  channel_scores: dict) -> tuple:
    """Over-prune channels by |gamma| to the extended percent, then regenerate.

    Channels rank as connections do, through prune_global_magnitude and
    regenerate over one flat vector in (layer, channel) order; the info's
    flat indices count in that order. channel_scores maps bn layer index ->
    per-channel criticality. Returns (ChannelPlan, ChannelPruneInfo). A layer
    emptied by the global ranking force-keeps its first highest-|gamma| channel.
    """
    gammas = bn_gammas(net)
    widths = {layer: g.size for layer, g in gammas.items()}
    gamma = np.concatenate(list(gammas.values()))
    mags = np.abs(gamma)
    mask = np.ones(gamma.size, dtype=bool)
    pruned = prune_global_magnitude(mags, mask, extend_sparsity(percent, r))
    k = round_half_up((1.0 - percent) * mask.size) - int(np.count_nonzero(mask))
    regenerated = np.empty(0, dtype=np.intp)
    if k > 0:
        scores = np.concatenate([channel_scores[layer] for layer in gammas])
        regenerated = regenerate(mask, mags, scores, np.ones(scores.size, np.intp), gamma, k)

    bounds = np.cumsum(list(widths.values()))[:-1]
    keep = {layer: np.flatnonzero(kept).tolist()
            for layer, kept in zip(gammas, np.split(mask, bounds))}
    force_kept = [(layer, int(np.argmax(np.abs(g)))) for layer, g in gammas.items()
                  if not keep[layer]]
    keep.update({layer: [best] for layer, best in force_kept})
    return ChannelPlan(keep=keep, widths=widths), ChannelPruneInfo(
        k=k, pruned=pruned, regenerated=regenerated, force_kept=force_kept)


# ---------------------------------------------------------------------------
# Surgery
# ---------------------------------------------------------------------------

def _kept(spec: NetworkSpec, plan: ChannelPlan) -> dict:
    """Original indices each narrowed layer keeps: layer -> (kept outputs,
    kept inputs), None for an axis kept whole.

    A conv keeps its batch norm's channels as outputs and the previous
    conv's as inputs; a batch norm keeps its own channels; the linear after
    the conv stack keeps the last conv's channels, each as its h*w block of
    Flatten's (C, H, W) columns. Layers absent from the map are kept whole.
    """
    shapes = trace_shapes(spec)
    kept, prev = {}, None               # prev: the last conv's kept channels
    for i, ls in enumerate(spec.layers):
        if ls.kind == "conv":
            if i + 1 not in plan.keep:
                raise DimensionError(f"plan has no entry for batch norm after conv {i}")
            kept[i] = (plan.keep[i + 1], prev)
            prev = plan.keep[i + 1]
        elif ls.kind == "batchnorm":
            kept[i] = (plan.keep[i], None)
        elif ls.kind == "linear" and prev is not None:
            if spec.layers[i - 1].kind != "flatten":
                raise DimensionError(
                    "slimming expects the linear after the conv stack to follow a flatten"
                )
            _, h, w = shapes[i - 2]
            kept[i] = (None, np.add.outer(np.multiply(prev, h * w), np.arange(h * w)).ravel())
            prev = None
    return kept


def apply_plan_to_spec(spec: NetworkSpec, plan: ChannelPlan) -> NetworkSpec:
    """NetworkSpec with channel widths reduced per the plan."""
    layers = list(spec.layers)
    for i, axes in _kept(spec, plan).items():
        widths = zip(_WIDTH_FIELDS[layers[i].kind], axes)
        layers[i] = replace(layers[i], **{f: len(idx) for f, idx in widths if idx is not None})
    return replace(spec, layers=layers)


def slim(net: SpikingNetwork, plan: ChannelPlan) -> SpikingNetwork:
    """Physically remove pruned channels: every array of the slimmed net is
    the original's of the same arena name, indexed through _kept. The output
    matches the gamma/beta-masked original within float roundoff."""
    for layer, width in plan.widths.items():
        if net.layers[layer].kind != "batchnorm" or net.layers[layer].channels != width:
            raise DimensionError(f"plan does not match network at layer {layer}")
    kept = _kept(net.spec, plan)
    out = SpikingNetwork(apply_plan_to_spec(net.spec, plan), np.random.default_rng(0))
    stats = net.state_arrays()
    for name, arr in {**net.parameters(), **stats}.items():
        keep_out, keep_in = kept.get(int(name.split(".")[1]), (None, None))
        if keep_out is not None:
            arr = arr[keep_out]
        if keep_in is not None and arr.ndim > 1:     # a bias has no input axis
            arr = arr[:, keep_in]
        (out.set_state_array if name in stats else out.set_parameter)(name, arr)
    return out


def mask_channels(net: SpikingNetwork, plan: ChannelPlan) -> SpikingNetwork:
    """Copy of net with pruned channels silenced (gamma and beta zeroed).

    A silenced channel emits exactly 0 after batch norm, so the LIF behind it
    never fires and the channel contributes nothing downstream; this is the
    equivalence oracle for slim().
    """
    other = net.clone()
    for layer, keep in plan.keep.items():
        drop = np.setdiff1d(np.arange(plan.widths[layer]), keep)
        other.layers[layer].gamma[drop] = 0.0
        other.layers[layer].beta[drop] = 0.0
    return other


# ---------------------------------------------------------------------------
# MAC accounting
# ---------------------------------------------------------------------------

@dataclass
class FlopsReport:
    layers: list                # (layer index, kind, dense MACs, slim MACs)
    dense_total: int
    slim_total: int

    @property
    def reduction(self) -> float:
        if self.dense_total == 0:
            return 0.0
        return 1.0 - self.slim_total / self.dense_total

    def to_dict(self):
        return {
            "layers": [
                {"layer": i, "kind": k, "dense_macs": d, "slim_macs": s}
                for i, k, d, s in self.layers
            ],
            "dense_total": self.dense_total,
            "slim_total": self.slim_total,
            "reduction": self.reduction,
        }


def _spec_macs(spec: NetworkSpec) -> dict:
    """Per-weighted-layer multiply-accumulates for one sample, one timestep."""
    shapes = trace_shapes(spec)
    macs = {}
    for i, ls in enumerate(spec.layers):
        if ls.kind == "conv":
            _, oh, ow = shapes[i]
            macs[i] = ls.out_channels * ls.in_channels * ls.kernel * ls.kernel * oh * ow
        elif ls.kind == "linear":
            macs[i] = ls.in_features * ls.out_features
    return macs


def count_flops(spec: NetworkSpec, plan: ChannelPlan | None = None) -> FlopsReport:
    """MAC counts of the dense spec and its slimmed version; pure geometry."""
    dense = _spec_macs(spec)
    slim_macs = _spec_macs(apply_plan_to_spec(spec, plan)) if plan is not None else dense
    layers = [(i, spec.layers[i].kind, int(dense[i]), int(slim_macs[i])) for i in sorted(dense)]
    return FlopsReport(layers=layers,
                       dense_total=int(sum(dense.values())),
                       slim_total=int(sum(slim_macs.values())))


# ---------------------------------------------------------------------------
# Criticality
# ---------------------------------------------------------------------------

def criticality_over_dataset(net: SpikingNetwork, x: np.ndarray, batch_size: int,
                             aggregation: str = "max") -> dict:
    """Channel criticality over a full dataset in inference mode.

    One forward runs the whole set; each tile's per-sample scores go into
    their rows as the tile finishes, and score_batch averages them per
    batch_size slice, so each slice equals one full-batch run.
    """
    shapes = trace_shapes(net.spec)
    per_sample = {i: np.empty((len(x), shapes[i][0])) for i in net.lif_indices()}

    def on_tile(rows, states):
        for key, scores in sample_scores(states, aggregation).items():
            per_sample[key][rows] = scores

    net.forward(x, training=False, on_tile=on_tile)
    means = score_batch(per_sample, batch_size)
    return {i: means[net.scoring_lif(i)] for i in bn_gammas(net)}
