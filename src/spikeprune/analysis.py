"""Post-hoc instruments: regeneration-survival bookkeeping, importance
transition of non-overlapping channels, intra-cluster variance, and
train/test class-mean cosine similarity.

All functions are read-only analytics over frozen models or recorded runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError


# ---------------------------------------------------------------------------
# Regeneration survival
# ---------------------------------------------------------------------------

class SurvivalLedger:
    """Tracks which structures owe their survival to regeneration.

    The provenance flag of a structure is set when it is regenerated and
    cleared when it is pruned again; at the end of a run the flags of the
    surviving structures give the survived-via-regeneration percentage.
    records holds one dict per iteration, as survival_report writes it.
    """

    def __init__(self, total: int):
        self.total = total
        self.records: list[dict] = []
        self.provenance = np.zeros(total, dtype=bool)

    def on_iteration(self, iteration: int, newly_pruned: np.ndarray,
                     regenerated: np.ndarray):
        self.provenance[newly_pruned] = False
        self.provenance[regenerated] = True
        was_pruned = np.zeros(self.total, dtype=bool)
        was_pruned[newly_pruned] = True
        rescued = int(np.count_nonzero(was_pruned[regenerated]))
        pruned = int(len(newly_pruned))
        self.records.append({
            "iteration": iteration,
            "pruned": pruned,
            "regenerated": int(len(regenerated)),
            "rescued": rescued,
            # the share of this iteration's magnitude-pruned structures rescued
            "rescue_fraction": rescued / pruned if pruned else 0.0,
        })


def survival_report(ledger: SurvivalLedger, surviving: np.ndarray) -> dict:
    """JSON-ready summary: the ledger's per-iteration records plus the share of
    surviving structures (a boolean array over the ledger's flat index space)
    whose provenance flag is set."""
    n_surv = int(surviving.sum())
    return {
        "iterations": ledger.records,
        "final_survivors": n_surv,
        "survived_via_regeneration":
            float((ledger.provenance & surviving).sum() / n_surv) if n_surv else 0.0,
    }


def replay_mask_history(initial_mask: np.ndarray, history: list) -> dict:
    """Recompute a survival report from persisted per-iteration masks.

    history yields (post_prune, post_regen) boolean mask pairs over one flat
    index space, read one pair at a time. Used to cross-check the live ledger.
    """
    ledger = SurvivalLedger(initial_mask.size)
    prev = initial_mask
    for i, (post_prune, post_regen) in enumerate(history, start=1):
        newly_pruned = np.flatnonzero(prev & ~post_prune)
        regenerated = np.flatnonzero(~post_prune & post_regen)
        ledger.on_iteration(i, newly_pruned, regenerated)
        prev = post_regen
    return survival_report(ledger, prev)


# ---------------------------------------------------------------------------
# Feature geometry
# ---------------------------------------------------------------------------

def extract_features(net, x: np.ndarray) -> np.ndarray:
    """Pre-classifier activations (time-mean over T) from one eval-mode forward."""
    net.forward(x, training=False)
    return net.features


@dataclass
class FeatureBank:
    """Per-sample feature vectors with labels and a split tag."""

    vectors: np.ndarray        # [n, dim]
    labels: np.ndarray         # [n]
    split: str = "train"
    normalized: bool = False

    def normalize(self) -> "FeatureBank":
        """Unit-L2 copy; zero vectors stay zero."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        return FeatureBank(self.vectors / safe, self.labels, self.split, normalized=True)

    def of_class(self, cls: int) -> np.ndarray:
        return self.vectors[self.labels == cls]


def intra_cluster_variance(bank: FeatureBank, cls: int) -> float:
    """Mean squared L2 distance of a class's normalized features to their mean.

    Computed in a first-vector-anchored frame (translation invariant), which
    makes duplicated features give exactly 0.
    """
    if not bank.normalized:
        bank = bank.normalize()
    v = bank.of_class(cls)
    if v.shape[0] == 0:
        raise ArgumentError(f"class {cls} has no samples")
    w = v - v[0]
    center = w.mean(axis=0)
    return float(np.mean(np.sum((w - center) ** 2, axis=1)))


def class_mean_cosine(bank_train: FeatureBank, bank_test: FeatureBank, cls: int) -> float:
    """Cosine of the angle between a class's train-split and test-split feature means."""
    if not bank_train.normalized:
        bank_train = bank_train.normalize()
    if not bank_test.normalized:
        bank_test = bank_test.normalize()
    a = bank_train.of_class(cls)
    b = bank_test.of_class(cls)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ArgumentError(f"class {cls} missing from one split")
    ma = a.mean(axis=0)
    mb = b.mean(axis=0)
    na = np.linalg.norm(ma)
    nb = np.linalg.norm(mb)
    if na == 0.0 or nb == 0.0:
        raise NumericError(f"class {cls}: zero-norm feature mean")
    # 1 - |u - v|^2 / 2 on unit vectors: exact 1.0 for identical means
    u = ma / na
    w = mb / nb
    return float(1.0 - 0.5 * np.sum((u - w) ** 2))


# ---------------------------------------------------------------------------
# Importance transition
# ---------------------------------------------------------------------------

def _normalized_gammas(gammas: dict) -> dict:
    """Per-layer |gamma| scaled by that layer's max |gamma|."""
    out = {}
    for layer, g in gammas.items():
        mag = np.abs(np.asarray(g, dtype=np.float64))
        top = mag.max() if mag.size else 0.0
        out[layer] = mag / top if top > 0 else mag
    return out


def importance_transition(plan_a: dict, gammas_a: dict, plan_b: dict, gammas_b: dict):
    """Mean layer-normalized |gamma| of the channels kept by exactly one model.

    plan_* map layer key -> surviving ORIGINAL channel indices; gammas_* map
    layer key -> gamma over the original channel axis. Returns (mean_a,
    mean_b, detail rows) or None when the plans are identical.
    """
    norm_a = _normalized_gammas(gammas_a)
    norm_b = _normalized_gammas(gammas_b)
    rows = []
    vals_a, vals_b = [], []
    for layer in sorted(set(plan_a) | set(plan_b)):
        kept_a = set(plan_a.get(layer, ()))
        kept_b = set(plan_b.get(layer, ()))
        for ch in sorted(kept_a - kept_b):
            v = float(norm_a[layer][ch])
            vals_a.append(v)
            rows.append(("a", layer, ch, v))
        for ch in sorted(kept_b - kept_a):
            v = float(norm_b[layer][ch])
            vals_b.append(v)
            rows.append(("b", layer, ch, v))
    if not rows:
        return None
    mean_a = float(np.mean(vals_a)) if vals_a else float("nan")
    mean_b = float(np.mean(vals_b)) if vals_b else float("nan")
    return mean_a, mean_b, rows
