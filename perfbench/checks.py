"""Output checks on the artifacts of one pass of a workload.

Each check returns (name, ok, detail) and counts as one operation. Checks
read the files the CLI wrote and recompute what they claim with the
package's own functions; they run outside the timed and traced legs.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from spikeprune import checkpoint
from spikeprune.config import ExperimentConfig
from spikeprune.data import load_dataset
from spikeprune.network import NetworkSpec
from spikeprune.structured import ChannelPlan, count_flops, mask_channels, slim
from spikeprune.train import load_run_state

from workloads import PRUNED_ACC_FLOOR


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def sparsity(run: Path, s_f: float):
    """Final mask sparsity within 1/total of s_f (criterion 5)."""
    arrays, _ = checkpoint.load(run / "checkpoint_final.ckpt")
    masks = [a for name, a in arrays.items() if name.startswith("mask/")]
    total = sum(m.size for m in masks)
    pruned = sum(int((m == 0.0).sum()) for m in masks)
    got = pruned / total if total else float("nan")
    ok = total > 0 and abs(got - s_f) < 1.0 / total
    return "sparsity", ok, f"{got:.6f} vs s_f {s_f} over {total} weights"


def survival_replay(survival_json: Path, recomputed_json: Path):
    """analyze --metric survival, recomputed from mask_history.ckpt, equals survival.json."""
    live = json.loads(survival_json.read_text(encoding="utf-8"))
    replayed = json.loads(recomputed_json.read_text(encoding="utf-8"))
    ok = live == replayed
    return "survival_replay", ok, f"{len(live.get('iterations', []))} iterations " + (
        "match" if ok else "differ")


def slim_matches_mask(run: Path):
    """slim(L1 net, plan) == mask_channels(L1 net, plan) within 1e-5 on the
    test split, with the slim checkpoint's widths (criterion 8)."""
    l1, _, meta = load_run_state(run / "checkpoint_l1.ckpt")
    slim_ckpt, _, slim_meta = load_run_state(run / "checkpoint_slim.ckpt")
    cfg = ExperimentConfig.from_dict(meta["config"])
    data = load_dataset(cfg.dataset_spec(), np.random.default_rng(cfg.seed))
    plan = ChannelPlan.from_dict(slim_meta["plan"])
    slimmed = slim(l1, plan)
    masked = mask_channels(l1, plan)
    diff = 0.0
    for i in range(0, data.x_test.shape[0], 256):
        xb = data.x_test[i:i + 256]
        a = slimmed.forward(xb, training=False)
        b = masked.forward(xb, training=False)
        diff = max(diff, float(np.max(np.abs(a - b))))
    widths_ok = slimmed.spec.to_dict() == slim_ckpt.spec.to_dict()
    ok = diff <= 1e-5 and widths_ok
    return "slim_equals_mask", ok, f"max |slim - mask| {diff:.2e}, widths " + (
        "match" if widths_ok else "differ from checkpoint_slim")


def flops(run: Path):
    """flops.json equals count_flops(spec, plan)."""
    _, meta = checkpoint.load(run / "checkpoint_l1.ckpt")
    _, slim_meta = checkpoint.load(run / "checkpoint_slim.ckpt")
    want = count_flops(NetworkSpec.from_dict(meta["network"]),
                       ChannelPlan.from_dict(slim_meta["plan"])).to_dict()
    got = json.loads((run / "flops.json").read_text(encoding="utf-8"))
    return "flops", got == want, f"reduction {got.get('reduction')}"


def losses_finite(logs: list):
    bad = [f"{p.name}:{i}" for p in logs for i, r in enumerate(_rows(p))
           if not (math.isfinite(float(r["train_loss"])) and math.isfinite(float(r["test_loss"])))]
    return "losses_finite", not bad, "all finite" if not bad else f"non-finite at {bad[:5]}"


def accuracy(log: Path):
    rows = _rows(log)
    acc = float(rows[-1]["test_acc"]) if rows else float("nan")
    return "accuracy", acc >= PRUNED_ACC_FLOOR, f"final test acc {acc:.4f}, floor {PRUNED_ACC_FLOOR}"


def for_pass(workload, legs: dict) -> list:
    """Every check that applies to the workload's artifacts."""
    if workload.name == "structured_analyze":
        run = legs["prune-structured"]
        return [slim_matches_mask(run), flops(run),
                losses_finite([run / "train_log.csv", run / "finetune_log.csv"]),
                accuracy(run / "finetune_log.csv")]
    run = legs["prune-unstructured"]
    out = [sparsity(run, float(workload.keys["s_f"])),
           losses_finite([run / "epoch_log.csv"]),
           accuracy(run / "epoch_log.csv")]
    if "analyze-survival" in legs:
        out.append(survival_replay(run / "survival.json",
                                   legs["analyze-survival"] / "survival_recomputed.json"))
    return out


def same_outputs(a: dict, b: dict):
    """Byte-identical CSV and JSON artifacts between two passes of one seed."""
    differ, n = [], 0
    for leg, dir_a in a.items():
        for fa in sorted(dir_a.glob("*")):
            if fa.suffix not in (".csv", ".json"):
                continue
            n += 1
            fb = b[leg] / fa.name
            if not fb.exists() or fa.read_bytes() != fb.read_bytes():
                differ.append(f"{leg}/{fa.name}")
    ok = n > 0 and not differ
    return "deterministic", ok, f"{n} files identical" if ok else f"differ: {differ}"
