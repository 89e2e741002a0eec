"""The benchmark's workloads.

Each workload is a closed loop with one client: its CLI legs run back to
back in one Python process. The program sees only the config text that
``config_text`` generates from the workload seed. Each workload is built so
that a different layer carries most of its time; ``why`` records which, and
``expected_spans`` names the spans that must fire on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

# Criterion 10 gates: dense >= 0.90 and every pruned run within 10 points of
# dense, so a pruned run is held to 0.90 - 0.10.
PRUNED_ACC_FLOOR = 0.80

# Spans every workload exercises: training steps, evaluation, the kernels,
# the layer stack, the optimizer, data generation, CSV output, checkpoints.
_LAYERS = ("conv", "batchnorm", "lif", "avgpool", "conv", "batchnorm", "lif",
           "avgpool", "flatten", "linear")
LAYER_SPANS = tuple(f"layers.{i}.{kind}.{d}" for i, kind in enumerate(_LAYERS)
                    for d in ("fwd", "bwd"))
COMMON_SPANS = (
    "train.train_step", "train.evaluate",
    "ops.conv2d", "ops.conv2d_grad", "ops.matmul", "ops.matmul_grad",
    "ops.avgpool2d", "ops.avgpool2d_grad",
    "network.forward_train", "network.forward_eval", "network.backward",
    "optim.sgd_step", "optim.loss_ce_l1",
    "criticality.score_batch", "analysis.ledger_on_iteration",
    "analysis.survival_report", "checkpoint.save",
    "data.load_dataset", "io.write_csv",
) + LAYER_SPANS
UNSTRUCTURED_SPANS = ("unstructured.prune_global_magnitude", "unstructured.regenerate",
                      "criticality.network_connection_scores")


@dataclass(frozen=True)
class Leg:
    name: str
    argv: tuple
    out: Path


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict              # config keys at benchmark size
    toy_keys: dict          # overrides for the self-test's toy size
    expected_spans: tuple

    def config_text(self, seed: int, toy: bool = False) -> str:
        keys = dict(self.keys, **(self.toy_keys if toy else {}))
        lines = [f"seed = {seed}"] + [f"{k} = {v}" for k, v in keys.items()]
        return "\n".join(lines) + "\n"

    def legs(self, cfg: Path, out: Path) -> list:
        if self.name == "structured_analyze":
            run = out / "structured"
            legs = [Leg("prune-structured",
                        ("prune-structured", "--config", str(cfg), "--out", str(run)), run)]
            # The L1 checkpoint is analysed too: full-width eval-mode forward
            # is what makes eval the majority of this workload.
            for ckpt in ("slim", "l1"):
                for metric in ("variance", "cosine"):
                    dest = out / f"{metric}_{ckpt}"
                    legs.append(Leg(f"analyze-{metric}-{ckpt}", (
                        "analyze", "--checkpoint", str(run / f"checkpoint_{ckpt}.ckpt"),
                        "--metric", metric, "--out", str(dest)), dest))
            return legs
        run = out / "unstructured"
        legs = [Leg("prune-unstructured",
                    ("prune-unstructured", "--config", str(cfg), "--out", str(run)), run)]
        if self.name == "prune_heavy":
            dest = out / "survival"
            legs.append(Leg("analyze-survival", (
                "analyze", "--checkpoint", str(run / "checkpoint_final.ckpt"),
                "--metric", "survival", "--out", str(dest)), dest))
        return legs


WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk_regen",
        why="default desk leg: train steps carry the time, prune events are rare "
            "and cheap, so prune-event changes should not move it",
        keys=dict(channels="12, 24", image="1x8x8", T=5, batch_size=128,
                  train_samples=600, test_samples=300, N_p=20, N_f=20,
                  delta_t=10, s_f=0.9, r=0.5),
        toy_keys=dict(channels="4, 8", train_samples=96, test_samples=48,
                      batch_size=16, N_p=2, N_f=2, delta_t=3),
        expected_spans=COMMON_SPANS + UNSTRUCTURED_SPANS,
    ),
    Workload(
        name="prune_heavy",
        why="wide net, batch 8, a prune event after every step and a 120 MB "
            "mask history read back by analyze survival: pruning, scoring, "
            "ledger and checkpoint I/O carry weight",
        keys=dict(channels="64, 128", image="1x8x8", T=5, batch_size=8,
                  train_samples=800, test_samples=96, N_p=1, N_f=1,
                  delta_t=1, s_f=0.9, r=0.5),
        toy_keys=dict(channels="4, 8", train_samples=96, test_samples=24),
        expected_spans=COMMON_SPANS + UNSTRUCTURED_SPANS + (
            "checkpoint.load", "analysis.replay_mask_history"),
    ),
    Workload(
        name="structured_analyze",
        why="channel slimming then variance and cosine analyses of the slim and "
            "L1 checkpoints: eval-mode forward carries most of the time, "
            "unstructured masks are bypassed",
        keys=dict(channels="12, 24", image="1x8x8", T=5, batch_size=64,
                  train_samples=2400, test_samples=3000, N_t=3, N_f=1,
                  N_1=1, N_2=2, s=1e-4, percent=0.5),
        toy_keys=dict(channels="4, 8", train_samples=96, test_samples=48,
                      batch_size=16),
        expected_spans=COMMON_SPANS + (
            "structured.criticality_over_dataset", "structured.prune_and_regenerate_channels",
            "structured.slim", "structured.count_flops", "analysis.extract_features",
            "checkpoint.load"),
    ),
)}
