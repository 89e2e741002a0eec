"""Command-line harness: train | prune-unstructured | prune-structured |
analyze | verify.

One RNG stream per run, seeded once; draws happen in a fixed order (dataset,
weight init, per-epoch shuffles), so any subcommand rerun with the same
config and seed writes byte-identical CSVs. Output goes to --out, the
config's `out`, or $SPIKEPRUNE_OUT/<subcommand> (default ./runs/<subcommand>).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import tempfile
from dataclasses import asdict

import numpy as np

from . import checkpoint, structured
from .analysis import (
    FeatureBank,
    SurvivalLedger,
    class_mean_cosine,
    extract_features,
    importance_transition,
    intra_cluster_variance,
    replay_mask_history,
    survival_report,
)
from .config import ExperimentConfig, load_config, validate
from .criticality import scores_to_rows
from .data import load_dataset
from .errors import ConfigError
from .layers import LIFParams
from .network import SpikingNetwork, vgg_mini
from .optim import TrainConfig
from .train import (
    EPOCH_HEADER,
    PRUNE_HEADER,
    Trainer,
    load_run_state,
    meta_entry,
    save_run_state,
    write_csv,
)
from .unstructured import SparsitySchedule, extend_sparsity, prune_loop, round_half_up, sparsity

PACKAGE_ERRORS = (ConfigError, ValueError, RuntimeError, ArithmeticError, OSError)
# glibc mallopt parameters, and the cap of glibc's own adaptive mmap threshold
# on 64-bit.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD, M_ARENA_MAX = -1, -3, -8
MMAP_THRESHOLD = 32 << 20


def fix_allocator_thresholds():
    """Fix glibc's mmap and trim thresholds for the process.

    By default glibc raises both after the process frees a large mmapped
    block, so whether a training step reuses heap memory or faults in fresh
    pages depends on which blocks the previous evaluation happened to free.
    Fixed at the cap the adaptive rule reaches (trim at twice the mmap
    threshold, as that rule sets it), every array below 32 MiB comes from
    the heap whatever ran before. One arena serves every thread: the
    helper pool (spikeprune.cores) would otherwise get arenas of its own,
    which the trim threshold never shrinks. A no-op where mallopt is
    missing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
    mallopt(M_ARENA_MAX, 1)


def _out_dir(args, sub: str, cfg_out: str = "") -> str:
    """The output directory, which _in creates at the first write: a run
    refused by any check leaves none behind."""
    return args.out or cfg_out or os.path.join(os.environ.get("SPIKEPRUNE_OUT", "runs"), sub)


def _in(out: str, name: str) -> str:
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_json(path, obj):
    with checkpoint.atomic_write(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, sort_keys=True, indent=2)


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        validate(cfg)
    return cfg


def _make_spec(cfg: ExperimentConfig):
    lif = LIFParams(tau=cfg.tau, v_threshold=cfg.v_threshold, v_reset=cfg.v_reset)
    return vgg_mini(input_shape=cfg.image, channels=cfg.channels, classes=cfg.classes,
                    kernel=cfg.kernel, pool=cfg.pool, t_steps=cfg.T, lif=lif)


def _spec_fields(spec) -> dict:
    """spec.to_dict() with each layer's fields as entries of their own."""
    d = spec.to_dict()
    return {**{k: v for k, v in d.items() if k != "layers"},
            **{f"layer {i} {k}": v for i, l in enumerate(d["layers"]) for k, v in l.items()}}


def _train_cfg(cfg: ExperimentConfig, epochs: int, mode: str) -> TrainConfig:
    return TrainConfig(
        lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.wd,
        batch_size=cfg.batch_size, epochs=epochs,
        lr_schedule=cfg.schedule_kind(mode),
        lr_drop_epochs=(cfg.N_1, cfg.N_2),
    )


def _fresh_run(cfg: ExperimentConfig):
    """Seeded stream -> dataset -> network, in that order."""
    rng = np.random.default_rng(cfg.seed)
    data = load_dataset(cfg.dataset_spec(), rng)
    net = SpikingNetwork(_make_spec(cfg), rng)
    return rng, data, net


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, "train", cfg.out)
    rng, data, net = _fresh_run(cfg)
    trainer = Trainer(net, data, _train_cfg(cfg, cfg.epochs, "unstructured"), rng)
    rows = trainer.run_epochs(cfg.epochs)
    write_csv(_in(out, "train_log.csv"), EPOCH_HEADER, rows)
    save_run_state(
        _in(out, "checkpoint.ckpt"), net,
        meta_extra={"kind": "dense", "config": cfg.to_dict(), "epochs_done": cfg.epochs},
        rng=rng,
    )
    print(f"train: {cfg.epochs} epochs, final test acc "
          f"{rows[-1][5]:.4f}, artifacts in {out}")
    return 0


def _unstructured_schedule(cfg: ExperimentConfig, steps_per_epoch: int, prunable: int,
                           gmp_only: bool) -> SparsitySchedule:
    budget = cfg.N_p * steps_per_epoch
    t_f = (budget // cfg.delta_t) * cfg.delta_t
    if t_f == 0:
        raise ConfigError(f"key 'delta_t': {cfg.delta_t} exceeds the pruning budget of {budget} "
                          f"steps (key 'N_p' epochs of key 'train_samples' / key 'batch_size')")
    r = 0.0 if gmp_only else cfg.regen_ratio("unstructured")
    if round_half_up((1.0 - extend_sparsity(cfg.s_f, r)) * prunable) < 1:   # the last event
        raise ConfigError(f"key 's_f': {cfg.s_f} with key 'r' = {r} leaves none of the "
                          f"{prunable} prunable weights")
    return SparsitySchedule(s_f=cfg.s_f, delta_t=cfg.delta_t, t_f=t_f, r=r)


def cmd_prune_unstructured(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, "unstructured", cfg.out)
    if args.resume:
        net, _, meta = load_run_state(args.resume)
        prev = meta_entry(args.resume, meta, "config", ExperimentConfig.from_dict)
        if prev.seed != cfg.seed:
            raise ConfigError(f"resume checkpoint was seeded {prev.seed}, config says {cfg.seed}")
        if meta.get("epochs_done") != cfg.N_pre:
            raise ConfigError(
                f"resume checkpoint holds {meta.get('epochs_done')} epochs, N_pre={cfg.N_pre}"
            )
        for what, saved, now in (
                ("dataset", asdict(prev.dataset_spec()), asdict(cfg.dataset_spec())),
                ("network", _spec_fields(net.spec), _spec_fields(_make_spec(cfg)))):
            key = next((k for k in {**saved, **now} if saved.get(k) != now.get(k)), None)
            if key is not None:
                raise ConfigError(f"resume checkpoint's {what} has {key} = {saved.get(key)}, "
                                  f"the config's {now.get(key)}")
        # the dataset came from the stream's first draws; the checkpointed
        # state already accounts for everything up to the end of pretraining
        data = load_dataset(cfg.dataset_spec(), np.random.default_rng(cfg.seed))
        rng = np.random.default_rng(cfg.seed)
        meta_entry(args.resume, meta, "rng_state", lambda s: setattr(rng.bit_generator, "state", s))
    else:
        rng, data, net = _fresh_run(cfg)

    # checked before pretraining, so that a refused budget costs no training
    trainer = Trainer(net, data, _train_cfg(cfg, cfg.N_p + cfg.N_f, "unstructured"), rng)
    sched = _unstructured_schedule(cfg, trainer.steps_per_epoch, net.n_prunable, args.gmp_only)
    if not args.resume and cfg.N_pre > 0:
        pre = Trainer(net, data, _train_cfg(cfg, cfg.N_pre, "unstructured"), rng)
        write_csv(_in(out, "pretrain_log.csv"), EPOCH_HEADER, pre.run_epochs(cfg.N_pre))
    res = prune_loop(net, trainer, sched, epochs=cfg.N_p + cfg.N_f,
                     aggregation=cfg.aggregation, gmp_only=args.gmp_only)

    write_csv(_in(out, "epoch_log.csv"), EPOCH_HEADER, res.epoch_rows)
    write_csv(_in(out, "prune_log.csv"), PRUNE_HEADER,
              [(e.iteration, e.step, e.s_t, e.s_prime, e.k, e.rescue_fraction,
                e.train_acc) for e in res.events])

    hist_arrays = {f"it{i:04d}.{name}": (res.mask.size, m)
                   for i, pair in enumerate(res.mask_history, start=1)
                   for name, m in zip(("post_prune", "post_regen"), pair)}
    checkpoint.save(_in(out, "mask_history.ckpt"), hist_arrays,
                    {"iterations": len(res.mask_history), "total": res.mask.size})

    report = survival_report(res.ledger, res.mask)
    _write_json(_in(out, "survival.json"), report)

    save_run_state(
        _in(out, "checkpoint_final.ckpt"), net,
        meta_extra={"kind": "unstructured", "config": cfg.to_dict(),
                    "sparsity": sparsity(res.mask),
                    "survived_via_regeneration": report["survived_via_regeneration"]},
        mask=res.mask, rng=rng,
    )
    print(f"prune-unstructured: sparsity {sparsity(res.mask):.6f}, "
          f"final test acc {res.epoch_rows[-1][5]:.4f}, artifacts in {out}")
    return 0


def cmd_prune_structured(args) -> int:
    cfg = _load_cfg(args)
    out = _out_dir(args, "structured", cfg.out)
    rng, data, net = _fresh_run(cfg)
    trainer = Trainer(net, data, _train_cfg(cfg, cfg.N_t, "structured"), rng)
    train_rows = trainer.run_epochs(cfg.N_t, lambda_l1=cfg.s)

    # Each phase is looked up on the structured module at call time: the
    # benchmark's spans patch it there, and a name imported into this module
    # would run unpatched and drop the span and its probe.
    scores = structured.criticality_over_dataset(net, data.x_train, cfg.batch_size,
                                                 cfg.aggregation)
    plan, info = structured.prune_and_regenerate_channels(
        net, cfg.percent, cfg.regen_ratio("structured"), scores)
    ledger = SurvivalLedger(plan.total_channels)
    ledger.on_iteration(1, info.pruned, info.regenerated)
    slimmed = structured.slim(net, plan)
    flops = structured.count_flops(net.spec, plan)
    finetuner = Trainer(slimmed, data, _train_cfg(cfg, cfg.N_f, "structured"), rng)
    finetune_rows = finetuner.run_epochs(cfg.N_f)

    write_csv(_in(out, "train_log.csv"), EPOCH_HEADER, train_rows)
    write_csv(_in(out, "finetune_log.csv"), EPOCH_HEADER, finetune_rows)
    write_csv(_in(out, "criticality.csv"), "layer,unit,score", scores_to_rows(scores))
    _write_json(_in(out, "flops.json"), flops.to_dict())

    surviving = np.concatenate([np.isin(np.arange(width), plan.keep[layer])
                                for layer, width in sorted(plan.widths.items())])
    report = survival_report(ledger, surviving)
    _write_json(_in(out, "survival.json"), report)

    save_run_state(
        _in(out, "checkpoint_l1.ckpt"), net,
        meta_extra={"kind": "structured-l1", "config": cfg.to_dict()},
        rng=rng,
    )
    save_run_state(
        _in(out, "checkpoint_slim.ckpt"), slimmed,
        meta_extra={"kind": "structured-slim", "config": cfg.to_dict(),
                    "plan": plan.to_dict(), "flops": flops.to_dict(),
                    "force_kept": [list(fc) for fc in info.force_kept]},
        rng=rng,
    )
    final_acc = finetune_rows[-1][5] if finetune_rows else finetuner.evaluate()[1]
    print(f"prune-structured: kept {plan.survivors()}/{plan.total_channels} "
          f"channels, flops reduction {flops.reduction:.4f}, "
          f"final test acc {final_acc:.4f}, artifacts in {out}")
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _banks_from_checkpoint(path):
    net, _, meta = load_run_state(path)
    cfg = meta_entry(path, meta, "config", ExperimentConfig.from_dict)
    data = load_dataset(cfg.dataset_spec(), np.random.default_rng(cfg.seed))
    train = FeatureBank(extract_features(net, data.x_train), data.y_train, "train").normalize()
    test = FeatureBank(extract_features(net, data.x_test), data.y_test, "test").normalize()
    return train, test, cfg


def _gammas_over_original_axis(path):
    net, _, meta = load_run_state(path)
    if "plan" not in meta:
        raise ConfigError(f"{path}: checkpoint has no channel plan (not a slimmed model)")
    plan = meta_entry(path, meta, "plan", structured.ChannelPlan.from_dict)
    gammas, bns = {}, structured.bn_gammas(net)
    for layer, keep in plan.keep.items():
        if len(bns.get(layer, ())) != len(keep):
            raise ValueError(f"{path}: the plan's layer {layer} is not a batch norm of "
                             f"{len(keep)} channels in the checkpoint's network")
        full = np.zeros(plan.widths[layer])
        full[list(keep)] = bns[layer]
        gammas[layer] = full
    return plan.keep, gammas


def cmd_analyze(args) -> int:
    out = _out_dir(args, "analyze")
    if args.metric in ("variance", "cosine"):
        train, test, cfg = _banks_from_checkpoint(args.checkpoint)
        if args.metric == "variance":
            rows = [(split, cls, intra_cluster_variance(bank, cls)) for cls in range(cfg.classes)
                    for split, bank in (("train", train), ("test", test))]
            write_csv(_in(out, "variance.csv"), "split,class,variance", rows)
        else:
            rows = [(cls, class_mean_cosine(train, test, cls))
                    for cls in range(cfg.classes)]
            write_csv(_in(out, "cosine.csv"), "class,cosine", rows)
    elif args.metric == "transition":
        if not args.checkpoint_b:
            raise ConfigError("--metric transition needs --checkpoint-b")
        plan_a, gam_a = _gammas_over_original_axis(args.checkpoint)
        plan_b, gam_b = _gammas_over_original_axis(args.checkpoint_b)
        result = importance_transition(plan_a, gam_a, plan_b, gam_b)
        if result is None:
            write_csv(_in(out, "transition.csv"),
                      "side,layer,channel,gamma_norm", [])
            print("analyze: channel plans are identical; no non-overlapping channels")
            return 0
        mean_a, mean_b, rows = result
        write_csv(_in(out, "transition.csv"),
                  "side,layer,channel,gamma_norm", rows)
        _write_json(_in(out, "transition_summary.json"),
                    {"mean_a": mean_a, "mean_b": mean_b})
    elif args.metric == "survival":
        run_dir = os.path.dirname(os.path.abspath(args.checkpoint))
        hist_path = os.path.join(run_dir, "mask_history.ckpt")
        arrays, meta = checkpoint.load(hist_path)
        iterations = meta_entry(hist_path, meta, "iterations", int)
        total = meta_entry(hist_path, meta, "total", int)

        def entry(name):
            if name not in arrays or arrays[name].shape != (total,):
                raise ValueError(f"{hist_path}: the mask history has no entry {name!r} "
                                 f"of {total} mask bits")
            return arrays[name].astype(bool, copy=False)    # a version-1 file holds floats

        history = [(entry(f"it{i:04d}.post_prune"), entry(f"it{i:04d}.post_regen"))
                   for i in range(1, iterations + 1)]
        report = replay_mask_history(np.ones(total, dtype=bool), history)
        rows = [(it["iteration"], it["pruned"], it["regenerated"], it["rescue_fraction"])
                for it in report["iterations"]]
        write_csv(_in(out, "survival.csv"),
                  "iteration,pruned,regenerated,rescue_fraction", rows)
        _write_json(_in(out, "survival_recomputed.json"), report)
    print(f"analyze: {args.metric} written to {out}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all
    with tempfile.TemporaryDirectory() as tmp:
        results = run_all(tmp)
    failed = 0
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"error: {failed} verification properties failed", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spikeprune")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, resume=False):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        if resume:
            p.add_argument("--resume", default=None,
                           help="continue from a dense-training checkpoint")

    common(sub.add_parser("train", help="dense training run"))
    p = sub.add_parser("prune-unstructured", help="iterative magnitude pruning with regeneration")
    common(p, resume=True)
    p.add_argument("--gmp-only", action="store_true",
                   help="pure gradual magnitude pruning baseline (no regeneration)")
    common(sub.add_parser("prune-structured", help="channel slimming with regeneration"))

    p = sub.add_parser("analyze", help="post-hoc metrics over checkpoints")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--checkpoint-b", default=None)
    p.add_argument("--metric", required=True,
                   choices=["variance", "cosine", "transition", "survival"])
    p.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the built-in invariant suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fix_allocator_thresholds()
    handlers = {
        "train": cmd_train,
        "prune-unstructured": cmd_prune_unstructured,
        "prune-structured": cmd_prune_structured,
        "analyze": cmd_analyze,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except PACKAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
