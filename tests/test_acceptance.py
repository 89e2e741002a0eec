"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Criteria 1-9, 11 and 12 time one check of `spikeprune.verify` (the same
instances `spikeprune verify` runs); criterion 10, the full desk experiment,
lives only here. Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines (criterion 10 dominates the runtime).
"""

import time

import numpy as np

from spikeprune import verify
from spikeprune.config import ExperimentConfig
from spikeprune.data import load_dataset
from spikeprune.network import SpikingNetwork, vgg_mini
from spikeprune.optim import TrainConfig
from spikeprune.train import Trainer
from spikeprune.unstructured import SparsitySchedule, prune_loop, sparsity


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def timed(num, check, gate, digits):
    """Report one verify check; the criterion fails past `gate` seconds."""
    t0 = time.monotonic()
    ok, detail = check()
    dt = time.monotonic() - t0
    report(num, ok and dt < gate, f"{detail}; {dt:.{digits}f}s")


def test_criterion_01_surrogate():
    timed(1, verify.check_surrogate, gate=1.0, digits=2)


def test_criterion_02_lif_dynamics():
    timed(2, verify.check_lif_dynamics, gate=1.0, digits=2)


def test_criterion_03_stbp_gradient_check():
    timed(3, verify.check_stbp_gradients, gate=60.0, digits=1)


def test_criterion_04_schedule_exactness():
    report(4, *verify.check_schedule())


def test_criterion_05_sparsity_exactness():
    timed(5, verify.check_sparsity_exactness, gate=30.0, digits=1)


def test_criterion_06_regeneration_oracle():
    timed(6, verify.check_regeneration_oracle, gate=10.0, digits=1)


def test_criterion_07_r0_reduction():
    report(7, *verify.check_r0_equals_gmp())


def test_criterion_08_slim_mask_equivalence():
    timed(8, verify.check_slim_equivalence, gate=30.0, digits=1)


def test_criterion_09_flops_accounting():
    report(9, *verify.check_flops())


def _experiment_run(seed, variant):
    """One leg of the desk experiment; variant in {dense, gmp, regen}."""
    cfg = ExperimentConfig(seed=seed)
    rng = np.random.default_rng(seed)
    data = load_dataset(cfg.dataset_spec(), rng)
    net = SpikingNetwork(vgg_mini(input_shape=cfg.image, channels=cfg.channels,
                                  classes=cfg.classes, t_steps=cfg.T), rng)
    if variant == "dense":
        tc = TrainConfig(lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.wd,
                         batch_size=cfg.batch_size, epochs=cfg.epochs)
        trainer = Trainer(net, data, tc, rng)
        rows = trainer.run_epochs(cfg.epochs)
        return rows[-1][5], 0.0
    epochs = cfg.N_p + cfg.N_f
    tc = TrainConfig(lr=cfg.lr, momentum=cfg.momentum, weight_decay=cfg.wd,
                     batch_size=cfg.batch_size, epochs=epochs)
    trainer = Trainer(net, data, tc, rng)
    t_f = (cfg.N_p * trainer.steps_per_epoch // cfg.delta_t) * cfg.delta_t
    sched = SparsitySchedule(s_f=0.9, delta_t=cfg.delta_t, t_f=t_f,
                             r=0.5 if variant == "regen" else 0.0)
    res = prune_loop(net, trainer, sched, epochs=epochs,
                     gmp_only=(variant == "gmp"))
    return res.epoch_rows[-1][5], sparsity(res.mask)


def test_criterion_10_end_to_end_desk_experiment():
    t0 = time.monotonic()
    seeds = (1, 2, 3, 4, 5)
    dense, gmp, regen = [], [], []
    total = SpikingNetwork(vgg_mini(input_shape=(1, 8, 8), channels=(12, 24), classes=3),
                           np.random.default_rng(0)).n_prunable
    for seed in seeds:
        d_acc, _ = _experiment_run(seed, "dense")
        g_acc, g_sp = _experiment_run(seed, "gmp")
        r_acc, r_sp = _experiment_run(seed, "regen")
        assert d_acc >= 0.90, f"seed {seed}: dense test acc {d_acc:.3f} < 0.90"
        assert abs(g_sp - 0.90) < 1.0 / total, f"seed {seed}: GMP sparsity {g_sp}"
        assert abs(r_sp - 0.90) < 1.0 / total, f"seed {seed}: regen sparsity {r_sp}"
        assert d_acc - g_acc <= 0.10, f"seed {seed}: GMP {g_acc:.3f} >10pts below dense"
        assert d_acc - r_acc <= 0.10, f"seed {seed}: regen {r_acc:.3f} >10pts below dense"
        dense.append(d_acc)
        gmp.append(g_acc)
        regen.append(r_acc)
    dt = time.monotonic() - t0
    soft = np.mean(regen) >= np.mean(gmp)
    print(f"INFO criterion 10 (soft, logged): mean regen acc {np.mean(regen):.4f} "
          f"{'>=' if soft else '<'} mean GMP acc {np.mean(gmp):.4f} "
          f"(dense {np.mean(dense):.4f})")
    report(10, dt < 1800.0,
           f"5 seeds x (dense/GMP/regen) complete; sparsity exact; all pruned "
           f"runs within 10 points of dense; {dt / 60:.1f} min")


def test_criterion_11_analysis_self_consistency():
    report(11, *verify.check_survival_replay())


def test_criterion_12_determinism(tmp_path):
    report(12, *verify.check_determinism(str(tmp_path)))
