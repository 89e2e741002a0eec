"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Criteria 1-9, 11 and 12 time one check of `spikeprune.verify` (the same
instances `spikeprune verify` runs); criterion 10, the full desk experiment,
runs its legs through `spikeprune.cli.main` at the default config and reads
their logs. Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines (criterion 10 dominates the runtime).
"""

import contextlib
import io
import time

import numpy as np

from spikeprune import checkpoint, cli, verify


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


def _experiment_run(tmp_path, seed, variant):
    """One leg of the desk experiment, variant in {dense, gmp, regen}:
    (final test accuracy, final sparsity, prunable weights or None)."""
    out = tmp_path / f"{variant}{seed}"
    argv = {"dense": ["train"], "gmp": ["prune-unstructured", "--gmp-only"],
            "regen": ["prune-unstructured"]}[variant]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
    log = "train_log.csv" if variant == "dense" else "epoch_log.csv"
    last = (out / log).read_text().splitlines()[-1].split(",")
    total = None if variant == "dense" else checkpoint.load(out / "mask_history.ckpt")[1]["total"]
    return float(last[5]), float(last[6]), total


def test_criterion_10_end_to_end_desk_experiment(tmp_path):
    t0 = time.monotonic()
    seeds = (1, 2, 3, 4, 5)
    dense, gmp, regen = [], [], []
    for seed in seeds:
        d_acc, _, _ = _experiment_run(tmp_path, seed, "dense")
        g_acc, g_sp, g_total = _experiment_run(tmp_path, seed, "gmp")
        r_acc, r_sp, r_total = _experiment_run(tmp_path, seed, "regen")
        assert d_acc >= 0.90, f"seed {seed}: dense test acc {d_acc:.3f} < 0.90"
        assert abs(g_sp - 0.90) < 1.0 / g_total, f"seed {seed}: GMP sparsity {g_sp}"
        assert abs(r_sp - 0.90) < 1.0 / r_total, f"seed {seed}: regen sparsity {r_sp}"
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
