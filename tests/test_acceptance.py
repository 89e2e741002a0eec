"""Acceptance suite: twelve numbered criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
(criterion 10 is the full desk experiment and dominates the runtime).
"""

import time

import numpy as np

from conftest import tiny_run
from spikeprune.analysis import (
    FeatureBank,
    class_mean_cosine,
    intra_cluster_variance,
    replay_mask_history,
    survival_report,
)
from spikeprune.cli import main as cli_main
from spikeprune.config import ExperimentConfig
from spikeprune.data import load_dataset
from spikeprune.layers import LIFParams, lif_step, surrogate_g, surrogate_gprime
from spikeprune.network import SpikingNetwork, vgg_mini
from spikeprune.optim import TrainConfig, loss_ce_l1
from spikeprune.structured import (
    ChannelPlan,
    count_flops,
    mask_channels,
    prune_and_regenerate_channels,
    slim,
)
from spikeprune.train import Trainer
from spikeprune.unstructured import (
    SparsitySchedule,
    current_sparsity,
    prune_loop,
    regenerate,
    sparsity,
)

TAU = 4.0 / 3.0


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_surrogate():
    t0 = time.monotonic()
    exact = surrogate_g(0.0) == 0.5 and surrogate_gprime(0.0) == 1.0
    rng = np.random.default_rng(0)
    xs = rng.uniform(-5.0, 5.0, 100)
    h = 1e-6
    numeric = (surrogate_g(xs + h) - surrogate_g(xs - h)) / (2 * h)
    worst = float(np.abs(surrogate_gprime(xs) - numeric).max())
    dt = time.monotonic() - t0
    report(1, exact and worst <= 1e-6 and dt < 1.0,
           f"g(0)=0.5, g'(0)=1 exact; max fd error {worst:.2e}; {dt:.2f}s")


# Ten single-neuron scenarios, frozen from a literal hand recurrence of the
# charge/fire/reset equations (python floats, same operation order).
LIF_SCENARIOS = [
    # (inputs, tau, v_th, v_reset, [(h, s, u) per step])
    ([1.2], TAU, 1.0, 0.0, [(0.9, 0.0, 0.9)]),
    ([2.0], TAU, 1.0, 0.0, [(1.5, 1.0, 0.0)]),
    ([0.0], TAU, 1.0, 0.0, [(0.0, 0.0, 0.0)]),
    ([TAU], TAU, 1.0, 0.0, [(1.0, 1.0, 0.0)]),                  # threshold tie fires
    ([0.8, 0.8], TAU, 1.0, 0.0,
     [(0.6000000000000001, 0.0, 0.6000000000000001), (0.75, 0.0, 0.75)]),
    ([0.8, 0.8, 0.8], TAU, 1.0, 0.0,
     [(0.6000000000000001, 0.0, 0.6000000000000001), (0.75, 0.0, 0.75),
      (0.7875000000000001, 0.0, 0.7875000000000001)]),
    ([2.0, 0.0, 2.0], TAU, 1.0, 0.0,
     [(1.5, 1.0, 0.0), (0.0, 0.0, 0.0), (1.5, 1.0, 0.0)]),
    ([1.2, 1.2, 1.2], 2.0, 1.0, 0.0,
     [(0.6, 0.0, 0.6), (0.8999999999999999, 0.0, 0.8999999999999999),
      (1.0499999999999998, 1.0, 0.0)]),
    ([0.5, 1.5, 0.2], TAU, 1.0, -0.5,
     [(0.25, 0.0, 0.25), (1.1875, 1.0, -0.5),
      (0.025000000000000022, 0.0, 0.025000000000000022)]),
    ([-1.0, 3.0], 1.0, 1.0, 0.0,
     [(-1.0, 0.0, -1.0), (3.0, 1.0, 0.0)]),
]


def test_criterion_02_lif_dynamics():
    t0 = time.monotonic()
    for inputs, tau, vth, vreset, expected in LIF_SCENARIOS:
        params = LIFParams(tau, vth, vreset)
        u = np.array(vreset)
        for x, (eh, es, eu) in zip(inputs, expected):
            h, s, u, gp = lif_step(np.array(x), u, params)
            assert float(h) == eh and float(s) == es and float(u) == eu, (
                f"scenario {inputs}: got {(float(h), float(s), float(u))}, "
                f"expected {(eh, es, eu)}"
            )
            if es == 1.0:
                assert float(u) == vreset          # reset invariant
            assert float(gp) == 1.0 / (1.0 + np.pi ** 2 * (float(h) - vth) ** 2)
    dt = time.monotonic() - t0
    report(2, dt < 1.0, f"10 hand-unrolled scenarios match exactly; {dt:.2f}s")


def test_criterion_03_stbp_gradient_check():
    t0 = time.monotonic()
    rng = np.random.default_rng(1)
    spec = vgg_mini(input_shape=(1, 8, 8), channels=(3, 4), classes=3, t_steps=5)
    net = SpikingNetwork(spec, rng)
    n_params = sum(p.size for p in net.parameters().values())
    assert n_params <= 5000
    net.set_relaxed(True)
    x = rng.normal(size=(3, 1, 8, 8))
    y = np.array([0, 1, 2])

    def loss():
        return loss_ce_l1(net.forward(x, training=True), y)[0]

    _, dlogits, _ = loss_ce_l1(net.forward(x, training=True), y)
    net.backward(dlogits)
    grads = {k: v.copy() for k, v in net.grads().items()}
    worst = 0.0
    h = 1e-5
    for name, p in net.parameters().items():
        fd = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            fp = loss()
            p[idx] = orig - h
            fm = loss()
            p[idx] = orig
            fd[idx] = (fp - fm) / (2 * h)
        err = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-12)
        assert err <= 1e-4, f"{name}: rel err {err:.2e}"
        worst = max(worst, err)
    dt = time.monotonic() - t0
    report(3, dt < 60.0,
           f"2-conv+1-linear T=5 net ({n_params} params), worst tensor rel err "
           f"{worst:.2e}; {dt:.1f}s")


def test_criterion_04_schedule_exactness():
    for s_f in (0.9, 0.95, 0.98):
        sched = SparsitySchedule(s_f=s_f, delta_t=7, t_f=140)
        assert current_sparsity(sched) == 0.0
        sched.n = 20
        assert abs(current_sparsity(sched) - s_f) <= 1e-12
        vals = [current_sparsity(SparsitySchedule(s_f, 7, 140, n=n)) for n in range(21)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    report(4, True, "cubic ramp: start 0, end s_f to 1e-12, monotone for "
                    "s_f in {0.9, 0.95, 0.98}")


def test_criterion_05_sparsity_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(20):
        s_f = float(rng.uniform(0.5, 0.98))
        r = float(rng.uniform(0.0, 0.7))
        delta_t = int(rng.integers(2, 5))
        net, trainer, _ = tiny_run(seed=trial, n_train=16, n_test=8, batch=8, epochs=3)
        iters = max(1, 3 * trainer.steps_per_epoch // delta_t)
        sched = SparsitySchedule(s_f=s_f, delta_t=delta_t, t_f=iters * delta_t, r=r)
        res = prune_loop(net, trainer, sched, epochs=3)
        total = res.mask.size
        for ev in res.events:
            gap = abs(ev.sparsity_after - ev.s_t)
            assert gap < 1.0 / total, f"trial {trial}: off by {gap * total:.2f} connections"
            worst = max(worst, gap * total)
    dt = time.monotonic() - t0
    report(5, dt < 30.0,
           f"20 random (s_f, r, dt) Algorithm-1 runs track s_t each iteration "
           f"(worst {worst:.2f} connections); {dt:.1f}s")


def test_criterion_06_regeneration_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(10, 201))
        w = rng.normal(size=n)
        mask = np.ones(n, dtype=bool)
        pruned_idx = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        mask[pruned_idx] = False
        snap = w.copy()
        w *= mask
        scores = rng.uniform(0, 1, size=n)
        k = int(rng.integers(0, len(pruned_idx) + 1))
        chosen = regenerate(mask, w, scores, snap, k)
        brute = sorted(pruned_idx, key=lambda i: (-scores[i], -abs(snap[i]), i))[:k]
        assert sorted(chosen.tolist()) == sorted(int(i) for i in brute)
    # channel-level toys
    for trial in range(40):
        width = int(rng.integers(4, 33))
        net = SpikingNetwork(vgg_mini(input_shape=(1, 4, 4), channels=(width,),
                                      classes=2), np.random.default_rng(trial))
        bn = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"][0]
        net.layers[bn].gamma[...] = rng.uniform(0.01, 1.0, size=width)
        scores = {bn: rng.uniform(0, 1, size=width)}
        plan, info = prune_and_regenerate_channels(
            net, float(rng.uniform(0.2, 0.7)), float(rng.uniform(0.0, 0.5)), scores)
        brute = sorted(info.pruned,
                       key=lambda lc: (-scores[lc[0]][lc[1]],
                                       -abs(net.layers[lc[0]].gamma[lc[1]]),
                                       lc))[:info.k]
        assert sorted(info.regenerated) == sorted(brute)
    dt = time.monotonic() - t0
    report(6, dt < 10.0,
           f"100 connection + 40 channel instances match brute-force "
           f"(score, |w|, index) sorts; {dt:.1f}s")


def test_criterion_07_r0_reduction():
    def masks_for(gmp_only):
        net, trainer, _ = tiny_run(seed=17)
        t_f = (4 * trainer.steps_per_epoch // 3) * 3
        sched = SparsitySchedule(s_f=0.9, delta_t=3, t_f=t_f, r=0.0)
        return prune_loop(net, trainer, sched, epochs=6, gmp_only=gmp_only).mask

    a = masks_for(False)
    b = masks_for(True)
    same = np.array_equal(a, b)
    report(7, same, "Algorithm 1 with r=0 and a pure GMP run produce identical masks")


def test_criterion_08_slim_mask_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        channels = tuple(int(c) for c in rng.integers(2, 6, size=2))
        net = SpikingNetwork(vgg_mini(input_shape=(1, 8, 8), channels=channels,
                                      classes=3), np.random.default_rng(trial + 500))
        keep, widths = {}, {}
        for i, layer in enumerate(net.layers):
            if layer.kind == "batchnorm":
                layer.gamma[...] = rng.uniform(0.2, 1.5, size=layer.channels)
                layer.beta[...] = rng.normal(0, 0.2, size=layer.channels)
                layer.running_mean = rng.normal(0, 0.5, size=layer.channels)
                layer.running_var = rng.uniform(0.5, 2.0, size=layer.channels)
                n_keep = int(rng.integers(1, layer.channels + 1))
                keep[i] = sorted(rng.choice(layer.channels, n_keep,
                                            replace=False).tolist())
                widths[i] = layer.channels
        plan = ChannelPlan(keep=keep, widths=widths)
        x = rng.normal(size=(4, 1, 8, 8))
        diff = float(np.abs(mask_channels(net, plan).forward(x)
                            - slim(net, plan).forward(x)).max())
        assert diff <= 1e-5, f"trial {trial}: deviation {diff:.2e}"
        worst = max(worst, diff)
    dt = time.monotonic() - t0
    report(8, dt < 30.0,
           f"20 random nets/plans: slimmed == masked within {worst:.2e}; {dt:.1f}s")


def test_criterion_09_flops_accounting():
    spec = vgg_mini(input_shape=(1, 8, 8), channels=(4, 6), classes=3)
    dense = count_flops(spec)
    expected_dense = 4 * 1 * 9 * 8 * 8 + 6 * 4 * 9 * 4 * 4 + (6 * 2 * 2) * 3
    assert dense.dense_total == expected_dense
    bns = [i for i, l in enumerate(spec.layers) if l.kind == "batchnorm"]
    plan = ChannelPlan(keep={bns[0]: [0, 1], bns[1]: [0, 1, 2]},
                       widths={bns[0]: 4, bns[1]: 6})
    got = count_flops(spec, plan)
    expected_slim = 2 * 1 * 9 * 8 * 8 + 3 * 2 * 9 * 4 * 4 + (3 * 2 * 2) * 3
    expected_reduction = 1.0 - expected_slim / expected_dense
    ok = (got.slim_total == expected_slim
          and abs(got.reduction - expected_reduction) <= 0.005)
    report(9, ok,
           f"hand-computed MACs match exactly; half-channel plan reduction "
           f"{got.reduction:.4f} vs analytic {expected_reduction:.4f}")


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
    net, trainer, _ = tiny_run(seed=23)
    t_f = (4 * trainer.steps_per_epoch // 3) * 3
    sched = SparsitySchedule(s_f=0.9, delta_t=3, t_f=t_f, r=0.4)
    res = prune_loop(net, trainer, sched, epochs=5)
    live = survival_report(res.ledger, res.mask)
    replayed = replay_mask_history(np.ones(res.mask.size, dtype=bool),
                                   res.mask_history)
    assert live == replayed, "recomputed survival report differs from live ledger"

    rng = np.random.default_rng(5)
    v = rng.normal(size=(6, 8))
    dup = FeatureBank(np.repeat(v[:1], 6, axis=0), np.zeros(6, dtype=int))
    assert intra_cluster_variance(dup, 0) == 0.0

    labels = np.zeros(6, dtype=int)
    cos = class_mean_cosine(FeatureBank(v, labels, "train"),
                            FeatureBank(v.copy(), labels, "test"), 0)
    assert cos == 1.0
    report(11, True, "survival replay == live ledger; duplicated features -> "
                     "variance 0; identical splits -> cosine 1")


def test_criterion_12_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SPIKEPRUNE_OUT", str(tmp_path / "runs"))
    cfg = tmp_path / "d.cfg"
    cfg.write_text(
        "seed = 7\nchannels = 2, 3\ntrain_samples = 60\ntest_samples = 30\n"
        "batch_size = 16\nlr = 0.1\nepochs = 2\nN_p = 2\nN_f = 1\ndelta_t = 4\n"
        "N_t = 2\nN_1 = 1\nN_2 = 2\n"
    )
    for sub, files in (
        ("train", ["train_log.csv"]),
        ("prune-unstructured", ["epoch_log.csv", "prune_log.csv", "survival.json"]),
        ("prune-structured", ["train_log.csv", "finetune_log.csv", "flops.json"]),
    ):
        a = tmp_path / sub / "a"
        b = tmp_path / sub / "b"
        assert cli_main([sub, "--config", str(cfg), "--out", str(a)]) == 0
        assert cli_main([sub, "--config", str(cfg), "--out", str(b)]) == 0
        for name in files:
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{sub}/{name}"
    report(12, True, "train / prune-unstructured / prune-structured reruns are "
                     "byte-identical")
