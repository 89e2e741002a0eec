"""Built-in invariant suite behind the `verify` subcommand.

Each check returns (name, passed, detail) and is independent of the
implementation path it exercises: gradients against central differences,
rankings against brute-force sorts, surgery against channel masking.
"""

from __future__ import annotations

import io

import numpy as np

from . import checkpoint
from .criticality import BatchScores, CriticalityTable
from .data import DatasetSpec, make_synthetic
from .layers import LIFParams, lif_step, surrogate_g, surrogate_gprime
from .network import SpikingNetwork, linear_snn, vgg_mini
from .optim import TrainConfig, loss_ce_l1
from .structured import ChannelPlan, count_flops, mask_channels, slim
from .train import Trainer, fmt
from .unstructured import (
    SparsitySchedule,
    current_sparsity,
    prune_global_magnitude,
    regenerate,
    round_half_up,
    sparsity,
)


def check_surrogate():
    if surrogate_g(0.0) != 0.5 or surrogate_gprime(0.0) != 1.0:
        return False, "center values wrong"
    rng = np.random.default_rng(0)
    xs = rng.uniform(-5, 5, 100)
    h = 1e-6
    numeric = (surrogate_g(xs + h) - surrogate_g(xs - h)) / (2 * h)
    worst = np.abs(surrogate_gprime(xs) - numeric).max()
    return worst <= 1e-6, f"max |g' - fd| = {worst:.2e}"


def check_lif_dynamics():
    p = LIFParams(4.0 / 3.0, 1.0, 0.0)
    h, s, u, _ = lif_step(np.array(1.2), np.array(0.0), p)
    if (float(h), float(s), float(u)) != (0.9, 0.0, 0.9):
        return False, f"subthreshold case: {(h, s, u)}"
    h, s, u, _ = lif_step(np.array(2.0), np.array(0.0), p)
    if (float(h), float(s), float(u)) != (1.5, 1.0, 0.0):
        return False, f"fire case: {(h, s, u)}"
    h, s, u, _ = lif_step(np.array(4.0 / 3.0), np.array(0.0), p)
    if float(s) != 1.0:
        return False, "threshold tie must fire"
    return True, "hand cases match"


def check_stbp_gradients():
    rng = np.random.default_rng(1)
    net = SpikingNetwork(vgg_mini(input_shape=(1, 6, 6), channels=(2, 2),
                                  classes=2, t_steps=3), rng)
    net.set_relaxed(True)
    x = rng.normal(size=(2, 1, 6, 6))
    y = np.array([0, 1])

    def loss():
        return loss_ce_l1(net.forward(x, training=True), y)[0]

    _, dlogits, _ = loss_ce_l1(net.forward(x, training=True), y)
    net.backward(dlogits)
    grads = {k: v.copy() for k, v in net.grads().items()}
    h = 1e-5
    worst = 0.0
    for name, param in net.parameters().items():
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            fp = loss()
            param[idx] = orig - h
            fm = loss()
            param[idx] = orig
            fd[idx] = (fp - fm) / (2 * h)
        err = np.linalg.norm(grads[name] - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, err)
    return worst <= 1e-4, f"worst tensor rel err = {worst:.2e}"


def _randomize_bn(layer, rng):
    """Non-trivial affine parameters and running statistics for a BN layer."""
    layer.gamma[...] = rng.uniform(0.2, 1.5, size=layer.channels)
    layer.beta[...] = rng.normal(0, 0.2, size=layer.channels)
    layer.running_mean = rng.normal(0, 0.5, size=layer.channels)
    layer.running_var = rng.uniform(0.5, 2.0, size=layer.channels)


def _t_copies_step(net, x, dlogits, training):
    """Reference step: every layer runs on T explicit copies of the input."""
    t = net.spec.t_steps
    acts = np.repeat(x[None], t, axis=0)
    for layer in net.layers:
        acts = layer.forward(acts, training)
    g = np.repeat(dlogits[None] / t, t, axis=0)
    for layer in reversed(net.layers):
        g = layer.backward(g)
    return acts.mean(axis=0)


def _rel(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


SMALL_PREFIX_SPECS = (vgg_mini(input_shape=(1, 6, 6), channels=(2, 2), classes=2, t_steps=3),
                      linear_snn([5, 4, 3], t_steps=3))


def check_prefix_once(specs=SMALL_PREFIX_SPECS, batch=4):
    """SpikingNetwork runs the layers before the first LIF once and broadcasts
    over T; it must match T explicit copies in logits, spike and g' traces,
    every gradient and the BN running statistics, in training and eval mode."""
    worst = 0.0
    for k, spec in enumerate(specs):
        for training in (True, False):
            rng = np.random.default_rng(10 + k)
            net = SpikingNetwork(spec, rng)
            for layer in net.layers:
                if layer.kind == "batchnorm":
                    _randomize_bn(layer, rng)
            ref = net.clone()
            x = 2.0 * rng.normal(size=(batch,) + tuple(spec.input_shape))
            dlogits = rng.normal(size=(batch, spec.layers[-1].out_features))
            pairs = [(net.forward(x, training), _t_copies_step(ref, x, dlogits, training))]
            net.backward(dlogits)
            for i, st in net.lif_states().items():
                pairs += [(st.s, ref.layers[i].state.s), (st.gprime, ref.layers[i].state.gprime)]
            pairs.append((net.grad, ref.grad))
            ref_stats = ref.state_arrays()
            pairs += [(a, ref_stats[name]) for name, a in net.state_arrays().items()]
            err = max(_rel(a, b) for a, b in pairs)
            if err > 1e-12:
                return False, f"spec {k}, training={training}: rel diff {err:.2e}"
            worst = max(worst, err)
    return True, f"{len(specs)} nets x train/eval match T copies, worst rel diff {worst:.1e}"


def check_schedule():
    for s_f in (0.9, 0.95, 0.98):
        sched = SparsitySchedule(s_f=s_f, delta_t=10, t_f=100)
        if current_sparsity(sched) != 0.0:
            return False, f"s_f={s_f}: start not 0"
        sched.n = 10
        if abs(current_sparsity(sched) - s_f) > 1e-12:
            return False, f"s_f={s_f}: end differs by >1e-12"
        vals = [current_sparsity(SparsitySchedule(s_f, 10, 100, n=n)) for n in range(11)]
        if any(b < a for a, b in zip(vals, vals[1:])):
            return False, f"s_f={s_f}: not monotone"
    return True, "endpoints exact, monotone"


def check_sparsity_exactness():
    rng = np.random.default_rng(2)
    for trial in range(20):
        w = np.concatenate([rng.normal(size=int(rng.integers(50, 200))),
                            rng.normal(size=(int(rng.integers(4, 12)), 7)).ravel()])
        mask = np.ones(w.size, dtype=bool)
        total = mask.size
        s_f = float(rng.uniform(0.5, 0.95))
        r = float(rng.uniform(0.0, 0.6))
        iters = int(rng.integers(2, 7))
        sched = SparsitySchedule(s_f=s_f, delta_t=1, t_f=iters, r=r)
        for n in range(1, iters + 1):
            sched.n = n
            s_t = current_sparsity(sched)
            s_p = s_t + r * (1.0 - s_t)
            snap = w.copy()
            prune_global_magnitude(w, mask, s_p)
            scores = rng.uniform(0, 1, size=total)
            k = round_half_up((1.0 - s_t) * total) - int(mask.sum())
            regenerate(mask, w, scores, snap, k)
            if abs(sparsity(mask) - s_t) >= 1.0 / total:
                return False, f"trial {trial} iter {n}: off by >=1 connection"
    return True, "20 random configs track the schedule"


def check_regeneration_oracle():
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
        if sorted(chosen.tolist()) != sorted(int(i) for i in brute):
            return False, f"trial {trial}: top-k set mismatch"
    return True, "100 instances match the brute-force sort"


def check_channel_regeneration_oracle():
    from .structured import prune_and_regenerate_channels
    rng = np.random.default_rng(4)
    for trial in range(40):
        width = int(rng.integers(4, 33))
        net = SpikingNetwork(vgg_mini(input_shape=(1, 4, 4), channels=(width,),
                                      classes=2), np.random.default_rng(trial))
        bn = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"][0]
        net.layers[bn].gamma[...] = rng.uniform(0.01, 1.0, size=width)
        scores = {bn: rng.uniform(0, 1, size=width)}
        percent = float(rng.uniform(0.2, 0.7))
        r = float(rng.uniform(0.0, 0.5))
        plan, info = prune_and_regenerate_channels(net, percent, r, scores)
        brute = sorted(info.pruned,
                       key=lambda lc: (-scores[lc[0]][lc[1]],
                                       -abs(net.layers[lc[0]].gamma[lc[1]]), lc))[:info.k]
        if sorted(info.regenerated) != sorted(brute):
            return False, f"trial {trial}: channel top-k mismatch"
    return True, "40 channel toys match the brute-force sort"


def check_slim_equivalence():
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(6):
        net = SpikingNetwork(vgg_mini(input_shape=(1, 8, 8), channels=(3, 4),
                                      classes=3), np.random.default_rng(trial + 50))
        keep, widths = {}, {}
        for i, layer in enumerate(net.layers):
            if layer.kind == "batchnorm":
                _randomize_bn(layer, rng)
                n_keep = int(rng.integers(1, layer.channels + 1))
                keep[i] = sorted(rng.choice(layer.channels, n_keep, replace=False).tolist())
                widths[i] = layer.channels
        plan = ChannelPlan(keep=keep, widths=widths)
        x = rng.normal(size=(4, 1, 8, 8))
        diff = np.abs(mask_channels(net, plan).forward(x) - slim(net, plan).forward(x)).max()
        worst = max(worst, diff)
    return worst <= 1e-5, f"max |masked - slimmed| = {worst:.2e}"


def check_arena_views():
    """Every layer parameter and gradient of a fresh and of a slimmed network
    is memory inside its network's arenas."""
    net = SpikingNetwork(vgg_mini(input_shape=(1, 8, 8), channels=(3, 4), classes=3),
                         np.random.default_rng(8))
    bns = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"]
    plan = ChannelPlan(keep={bns[0]: [0, 2], bns[1]: [1, 3]}, widths={bns[0]: 3, bns[1]: 4})
    for label, n in (("fresh", net), ("slim", slim(net, plan))):
        for i, layer in enumerate(n.layers):
            for name in layer.param_names:
                if not (np.shares_memory(getattr(layer, name), n.flat)
                        and np.shares_memory(getattr(layer, "d" + name), n.grad)):
                    return False, f"{label} net: layers.{i}.{name} is outside the arena"
    return True, "fresh and slimmed nets: every parameter and grad views its arena"


def check_flops():
    spec = vgg_mini(input_shape=(1, 8, 8), channels=(4, 6), classes=3)
    dense = count_flops(spec)
    expected = 4 * 1 * 9 * 64 + 6 * 4 * 9 * 16 + 24 * 3
    if dense.dense_total != expected:
        return False, f"dense MACs {dense.dense_total} != {expected}"
    bns = [i for i, l in enumerate(spec.layers) if l.kind == "batchnorm"]
    plan = ChannelPlan(keep={bns[0]: [0, 1], bns[1]: [0, 1, 2]},
                       widths={bns[0]: 4, bns[1]: 6})
    got = count_flops(spec, plan)
    want = 1 - (2 * 1 * 9 * 64 + 3 * 2 * 9 * 16 + 12 * 3) / expected
    if abs(got.reduction - want) > 0.005:
        return False, f"half-plan reduction {got.reduction} != {want}"
    return True, "closed-form MACs match"


def check_criticality_partition():
    rng = np.random.default_rng(6)
    per_sample = rng.uniform(0, 1, size=(30, 5))
    whole = CriticalityTable()
    whole.accumulate(BatchScores({0: per_sample.mean(axis=0)}, count=30))
    split = CriticalityTable()
    for lo in range(0, 30, 7):
        chunk = per_sample[lo:lo + 7]
        split.accumulate(BatchScores({0: chunk.mean(axis=0)}, count=chunk.shape[0]))
    diff = np.abs(whole.finalize()[0] - split.finalize()[0]).max()
    return diff <= 1e-9, f"partition drift {diff:.2e}"


def check_checkpoint_roundtrip(tmp_dir):
    """Float and bit-packed bool entries (15 mask bits: one padded byte)."""
    rng = np.random.default_rng(7)
    arrays = {"w": rng.normal(size=(3, 5)), "mask/w": rng.random((3, 5)) < 0.5}
    meta = {"note": "roundtrip", "nested": {"a": 1}}
    p1 = f"{tmp_dir}/first.ckpt"
    p2 = f"{tmp_dir}/second.ckpt"
    checkpoint.save(p1, arrays, meta)
    loaded, meta2 = checkpoint.load(p1)
    checkpoint.save(p2, loaded, meta2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        same = f1.read() == f2.read()
    mask = loaded["mask/w"]
    mask_ok = mask.dtype == np.bool_ and np.array_equal(mask, arrays["mask/w"])
    if not same:
        return False, "bytes differ"
    if not mask_ok:
        return False, f"bool mask came back as {mask.dtype} or with other values"
    return True, "save -> load -> save byte-identical, bool mask bit-packed"


def _mini_run_csv(seed) -> str:
    rng = np.random.default_rng(seed)
    data = make_synthetic(DatasetSpec(classes=2, train_samples=16, test_samples=8,
                                      shape=(1, 4, 4), separation=4.0), rng)
    net = SpikingNetwork(vgg_mini(input_shape=(1, 4, 4), channels=(2,), classes=2),
                         rng)
    cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=5e-4, batch_size=8, epochs=2)
    trainer = Trainer(net, data, cfg, rng)
    rows = trainer.run_epochs(2)
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(fmt(v) for v in row) + "\n")
    return buf.getvalue()


def check_determinism():
    a = _mini_run_csv(9)
    b = _mini_run_csv(9)
    return a == b, "two seeded runs byte-identical" if a == b else "runs diverged"


def run_all(tmp_dir: str) -> list:
    checks = [
        ("surrogate", check_surrogate),
        ("lif-dynamics", check_lif_dynamics),
        ("stbp-gradients", check_stbp_gradients),
        ("prefix-once", check_prefix_once),
        ("sparsity-schedule", check_schedule),
        ("sparsity-exactness", check_sparsity_exactness),
        ("regeneration-topk", check_regeneration_oracle),
        ("channel-regeneration-topk", check_channel_regeneration_oracle),
        ("slim-mask-equivalence", check_slim_equivalence),
        ("arena-views", check_arena_views),
        ("flops-accounting", check_flops),
        ("criticality-partition", check_criticality_partition),
        ("checkpoint-roundtrip", lambda: check_checkpoint_roundtrip(tmp_dir)),
        ("determinism", check_determinism),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:                      # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
