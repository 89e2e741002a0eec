"""Invariant catalogue: the `verify` subcommand runs every check here, and the
acceptance suite (tests/test_acceptance.py) times the same checks, one per
numbered criterion.

Each check returns (passed, detail) and is independent of the implementation
path it exercises: gradients against central differences, rankings against
brute-force sorts, surgery against channel masking. Every check runs at one
fixed size with fixed seeds, so the CLI and the acceptance suite check the
same instances.
"""

from __future__ import annotations

import contextlib
import io
import zlib
from pathlib import Path

import numpy as np

from . import checkpoint
from .analysis import (
    FeatureBank,
    class_mean_cosine,
    intra_cluster_variance,
    replay_mask_history,
    survival_report,
)
from .cli import main as cli_main
from .criticality import score_batch
from .data import DatasetSpec, make_synthetic
from .layers import LIF, LIFParams, lif_step, surrogate_g, surrogate_gprime
from .network import SpikingNetwork, inference_tile, linear_snn, vgg_mini
from .optim import TrainConfig, loss_ce_l1
from .structured import (
    ChannelPlan,
    count_flops,
    mask_channels,
    prune_and_regenerate_channels,
    slim,
)
from .train import Trainer
from .unstructured import (
    SparsitySchedule,
    current_sparsity,
    prune_global_magnitude,
    prune_loop,
    regenerate,
    round_half_up,
)


def tiny_run(seed=0, channels=(2, 3), n_train=24, n_test=12, batch=8, epochs=6,
             image=(1, 8, 8), classes=3, lr=0.05, separation=4.0):
    """Small net + blobs + trainer wired the way the harness does it."""
    rng = np.random.default_rng(seed)
    data = make_synthetic(
        DatasetSpec(classes=classes, train_samples=n_train, test_samples=n_test,
                    shape=image, separation=separation), rng)
    net = SpikingNetwork(vgg_mini(input_shape=image, channels=channels,
                                  classes=classes), rng)
    cfg = TrainConfig(lr=lr, momentum=0.9, weight_decay=5e-4, batch_size=batch,
                      epochs=epochs)
    return net, Trainer(net, data, cfg, rng), data


def check_surrogate():
    if surrogate_g(0.0) != 0.5 or surrogate_gprime(0.0) != 1.0:
        return False, "g(0) or g'(0) differs from 0.5 / 1"
    rng = np.random.default_rng(0)
    xs = rng.uniform(-5.0, 5.0, 100)
    h = 1e-6
    numeric = (surrogate_g(xs + h) - surrogate_g(xs - h)) / (2 * h)
    worst = float(np.abs(surrogate_gprime(xs) - numeric).max())
    return worst <= 1e-6, f"g(0)=0.5, g'(0)=1 exact; max fd error {worst:.2e}"


TAU = 4.0 / 3.0

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


def check_lif_dynamics():
    """Each scenario step by step through lif_step (h, s, u), and whole through
    LIF.forward as a [T, 1] input (h, s and the g' derived from h)."""
    for inputs, tau, vth, vreset, expected in LIF_SCENARIOS:
        params = LIFParams(tau, vth, vreset)
        layer = LIF(params)
        layer.forward(np.array(inputs).reshape(-1, 1), training=True)
        st, u = layer.state, np.array(vreset)
        for t, (x, (eh, es, eu)) in enumerate(zip(inputs, expected)):
            h, s = np.empty(()), np.empty(())
            u = lif_step(np.array(x), u, params, h, s)
            want = (eh, es, eu, eh, es, 1.0 / (1.0 + np.pi ** 2 * (eh - vth) ** 2))
            got = tuple(float(v) for v in (h, s, u, st.h[t, 0], st.s[t, 0], st.gprime[t, 0]))
            if got != want:
                return False, f"scenario {inputs}, step {t}: got {got}, expected {want}"
            if es == 1.0 and float(u) != vreset:
                return False, f"scenario {inputs}: a spike left u = {float(u)}, not v_reset"
    return True, (f"{len(LIF_SCENARIOS)} hand-unrolled scenarios match exactly, by lif_step "
                  "and through the LIF layer")


def check_stbp_gradients():
    rng = np.random.default_rng(1)
    spec = vgg_mini(input_shape=(1, 8, 8), channels=(3, 4), classes=3, t_steps=5)
    net = SpikingNetwork(spec, rng)
    n_params = sum(p.size for p in net.parameters().values())
    if n_params > 5000:
        return False, f"{n_params} params: too many for a central-difference check"
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
        if err > 1e-4:
            return False, f"{name}: rel err {err:.2e}"
        worst = max(worst, err)
    return True, (f"2-conv+1-linear T=5 net ({n_params} params), worst tensor rel err "
                  f"{worst:.2e}")


def _randomize_bn(layer, rng):
    """Non-trivial affine parameters and running statistics for a BN layer."""
    layer.gamma[...] = rng.uniform(0.2, 1.5, size=layer.channels)
    layer.beta[...] = rng.normal(0, 0.2, size=layer.channels)
    layer.running_mean = rng.normal(0, 0.5, size=layer.channels)
    layer.running_var = rng.uniform(0.5, 2.0, size=layer.channels)


def _t_copies_step(net, x, dlogits, training):
    """Reference step: every layer runs on T explicit copies of the whole
    batch. Returns the logits and the features the head reads (the head is
    the last layer); backward runs when dlogits is given."""
    t = net.spec.t_steps
    acts = np.repeat(net.layer_input(x)[None], t, axis=0)
    for layer in net.layers[:-1]:
        acts = layer.forward(acts, training)
    features = acts.mean(axis=0)
    acts = net.layers[-1].forward(acts, training)
    if dlogits is not None:
        g = np.repeat(dlogits[None] / t, t, axis=0)
        for layer in reversed(net.layers):
            g = layer.backward(g)
    return acts.mean(axis=0), features


def _rel(a, b):
    return float(np.abs(a - b).max() / max(np.abs(b).max(), 1e-300))


def check_prefix_once():
    """SpikingNetwork runs the layers before the first LIF once and broadcasts
    over T; it must match T explicit copies in logits, features, the h, s and
    g' traces, every gradient and the BN running statistics, in training and
    eval mode at batch 32 (eval mode without backward). An eval batch of two
    full inference tiles plus a ragged tail checks the tiled forward the same
    way, each tile's traces read through on_tile against the reference rows.
    Checked on the desk network width and a deeper fully connected stack."""
    specs = (vgg_mini(channels=(12, 24), t_steps=5), linear_snn([16, 12, 8, 3], t_steps=5))
    worst = 0.0
    for k, spec in enumerate(specs):
        tile = inference_tile(spec)
        for training, batch in ((True, 32), (False, 32), (False, 2 * tile + tile // 2 + 1)):
            rng = np.random.default_rng(10 + k)
            net = SpikingNetwork(spec, rng)
            for layer in net.layers:
                if layer.kind == "batchnorm":
                    _randomize_bn(layer, rng)
            ref = net.clone()
            x = 2.0 * rng.normal(size=(batch,) + tuple(spec.input_shape))
            dlogits = rng.normal(size=(batch, spec.layers[-1].out_features))
            tiles = []
            logits = net.forward(x, training, on_tile=lambda rows, states: tiles.append(
                (rows, states)))
            ref_logits, ref_features = _t_copies_step(ref, x, dlogits if training else None,
                                                      training)
            pairs = [(logits, ref_logits), (net.features, ref_features)]
            if training:
                net.backward(dlogits)
                pairs.append((net.grad, ref.grad))
            for rows, states in tiles:
                for i, st in states.items():
                    r = ref.layers[i].state
                    pairs += [(st.h, r.h[:, rows]), (st.s, r.s[:, rows]),
                              (st.gprime, r.gprime[:, rows])]
            ref_stats = ref.state_arrays()
            pairs += [(a, ref_stats[name]) for name, a in net.state_arrays().items()]
            err = max(_rel(a, b) for a, b in pairs)
            if err > 1e-12:
                return False, f"spec {k}, training={training}, batch {batch}: rel diff {err:.2e}"
            worst = max(worst, err)
    return True, (f"{len(specs)} nets x train/eval at batch 32 and eval over 2 inference "
                  f"tiles plus a ragged tail match T copies, worst rel diff {worst:.1e}")


def check_schedule():
    for s_f in (0.9, 0.95, 0.98):
        sched = SparsitySchedule(s_f=s_f, delta_t=7, t_f=140)
        if current_sparsity(sched) != 0.0:
            return False, f"s_f={s_f}: start not 0"
        sched.n = 20
        if abs(current_sparsity(sched) - s_f) > 1e-12:
            return False, f"s_f={s_f}: end differs by >1e-12"
        vals = [current_sparsity(SparsitySchedule(s_f, 7, 140, n=n)) for n in range(21)]
        if any(b < a for a, b in zip(vals, vals[1:])):
            return False, f"s_f={s_f}: not monotone"
    return True, "cubic ramp: start 0, end s_f to 1e-12, monotone for s_f in {0.9, 0.95, 0.98}"


def check_sparsity_exactness():
    """Algorithm-1 runs (prune, score, regenerate) land on s_t to within one
    connection at every prune event."""
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
            if gap >= 1.0 / total:
                return False, f"trial {trial}: off by {gap * total:.2f} connections"
            worst = max(worst, gap * total)
    return True, (f"20 random (s_f, r, dt) Algorithm-1 runs track s_t each iteration "
                  f"(worst {worst:.2f} connections)")


def _tied_weights(rng):
    """Weights rounded to 0-2 decimals, so |w| ties are common, with a share
    already masked (and zeroed) by earlier prune events."""
    n = int(rng.integers(10, 201))
    w = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    mask = rng.random(n) >= rng.uniform(0.0, 0.6)
    return w * mask, mask


def _channel_topk_matches(net, scores, info) -> bool:
    """info.regenerated is the top info.k of info.pruned by a brute-force
    (score, |gamma|, flat index) sort; flat order is (layer, channel) order."""
    bns = sorted(scores)
    score = np.concatenate([scores[bn] for bn in bns])
    gamma = np.abs(np.concatenate([net.layers[bn].gamma for bn in bns]))
    brute = sorted(info.pruned.tolist(), key=lambda i: (-score[i], -gamma[i], i))[:info.k]
    return info.regenerated.tolist() == sorted(brute)


def check_regeneration_oracle():
    """Connection and channel regeneration pick the top k by (score, |w|,
    index), and global magnitude pruning cuts the first entries by (|w|,
    index), as brute-force sorts do. One RNG stream feeds every instance;
    the tied instances come last, so the earlier ones never change."""
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
        chosen = regenerate(mask, w, scores, np.ones(n, dtype=np.intp), snap, k)
        brute = sorted(pruned_idx, key=lambda i: (-scores[i], -abs(snap[i]), i))[:k]
        if sorted(chosen.tolist()) != sorted(int(i) for i in brute):
            return False, f"connection trial {trial}: top-k set mismatch"
    for trial in range(40):
        width = int(rng.integers(4, 33))
        net = SpikingNetwork(vgg_mini(input_shape=(1, 4, 4), channels=(width,),
                                      classes=2), np.random.default_rng(trial))
        bn = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"][0]
        net.layers[bn].gamma[...] = rng.uniform(0.01, 1.0, size=width)
        scores = {bn: rng.uniform(0, 1, size=width)}
        plan, info = prune_and_regenerate_channels(
            net, float(rng.uniform(0.2, 0.7)), float(rng.uniform(0.0, 0.5)), scores)
        if not _channel_topk_matches(net, scores, info):
            return False, f"channel trial {trial}: top-k set mismatch"
    # Ties: connections into one channel share its score as one run of fan
    # indices, |w| is rounded, and the pruned set holds earlier cuts
    # (snapshot 0) and this event's.
    for trial in range(100):
        w, mask = _tied_weights(rng)
        n = w.size
        fan = int(rng.integers(1, 10))
        units = rng.uniform(0, 1, size=-(-n // fan))
        lengths = np.full(units.size, fan)
        lengths[-1] = n - fan * (units.size - 1)
        scores = np.repeat(units, lengths)
        mask &= rng.random(n) >= rng.uniform(0.2, 0.8)
        snap = w.copy()
        w *= mask
        pruned = np.flatnonzero(~mask)
        k = (0, pruned.size, int(rng.integers(0, pruned.size + 1)))[min(trial % 4, 2)]
        chosen = regenerate(mask, w, units, lengths, snap, k)
        brute = sorted(pruned, key=lambda i: (-scores[i], -abs(snap[i]), i))[:k]
        if sorted(chosen.tolist()) != sorted(int(i) for i in brute):
            return False, f"tied connection trial {trial}: top-k set mismatch"
    for trial in range(100):
        w, mask = _tied_weights(rng)
        n = w.size
        current = 1.0 - int(mask.sum()) / n
        # Every third target lies below the current sparsity, so the cut
        # falls inside the already-masked group.
        s_prime = float(rng.uniform(0.0, current) if trial % 3 == 0
                        else rng.uniform(min(current, 0.95), 0.95))
        cut = sorted(range(n), key=lambda i: (abs(w[i]) if mask[i] else -1.0, i))
        cut = cut[:n - round_half_up((1.0 - s_prime) * n)]
        expected = mask.copy()
        expected[cut] = False
        got_w, got_mask = w.copy(), mask.copy()
        newly = prune_global_magnitude(got_w, got_mask, s_prime)
        if (newly.tolist() != sorted(i for i in cut if mask[i])
                or not np.array_equal(got_mask, expected)
                or not np.array_equal(got_w, w * expected)):
            return False, f"magnitude trial {trial}: pruned set mismatch"
    # Ties across two BN layers: scores and gammas rounded to one decimal.
    for trial in range(40):
        widths = tuple(int(c) for c in rng.integers(4, 17, size=2))
        net = SpikingNetwork(vgg_mini(input_shape=(1, 4, 4), channels=widths, classes=2),
                             np.random.default_rng(trial))
        bns = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"]
        scores = {}
        for bn, width in zip(bns, widths):
            net.layers[bn].gamma[...] = np.round(rng.uniform(-1.0, 1.0, size=width), 1)
            scores[bn] = np.round(rng.uniform(0, 1, size=width), 1)
        plan, info = prune_and_regenerate_channels(
            net, float(rng.uniform(0.2, 0.7)), float(rng.uniform(0.0, 0.5)), scores)
        if not _channel_topk_matches(net, scores, info):
            return False, f"tied channel trial {trial}: top-k set mismatch"
    return True, ("100 connection + 40 channel + 100 tied connection + 40 tied channel "
                  "instances match brute-force (score, |w|, index) sorts; 100 tied "
                  "magnitude cuts match a (|w|, index) sort")


def check_r0_equals_gmp():
    def masks_for(gmp_only):
        net, trainer, _ = tiny_run(seed=17)
        t_f = (4 * trainer.steps_per_epoch // 3) * 3
        sched = SparsitySchedule(s_f=0.9, delta_t=3, t_f=t_f, r=0.0)
        return prune_loop(net, trainer, sched, epochs=6, gmp_only=gmp_only).mask

    if not np.array_equal(masks_for(False), masks_for(True)):
        return False, "Algorithm 1 with r=0 and a pure GMP run keep different masks"
    return True, "Algorithm 1 with r=0 and a pure GMP run produce identical masks"


def check_slim_equivalence():
    rng = np.random.default_rng(4)
    worst = 0.0
    for trial in range(20):
        channels = tuple(int(c) for c in rng.integers(2, 6, size=2))
        net = SpikingNetwork(vgg_mini(input_shape=(1, 8, 8), channels=channels,
                                      classes=3), np.random.default_rng(trial + 500))
        keep, widths = {}, {}
        for i, layer in enumerate(net.layers):
            if layer.kind == "batchnorm":
                _randomize_bn(layer, rng)
                n_keep = int(rng.integers(1, layer.channels + 1))
                keep[i] = sorted(rng.choice(layer.channels, n_keep, replace=False).tolist())
                widths[i] = layer.channels
        plan = ChannelPlan(keep=keep, widths=widths)
        x = rng.normal(size=(4, 1, 8, 8))
        diff = float(np.abs(mask_channels(net, plan).forward(x)
                            - slim(net, plan).forward(x)).max())
        if diff > 1e-5:
            return False, f"trial {trial}: deviation {diff:.2e}"
        worst = max(worst, diff)
    return True, f"20 random nets/plans: slimmed == masked within {worst:.2e}"


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
    expected_dense = 4 * 1 * 9 * 8 * 8 + 6 * 4 * 9 * 4 * 4 + (6 * 2 * 2) * 3
    if dense.dense_total != expected_dense:
        return False, f"dense MACs {dense.dense_total} != {expected_dense}"
    bns = [i for i, l in enumerate(spec.layers) if l.kind == "batchnorm"]
    plan = ChannelPlan(keep={bns[0]: [0, 1], bns[1]: [0, 1, 2]},
                       widths={bns[0]: 4, bns[1]: 6})
    got = count_flops(spec, plan)
    expected_slim = 2 * 1 * 9 * 8 * 8 + 3 * 2 * 9 * 4 * 4 + (3 * 2 * 2) * 3
    expected_reduction = 1.0 - expected_slim / expected_dense
    ok = (got.slim_total == expected_slim
          and abs(got.reduction - expected_reduction) <= 0.005)
    return ok, (f"hand-computed MACs match exactly; half-channel plan reduction "
                f"{got.reduction:.4f} vs analytic {expected_reduction:.4f}")


def check_criticality_partition():
    rng = np.random.default_rng(6)
    per_sample = rng.uniform(0, 1, size=(30, 5))
    diff = np.abs(score_batch({0: per_sample})[0] - score_batch({0: per_sample}, 7)[0]).max()
    return diff <= 1e-9, f"partition drift {diff:.2e}"


def check_survival_replay():
    """The survival report replayed from the mask history equals the live
    ledger's; the feature analyses hit their closed-form values."""
    net, trainer, _ = tiny_run(seed=23)
    t_f = (4 * trainer.steps_per_epoch // 3) * 3
    sched = SparsitySchedule(s_f=0.9, delta_t=3, t_f=t_f, r=0.4)
    res = prune_loop(net, trainer, sched, epochs=5)
    live = survival_report(res.ledger, res.mask)
    replayed = replay_mask_history(np.ones(res.mask.size, dtype=bool), res.unpacked_history())
    if live != replayed:
        return False, "recomputed survival report differs from live ledger"

    rng = np.random.default_rng(5)
    v = rng.normal(size=(6, 8))
    dup = FeatureBank(np.repeat(v[:1], 6, axis=0), np.zeros(6, dtype=int))
    if intra_cluster_variance(dup, 0) != 0.0:
        return False, "duplicated features have non-zero variance"
    labels = np.zeros(6, dtype=int)
    cos = class_mean_cosine(FeatureBank(v, labels, "train"),
                            FeatureBank(v.copy(), labels, "test"), 0)
    if cos != 1.0:
        return False, f"identical splits have cosine {cos!r}"
    return True, ("survival replay == live ledger; duplicated features -> variance 0; "
                  "identical splits -> cosine 1")


def check_checkpoint_roundtrip(tmp_dir):
    """Float and bit-packed bool entries (15 mask bits: one padded byte) in a
    format-3 file, whose CRC32 trailer catches a flipped data bit."""
    rng = np.random.default_rng(7)
    arrays = {"w": rng.normal(size=(3, 5)), "mask/w": rng.random((3, 5)) < 0.5}
    meta = {"note": "roundtrip", "nested": {"a": 1}}
    p1, p2 = Path(tmp_dir, "first.ckpt"), Path(tmp_dir, "second.ckpt")
    checkpoint.save(p1, arrays, meta)
    loaded, meta2 = checkpoint.load(p1)
    checkpoint.save(p2, loaded, meta2)
    blob = p1.read_bytes()
    mask = loaded["mask/w"]
    mask_ok = mask.dtype == np.bool_ and np.array_equal(mask, arrays["mask/w"])
    if blob != p2.read_bytes():
        return False, "bytes differ"
    if not mask_ok:
        return False, f"bool mask came back as {mask.dtype} or with other values"
    if blob[4] != 3 or blob[-4:] != zlib.crc32(blob[:-4]).to_bytes(4, "little"):
        return False, "the file is not format 3 with a CRC32 trailer"
    flipped = bytearray(blob)
    flipped[-5] ^= 1                    # the last data byte, inside the w entry
    p2.write_bytes(flipped)
    try:
        checkpoint.load(p2)
    except ValueError as exc:
        if "checksum" not in str(exc):
            return False, f"a flipped data bit failed with {exc}"
    else:
        return False, "a flipped data bit loaded without error"
    return True, ("format 3: save -> load -> save byte-identical, bool mask bit-packed, "
                  "a flipped data bit fails the CRC32")


DETERMINISM_CONFIG = (
    "seed = 7\nchannels = 2, 3\ntrain_samples = 60\ntest_samples = 30\n"
    "batch_size = 16\nlr = 0.1\nepochs = 2\nN_p = 2\nN_f = 1\ndelta_t = 4\n"
    "N_t = 2\nN_1 = 1\nN_2 = 2\n"
)


def check_determinism(tmp_dir):
    """Each subcommand run twice from one config writes the same files, byte
    for byte."""
    cfg = Path(tmp_dir, "d.cfg")
    cfg.write_text(DETERMINISM_CONFIG, encoding="utf-8")
    for sub in ("train", "prune-unstructured", "prune-structured"):
        a, b = Path(tmp_dir, sub, "a"), Path(tmp_dir, sub, "b")
        for out in (a, b):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main([sub, "--config", str(cfg), "--out", str(out)])
            if rc != 0:
                return False, f"{sub} exited {rc}"
        names = sorted(p.name for p in a.iterdir())
        if names != sorted(p.name for p in b.iterdir()):
            return False, f"{sub} reruns wrote different files"
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                return False, f"{sub}/{name} differs between reruns"
    return True, "train / prune-unstructured / prune-structured reruns are byte-identical"


def run_all(tmp_dir: str) -> list:
    checks = [
        ("surrogate", check_surrogate),
        ("lif-dynamics", check_lif_dynamics),
        ("stbp-gradients", check_stbp_gradients),
        ("prefix-once", check_prefix_once),
        ("sparsity-schedule", check_schedule),
        ("sparsity-exactness", check_sparsity_exactness),
        ("regeneration-topk", check_regeneration_oracle),
        ("r0-equals-gmp", check_r0_equals_gmp),
        ("slim-mask-equivalence", check_slim_equivalence),
        ("arena-views", check_arena_views),
        ("flops-accounting", check_flops),
        ("criticality-partition", check_criticality_partition),
        ("survival-replay", check_survival_replay),
        ("checkpoint-roundtrip", lambda: check_checkpoint_roundtrip(tmp_dir)),
        ("determinism", lambda: check_determinism(tmp_dir)),
    ]
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:                      # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results
