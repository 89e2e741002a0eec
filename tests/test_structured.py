"""Channel ranking, prune+regenerate counting, slim/mask equivalence, and
MAC accounting against closed-form arithmetic.
"""

import numpy as np
import pytest

from spikeprune.criticality import sample_scores, score_batch
from spikeprune.data import DatasetSpec, make_synthetic
from spikeprune.errors import ArgumentError
from spikeprune.network import LayerSpec, NetworkSpec, SpikingNetwork, vgg_mini
from spikeprune.optim import TrainConfig
from spikeprune.structured import (
    ChannelPlan,
    apply_plan_to_spec,
    bn_gammas,
    count_flops,
    criticality_over_dataset,
    mask_channels,
    prune_and_regenerate_channels,
    slim,
    structured_pipeline,
)
from spikeprune.train import Trainer
from spikeprune.unstructured import round_half_up


def rand_net(seed, channels=(3, 4), image=(1, 8, 8), classes=3):
    rng = np.random.default_rng(seed)
    net = SpikingNetwork(vgg_mini(input_shape=image, channels=channels,
                                  classes=classes), rng)
    # scatter the BN parameters and running stats so slimming is non-trivial
    for layer in net.layers:
        if layer.kind == "batchnorm":
            layer.gamma[...] = rng.uniform(0.2, 1.5, size=layer.channels)
            layer.beta[...] = rng.normal(0, 0.2, size=layer.channels)
            layer.running_mean = rng.normal(0, 0.5, size=layer.channels)
            layer.running_var = rng.uniform(0.5, 2.0, size=layer.channels)
    return net, rng


def random_plan(net, rng, keep_at_least=1):
    keep = {}
    widths = {}
    for i, layer in enumerate(net.layers):
        if layer.kind == "batchnorm":
            width = layer.channels
            n_keep = int(rng.integers(keep_at_least, width + 1))
            keep[i] = sorted(rng.choice(width, size=n_keep, replace=False).tolist())
            widths[i] = width
    return ChannelPlan(keep=keep, widths=widths)


def bn_net(channels, gammas):
    """Net with the given per-BN-layer gammas; returns (net, bn layer indices)."""
    net = SpikingNetwork(vgg_mini(input_shape=(1, 8, 8), channels=channels, classes=2),
                         np.random.default_rng(0))
    bns = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"]
    for bn, g in zip(bns, gammas):
        net.layers[bn].gamma[...] = g
    return net, bns


class TestRankChannels:
    def test_hand_example(self):
        net, (bn,) = bn_net((4,), [[0.9, 0.05, 0.4, 0.01]])
        plan, info = prune_and_regenerate_channels(net, 0.5, 0.0, {bn: np.zeros(4)})
        assert info.pruned.tolist() == [1, 3]   # 0.01 and 0.05 pruned at 50%
        assert plan.keep[bn] == [0, 2]

    def test_all_equal_uses_index_order(self):
        net, bns = bn_net((3, 2), [np.full(3, 0.5), np.full(2, 0.5)])
        assert bns == [1, 5]
        scores = {bn: np.zeros(net.layers[bn].channels) for bn in bns}
        for count in range(1, 5):
            plan, info = prune_and_regenerate_channels(net, count / 5, 0.0, scores)
            assert info.pruned.tolist() == list(range(count))  # lowest flat index first

    def test_percent_zero_prunes_nothing(self):
        net, _ = rand_net(0)
        scores = {i: np.ones(l.channels) for i, l in enumerate(net.layers)
                  if l.kind == "batchnorm"}
        plan, info = prune_and_regenerate_channels(net, 0.0, 0.0, scores)
        assert plan.survivors() == plan.total_channels
        assert info.pruned.size == 0


class TestPruneAndRegenerate:
    def _four_channel_net(self):
        rng = np.random.default_rng(1)
        # single block of 4 channels on a small image
        net = SpikingNetwork(vgg_mini(input_shape=(1, 4, 4), channels=(4,),
                                      classes=2), rng)
        return net

    def test_toy_four_channels(self):
        """percent=0.5, r=0.5 on 4 channels: 3 pruned, 1 regenerated, and the
        one brought back is the argmax-criticality pruned channel."""
        net = self._four_channel_net()
        bn = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"][0]
        net.layers[bn].gamma[...] = [0.9, 0.05, 0.4, 0.01]
        scores = {bn: np.array([0.1, 0.8, 0.2, 0.3])}
        plan, info = prune_and_regenerate_channels(net, 0.5, 0.5, scores)
        assert info.pruned.tolist() == [1, 2, 3]  # flat index == channel in the first layer
        assert info.regenerated.tolist() == [1]   # highest criticality among pruned
        assert plan.keep[bn] == [0, 1]

    def test_r0_is_plain_slimming(self):
        net = self._four_channel_net()
        bn = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"][0]
        net.layers[bn].gamma[...] = [0.9, 0.05, 0.4, 0.01]
        scores = {bn: np.zeros(4)}
        plan, info = prune_and_regenerate_channels(net, 0.5, 0.0, scores)
        assert info.regenerated.size == 0
        assert plan.keep[bn] == [0, 2]          # two largest |gamma| survive

    def test_never_resurrects_unpruned(self):
        for seed in range(10):
            net, rng = rand_net(seed + 20)
            gam = bn_gammas(net)
            scores = {i: rng.uniform(0, 1, size=g.size) for i, g in gam.items()}
            percent = float(rng.uniform(0.2, 0.7))
            r = float(rng.uniform(0.0, 0.6))
            plan, info = prune_and_regenerate_channels(net, percent, r, scores)
            assert np.isin(info.regenerated, info.pruned).all()

    def test_channel_counts_exact(self):
        for seed in range(10):
            net, rng = rand_net(seed + 40)
            gam = bn_gammas(net)
            scores = {i: rng.uniform(0, 1, size=g.size) for i, g in gam.items()}
            percent = float(rng.uniform(0.1, 0.6))
            plan, info = prune_and_regenerate_channels(net, percent, 0.3, scores)
            expected = round_half_up((1 - percent) * plan.total_channels)
            assert plan.survivors() == expected + len(info.force_kept)

    def test_layer_collapse_guard(self):
        net, _ = rand_net(60, channels=(2, 6))
        bns = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"]
        # first layer's gammas are tiny: global ranking would empty it
        net.layers[bns[0]].gamma[...] = [1e-6, 2e-6]
        net.layers[bns[1]].gamma[...] = np.linspace(0.5, 1.0, 6)
        scores = {bns[0]: np.zeros(2), bns[1]: np.zeros(6)}
        plan, info = prune_and_regenerate_channels(net, 0.5, 0.0, scores)
        assert plan.keep[bns[0]] == [1]         # top |gamma| force-kept
        assert (bns[0], 1) in info.force_kept

    def test_layer_collapse_guard_tie_keeps_lowest_channel(self):
        net, bns = bn_net((3, 6), [[1e-6, -2e-6, 2e-6], np.linspace(0.5, 1.0, 6)])
        scores = {bns[0]: np.zeros(3), bns[1]: np.zeros(6)}
        plan, info = prune_and_regenerate_channels(net, 0.4, 0.0, scores)
        assert info.pruned.tolist() == [0, 1, 2, 3]
        assert plan.keep[bns[0]] == [1]         # first of the tied top |gamma|
        assert info.force_kept == [(bns[0], 1)]

    def test_invalid_percent(self):
        net, _ = rand_net(61)
        with pytest.raises(ArgumentError):
            prune_and_regenerate_channels(net, 1.0, 0.0, {})


class TestSlim:
    def test_identity_plan_bitwise_close(self):
        net, rng = rand_net(2)
        plan = ChannelPlan(
            keep={i: list(range(l.channels)) for i, l in enumerate(net.layers)
                  if l.kind == "batchnorm"},
            widths={i: l.channels for i, l in enumerate(net.layers)
                    if l.kind == "batchnorm"},
        )
        slimmed = slim(net, plan)
        x = rng.normal(size=(4, 1, 8, 8))
        a = net.forward(x)
        b = slimmed.forward(x)
        assert np.abs(a - b).max() <= 1e-12

    def test_gamma_zero_channel_removal_is_exact(self):
        net, rng = rand_net(3)
        bns = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"]
        target = bns[0]
        net.layers[target].gamma[1] = 0.0
        net.layers[target].beta[1] = 0.0
        keep = {i: list(range(net.layers[i].channels)) for i in bns}
        keep[target] = [c for c in keep[target] if c != 1]
        plan = ChannelPlan(keep=keep, widths={i: net.layers[i].channels for i in bns})
        slimmed = slim(net, plan)
        x = rng.normal(size=(4, 1, 8, 8))
        assert np.abs(net.forward(x) - slimmed.forward(x)).max() <= 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_slim_matches_masked_network(self, seed):
        """The central oracle: physical surgery == gamma/beta-silenced net."""
        net, rng = rand_net(seed + 100, channels=(3, 5))
        plan = random_plan(net, rng)
        masked = mask_channels(net, plan)
        slimmed = slim(net, plan)
        x = rng.normal(size=(5, 1, 8, 8))
        a = masked.forward(x)
        b = slimmed.forward(x)
        assert np.abs(a - b).max() <= 1e-5

    def test_slim_training_mode_equivalence(self):
        net, rng = rand_net(200, channels=(4, 4))
        plan = random_plan(net, rng)
        masked = mask_channels(net, plan)
        slimmed = slim(net, plan)
        x = rng.normal(size=(6, 1, 8, 8))
        a = masked.forward(x, training=True)
        b = slimmed.forward(x, training=True)
        assert np.abs(a - b).max() <= 1e-5

    def test_every_array_equals_the_original_indexed_by_hand(self):
        """Both conv blocks narrowed: each conv keeps its BN's channels as
        outputs and the previous conv's as inputs, and the head keeps the
        last conv's channels as blocks of h*w = 2*2 columns."""
        net, _ = rand_net(7, channels=(3, 5))
        first, second = [0, 2], [1, 3, 4]
        slimmed = slim(net, ChannelPlan(keep={1: first, 5: second}, widths={1: 3, 5: 5}))
        src = {**net.parameters(), **net.state_arrays()}
        cols = [4 * c + j for c in second for j in range(4)]
        expected = {
            "layers.0.weight": src["layers.0.weight"][first],
            "layers.4.weight": src["layers.4.weight"][second][:, first],
            "layers.9.weight": src["layers.9.weight"][:, cols],
            "layers.9.bias": src["layers.9.bias"],
        }
        for name in ("gamma", "beta", "running_mean", "running_var"):
            expected[f"layers.1.{name}"] = src[f"layers.1.{name}"][first]
            expected[f"layers.5.{name}"] = src[f"layers.5.{name}"][second]
        got = {**slimmed.parameters(), **slimmed.state_arrays()}
        assert sorted(got) == sorted(expected)
        for name, arr in got.items():
            np.testing.assert_array_equal(arr, expected[name], err_msg=name)

    def test_spec_keeps_every_layer_field(self):
        """A conv without padding keeps its padding, and the head its width
        of the 6x6 map pooled to 3x3, through the narrowed spec."""
        spec = NetworkSpec(input_shape=(1, 8, 8), layers=[
            LayerSpec("conv", in_channels=1, out_channels=4, kernel=3, stride=1, padding=0),
            LayerSpec("batchnorm", out_channels=4), LayerSpec("lif"),
            LayerSpec("avgpool", window=2, stride=2), LayerSpec("flatten"),
            LayerSpec("linear", in_features=36, out_features=3)])
        narrowed = apply_plan_to_spec(spec, ChannelPlan(keep={1: [0, 2]}, widths={1: 4}))
        assert narrowed.layers[0] == LayerSpec("conv", in_channels=1, out_channels=2,
                                               kernel=3, stride=1, padding=0)
        assert narrowed.layers[5] == LayerSpec("linear", in_features=18, out_features=3)
        assert narrowed.layers[2:5] == spec.layers[2:5]

    def test_plan_validation(self):
        with pytest.raises(ArgumentError):
            ChannelPlan(keep={1: []}, widths={1: 4})
        with pytest.raises(ArgumentError):
            ChannelPlan(keep={1: [0, 5]}, widths={1: 4})

    def test_plan_roundtrip(self):
        plan = ChannelPlan(keep={1: [0, 2], 5: [1]}, widths={1: 3, 5: 2})
        again = ChannelPlan.from_dict(plan.to_dict())
        assert again.keep == plan.keep and again.widths == plan.widths


class TestFlops:
    def _spec(self):
        return vgg_mini(input_shape=(1, 8, 8), channels=(4, 6), classes=3)

    def test_closed_form_dense(self):
        report = count_flops(self._spec())
        # conv1: 4*1*9*8*8, conv2: 6*4*9*4*4, head: 24*3
        assert report.dense_total == 4 * 1 * 9 * 64 + 6 * 4 * 9 * 16 + 24 * 3
        assert report.reduction == 0.0

    def test_halving_every_layer(self):
        spec = self._spec()
        bns = [i for i, l in enumerate(spec.layers) if l.kind == "batchnorm"]
        plan = ChannelPlan(keep={bns[0]: [0, 1], bns[1]: [0, 1, 2]},
                           widths={bns[0]: 4, bns[1]: 6})
        report = count_flops(spec, plan)
        dense = 4 * 1 * 9 * 64 + 6 * 4 * 9 * 16 + 24 * 3
        slim_total = 2 * 1 * 9 * 64 + 3 * 2 * 9 * 16 + 12 * 3
        assert report.slim_total == slim_total
        assert report.reduction == pytest.approx(1 - slim_total / dense, abs=1e-12)

    def test_pruning_last_conv_is_local(self):
        spec = self._spec()
        bns = [i for i, l in enumerate(spec.layers) if l.kind == "batchnorm"]
        plan = ChannelPlan(keep={bns[0]: [0, 1, 2, 3], bns[1]: [0, 1, 2]},
                           widths={bns[0]: 4, bns[1]: 6})
        report = count_flops(spec, plan)
        per_layer = {i: (d, s) for i, _, d, s in report.layers}
        conv1, conv2, head = sorted(per_layer)
        assert per_layer[conv1][0] == per_layer[conv1][1]
        assert per_layer[conv2][1] == 3 * 4 * 9 * 16
        assert per_layer[head][1] == 3 * 4 * 3

    def test_reduction_is_pure_geometry(self):
        spec = self._spec()
        bns = [i for i, l in enumerate(spec.layers) if l.kind == "batchnorm"]
        plan = ChannelPlan(keep={bns[0]: [1, 3], bns[1]: [0, 4, 5]},
                           widths={bns[0]: 4, bns[1]: 6})
        assert count_flops(spec, plan).reduction == count_flops(spec, plan).reduction


class TestPipeline:
    def test_end_to_end_smoke(self):
        rng = np.random.default_rng(77)
        data = make_synthetic(DatasetSpec(classes=3, train_samples=24, test_samples=12,
                                          shape=(1, 8, 8), separation=4.0), rng)
        net = SpikingNetwork(vgg_mini(channels=(3, 4), classes=3), rng)

        def make_trainer(n, epochs):
            cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=5e-4,
                              batch_size=8, epochs=epochs, lr_schedule="step",
                              lr_drop_epochs=(2,))
            return Trainer(n, data, cfg, rng)

        result = structured_pipeline(net, make_trainer, train_epochs=3,
                                     finetune_epochs=2, percent=0.5, r=0.5,
                                     lambda_l1=1e-4, batch_size=8)
        expected = round_half_up(0.5 * result.plan.total_channels)
        assert result.plan.survivors() == expected + len(result.info.force_kept)
        assert 0.0 < result.flops.reduction < 1.0
        assert len(result.train_rows) == 3
        assert len(result.finetune_rows) == 2
        rec = result.ledger.records[0]
        assert rec.regenerated == result.info.k

    def test_criticality_scores_cover_all_bn_layers(self, tiny):
        net, trainer, data = tiny
        scores = criticality_over_dataset(net, data.x_train, 8)
        bns = [i for i, l in enumerate(net.layers) if l.kind == "batchnorm"]
        assert sorted(scores) == bns
        for i in bns:
            assert scores[i].shape == (net.layers[i].channels,)
            assert np.all(scores[i] > 0) and np.all(scores[i] <= 1.0)

    @pytest.mark.parametrize("aggregation", ["max", "mean"])
    @pytest.mark.parametrize("channels", [(12, 24), (64, 128)])
    def test_criticality_over_dataset_equals_full_batch_scores(self, channels, aggregation):
        """Scoring each batch tile by tile equals score_batch over the per-sample
        scores of each batch run once, layer by layer, bit for bit; the batch
        size is not a multiple of the tile and the last batch is ragged."""
        net, rng = rand_net(21, channels=channels)
        t, batch = net.spec.t_steps, net.tile + net.tile // 2 + 1
        x = 2.0 * rng.normal(size=(2 * batch + 3, 1, 8, 8))
        runs = []
        for lo in range(0, len(x), batch):
            acts = net.layer_input(x[lo:lo + batch])[None]
            for i, layer in enumerate(net.layers):
                if i == net.lif_indices()[0]:
                    acts = np.broadcast_to(acts, (t,) + acts.shape[1:])
                acts = layer.forward(acts, False)
            states = {i: net.layers[i].state for i in net.lif_indices()}
            runs.append(sample_scores(states, aggregation))
        full = score_batch({key: np.concatenate([r[key] for r in runs]) for key in runs[0]},
                           batch)
        scores = criticality_over_dataset(net, x, batch, aggregation)
        assert sorted(scores) == [1, 5]
        for bn, got in scores.items():
            np.testing.assert_array_equal(got, full[net.scoring_lif(bn)])

    def test_four_block_pipeline_near_half_flops(self):
        """A 4-block stack with percent tuned toward ~50% MAC reduction runs
        end to end and reports consistent accounting."""
        rng = np.random.default_rng(88)
        data = make_synthetic(DatasetSpec(classes=3, train_samples=48, test_samples=24,
                                          shape=(1, 16, 16), separation=4.0), rng)
        net = SpikingNetwork(vgg_mini(input_shape=(1, 16, 16),
                                      channels=(4, 4, 6, 6), classes=3), rng)

        def make_trainer(n, epochs):
            cfg = TrainConfig(lr=0.05, momentum=0.9, weight_decay=5e-4,
                              batch_size=16, epochs=epochs, lr_schedule="step",
                              lr_drop_epochs=(2,))
            return Trainer(n, data, cfg, rng)

        result = structured_pipeline(net, make_trainer, train_epochs=2,
                                     finetune_epochs=1, percent=0.3, r=0.1,
                                     lambda_l1=1e-4, batch_size=16)
        assert 0.3 <= result.flops.reduction <= 0.7
        dense_again = count_flops(net.spec)
        assert result.flops.dense_total == dense_again.dense_total
        recount = count_flops(net.spec, result.plan)
        assert recount.slim_total == result.flops.slim_total
