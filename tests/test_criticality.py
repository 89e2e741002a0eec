"""Criticality scoring: aggregation semantics, batch-weighted means, broadcast
to connections, and brute-force ranking oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeprune.criticality import (
    connection_runs,
    network_connection_scores,
    sample_scores,
    score_batch,
    scores_to_rows,
)
from spikeprune.errors import StateError
from spikeprune.layers import LIFState
from spikeprune.network import SpikingNetwork, linear_snn, vgg_mini
from spikeprune.unstructured import regenerate


def state_from_gprime(gp):
    """A state whose g' trace is gp: set in place of the value derived from h."""
    gp = np.asarray(gp, dtype=float)
    z = np.zeros_like(gp)
    st = LIFState(h=z, s=z, v_threshold=1.0)
    st.gprime = gp
    return st


def scored(states, aggregation="max"):
    """Unit means of one recorded forward: the per-sample step, then the mean."""
    return score_batch(sample_scores(states, aggregation))


def channels_last(gp):
    """A conv trace written as [T, N, C, H, W], in the layers' [T, N, H, W, C] layout."""
    return np.moveaxis(gp, 2, -1)


class TestScoreBatch:
    def test_time_mean_linear(self):
        # one neuron, g' = {1.0, 0.5} over T=2 -> 0.75
        gp = np.array([1.0, 0.5]).reshape(2, 1, 1)
        out = scored({0: state_from_gprime(gp)})
        assert out[0][0] == 0.75

    def test_conv_max_aggregation(self):
        # a channel whose spatial time-means are {0.75, 0.20}
        gp = np.zeros((2, 1, 1, 1, 2))
        gp[:, 0, 0, 0, 0] = [1.0, 0.5]   # time-mean 0.75
        gp[:, 0, 0, 0, 1] = [0.2, 0.2]   # time-mean 0.20
        out_max = scored({0: state_from_gprime(channels_last(gp))}, "max")
        out_mean = scored({0: state_from_gprime(channels_last(gp))}, "mean")
        assert out_max[0][0] == 0.75
        assert out_mean[0][0] == pytest.approx((0.75 + 0.2) / 2)

    @pytest.mark.parametrize("t", [1, 3, 5, 7])
    def test_max_is_bitwise_time_mean_then_max(self, t):
        """Max aggregation divides the spatial max of the time-sum by T;
        that equals the max of the time-mean bit for bit."""
        rng = np.random.default_rng(t)
        conv = rng.uniform(0.0, 1.0, size=(t, 6, 3, 5, 16))
        flat = rng.uniform(0.0, 1.0, size=(t, 6, 40))
        out = sample_scores({0: state_from_gprime(conv), 1: state_from_gprime(flat)}, "max")
        assert out[0].tobytes() == conv.mean(axis=0).max(axis=(1, 2)).tobytes()
        assert out[1].tobytes() == flat.mean(axis=0).tobytes()

    def test_all_at_threshold_scores_one(self):
        gp = np.ones((3, 4, 2, 2, 2))
        out = scored({0: state_from_gprime(channels_last(gp))}, "max")
        np.testing.assert_array_equal(out[0], np.ones(2))

    def test_empty_states(self):
        with pytest.raises(StateError):
            sample_scores({})
        with pytest.raises(StateError):
            score_batch({})

    @given(st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_max_at_least_mean(self, n, c):
        rng = np.random.default_rng(n * 31 + c)
        gp = rng.uniform(0.001, 1.0, size=(3, n, c, 2, 3))
        hi = scored({0: state_from_gprime(channels_last(gp))}, "max")[0]
        lo = scored({0: state_from_gprime(channels_last(gp))}, "mean")[0]
        assert np.all(hi >= lo - 1e-15)

    def test_far_from_threshold_bound(self):
        """|h - v_th| >= 10 everywhere caps the score at 1/(1+100 pi^2)."""
        from spikeprune.layers import LIF, LIFParams
        layer = LIF(LIFParams())
        xs = np.full((4, 2, 3), 100.0)   # membrane lands far above threshold
        layer.forward(xs, training=True)
        assert np.all(np.abs(layer.state.h - 1.0) >= 10)
        out = scored({0: layer.state})
        bound = 1.0 / (1.0 + 100.0 * np.pi ** 2)
        assert np.all(out[0] <= bound)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(9)
        gp = rng.uniform(1e-6, 1.0, size=(5, 3, 4))
        out = scored({0: state_from_gprime(gp)})
        assert np.all(out[0] > 0) and np.all(out[0] <= 1.0)


def slice_weighted(rows, batch):
    """Each slice of batch rows adds its mean times its row count, in order;
    the sum is divided by the row count."""
    parts = [rows[lo:lo + batch] for lo in range(0, len(rows), batch)]
    return sum(p.mean(axis=0) * len(p) for p in parts) / len(rows)


class TestTable:
    """score_batch(per_sample, batch): per-unit means over the rows, each
    slice of batch rows weighted by its row count."""

    def test_single_batch_identity(self):
        rows = np.random.default_rng(1).uniform(0.0, 1.0, size=(8, 2))
        want = (rows.mean(axis=0) * 8 / 8).tobytes()
        for batch in (None, 8, 100):
            assert score_batch({0: rows}, batch)[0].tobytes() == want

    def test_two_equal_batches_idempotent(self):
        rows = np.full((8, 1), 0.25)
        assert score_batch({0: rows}, 4)[0][0] == 0.25

    def test_mean_of_two_batches(self):
        assert score_batch({0: np.array([[0.2], [0.8]])}, 1)[0][0] == 0.5

    def test_no_samples_raises(self):
        with pytest.raises(StateError, match="layer 0: no samples to average"):
            score_batch({0: np.empty((0, 3))})

    def test_ragged_batches_bitwise_slice_weighted(self):
        """With batch < n and a ragged last slice, each key's means equal the
        slice-weighted sum bit for bit, over that key's own row count; on
        these rows a plain mean over all rows differs in the last bits."""
        rng = np.random.default_rng(3)
        per_sample = {0: rng.uniform(0.0, 1.0, size=(30, 5)),
                      4: rng.uniform(0.0, 1.0, size=(12, 3))}
        got = score_batch(per_sample, 7)
        for key, rows in per_sample.items():
            assert got[key].tobytes() == slice_weighted(rows, 7).tobytes()
        assert got[0].tobytes() != per_sample[0].mean(axis=0).tobytes()

    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
    @settings(max_examples=30, deadline=None)
    def test_partition_invariance(self, n_batch):
        """Any batch from 1 to n gives the one-slice means within 1e-9."""
        n, batch = n_batch
        per_sample = {0: np.random.default_rng(n * 41 + batch).uniform(0.0, 1.0, size=(n, 3))}
        whole, split = score_batch(per_sample), score_batch(per_sample, batch)
        assert np.abs(whole[0] - split[0]).max() <= 1e-9


def per_weight_oracle(net, means):
    """Per-weight scores built directly, by parameter: a hidden layer's
    weights take their output unit's score, the head's weights the score of
    their input feature's pre-synaptic unit (0 with no LIF before the head)."""
    out = {}
    for idx, layer in enumerate(net.layers):
        if layer.kind not in ("conv", "linear"):
            continue
        shape = layer.weight.shape
        lif = net.scoring_lif(idx)
        prev = [j for j in net.lif_indices() if j < idx]
        if lif is not None:
            scores = means[lif].reshape((-1,) + (1,) * (len(shape) - 1))
        elif prev:
            units = means[prev[-1]]
            scores = np.repeat(units, shape[1] // units.size)
        else:
            scores = np.zeros(1)
        out[f"layers.{idx}.weight"] = np.broadcast_to(scores, shape)
    return out


def expanded(net, means):
    """The per-weight scores the runs stand for, np.repeat(scores, lengths),
    split by parameter."""
    runs = connection_runs(net)
    scores = network_connection_scores(runs, means)
    assert scores.shape == runs.lengths.shape and runs.lengths.min() >= 1
    flat = np.repeat(scores, runs.lengths)
    assert flat.shape == (net.n_prunable,)
    return net.split(flat)


def recorded_scores(net, rng, batch=2):
    net.forward(rng.normal(size=(batch,) + tuple(net.spec.input_shape)), training=True)
    return scored(net.lif_states())


class TestConnectionScores:
    def test_linear_broadcast(self):
        net = SpikingNetwork(linear_snn((2, 1, 3)), np.random.default_rng(0))
        out = expanded(net, {1: np.array([0.7])})
        np.testing.assert_array_equal(out["layers.0.weight"], [[0.7, 0.7]])

    def test_conv_broadcast(self):
        net = SpikingNetwork(vgg_mini(input_shape=(3, 8, 8), channels=(2,)),
                             np.random.default_rng(0))
        out = expanded(net, {2: np.array([0.9, 0.1])})["layers.0.weight"]
        assert out.shape == (2, 3, 3, 3)
        assert np.all(out[0] == 0.9) and np.all(out[1] == 0.1)

    def test_head_inherits_presynaptic_scores(self):
        # 2 channels over 3 flattened positions each -> 6 input features
        net = SpikingNetwork(vgg_mini(input_shape=(1, 6, 2), channels=(2,), classes=3),
                             np.random.default_rng(0))
        assert connection_runs(net).lengths[2:].tolist() == [3] * 6
        out = expanded(net, {2: np.array([0.7, 0.2])})["layers.5.weight"]
        np.testing.assert_array_equal(out[0], [0.7, 0.7, 0.7, 0.2, 0.2, 0.2])
        assert np.array_equal(out[0], out[2])

    def test_ranking_matches_flat_broadcast_sort(self):
        """Regeneration over runs equals an independent broadcast-then-sort
        oracle: six units with fan-in 4 feed a 2-row head, every weight is
        pruned and |w| is equal, so the index breaks score ties."""
        rng = np.random.default_rng(11)
        net = SpikingNetwork(linear_snn((4, 6, 2)), rng)
        scores = rng.uniform(0, 1, size=6)
        runs = connection_runs(net)
        conn = network_connection_scores(runs, {1: scores})
        flat = np.concatenate([w.ravel() for w in per_weight_oracle(net, {1: scores}).values()])
        brute = np.argsort(-flat, kind="stable")
        for k in range(net.n_prunable + 1):
            mask = np.zeros(net.n_prunable, dtype=bool)
            chosen = regenerate(mask, np.zeros(mask.size), conn, runs.lengths,
                                np.ones(mask.size), k)
            assert chosen.tolist() == sorted(brute[:k].tolist())

    def test_network_mapping(self):
        rng = np.random.default_rng(12)
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), rng)
        means = recorded_scores(net, rng)
        per_weight = expanded(net, means)
        assert set(per_weight) == {f"layers.{i}.weight" for i, l in enumerate(net.layers)
                                   if l.kind in ("conv", "linear")}
        # head rows repeat the last LIF's channel scores over spatial positions
        head = per_weight["layers.9.weight"]
        last_lif = max(means)
        hw = head.shape[1] // means[last_lif].shape[0]
        np.testing.assert_array_equal(head[0], np.repeat(means[last_lif], hw))
        oracle = per_weight_oracle(net, means)
        for key, scores in per_weight.items():
            np.testing.assert_array_equal(scores, oracle[key])

    def test_network_mapping_linear_snn(self):
        """A head after a flat LIF has runs of length 1: one per input feature."""
        rng = np.random.default_rng(13)
        net = SpikingNetwork(linear_snn((5, 4, 3)), rng)
        runs = connection_runs(net)
        assert runs.lengths.tolist() == [5] * 4 + [1] * 12
        means = recorded_scores(net, rng)
        per_weight = expanded(net, means)
        np.testing.assert_array_equal(per_weight["layers.2.weight"],
                                      np.tile(means[1], (3, 1)))
        oracle = per_weight_oracle(net, means)
        for key, scores in per_weight.items():
            np.testing.assert_array_equal(scores, oracle[key])

    def test_head_without_lif_scores_zero(self):
        net = SpikingNetwork(linear_snn((4, 3)), np.random.default_rng(0))
        assert connection_runs(net).lengths.tolist() == [12]
        np.testing.assert_array_equal(expanded(net, {})["layers.0.weight"], np.zeros((3, 4)))

    def test_missing_or_misshapen_scores_raise(self):
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), np.random.default_rng(0))
        runs = connection_runs(net)
        with pytest.raises(StateError, match="no scores for LIF layer 6"):
            network_connection_scores(runs, {2: np.ones(2)})
        with pytest.raises(StateError, match="3 scores vs 2 units"):
            network_connection_scores(runs, {2: np.ones(3), 6: np.ones(3)})

    def test_rows_export(self):
        rows = scores_to_rows({2: np.array([0.5, 0.25])})
        assert rows == [(2, 0, 0.5), (2, 1, 0.25)]
