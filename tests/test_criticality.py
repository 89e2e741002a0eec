"""Criticality scoring: aggregation semantics, accumulation, broadcast to
connections, and brute-force ranking oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeprune.criticality import (
    BatchScores,
    CriticalityTable,
    connection_scores,
    head_connection_scores,
    network_connection_scores,
    sample_scores,
    score_batch,
    scores_to_rows,
)
from spikeprune.errors import StateError
from spikeprune.layers import LIFState
from spikeprune.network import SpikingNetwork, vgg_mini


def state_from_gprime(gp):
    """A state whose g' trace is gp: set in place of the value derived from h."""
    gp = np.asarray(gp, dtype=float)
    z = np.zeros_like(gp)
    st = LIFState(h=z, s=z, v_threshold=1.0)
    st.gprime = gp
    return st


def scored(states, aggregation="max"):
    """Batch scores of one recorded forward: the per-sample step, then the mean."""
    return score_batch(sample_scores(states, aggregation))


def channels_last(gp):
    """A conv trace written as [T, N, C, H, W], in the layers' [T, N, H, W, C] layout."""
    return np.moveaxis(gp, 2, -1)


class TestScoreBatch:
    def test_time_mean_linear(self):
        # one neuron, g' = {1.0, 0.5} over T=2 -> 0.75
        gp = np.array([1.0, 0.5]).reshape(2, 1, 1)
        out = scored({0: state_from_gprime(gp)})
        assert out.scores[0][0] == 0.75
        assert out.count == 1

    def test_conv_max_aggregation(self):
        # a channel whose spatial time-means are {0.75, 0.20}
        gp = np.zeros((2, 1, 1, 1, 2))
        gp[:, 0, 0, 0, 0] = [1.0, 0.5]   # time-mean 0.75
        gp[:, 0, 0, 0, 1] = [0.2, 0.2]   # time-mean 0.20
        out_max = scored({0: state_from_gprime(channels_last(gp))}, "max")
        out_mean = scored({0: state_from_gprime(channels_last(gp))}, "mean")
        assert out_max.scores[0][0] == 0.75
        assert out_mean.scores[0][0] == pytest.approx((0.75 + 0.2) / 2)

    def test_all_at_threshold_scores_one(self):
        gp = np.ones((3, 4, 2, 2, 2))
        out = scored({0: state_from_gprime(channels_last(gp))}, "max")
        np.testing.assert_array_equal(out.scores[0], np.ones(2))

    def test_empty_states(self):
        with pytest.raises(StateError):
            sample_scores({})
        with pytest.raises(StateError):
            score_batch({})

    def test_sample_counts_must_agree(self):
        with pytest.raises(StateError, match="sample count 2 disagrees with 3"):
            score_batch({0: np.ones((3, 4)), 1: np.ones((2, 4))})

    @given(st.integers(1, 6), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_max_at_least_mean(self, n, c):
        rng = np.random.default_rng(n * 31 + c)
        gp = rng.uniform(0.001, 1.0, size=(3, n, c, 2, 3))
        hi = scored({0: state_from_gprime(channels_last(gp))}, "max").scores[0]
        lo = scored({0: state_from_gprime(channels_last(gp))}, "mean").scores[0]
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
        assert np.all(out.scores[0] <= bound)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(9)
        gp = rng.uniform(1e-6, 1.0, size=(5, 3, 4))
        out = scored({0: state_from_gprime(gp)})
        assert np.all(out.scores[0] > 0) and np.all(out.scores[0] <= 1.0)


class TestTable:
    def test_single_batch_identity(self):
        t = CriticalityTable()
        t.accumulate(BatchScores({0: np.array([0.4, 0.6])}, count=8))
        np.testing.assert_array_equal(t.finalize()[0], [0.4, 0.6])

    def test_two_equal_batches_idempotent(self):
        t = CriticalityTable()
        b = BatchScores({0: np.array([0.25])}, count=4)
        t.accumulate(b)
        t.accumulate(b)
        assert t.finalize()[0][0] == 0.25

    def test_mean_of_two_batches(self):
        t = CriticalityTable()
        t.accumulate(BatchScores({0: np.array([0.2])}, count=1))
        t.accumulate(BatchScores({0: np.array([0.8])}, count=1))
        assert t.finalize()[0][0] == 0.5

    def test_finalize_empty(self):
        with pytest.raises(StateError):
            CriticalityTable().finalize()

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_partition_invariance(self, batch_sizes):
        """Any batch partition of the same samples finalizes within 1e-9."""
        rng = np.random.default_rng(sum(batch_sizes))
        n = sum(batch_sizes)
        per_sample = rng.uniform(0.0, 1.0, size=(n, 3))
        whole = CriticalityTable()
        whole.accumulate(BatchScores({0: per_sample.mean(axis=0)}, count=n))
        split = CriticalityTable()
        off = 0
        for b in batch_sizes:
            chunk = per_sample[off:off + b]
            split.accumulate(BatchScores({0: chunk.mean(axis=0)}, count=b))
            off += b
        assert np.abs(whole.finalize()[0] - split.finalize()[0]).max() <= 1e-9


class TestConnectionScores:
    def test_linear_broadcast(self):
        out = connection_scores(np.array([0.7]), (1, 2))
        np.testing.assert_array_equal(out, [[0.7, 0.7]])

    def test_conv_broadcast(self):
        out = connection_scores(np.array([0.9, 0.1]), (2, 3, 3, 3))
        assert np.all(out[0] == 0.9) and np.all(out[1] == 0.1)

    def test_head_inherits_presynaptic_scores(self):
        # 2 channels over 3 flattened positions each -> 6 input features
        out = head_connection_scores(np.array([0.7, 0.2]), (3, 6))
        np.testing.assert_array_equal(out[0], [0.7, 0.7, 0.7, 0.2, 0.2, 0.2])
        assert np.array_equal(out[0], out[2])

    def test_ranking_matches_flat_broadcast_sort(self):
        """Connection ranking equals an independent broadcast-then-sort oracle."""
        rng = np.random.default_rng(11)
        scores = rng.uniform(0, 1, size=6)
        w_shape = (6, 4)
        fast = connection_scores(scores, w_shape).ravel()
        brute = np.repeat(scores, 4)
        assert np.array_equal(np.argsort(fast, kind="stable"),
                              np.argsort(brute, kind="stable"))

    def test_network_mapping(self):
        rng = np.random.default_rng(12)
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), rng)
        net.forward(rng.normal(size=(2, 1, 8, 8)), training=True)
        out = scored(net.lif_states())
        table = CriticalityTable()
        table.accumulate(out)
        finalized = table.finalize()
        conn = network_connection_scores(net, finalized)
        assert conn.shape == (net.n_prunable,)
        per_weight = net.split(conn)
        assert set(per_weight) == {f"layers.{i}.weight" for i, l in enumerate(net.layers)
                                   if l.kind in ("conv", "linear")}
        # head rows repeat the last LIF's channel scores over spatial positions
        head = per_weight["layers.9.weight"]
        last_lif = max(finalized)
        hw = head.shape[1] // finalized[last_lif].shape[0]
        np.testing.assert_array_equal(head[0], np.repeat(finalized[last_lif], hw))

    def test_rows_export(self):
        rows = scores_to_rows({2: np.array([0.5, 0.25])})
        assert rows == [(2, 0, 0.5), (2, 1, 0.25)]
