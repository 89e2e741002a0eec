"""Discussion-section instruments: survival bookkeeping, feature compactness,
class-mean similarity, and the importance transition."""

import numpy as np
import pytest

from conftest import tiny_run
from spikeprune.analysis import (
    FeatureBank,
    SurvivalLedger,
    class_mean_cosine,
    importance_transition,
    intra_cluster_variance,
    replay_mask_history,
    survival_report,
)
from spikeprune.errors import ArgumentError, NumericError
from spikeprune.unstructured import SparsitySchedule, prune_loop


def bank(vectors, labels, split="train"):
    return FeatureBank(np.asarray(vectors, float), np.asarray(labels), split)


class TestIntraClusterVariance:
    def test_identical_vectors_zero(self):
        b = bank([[1.0, 2.0]] * 5, [0] * 5)
        assert intra_cluster_variance(b, 0) == 0.0

    def test_two_orthogonal_unit_vectors(self):
        # mean = (e1+e2)/2; each squared distance = 0.5
        b = bank([[1.0, 0.0], [0.0, 1.0]], [0, 0])
        assert intra_cluster_variance(b, 0) == pytest.approx(0.5, abs=1e-15)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=(10, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        b1 = bank(v, [0] * 10)
        b2 = bank(v @ q, [0] * 10)
        assert intra_cluster_variance(b1, 0) == pytest.approx(
            intra_cluster_variance(b2, 0), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        b = bank(rng.normal(size=(20, 6)), rng.integers(0, 3, 20))
        for c in range(3):
            assert intra_cluster_variance(b, c) >= 0.0

    def test_empty_class(self):
        b = bank([[1.0, 0.0]], [0])
        with pytest.raises(ArgumentError):
            intra_cluster_variance(b, 5)


class TestClassMeanCosine:
    def test_identical_means(self):
        a = bank([[1.0, 1.0]], [0], "train")
        b = bank([[2.0, 2.0]], [0], "test")   # same direction after normalize
        assert class_mean_cosine(a, b, 0) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_means(self):
        a = bank([[1.0, 0.0]], [0], "train")
        b = bank([[0.0, 1.0]], [0], "test")
        assert class_mean_cosine(a, b, 0) == pytest.approx(0.0, abs=1e-15)

    def test_hand_angle(self):
        # means (1,0) and (1,1)/sqrt(2): cosine 1/sqrt(2)
        a = bank([[1.0, 0.0]], [0], "train")
        b = bank([[1.0, 1.0]], [0], "test")
        assert class_mean_cosine(a, b, 0) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_duplicated_split_gives_one(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(8, 5))
        y = rng.integers(0, 2, 8)
        for c in range(2):
            assert class_mean_cosine(bank(v, y), bank(v, y, "test"), c) == pytest.approx(
                1.0, abs=1e-12)

    def test_in_range(self):
        rng = np.random.default_rng(3)
        a = bank(rng.normal(size=(6, 4)), [0] * 6)
        b = bank(rng.normal(size=(6, 4)), [0] * 6, "test")
        assert -1.0 <= class_mean_cosine(a, b, 0) <= 1.0

    def test_zero_mean_error(self):
        a = bank([[1.0, 0.0], [-1.0, 0.0]], [0, 0])
        b = bank([[1.0, 0.0]], [0], "test")
        with pytest.raises(NumericError):
            class_mean_cosine(a, b, 0)


class TestImportanceTransition:
    def test_identical_plans_empty(self):
        plan = {1: [0, 1]}
        g = {1: np.array([0.5, 0.7])}
        assert importance_transition(plan, g, plan, g) is None

    def test_disjoint_single_channel(self):
        plan_a = {1: [0]}
        plan_b = {1: [1]}
        g_a = {1: np.array([0.8, 0.0])}
        g_b = {1: np.array([0.0, 0.4])}
        mean_a, mean_b, rows = importance_transition(plan_a, g_a, plan_b, g_b)
        assert mean_a == 1.0     # 0.8 / max 0.8
        assert mean_b == 1.0     # 0.4 / max 0.4
        assert len(rows) == 2

    def test_three_channel_hand_arithmetic(self):
        plan_a = {1: [0, 2]}
        plan_b = {1: [0, 1]}
        g_a = {1: np.array([1.0, 0.1, 0.5])}
        g_b = {1: np.array([0.8, 0.2, 0.1])}
        mean_a, mean_b, rows = importance_transition(plan_a, g_a, plan_b, g_b)
        assert mean_a == pytest.approx(0.5 / 1.0)
        assert mean_b == pytest.approx(0.2 / 0.8)


class TestSurvival:
    def test_r0_all_fractions_zero(self):
        net, trainer, _ = tiny_run(seed=30)
        t_f = (4 * trainer.steps_per_epoch // 3) * 3
        sched = SparsitySchedule(s_f=0.9, delta_t=3, t_f=t_f, r=0.0)
        res = prune_loop(net, trainer, sched, epochs=5)
        report = survival_report(res.ledger, res.mask)
        assert all(it["rescue_fraction"] == 0.0 for it in report["iterations"])
        assert report["survived_via_regeneration"] == 0.0

    def test_full_rescue_fraction_one(self):
        ledger = SurvivalLedger(10)
        pruned = np.array([1, 3, 5])
        ledger.on_iteration(1, pruned, pruned)
        assert ledger.records[0]["rescue_fraction"] == 1.0

    def test_replay_matches_live_ledger(self):
        """Recomputing from persisted masks reproduces the live report exactly."""
        net, trainer, _ = tiny_run(seed=31)
        t_f = (4 * trainer.steps_per_epoch // 3) * 3
        sched = SparsitySchedule(s_f=0.9, delta_t=3, t_f=t_f, r=0.4)
        res = prune_loop(net, trainer, sched, epochs=5)
        live = survival_report(res.ledger, res.mask)
        replayed = replay_mask_history(np.ones(res.mask.size, dtype=bool), res.unpacked_history())
        assert live == replayed

    def test_provenance_cleared_on_reprune(self):
        ledger = SurvivalLedger(4)
        ledger.on_iteration(1, np.array([0, 1]), np.array([0]))
        assert ledger.provenance[0] and not ledger.provenance[1]
        ledger.on_iteration(2, np.array([0]), np.array([], dtype=int))
        assert not ledger.provenance[0]


class TestFeatureBank:
    def test_normalize_unit_norm(self):
        rng = np.random.default_rng(4)
        b = bank(rng.normal(size=(7, 3)), [0] * 7).normalize()
        np.testing.assert_allclose(np.linalg.norm(b.vectors, axis=1), 1.0, atol=1e-12)

    def test_network_features_shape(self, tiny):
        net, trainer, data = tiny
        net.forward(data.x_test[:5])
        feats = net.features
        head = net.layers[net._head_index]
        assert feats.shape == (5, head.in_features)
