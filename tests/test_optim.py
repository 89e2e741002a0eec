"""SGD, schedules, and the loss head."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikeprune.errors import ArgumentError
from spikeprune.optim import SGD, TrainConfig, loss_ce_l1, lr_at


def cfg(**kw):
    base = dict(lr=0.1, momentum=0.0, weight_decay=0.0, batch_size=4, epochs=10)
    base.update(kw)
    return TrainConfig(**base)


class TestSGD:
    def test_plain_sgd_reduction(self):
        c = cfg(momentum=0.0)
        p = np.array([1.0, 2.0])
        opt = SGD(2, 2, c)
        opt.step(p, np.array([0.5, -0.5]), lr=0.1)
        np.testing.assert_allclose(p, [1.0 - 0.05, 2.0 + 0.05], atol=1e-15)

    def test_zero_grads_no_change(self):
        c = cfg()
        p = np.array([1.0, -1.0])
        opt = SGD(2, 2, c)
        opt.step(p, np.zeros(2), lr=0.3)
        np.testing.assert_array_equal(p, [1.0, -1.0])

    def test_two_momentum_steps(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g -> total update lr*g*(1 + 1.9)
        c = cfg(momentum=0.9)
        p = np.array([0.0])
        g = np.array([1.0])
        opt = SGD(1, 1, c)
        opt.step(p, g, lr=0.1)
        opt.step(p, g, lr=0.1)
        assert p[0] == pytest.approx(-0.1 * (1.0 + 1.9), abs=1e-15)

    def test_weight_decay_skips_gamma_beta(self):
        # [weight, gamma]: only the leading n_decayed = 1 entry decays
        c = cfg(weight_decay=0.1)
        p = np.array([2.0, 2.0])
        opt = SGD(2, 1, c)
        opt.step(p, np.zeros(2), lr=1.0)
        assert p[1] == 2.0
        assert p[0] == pytest.approx(2.0 - 0.2)

    @given(st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_masked_entries_stay_exactly_zero(self, steps):
        c = cfg(momentum=0.9, weight_decay=5e-4)
        rng = np.random.default_rng(steps)
        p = rng.normal(size=8)
        mask = rng.random(8) > 0.5
        p *= mask
        opt = SGD(8, 8, c)
        for _ in range(steps):
            opt.step(p, rng.normal(size=8), lr=0.05, mask=mask)
            assert np.all(p[~mask] == 0.0)


class TestLrSchedules:
    def test_cosine_start(self):
        c = cfg(lr=0.3, lr_schedule="cosine", epochs=100)
        assert lr_at(0, c) == 0.3

    def test_cosine_final_epoch(self):
        c = cfg(lr=0.3, lr_schedule="cosine", epochs=100)
        expected = 0.3 * 0.5 * (1 + np.cos(np.pi * 99 / 100))
        assert lr_at(99, c) == pytest.approx(expected, abs=1e-15)
        assert lr_at(99, c) < 0.001

    def test_step_one_drop_passed(self):
        c = cfg(lr=0.3, lr_schedule="step", lr_drop_epochs=(80, 120), epochs=160)
        assert lr_at(100, c) == pytest.approx(0.03)
        assert lr_at(130, c) == pytest.approx(0.003)
        assert lr_at(10, c) == 0.3

    def test_epoch_out_of_range(self):
        c = cfg(epochs=10)
        with pytest.raises(ArgumentError):
            lr_at(10, c)
        with pytest.raises(ArgumentError):
            lr_at(-1, c)


class TestLoss:
    def test_lambda_zero_is_plain_ce(self):
        logits = np.array([[2.0, 0.5, -1.0]])
        targets = np.array([0])
        loss0, d0, _ = loss_ce_l1(logits, targets)
        loss1, d1, _ = loss_ce_l1(logits, targets, {"g": np.array([1.0])}, 0.0)
        assert loss0 == loss1
        np.testing.assert_array_equal(d0, d1)

    def test_uniform_logits_ln_k(self):
        for k in (2, 3, 7):
            logits = np.zeros((4, k))
            loss, _, _ = loss_ce_l1(logits, np.zeros(4, dtype=int))
            assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_gamma_penalty_arithmetic(self):
        # lambda * (|0.5| + |-0.25|) = 1e-4 * 0.75
        logits = np.array([[0.0, 0.0]])
        loss_plain, _, _ = loss_ce_l1(logits, np.array([0]))
        loss, _, l1g = loss_ce_l1(logits, np.array([0]),
                                  {"g": np.array([0.5, -0.25])}, 1e-4)
        assert loss - loss_plain == pytest.approx(7.5e-5, rel=1e-9)
        np.testing.assert_array_equal(l1g["g"], [1e-4, -1e-4])

    def test_subgradient_at_zero(self):
        _, _, l1g = loss_ce_l1(np.zeros((1, 2)), np.array([0]),
                               {"g": np.array([0.0, 1.0])}, 0.1)
        assert l1g["g"][0] == 0.0

    def test_empty_batch(self):
        with pytest.raises(ArgumentError):
            loss_ce_l1(np.zeros((0, 3)), np.zeros(0, dtype=int))

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 4))
        targets = rng.integers(0, 4, size=5)
        _, d, _ = loss_ce_l1(logits.copy(), targets)
        h = 1e-6
        fd = np.zeros_like(logits)
        for i in range(5):
            for j in range(4):
                lp = logits.copy()
                lp[i, j] += h
                lm = logits.copy()
                lm[i, j] -= h
                fd[i, j] = (loss_ce_l1(lp, targets)[0] - loss_ce_l1(lm, targets)[0]) / (2 * h)
        np.testing.assert_allclose(d, fd, atol=1e-8)


class TestTrainingSanity:
    def test_small_synthetic_reaches_95_train_acc(self):
        """50-sample 3-class blobs, two weighted layers, default optimizer
        settings: >= 95% train accuracy within 200 epochs."""
        import numpy as np
        from spikeprune.data import DatasetSpec, make_synthetic
        from spikeprune.network import SpikingNetwork, vgg_mini
        from spikeprune.train import Trainer

        rng = np.random.default_rng(0)
        data = make_synthetic(
            DatasetSpec(classes=3, train_samples=50, test_samples=10,
                        shape=(1, 8, 8), separation=4.0), rng)
        net = SpikingNetwork(vgg_mini(channels=(4,), classes=3), rng)
        tc = TrainConfig(lr=0.3, momentum=0.9, weight_decay=5e-4,
                         batch_size=128, epochs=200)
        trainer = Trainer(net, data, tc, rng)
        rows = trainer.run_epochs(200)
        best = max(row[3] for row in rows)
        assert best >= 0.95, f"train accuracy peaked at {best}"


class TestL1DrivesGammaDown:
    def test_monotone_decay_without_task_gradient(self):
        """A gamma with zero task gradient shrinks monotonically under L1."""
        c = TrainConfig(lr=0.05, momentum=0.0, weight_decay=0.0, batch_size=1,
                        epochs=1)
        lambda_l1 = 1e-2
        gamma = np.array([0.4, -0.3])
        opt = SGD(2, 0, c)
        prev = np.abs(gamma).copy()
        for _ in range(30):
            l1_grad = lambda_l1 * np.sign(gamma)
            opt.step(gamma, l1_grad, lr=c.lr)
            cur = np.abs(gamma)
            assert np.all(cur <= prev + 1e-15)
            prev = cur.copy()
