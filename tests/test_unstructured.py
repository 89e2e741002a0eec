"""Schedule arithmetic, global magnitude pruning, top-k regeneration, and the
iterative prune-loop driver, each checked against independent oracles.
"""

import numpy as np
import pytest

from conftest import tiny_run
from spikeprune.criticality import connection_runs, network_connection_scores
from spikeprune.errors import ArgumentError
from spikeprune.network import SpikingNetwork, vgg_mini
from spikeprune.unstructured import (
    SparsitySchedule,
    current_sparsity,
    extend_sparsity,
    prune_global_magnitude,
    prune_loop,
    regenerate,
    round_half_up,
    select_first,
    sparsity,
)


class TestSchedule:
    def test_start_is_zero(self):
        s = SparsitySchedule(s_f=0.9, delta_t=10, t_f=100)
        assert current_sparsity(s) == 0.0

    def test_end_is_final_sparsity(self):
        for sf in (0.9, 0.95, 0.98):
            s = SparsitySchedule(s_f=sf, delta_t=10, t_f=100, n=10)
            assert abs(current_sparsity(s) - sf) <= 1e-12

    def test_halfway_point(self):
        # 0.9 - 0.9 * 0.5^3 = 0.7875
        s = SparsitySchedule(s_f=0.9, delta_t=5, t_f=10, n=1)
        assert current_sparsity(s) == pytest.approx(0.7875, abs=1e-15)

    def test_monotone_nondecreasing(self):
        for sf in (0.9, 0.95, 0.98):
            vals = [current_sparsity(SparsitySchedule(sf, 7, 140, n=n)) for n in range(21)]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_past_end_rejected(self):
        with pytest.raises(ArgumentError):
            current_sparsity(SparsitySchedule(0.9, 10, 100, n=11))

    def test_field_validation(self):
        with pytest.raises(ArgumentError):
            SparsitySchedule(s_f=1.0, delta_t=1, t_f=10)
        with pytest.raises(ArgumentError):
            SparsitySchedule(s_f=0.5, delta_t=0, t_f=10)
        with pytest.raises(ArgumentError):
            SparsitySchedule(s_f=0.5, delta_t=1, t_f=10, r=1.0)


class TestExtendSparsity:
    def test_no_regeneration(self):
        assert extend_sparsity(0.7, 0.0) == 0.7

    def test_paper_pairing_examples(self):
        assert extend_sparsity(0.9, 0.5) == pytest.approx(0.95, abs=1e-15)
        assert extend_sparsity(0.98, 0.1) == pytest.approx(0.982, abs=1e-15)

    def test_stays_below_one(self):
        for s in (0.0, 0.5, 0.99):
            for r in (0.0, 0.5, 0.99):
                sp = extend_sparsity(s, r)
                assert s <= sp < 1.0


def ones(w):
    return np.ones(w.size, dtype=bool)


def first_by_sort(key, k):
    """Reference for select_first: a full (key, position) sort."""
    order = sorted(range(key.size), key=lambda i: (key[i], i))
    return np.isin(np.arange(key.size), order[:k])


class TestSelectFirst:
    def test_all_keys_equal(self):
        key = np.full(7, 0.5)
        np.testing.assert_array_equal(np.flatnonzero(select_first(key, 3)), [0, 1, 2])

    def test_cut_at_end_of_masked_group(self):
        key = np.array([-1.0, 0.3, -1.0, 0.0, -1.0, 0.3])
        np.testing.assert_array_equal(np.flatnonzero(select_first(key, 3)), [0, 2, 4])

    def test_boundary_tie_group_larger_than_need(self):
        key = np.array([0.1, 0.5, 0.5, 0.5, 0.9, 0.5])
        np.testing.assert_array_equal(np.flatnonzero(select_first(key, 3)), [0, 1, 2])

    def test_k_zero_and_k_all(self):
        key = np.array([0.2, -1.0, 0.2, 0.7])
        assert not select_first(key, 0).any()
        assert select_first(key, key.size).all()

    def test_matches_full_sort_on_tied_keys(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n = int(rng.integers(1, 60))
            key = rng.integers(0, 4, size=n).astype(float)
            k = int(rng.integers(0, n + 1))
            np.testing.assert_array_equal(select_first(key, k), first_by_sort(key, k))


class TestGlobalMagnitudePrune:
    def test_hand_example(self):
        w = np.array([0.5, -0.3, 0.1, -0.7])
        mask = ones(w)
        prune_global_magnitude(w, mask, 0.5)
        np.testing.assert_array_equal(mask, [True, False, False, True])
        np.testing.assert_array_equal(w, [0.5, 0.0, 0.0, -0.7])

    def test_zero_sparsity_no_change(self):
        w = np.array([0.5, -0.3, 0.1])
        mask = ones(w)
        newly = prune_global_magnitude(w, mask, 0.0)
        assert newly.size == 0
        assert mask.sum() == 3

    def test_all_pruned_rejected(self):
        w = np.ones(4)
        with pytest.raises(ArgumentError):
            prune_global_magnitude(w, ones(w), 0.999)

    def test_survivors_match_full_sort_oracle(self):
        """newly_pruned and the mask equal a full (|w|, index) sort of a copy
        taken before the call; |w| is rounded so the index tie-break decides."""
        rng = np.random.default_rng(0)
        for trial in range(20):
            w = np.round(np.concatenate([rng.normal(size=40),
                                         rng.normal(size=(10, 6)).ravel()]), 1)
            mask = ones(w)
            s = float(rng.uniform(0.1, 0.9))
            before = w.copy()
            newly = prune_global_magnitude(w, mask, s)
            total = before.size
            keep = round_half_up((1 - s) * total)
            cut = sorted(range(total), key=lambda i: (abs(before[i]), i))[:total - keep]
            np.testing.assert_array_equal(newly, sorted(cut))
            expected = ones(before)
            expected[cut] = False
            np.testing.assert_array_equal(mask, expected)
            np.testing.assert_array_equal(w, before * expected)

    def test_already_masked_stay_masked(self):
        w = np.array([0.5, -0.3, 0.1, -0.7, 0.9, 0.2])
        mask = ones(w)
        prune_global_magnitude(w, mask, 0.3)
        first = mask.copy()
        prune_global_magnitude(w, mask, 0.5)
        assert np.all(mask <= first)

    def test_cut_at_or_inside_the_masked_group_prunes_nothing(self):
        w = np.array([0.0, 0.4, 0.0, 0.2, 0.0, 0.2])
        mask = w != 0.0
        for s in (0.5, 0.2):
            newly = prune_global_magnitude(w, mask, s)
            assert newly.size == 0
            np.testing.assert_array_equal(mask, [False, True, False, True, False, True])
        np.testing.assert_array_equal(prune_global_magnitude(w, mask, 4 / 6), [3])

    def test_realized_sparsity_within_one_connection(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=97)
        mask = ones(w)
        prune_global_magnitude(w, mask, 0.73)
        assert abs(sparsity(mask) - 0.73) < 1.0 / 97


def unit_runs(scores):
    """One run of length 1 per score: the per-index layout."""
    return np.ones(scores.size, dtype=np.intp)


class TestRegenerate:
    def _setup(self, seed=2, n=10, pruned=6):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=n)
        w = values.copy()
        mask = np.ones(n, dtype=bool)
        snapshot = values.copy()
        drop = rng.choice(n, size=pruned, replace=False)
        mask[drop] = False
        w *= mask
        scores = rng.uniform(0, 1, size=n)
        return w, mask, snapshot, scores

    def test_k_zero_is_noop(self):
        w, mask, snap, scores = self._setup()
        before = mask.copy()
        regenerate(mask, w, scores, unit_runs(scores), snap, 0)
        np.testing.assert_array_equal(mask, before)

    def test_k_exceeds_pruned(self):
        w, mask, snap, scores = self._setup(pruned=3)
        with pytest.raises(ArgumentError):
            regenerate(mask, w, scores, unit_runs(scores), snap, 4)

    def test_full_regeneration_is_identity(self):
        """Pruning then regenerating everything just pruned undoes the prune."""
        rng = np.random.default_rng(3)
        w = rng.normal(size=12)
        original = w.copy()
        mask = ones(w)
        snapshot = w.copy()
        newly = prune_global_magnitude(w, mask, 0.5)
        scores = rng.uniform(0, 1, size=12)
        regenerate(mask, w, scores, unit_runs(scores), snapshot, len(newly))
        assert mask.sum() == 12
        np.testing.assert_array_equal(w, original)

    def test_matches_brute_force_triple_sort(self):
        """Regenerated set equals sorting (score desc, |w| desc, idx asc);
        pairs of connections share a score (runs of 2), so the |w|
        tie-break decides."""
        for seed in range(15):
            w, mask, snap, scores = self._setup(seed=seed + 10)
            pair_scores = scores[::2]
            scores = np.repeat(pair_scores, 2)
            pruned = np.flatnonzero(~mask)
            k = len(pruned) // 2
            chosen = regenerate(mask, w, pair_scores, np.full(5, 2), snap, k)
            brute = sorted(
                pruned,
                key=lambda i: (-scores[i], -abs(snap[i]), i),
            )[:k]
            assert sorted(chosen.tolist()) == sorted(int(i) for i in brute)

    def test_restores_snapshot_values(self):
        w, mask, snap, scores = self._setup(seed=5)
        chosen = regenerate(mask, w, scores, unit_runs(scores), snap, 2)
        for i in chosen:
            assert w[i] == snap[i]


def brute_force_regenerate(mask, snapshot, scores, lengths, k):
    """Top k pruned flat indices by (-score, -|snapshot|, index) over the
    per-weight expansion of the runs, ascending."""
    dense = np.repeat(scores, lengths)
    pruned = np.flatnonzero(~mask)
    return sorted(sorted(pruned.tolist(),
                         key=lambda i: (-dense[i], -abs(snapshot[i]), i))[:k])


class TestRegenerateRuns:
    """regenerate over the run layout of vgg_mini networks against a
    brute-force sort of the per-weight scores. Layers are conv 0 (scored by
    LIF 2), conv 4 (LIF 6) and the head 9, whose channel-c runs share LIF
    6's channel-c score with conv 4's channel-c run."""

    def _instance(self, rng, decimals=1):
        widths = tuple(int(c) for c in rng.integers(2, 17, size=2))
        net = SpikingNetwork(vgg_mini(channels=widths), np.random.default_rng(0))
        runs = connection_runs(net)
        means = {2: np.round(rng.uniform(0, 1, size=widths[0]), decimals),
                     6: np.round(rng.uniform(0, 1, size=widths[1]), decimals)}
        if rng.random() < 0.3:
            means[2][:] = means[2][0]       # every unit of conv 0 ties
        scores = network_connection_scores(runs, means)
        snapshot = np.round(rng.normal(size=net.n_prunable), 1)
        mask = rng.random(net.n_prunable) >= rng.uniform(0.2, 0.9)
        return net, runs, scores, snapshot, mask, means

    def _check(self, runs, scores, snapshot, mask, k):
        got_mask, weights = mask.copy(), snapshot * mask
        chosen = regenerate(got_mask, weights, scores, runs.lengths, snapshot, k)
        assert chosen.tolist() == brute_force_regenerate(mask, snapshot, scores,
                                                         runs.lengths, k)
        expected = mask.copy()
        expected[chosen] = True
        np.testing.assert_array_equal(got_mask, expected)
        np.testing.assert_array_equal(weights, snapshot * expected)

    def test_k_zero_all_and_random(self):
        rng = np.random.default_rng(21)
        for trial in range(30):
            net, runs, scores, snapshot, mask, _ = self._instance(rng)
            pruned = int(np.count_nonzero(~mask))
            k = (0, pruned, int(rng.integers(0, pruned + 1)))[trial % 3]
            self._check(runs, scores, snapshot, mask, k)

    def test_cut_inside_a_tie_group_across_conv_and_head(self):
        rng = np.random.default_rng(22)
        for trial in range(30):
            net, runs, scores, snapshot, mask, means = self._instance(rng)
            w0, w1 = means[2].size, means[6].size
            c = int(rng.integers(w1))
            cut = means[6][c]
            starts = np.cumsum(runs.lengths) - runs.lengths
            mask[starts[w0 + c]] = False            # conv 4, channel c
            mask[starts[w0 + w1 + c]] = False       # head row 0, channel c
            dense = np.repeat(scores, runs.lengths)
            pruned = np.flatnonzero(~mask)
            tie = pruned[dense[pruned] == cut]
            head = starts[w0 + w1]
            assert ((tie >= starts[w0]) & (tie < head)).any() and (tie >= head).any()
            above = int(np.count_nonzero(dense[pruned] > cut))
            self._check(runs, scores, snapshot, mask, above + tie.size // 2)

    def test_k_exceeds_pruned(self):
        rng = np.random.default_rng(23)
        net, runs, scores, snapshot, mask, _ = self._instance(rng)
        with pytest.raises(ArgumentError):
            regenerate(mask, snapshot * mask, scores, runs.lengths, snapshot,
                       int(np.count_nonzero(~mask)) + 1)


class TestPruneLoop:
    def _sched(self, trainer, s_f=0.9, r=0.5, delta_t=3, prune_epochs=4):
        t_f = (prune_epochs * trainer.steps_per_epoch // delta_t) * delta_t
        return SparsitySchedule(s_f=s_f, delta_t=delta_t, t_f=t_f, r=r)

    def test_r0_reduces_to_gmp(self):
        """Same seed, r=0 regeneration vs a pure GMP loop: identical masks."""
        net_a, trainer_a, _ = tiny_run(seed=11)
        res_a = prune_loop(net_a, trainer_a, self._sched(trainer_a, r=0.0), epochs=6)
        net_b, trainer_b, _ = tiny_run(seed=11)
        res_b = prune_loop(net_b, trainer_b, self._sched(trainer_b, r=0.0), epochs=6,
                           gmp_only=True)
        np.testing.assert_array_equal(res_a.mask, res_b.mask)

    def test_final_sparsity_reaches_target(self):
        for s_f in (0.9, 0.95):
            net, trainer, _ = tiny_run(seed=7)
            res = prune_loop(net, trainer, self._sched(trainer, s_f=s_f), epochs=6)
            total = res.mask.size
            assert abs(sparsity(res.mask) - s_f) < 1.0 / total

    def test_sparsity_tracks_schedule_each_iteration(self):
        """After every prune+regenerate pair, realized sparsity == s_t within
        one connection."""
        net, trainer, _ = tiny_run(seed=8)
        sched = self._sched(trainer, s_f=0.9, r=0.3)
        res = prune_loop(net, trainer, sched, epochs=6)
        total = res.mask.size
        for ev in res.events:
            assert ev.k >= 0
            assert abs(ev.sparsity_after - ev.s_t) < 1.0 / total
        assert abs(sparsity(res.mask) - 0.9) < 1.0 / total

    def test_event_count_bounded(self):
        net, trainer, _ = tiny_run(seed=9)
        sched = self._sched(trainer, delta_t=5, prune_epochs=4)
        res = prune_loop(net, trainer, sched, epochs=6)
        assert len(res.events) == sched.t_f // sched.delta_t

    def test_rescue_fraction_in_unit_interval(self):
        net, trainer, _ = tiny_run(seed=10)
        res = prune_loop(net, trainer, self._sched(trainer, r=0.4), epochs=6)
        for ev in res.events:
            assert 0.0 <= ev.rescue_fraction <= 1.0

    def test_masked_weights_exactly_zero_after_run(self):
        net, trainer, _ = tiny_run(seed=12)
        res = prune_loop(net, trainer, self._sched(trainer, r=0.2), epochs=6)
        assert res.mask.size == net.n_prunable
        assert np.all(net.flat[:net.n_prunable][~res.mask] == 0.0)

    def test_events_count_from_the_loops_first_step(self):
        net, trainer, _ = tiny_run(seed=13)
        trainer.run_epochs(1)
        sched = self._sched(trainer, delta_t=2, prune_epochs=2)
        res = prune_loop(net, trainer, sched, epochs=3)
        assert [ev.step for ev in res.events] == list(range(2, sched.t_f + 1, 2))

    def test_epoch_rows_read_the_mask_at_epoch_end(self):
        net, trainer, _ = tiny_run(seed=14)
        res = prune_loop(net, trainer, self._sched(trainer, delta_t=2, prune_epochs=3),
                         epochs=5)
        for epoch, row in enumerate(res.epoch_rows):
            done = sum(ev.step <= (epoch + 1) * trainer.steps_per_epoch for ev in res.events)
            assert row[-1] == (sparsity(res.mask_history[done - 1][1]) if done else 0.0)
        assert res.epoch_rows[-1][-1] == sparsity(res.mask)

    def test_run_epochs_without_mask_writes_zero_sparsity(self):
        net, trainer, _ = tiny_run(seed=15)
        accs = []
        rows = trainer.run_epochs(2, after_step=accs.append)
        assert [row[-1] for row in rows] == [0.0, 0.0]
        assert len(accs) == 2 * trainer.steps_per_epoch
        assert rows[0][3] == float(np.mean(accs[:trainer.steps_per_epoch]))
