"""Network-level behavior: timestep unrolling, STBP backward, hand-unrolled
oracles, relaxed-mode finite differences, and checkpoint round-trips.
"""

import os
import sys
import threading

import numpy as np
import pytest

from conftest import save_v1, tiny_run
from spikeprune import checkpoint, layers, network, ops
from spikeprune.analysis import extract_features
from spikeprune.errors import DimensionError, NumericError, StateError
from spikeprune.layers import LIF, BatchNorm2d, Conv2d, LIFParams, lif_step, surrogate_gprime
from spikeprune.network import (
    LayerSpec,
    NetworkSpec,
    SpikingNetwork,
    inference_tile,
    linear_snn,
    trace_shapes,
    validate_spec,
    vgg_mini,
)
from spikeprune.optim import loss_ce_l1
from spikeprune.structured import criticality_over_dataset
from spikeprune.unstructured import SparsitySchedule, prune_loop
from spikeprune.verify import _randomize_bn, check_prefix_once

TAU = 4.0 / 3.0


class TestForward:
    def test_zero_input_zero_logits_and_spikes(self):
        net = SpikingNetwork(vgg_mini(), np.random.default_rng(0))
        logits = net.forward(np.zeros((2, 1, 8, 8)), training=True)
        assert not logits.any()
        for st in net.lif_states().values():
            assert not st.s.any()

    def test_t1_degenerates_to_single_step(self):
        rng = np.random.default_rng(1)
        spec = linear_snn([3, 4, 2], t_steps=1)
        net = SpikingNetwork(spec, rng)
        x = rng.normal(size=(5, 3))
        logits = net.forward(x)
        # one lif_step by hand: drive = x@W1.T + b1, fire once, head on spikes
        w1, b1 = net.layers[0].weight, net.layers[0].bias
        w2, b2 = net.layers[2].weight, net.layers[2].bias
        drive = x @ w1.T + b1
        h = drive / TAU
        s = (h >= 1.0).astype(float)
        np.testing.assert_allclose(logits, s @ w2.T + b2, atol=1e-12)

    def test_hand_simulation_two_neurons_t3(self):
        """Spike trains of a known 2-neuron layer match a literal recurrence."""
        spec = linear_snn([2, 2, 1], t_steps=3)
        net = SpikingNetwork(spec, np.random.default_rng(2))
        net.set_parameter("layers.0.weight", np.array([[1.0, 0.5], [-0.3, 2.0]]))
        net.set_parameter("layers.0.bias", np.zeros(2))
        net.set_parameter("layers.2.weight", np.array([[1.0, 1.0]]))
        net.set_parameter("layers.2.bias", np.zeros(1))
        x = np.array([[0.9, 0.6]])
        net.forward(x, training=True)
        s_impl = net.lif_states()[1].s[:, 0, :]

        drive = np.array([0.9 * 1.0 + 0.6 * 0.5, 0.9 * -0.3 + 0.6 * 2.0])
        expected = []
        u = np.zeros(2)
        for _ in range(3):
            h = u + (drive - u) / TAU
            s = (h >= 1.0).astype(float)
            u = h * (1.0 - s)
            expected.append(s)
        np.testing.assert_array_equal(s_impl, np.array(expected))
        assert s_impl.sum(axis=0).tolist() == [float(sum(r[0] for r in expected)),
                                               float(sum(r[1] for r in expected))]

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        net = SpikingNetwork(vgg_mini(), rng)
        x = rng.normal(size=(3, 1, 8, 8))
        a = net.forward(x, training=True)
        b = net.forward(x, training=True)
        assert np.array_equal(a, b)

    def test_input_shape_mismatch(self):
        net = SpikingNetwork(vgg_mini(), np.random.default_rng(0))
        with pytest.raises(DimensionError):
            net.forward(np.zeros((2, 1, 9, 9)))

    def test_spikes_binary_everywhere(self, monkeypatch):
        rng = np.random.default_rng(4)
        net = SpikingNetwork(vgg_mini(channels=(4, 4)), rng)
        inputs = {}
        forward = LIF.forward

        def recording(layer, xs, training):
            inputs[id(layer)] = xs
            return forward(layer, xs, training)

        monkeypatch.setattr(LIF, "forward", recording)
        net.forward(rng.normal(size=(4, 1, 8, 8)), training=True)
        for i, st in net.lif_states().items():
            assert set(np.unique(st.s)) <= {0.0, 1.0}
            # No running-membrane trace is recorded: replay lif_step for the reset.
            xs = inputs[id(net.layers[i])]
            u = np.zeros(xs.shape[1:])
            for t in range(xs.shape[0]):
                s = np.empty(xs.shape[1:])
                u = lif_step(xs[t], u, net.spec.lif, np.empty(xs.shape[1:]), s)
                assert np.array_equal(s, st.s[t])
                assert np.all(u[s == 1.0] == 0.0)
            np.testing.assert_array_equal(st.gprime, surrogate_gprime(st.h - 1.0))


class TestPrefixOnce:
    def test_matches_t_copies_at_desk_size(self):
        """The layers before the first LIF run once; the verify property at the
        desk network width and a deeper fully connected stack."""
        ok, detail = check_prefix_once()
        assert ok, detail

    def test_prefix_runs_once(self, monkeypatch):
        """conv 0 and BN 1 see one copy of the batch; every later layer sees T."""
        net = SpikingNetwork(vgg_mini(t_steps=5), np.random.default_rng(0))
        seen = {}

        def recording(forward):
            def wrapped(layer, xs, training):
                seen[net.layers.index(layer)] = xs.shape[:2]
                return forward(layer, xs, training)
            return wrapped

        for cls in (Conv2d, BatchNorm2d, LIF):
            monkeypatch.setattr(cls, "forward", recording(cls.forward))
        net.forward(np.ones((2, 1, 8, 8)), training=True)
        assert seen == {0: (1, 2), 1: (1, 2), 2: (5, 2), 4: (5, 2), 5: (5, 2), 6: (5, 2)}


def _eval_net(channels, seed):
    """A desk-shaped net with non-trivial BN running statistics."""
    rng = np.random.default_rng(seed)
    net = SpikingNetwork(vgg_mini(channels=channels), rng)
    for layer in net.layers:
        if layer.kind == "batchnorm":
            _randomize_bn(layer, rng)
    return net, rng


class TestNonFiniteFirstLIFInput:
    """The first LIF's input is the once-run prefix broadcast over T (T-stride
    0), whose finiteness is checked once: a NaN or inf there still raises."""

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("training, tiles", [(True, 1), (False, 1), (False, 3)])
    def test_raises(self, bad, training, tiles):
        net, rng = _eval_net((4, 8), seed=36)
        x = rng.normal(size=(tiles * net.tile, 1, 8, 8))
        x[-1, 0, 3, 3] = bad
        with pytest.raises(NumericError):
            net.forward(x, training=training)


class TestInferenceTiles:
    def test_tile_rule(self):
        """The largest power of two whose biggest [T, tile, ...] activation
        (conv 0's output) fits 1 MiB."""
        assert inference_tile(vgg_mini(channels=(12, 24))) == 32     # 30720 B a sample
        assert inference_tile(vgg_mini(channels=(64, 128))) == 4     # 163840 B a sample
        assert inference_tile(linear_snn([16, 12, 8, 3])) == 2048
        assert inference_tile(vgg_mini(input_shape=(1, 64, 64), channels=(64, 128))) == 1

    @pytest.mark.parametrize("channels", [(12, 24), (64, 128)])
    def test_tiled_forward_equals_full_batch_run(self, channels):
        """Logits and features are bit-identical to the layer stack run once
        over the whole batch; so are every LIF layer's h, s and g' of each
        tile, run alone as a one-tile forward, against its rows."""
        net, rng = _eval_net(channels, seed=11)
        t, n = net.spec.t_steps, 2 * net.tile + 3
        x = 2.0 * rng.normal(size=(n, 1, 8, 8))
        acts, traces = net.layer_input(x)[None], {}
        for i, layer in enumerate(net.layers):
            if i == net.lif_indices()[0]:
                acts = np.broadcast_to(acts, (t,) + acts.shape[1:])
            if i == len(net.layers) - 1:
                features = acts.mean(axis=0)
            acts = layer.forward(acts, False)
            if layer.kind == "lif":
                traces[i] = layer.state
        logits = net.forward(x, training=False)
        np.testing.assert_array_equal(logits, acts.mean(axis=0))
        np.testing.assert_array_equal(net.features, features)
        for lo in range(0, n, net.tile):
            net.forward(x[lo:lo + net.tile], training=False)
            rows = slice(lo, lo + net.tile)
            for i, st in net.lif_states().items():
                np.testing.assert_array_equal(st.h, traces[i].h[:, rows])
                np.testing.assert_array_equal(st.s, traces[i].s[:, rows])
                np.testing.assert_array_equal(st.gprime, traces[i].gprime[:, rows])

    def test_lif_states_need_a_one_tile_forward(self):
        net, rng = _eval_net((4, 8), seed=14)
        net.forward(rng.normal(size=(net.tile + 1, 1, 8, 8)), training=False)
        with pytest.raises(StateError, match="2 tiles"):
            net.lif_states()
        net.forward(rng.normal(size=(net.tile, 1, 8, 8)), training=False)
        assert all(st.h.shape[1] == net.tile for st in net.lif_states().values())

    def test_lif_traces_hold_one_tile(self):
        """After a multi-tile eval forward no LIF layer holds more than a tile."""
        net, rng = _eval_net((12, 24), seed=15)
        net.forward(rng.normal(size=(3 * net.tile + 1, 1, 8, 8)), training=False)
        for i in net.lif_indices():
            st = net.layers[i].state
            assert st.h.shape[1] <= net.tile and st.s.shape[1] <= net.tile

    @pytest.mark.parametrize("training", [True, False])
    def test_empty_batch_raises(self, training):
        net = SpikingNetwork(vgg_mini(), np.random.default_rng(0))
        with pytest.raises(DimensionError, match="at least one sample"):
            net.forward(np.zeros((0, 1, 8, 8)), training=training)

    def test_no_patch_matrix_over_a_tile(self, monkeypatch):
        net, rng = _eval_net((12, 24), seed=12)
        rows = []
        conv2d = ops.conv2d

        def spy(x, weight, stride=1, padding=0):
            out, patches = conv2d(x, weight, stride, padding)
            rows.append((len(patches), out.shape[1] * out.shape[2]))
            return out, patches

        monkeypatch.setattr(ops, "conv2d", spy)
        net.forward(rng.normal(size=(3 * net.tile + 1, 1, 8, 8)), training=False)
        t = net.spec.t_steps
        assert len(rows) == 2 * 4
        assert all(m <= net.tile * t * positions for m, positions in rows)

    def test_backward_needs_a_one_tile_forward(self):
        net, rng = _eval_net((4, 8), seed=13)
        for n in (net.tile, net.tile + 1):
            net.forward(rng.normal(size=(n, 1, 8, 8)), training=False)
            if n > net.tile:
                with pytest.raises(StateError, match="2 tiles"):
                    net.backward(np.zeros((n, 3)))
            else:
                net.backward(np.ones((n, 3)))
                assert net.grad.any()


class TestInferenceThreads:
    """An inference forward shares its tiles among worker threads."""

    @pytest.fixture
    def started(self, monkeypatch):
        """Records every worker thread a forward starts."""
        threads = []

        class Recording(threading.Thread):
            def start(self):
                threads.append(self)
                super().start()

        monkeypatch.setattr(network.threading, "Thread", Recording)
        return threads

    @staticmethod
    def force(monkeypatch, threads):
        monkeypatch.setattr(network, "inference_threads", lambda tiles: threads)

    @pytest.mark.parametrize("channels", [(12, 24), (64, 128)])
    def test_thread_count_changes_no_result(self, monkeypatch, started, channels):
        """Logits, features and the data-set criticality table are bit-identical
        on 1, 2 and 3 threads, with a ragged last tile."""
        net, rng = _eval_net(channels, seed=31)
        x = 2.0 * rng.normal(size=(7 * net.tile + 3, 1, 8, 8))
        results = []
        for threads in (1, 2, 3):
            self.force(monkeypatch, threads)
            logits = net.forward(x, training=False)
            scores = criticality_over_dataset(net, x, 3 * net.tile // 2 + 1)
            results.append((logits, extract_features(net, x), scores))
        assert len(started) == 3 * (1 + 2)
        for logits, features, scores in results[1:]:
            np.testing.assert_array_equal(logits, results[0][0])
            np.testing.assert_array_equal(features, results[0][1])
            assert sorted(scores) == sorted(results[0][2])
            for key, got in scores.items():
                np.testing.assert_array_equal(got, results[0][2][key])

    def test_more_threads_than_cores_under_fast_switching(self, monkeypatch, started):
        """Eight threads with a 1 us switch interval: every tile runs once and
        its rows equal the serial forward's."""
        net, rng = _eval_net((4, 8), seed=36)
        x = rng.normal(size=(11 * net.tile + 5, 1, 8, 8))
        self.force(monkeypatch, 1)
        serial = net.forward(x, training=False)
        self.force(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                ran = []
                logits = net.forward(x, training=False,
                                     on_tile=lambda rows, states: ran.append(rows.start))
                np.testing.assert_array_equal(logits, serial)
                assert sorted(ran) == list(range(0, len(x), net.tile))
        finally:
            sys.setswitchinterval(interval)
        assert len(started) == 3 * 7 and not any(t.is_alive() for t in started)

    def test_caller_runs_the_last_tile(self, monkeypatch):
        """The network's own caches hold the last tile, as after a serial
        forward, and the caller's affinity mask is as before."""
        net, rng = _eval_net((4, 8), seed=32)
        self.force(monkeypatch, 2)
        x = rng.normal(size=(3 * net.tile + 1, 1, 8, 8))
        mask = os.sched_getaffinity(0)
        net.forward(x, training=False)
        assert os.sched_getaffinity(0) == mask
        last = [net.layers[i].state.h for i in net.lif_indices()]
        net.forward(x[-1:], training=False)
        for i, h in zip(net.lif_indices(), last):
            np.testing.assert_array_equal(h, net.layers[i].state.h)

    def test_thread_count_rule(self, monkeypatch):
        """One thread per core, but no more threads than tiles."""
        monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0, 1})
        assert [network.inference_threads(n) for n in (1, 2, 3, 10, 160)] == [1, 2, 2, 2, 2]
        monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert [network.inference_threads(n) for n in (1, 2, 3, 160)] == [1, 2, 3, 3]
        monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0})
        assert network.inference_threads(160) == 1

    def test_below_the_thread_minimum_starts_no_worker(self, monkeypatch, started):
        """A one-tile eval forward and a training forward start no worker and
        pin nothing; a two-tile eval forward pins both threads and restores."""
        pins = []
        monkeypatch.setattr(network.os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(network.os, "sched_setaffinity", lambda pid, cpus: pins.append(cpus))
        net, rng = _eval_net((4, 8), seed=33)
        net.forward(rng.normal(size=(net.tile, 1, 8, 8)), training=False)
        net.forward(rng.normal(size=(32 * net.tile, 1, 8, 8)), training=True)
        assert started == [] and pins == []
        net.forward(rng.normal(size=(2 * net.tile, 1, 8, 8)), training=False)
        assert len(started) == 1
        assert sorted(map(sorted, pins[:2])) == [[0], [1]] and sorted(pins[2]) == [0, 1]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two cores")
    def test_worker_tiles_run_on_another_core(self, monkeypatch):
        """Each thread sees a one-core mask of its own while it runs its tiles;
        the caller waits in its first tile until the worker has run one."""
        net, rng = _eval_net((4, 8), seed=37)
        self.force(monkeypatch, 2)
        caller, mask = threading.get_ident(), os.sched_getaffinity(0)
        seen, worker_ran = {}, threading.Event()

        def on_tile(rows, states):
            seen.setdefault(threading.get_ident(), set()).add(frozenset(os.sched_getaffinity(0)))
            if threading.get_ident() == caller:
                worker_ran.wait(30)
            else:
                worker_ran.set()

        net.forward(rng.normal(size=(6 * net.tile, 1, 8, 8)), training=False, on_tile=on_tile)
        assert worker_ran.is_set() and all(len(got) == 1 for got in seen.values())
        (worker,) = set(seen) - {caller}
        (mine,), (theirs,) = seen[caller], seen[worker]
        assert mine == {min(mask)} and len(theirs) == 1 and theirs != mine and theirs <= mask
        assert os.sched_getaffinity(0) == mask

    def test_refused_pinning_changes_no_result(self, monkeypatch, started):
        """Where the host refuses an affinity change, the threads run unpinned."""
        net, rng = _eval_net((4, 8), seed=38)
        x = rng.normal(size=(5 * net.tile + 1, 1, 8, 8))
        self.force(monkeypatch, 2)
        pinned = net.forward(x, training=False)

        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(network.os, "sched_setaffinity", refuse)
        np.testing.assert_array_equal(net.forward(x, training=False), pinned)
        assert len(started) == 2 and os.sched_getaffinity(0) == mask

    def test_non_finite_input_in_a_worker_tile(self, monkeypatch, started):
        """Every tile but the caller's last holds a NaN, so the worker meets
        one too: the error is the serial path's."""
        net, rng = _eval_net((4, 8), seed=34)
        x = rng.normal(size=(4 * net.tile, 1, 8, 8))
        x[:-net.tile:net.tile, 0, 2, 2] = np.nan
        errors, mask = [], os.sched_getaffinity(0)
        for threads in (1, 2):
            self.force(monkeypatch, threads)
            with pytest.raises(NumericError) as info:
                net.forward(x, training=False)
            errors.append(str(info.value))
            assert os.sched_getaffinity(0) == mask
        assert len(started) == 1 and errors[0] == errors[1]
        assert not started[0].is_alive()

    def test_earliest_failing_tile_is_raised_after_every_thread(self, monkeypatch, started):
        """Each of three threads fails on the first tile it takes; the error
        of tile 0 is raised, after all three have stopped."""
        net, rng = _eval_net((4, 8), seed=35)
        self.force(monkeypatch, 3)
        done = []

        def on_tile(rows, states):
            done.append(rows.start)
            raise ValueError(f"tile at {rows.start}")

        with pytest.raises(ValueError, match="tile at 0$"):
            net.forward(rng.normal(size=(6 * net.tile, 1, 8, 8)), training=False,
                        on_tile=on_tile)
        assert sorted(done) == [0, net.tile, 2 * net.tile]
        assert not any(t.is_alive() for t in started)


class TestFlattenOrder:
    def test_silenced_channel_zeroes_its_head_input_block(self):
        """Head inputs are in (C, H, W) order: channel c of the last BN owns
        columns [c*h*w, (c+1)*h*w) of the features the head reads."""
        spec = vgg_mini(channels=(2, 3))
        net = SpikingNetwork(spec, np.random.default_rng(6))
        bn = net.layers[5]
        _, h, w = trace_shapes(spec)[7]
        x = np.random.default_rng(7).normal(size=(4, 1, 8, 8))
        for c in range(bn.channels):
            bn.gamma[...] = 0.0
            bn.beta[...] = 100.0        # every other channel fires at every step
            bn.beta[c] = -100.0         # channel c never fires
            net.forward(x, training=False)
            expected = np.ones((4, bn.channels * h * w))
            expected[:, c * h * w:(c + 1) * h * w] = 0.0
            np.testing.assert_array_equal(net.features, expected)


class TestGprimeOnRead:
    """A LIF layer records h and s; g' is derived from h only by its readers."""

    @pytest.fixture
    def gprime_calls(self, monkeypatch):
        calls = []
        real = layers.surrogate_gprime

        def counting(x, out=None):
            calls.append(x.shape)
            return real(x, out=out)

        monkeypatch.setattr(layers, "surrogate_gprime", counting)
        return calls

    def test_eval_loops_derive_no_gprime(self, gprime_calls):
        net, trainer, data = tiny_run(seed=3)
        trainer.evaluate()
        assert not any("gprime" in vars(st) for st in net.lif_states().values())
        extract_features(net, data.x_train)
        assert not any("gprime" in vars(st) for st in net.lif_states().values())
        assert gprime_calls == []

    def test_prune_event_scores_the_train_steps_gprime(self, gprime_calls):
        """Backward derives g' once per LIF layer; the event's scoring reuses it."""
        net, trainer, _ = tiny_run(seed=4, n_train=8, batch=8, epochs=1)
        sched = SparsitySchedule(s_f=0.5, delta_t=1, t_f=1, r=0.5)
        res = prune_loop(net, trainer, sched, epochs=1)
        assert len(res.events) == 1 and res.events[0].k > 0
        assert len(gprime_calls) == len(net.lif_indices())

    @pytest.mark.parametrize("training", [True, False])
    def test_nan_input_raises(self, training):
        xs = np.zeros((3, 2, 4))
        xs[1, 0, 2] = np.nan
        with pytest.raises(NumericError):
            LIF(LIFParams()).forward(xs, training)


class TestBackward:
    def test_backward_before_forward(self):
        net = SpikingNetwork(vgg_mini(), np.random.default_rng(0))
        with pytest.raises(StateError):
            net.backward(np.zeros((2, 3)))

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(5)
        net = SpikingNetwork(vgg_mini(channels=(2, 2)), rng)
        net.forward(rng.normal(size=(2, 1, 8, 8)), training=True)
        net.backward(np.zeros((2, 3)))
        for g in net.grads().values():
            assert not g.any()

    def test_only_the_first_conv_skips_its_input_gradient(self):
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), np.random.default_rng(0))
        assert [l.input_grad for l in net.layers if l.kind == "conv"] == [False, True]

    def test_single_neuron_t2_hand_chain_rule(self):
        """Standard-mode STBP on one LIF neuron, expanded symbolically by hand."""
        spec = linear_snn([1, 1, 1], t_steps=2)
        net = SpikingNetwork(spec, np.random.default_rng(6))
        w1, w2, x = 1.5, 0.7, 0.8
        net.set_parameter("layers.0.weight", np.array([[w1]]))
        net.set_parameter("layers.0.bias", np.zeros(1))
        net.set_parameter("layers.2.weight", np.array([[w2]]))
        net.set_parameter("layers.2.bias", np.zeros(1))
        net.forward(np.array([[x]]), training=True)
        net.backward(np.array([[1.0]]))

        z = w1 * x
        h0 = z / TAU
        s0 = 1.0 if h0 >= 1.0 else 0.0
        u0 = h0 * (1.0 - s0)
        h1 = u0 + (z - u0) / TAU
        s1 = 1.0 if h1 >= 1.0 else 0.0
        # ds/dh via the surrogate; reset path keeps s detached
        dl_dh1 = (w2 / 2.0) * surrogate_gprime(h1 - 1.0)
        dl_dh0 = (w2 / 2.0) * surrogate_gprime(h0 - 1.0) + dl_dh1 * (1.0 - 1.0 / TAU) * (1.0 - s0)
        dl_dw1 = (dl_dh0 + dl_dh1) / TAU * x
        dl_dw2 = (s0 + s1) / 2.0

        grads = net.grads()
        assert grads["layers.0.weight"][0, 0] == pytest.approx(dl_dw1, rel=1e-12)
        assert grads["layers.2.weight"][0, 0] == pytest.approx(dl_dw2, rel=1e-12)

    def test_relaxed_finite_differences_two_layer(self):
        """Relaxed-mode analytic gradients vs central differences, every tensor."""
        rng = np.random.default_rng(7)
        spec = vgg_mini(input_shape=(1, 6, 6), channels=(2, 2), classes=2, t_steps=3)
        net = SpikingNetwork(spec, rng)
        net.set_relaxed(True)
        x = rng.normal(size=(3, 1, 6, 6))
        y = np.array([0, 1, 0])

        def loss():
            logits = net.forward(x, training=True)
            return loss_ce_l1(logits, y)[0]

        base_logits = net.forward(x, training=True)
        _, dlogits, _ = loss_ce_l1(base_logits, y)
        net.backward(dlogits)
        grads = {k: v.copy() for k, v in net.grads().items()}
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
            assert err <= 1e-4, f"{name}: rel err {err}"

    def test_relaxed_toggle_leaves_weights_untouched(self):
        rng = np.random.default_rng(8)
        net = SpikingNetwork(vgg_mini(channels=(2, 2)), rng)
        before = {k: v.copy() for k, v in net.parameters().items()}
        net.set_relaxed(True)
        net.set_relaxed(False)
        for k, v in net.parameters().items():
            assert np.array_equal(before[k], v)


class TestArena:
    def test_layout_prefixes(self):
        """Weights in layer order, then biases, then BN gamma/beta; every
        parameter and gradient attribute is a view of its arena."""
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), np.random.default_rng(13))
        weighted = [l for l in net.layers if l.kind in ("conv", "linear")]
        weights = np.concatenate([l.weight.ravel() for l in weighted])
        np.testing.assert_array_equal(net.flat[:net.n_prunable], weights)
        assert net.n_decayed == net.n_prunable + net.layers[-1].bias.size
        bn = [l for l in net.layers if l.kind == "batchnorm"]
        affine = np.concatenate([np.concatenate([l.gamma, l.beta]) for l in bn])
        np.testing.assert_array_equal(net.flat[net.n_decayed:], affine)
        for layer in net.layers:
            for name in layer.param_names:
                assert np.shares_memory(getattr(layer, name), net.flat)
                assert np.shares_memory(getattr(layer, "d" + name), net.grad)

    def test_rebound_parameter_fails_loudly(self):
        net, trainer, data = tiny_run(seed=14)
        net.layers[0].weight = net.layers[0].weight.copy()
        with pytest.raises(StateError):
            net.clone()
        with pytest.raises(StateError):
            trainer.train_step(data.x_train[:4], data.y_train[:4], lr=0.1)


class TestSpecValidation:
    def test_conv_without_bn_rejected(self):
        layers = [
            LayerSpec("conv", in_channels=1, out_channels=2, kernel=3, stride=1, padding=1),
            LayerSpec("lif"),
            LayerSpec("flatten"),
            LayerSpec("linear", in_features=2 * 8 * 8, out_features=3),
        ]
        with pytest.raises(DimensionError):
            validate_spec(NetworkSpec((1, 8, 8), layers))

    def test_shapes_must_compose(self):
        layers = [
            LayerSpec("flatten"),
            LayerSpec("linear", in_features=10, out_features=3),
        ]
        with pytest.raises(DimensionError):
            validate_spec(NetworkSpec((1, 8, 8), layers))

    def test_spec_roundtrip(self):
        spec = vgg_mini(channels=(4, 8), classes=5)
        again = NetworkSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()


class TestCheckpoint:
    def test_roundtrip_byte_identical(self, tmp_path):
        """Float and bool entries; bool lengths 36, 13 and a 0-d scalar leave
        padding bits in their last byte."""
        rng = np.random.default_rng(9)
        arrays = {
            "layers.0.weight": rng.normal(size=(4, 1, 3, 3)),
            "scalar": np.array(3.5),
            "mask/layers.0.weight": rng.random((4, 1, 3, 3)) < 0.5,
            "odd": rng.random(13) < 0.5,
            "flag": np.array(True),
        }
        meta = {"network": vgg_mini().to_dict(), "note": "x"}
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        checkpoint.save(p1, arrays, meta)
        loaded, meta2 = checkpoint.load(p1)
        checkpoint.save(p2, loaded, meta2)
        assert p1.read_bytes() == p2.read_bytes()
        for k in arrays:
            assert loaded[k].dtype == (bool if arrays[k].dtype == bool else np.float64), k
            assert loaded[k].flags.writeable, k
            np.testing.assert_array_equal(arrays[k], loaded[k])

    def _corrupt_code(self, tmp_path, code: bytes, last_byte: int | None = None):
        """A one-entry bool checkpoint with its dtype byte (and optionally its
        data byte) overwritten; returns the path and the dtype byte offset.
        The parse fails before the CRC32 trailer is read."""
        p = tmp_path / "c.ckpt"
        checkpoint.save(p, {"m": np.ones(5, dtype=bool)}, {})
        blob = bytearray(p.read_bytes())
        at = len(blob) - 6          # dtype byte, ceil(5/8) = 1 data byte, 4 CRC bytes
        assert blob[at:at + 2] == b"b\xf8"
        blob[at:at + 1] = code
        if last_byte is not None:
            blob[at + 1] = last_byte
        p.write_bytes(bytes(blob))
        return p, at

    def test_unknown_dtype_code_names_path_and_offset(self, tmp_path):
        p, at = self._corrupt_code(tmp_path, b"q")
        with pytest.raises(ValueError, match=rf"c\.ckpt: .*dtype code b'q' at byte offset {at}"):
            checkpoint.load(p)

    def test_nonzero_padding_bits_name_path_and_offset(self, tmp_path):
        p, at = self._corrupt_code(tmp_path, b"b", last_byte=0xF9)
        with pytest.raises(ValueError, match=rf"c\.ckpt: .*padding bits at byte offset {at + 1}"):
            checkpoint.load(p)

    def test_failed_save_leaves_previous_file(self, tmp_path):
        """An entry that cannot become float64 fails the save after earlier
        entries were written: the old file stays and no temporary is left."""
        p = tmp_path / "keep.ckpt"
        checkpoint.save(p, {"w": np.ones(3)}, {"note": "old"})
        before = p.read_bytes()
        with pytest.raises(ValueError):
            checkpoint.save(p, {"a": np.zeros(1000), "z": np.array(["not a number"])},
                            {"note": "new"})
        assert p.read_bytes() == before
        assert sorted(f.name for f in tmp_path.iterdir()) == ["keep.ckpt"]

    def test_v1_file_loads_through_load_run_state(self, tmp_path):
        """A version-1 run state, with float64 0/1 masks, still loads."""
        from spikeprune.train import load_run_state, save_run_state
        rng = np.random.default_rng(16)
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), rng)
        mask = rng.random(net.n_prunable) < 0.5
        path = tmp_path / "net.ckpt"
        save_run_state(path, net, mask=mask, rng=rng)
        arrays, meta = checkpoint.load(path)
        assert all(arrays[f"mask/{name}"].dtype == bool for name in net.split(mask))
        old = tmp_path / "old.ckpt"
        save_v1(old, arrays, meta)
        assert old.read_bytes()[:5] == b"SPKC\x01"
        net2, arrays2, meta2 = load_run_state(old)
        np.testing.assert_array_equal(net2.flat, net.flat)
        assert meta2 == meta
        for name, m in net.split(mask).items():
            assert arrays2[f"mask/{name}"].dtype == np.float64
            np.testing.assert_array_equal(arrays2[f"mask/{name}"], m)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE!")
        with pytest.raises(ValueError):
            checkpoint.load(p)

    def test_truncated_file_names_path_and_offset(self, tmp_path):
        p = tmp_path / "t.ckpt"
        checkpoint.save(p, {"w": np.ones((2, 3))}, {"note": "x"})
        p.write_bytes(p.read_bytes()[:7])
        with pytest.raises(ValueError, match=r"t\.ckpt: truncated .* byte offset 5"):
            checkpoint.load(p)

    def test_older_file_with_velocity_loads(self, tmp_path):
        """Run states no longer carry velocity/* entries; files that do still load."""
        from spikeprune.train import load_run_state, save_run_state
        rng = np.random.default_rng(15)
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), rng)
        path = tmp_path / "net.ckpt"
        save_run_state(path, net, rng=rng)
        arrays, meta = checkpoint.load(path)
        assert not any(name.startswith("velocity/") for name in arrays)
        for name, p in net.parameters().items():
            arrays[f"velocity/{name}"] = np.ones_like(p)
        checkpoint.save(path, arrays, meta)
        net2, _, _ = load_run_state(path)
        np.testing.assert_array_equal(net2.flat, net.flat)

    def test_network_state_roundtrip(self, tmp_path):
        from spikeprune.train import load_run_state, save_run_state
        rng = np.random.default_rng(10)
        net = SpikingNetwork(vgg_mini(channels=(2, 3)), rng)
        x = rng.normal(size=(2, 1, 8, 8))
        ref = net.forward(x)
        path = tmp_path / "net.ckpt"
        save_run_state(path, net, meta_extra={"tag": "test"}, rng=rng)
        net2, arrays, meta = load_run_state(path)
        assert meta["tag"] == "test"
        np.testing.assert_array_equal(net2.forward(x), ref)
