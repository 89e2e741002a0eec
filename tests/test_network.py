"""Network-level behavior: timestep unrolling, STBP backward, hand-unrolled
oracles, relaxed-mode finite differences, and checkpoint round-trips.
"""

import math
import os
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import helper_names, helper_threads, save_v1, tiny_run
from spikeprune import checkpoint, cores, layers, ops
from spikeprune.analysis import extract_features
from spikeprune.errors import DimensionError, NumericError, StateError
from spikeprune.layers import (
    LIF,
    BatchNorm2d,
    Conv2d,
    LIFParams,
    Linear,
    lif_step,
    surrogate_gprime,
)
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


@pytest.fixture
def fake_mask(monkeypatch):
    """fake(k): the process sees the affinity mask {0, ..., k - 1}, and each
    affinity change is recorded in fake.pins as (thread name, pid, sorted
    cpus) instead of made."""
    pins = []

    def fake(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: pins.append(
            (threading.current_thread().name, pid, sorted(cpus))))

    fake.pins = pins
    return fake


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
        (conv 0's output) fits 2 MiB."""
        assert inference_tile(vgg_mini(channels=(12, 24))) == 64     # 30720 B a sample
        assert inference_tile(vgg_mini(channels=(64, 128))) == 8     # 163840 B a sample
        assert inference_tile(linear_snn([16, 12, 8, 3])) == 4096
        assert inference_tile(vgg_mini(input_shape=(1, 64, 64), channels=(64, 128))) == 1

    @pytest.mark.parametrize("channels", [(12, 24), (64, 128)])
    def test_tiled_forward_equals_full_batch_run(self, channels):
        """Logits and features are bit-identical to the layer stack run once
        over the whole batch; so are every LIF layer's h, s and g' of each
        tile, read through on_tile, against its rows."""
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
        tiles = {}
        logits = net.forward(x, training=False, on_tile=lambda rows, states: tiles.__setitem__(
            rows.start, (rows, states)))
        np.testing.assert_array_equal(logits, acts.mean(axis=0))
        np.testing.assert_array_equal(net.features, features)
        assert sorted(tiles) == list(range(0, n, net.tile))
        for rows, states in tiles.values():
            assert sorted(states) == sorted(traces)
            for i, st in states.items():
                np.testing.assert_array_equal(st.h, traces[i].h[:, rows])
                np.testing.assert_array_equal(st.s, traces[i].s[:, rows])
                np.testing.assert_array_equal(st.gprime, traces[i].gprime[:, rows])

    def test_lif_states_and_backward_need_a_training_forward(self):
        """Eval forwards, of one tile or more, leave no LIF state to read and
        no backward to run."""
        net, rng = _eval_net((4, 8), seed=14)
        for n in (net.tile, net.tile + 1):
            net.forward(rng.normal(size=(n, 1, 8, 8)), training=False)
            with pytest.raises(StateError, match="training forward"):
                net.lif_states()
            with pytest.raises(StateError, match="backward before a training forward"):
                net.backward(np.zeros((n, 3)))

    @pytest.mark.parametrize("training", [True, False])
    def test_empty_batch_raises(self, training):
        net = SpikingNetwork(vgg_mini(), np.random.default_rng(0))
        with pytest.raises(DimensionError, match="at least one sample"):
            net.forward(np.zeros((0, 1, 8, 8)), training=training)

    @pytest.mark.parametrize("on_tile", [None, lambda rows, states: None])
    def test_tiles_leave_no_state_or_input_on_their_copies(self, monkeypatch, fake_mask,
                                                           on_tile):
        """After a multi-tile eval forward with a ragged tail, its tiles shared
        on a faked 2-core mask, no layer copy a tile ran on holds a LIF state
        or a conv or linear input, with or without on_tile."""
        net, rng = _eval_net((4, 8), seed=41)
        ran = []

        def recording(forward):
            def wrapped(layer, xs, training):
                ran.append(layer)
                return forward(layer, xs, training)
            return wrapped

        for cls in (Conv2d, Linear, LIF):
            monkeypatch.setattr(cls, "forward", recording(cls.forward))
        fake_mask(2)
        net.forward(rng.normal(size=(5 * net.tile + 3, 1, 8, 8)), training=False,
                    on_tile=on_tile)
        assert len(ran) == 6 * 5 and not any(layer in net.layers for layer in ran)
        for layer in ran:
            assert getattr(layer, "state", None) is None, layer.kind
            assert getattr(layer, "_x", None) is None, layer.kind
            assert getattr(layer, "_patches", None) is None, layer.kind

    def test_lif_state_freed_before_the_next_lif_runs(self, monkeypatch, fake_mask):
        """Without on_tile, each LIF layer's state of a tile, h included, is
        freed before the next LIF layer runs, in its tile or the next one."""
        net, rng = _eval_net((12, 24), seed=42)
        refs = []
        forward = LIF.forward

        def wrapped(layer, xs, training):
            assert all(ref() is None for ref in refs), len(refs)
            out = forward(layer, xs, training)
            refs.append(weakref.ref(layer.state))
            return out

        monkeypatch.setattr(LIF, "forward", wrapped)
        fake_mask(1)
        net.forward(rng.normal(size=(2 * net.tile + 5, 1, 8, 8)), training=False)
        assert len(refs) == 2 * 3 and all(ref() is None for ref in refs)

    @pytest.mark.parametrize("channels", [(12, 24), (64, 128)])
    def test_traced_peak_of_an_eval_forward(self, fake_mask, channels):
        """On one core, the traced peak of an eval forward over several tiles
        stays within 5x a tile's biggest [T, tile, ...] activation."""
        net, rng = _eval_net(channels, seed=43)
        x = rng.normal(size=(4 * net.tile + 3, 1, 8, 8))
        fake_mask(1)
        net.forward(x, training=False)
        per_sample = 8 * net.spec.t_steps * max(math.prod(s) for s in trace_shapes(net.spec))
        tracemalloc.start()
        try:
            net.forward(x, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * net.tile * per_sample, peak / (net.tile * per_sample)

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


class TestInferenceThreads:
    """An inference forward shares its tiles with the persistent helpers of
    spikeprune.cores: one thread per core of the affinity mask, the caller
    included, but no more threads than tiles."""

    @pytest.fixture
    def started(self, monkeypatch):
        """Names of the threads started during the test."""
        names = []
        start = threading.Thread.start

        def recording(thread):
            names.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        return names

    @staticmethod
    def threads_of(net, x, expected):
        """Names of the threads that ran the tiles of an eval forward of x;
        each waits in its first tile until `expected` threads have run one."""
        seen, arrived = set(), threading.Condition()

        def on_tile(rows, states):
            with arrived:
                name = threading.current_thread().name
                if name not in seen:
                    seen.add(name)
                    arrived.notify_all()
                    arrived.wait_for(lambda: len(seen) >= expected, timeout=10)

        net.forward(x, training=False, on_tile=on_tile)
        return seen

    @pytest.mark.parametrize("channels", [(12, 24), (64, 128)])
    def test_thread_count_changes_no_result(self, fake_mask, started, channels):
        """Logits, features and the data-set criticality table are bit-identical
        on 1-, 2- and 3-core masks, with a ragged last tile. Only a first
        forward on a wider mask starts a thread: a helper that mask may use,
        started once."""
        net, rng = _eval_net(channels, seed=31)
        x = 2.0 * rng.normal(size=(7 * net.tile + 3, 1, 8, 8))
        results = []
        for k in (1, 2, 3):
            fake_mask(k)
            logits = net.forward(x, training=False)
            first = list(started)
            scores = criticality_over_dataset(net, x, 3 * net.tile // 2 + 1)
            results.append((logits, extract_features(net, x), scores))
            assert started == first and set(started) <= helper_names(k)
        assert len(started) == len(set(started))
        for logits, features, scores in results[1:]:
            np.testing.assert_array_equal(logits, results[0][0])
            np.testing.assert_array_equal(features, results[0][1])
            assert sorted(scores) == sorted(results[0][2])
            for key, got in scores.items():
                np.testing.assert_array_equal(got, results[0][2][key])

    def test_more_threads_than_cores_under_fast_switching(self, fake_mask, started):
        """Eight threads on a faked 8-core mask, the caller and helpers 1-7,
        with a 1 us switch interval: every tile runs once and its rows equal
        the serial forward's; the first forward hands its tiles to all seven
        helpers, and no forward after it starts a thread."""
        net, rng = _eval_net((4, 8), seed=36)
        x = rng.normal(size=(11 * net.tile + 5, 1, 8, 8))
        fake_mask(1)
        serial = net.forward(x, training=False)
        fake_mask(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_ in range(3):
                ran = []
                logits = net.forward(x, training=False,
                                     on_tile=lambda rows, states: ran.append(rows.start))
                np.testing.assert_array_equal(logits, serial)
                assert sorted(ran) == list(range(0, len(x), net.tile))
                if round_ == 0:
                    first = list(started)
                    assert {t.name for t in helper_threads()} >= helper_names(8)
        finally:
            sys.setswitchinterval(interval)
        assert started == first and set(started) <= helper_names(8)

    @pytest.mark.skipif(cores.BLAS is None, reason="OpenBLAS's thread count is out of reach")
    def test_eval_forward_leaves_the_training_caches(self, fake_mask, meeting):
        """A multi-tile eval forward, its tiles shared with a helper on a faked
        2-core mask, between a training forward and its backward: every
        attribute of every layer, each LIF's state and each conv's and
        linear's input included, is the object the training forward left;
        lif_states() returns those states; and the gradients and BN running
        statistics are those of the same step without the eval forward, bit
        for bit."""
        fake_mask(2)
        results = []
        for with_eval in (False, True):
            net, rng = _eval_net((4, 8), seed=40)
            x, y = 2.0 * rng.normal(size=(16, 1, 8, 8)), rng.integers(0, 3, size=16)
            _, dlogits, _ = loss_ce_l1(net.forward(x, training=True), y)
            left = [dict(vars(layer)) for layer in net.layers]
            states = net.lif_states()
            if with_eval:
                net.forward(rng.normal(size=(4 * net.tile + 1, 1, 8, 8)), training=False,
                            on_tile=meeting.meet)
                assert meeting.helper_ran.is_set()
                for layer, attrs in zip(net.layers, left):
                    assert vars(layer).keys() == attrs.keys()
                    assert all(vars(layer)[k] is v for k, v in attrs.items()), layer.kind
                assert all(net.lif_states()[i] is st for i, st in states.items())
            net.backward(dlogits)
            results.append([net.grad.copy()] + [a.copy() for a in net.state_arrays().values()])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(cores.BLAS is None, reason="OpenBLAS's thread count is out of reach")
    def test_thread_count_rule(self, fake_mask):
        """One thread per core, the caller included, but no more threads than
        tiles; the helpers are the first ones of the pool."""
        net, rng = _eval_net((4, 8), seed=39)
        me = threading.current_thread().name
        for k, tiles, threads in [(2, 1, 1), (2, 2, 2), (2, 3, 2), (2, 10, 2), (3, 1, 1),
                                  (3, 2, 2), (3, 3, 3), (3, 10, 3), (1, 10, 1)]:
            fake_mask(k)
            names = self.threads_of(net, rng.normal(size=(tiles * net.tile, 1, 8, 8)), threads)
            assert names == {me} | helper_names(threads), (k, tiles)

    @pytest.mark.skipif(cores.BLAS is None, reason="OpenBLAS's thread count is out of reach")
    def test_below_the_thread_minimum_starts_no_worker(self, fake_mask, started):
        """On a faked 2-core mask, a one-tile eval forward starts no thread and
        pins nothing. A training forward pins the caller to the first core and
        helper 1 to the second for its halves; a two-tile eval forward does the
        same for its tiles. Each gives the caller and every helper the mask
        back at its end."""
        me = threading.current_thread().name
        fake_mask(2)
        pins = fake_mask.pins
        net, rng = _eval_net((4, 8), seed=33)
        net.forward(rng.normal(size=(net.tile, 1, 8, 8)), training=False)
        assert started == [] and pins == []
        net.forward(rng.normal(size=(32 * net.tile, 1, 8, 8)), training=True)
        assert set(started) <= {"spikeprune-helper-1"}
        given_back = [[0, 1]] * len(helper_threads())
        assert [c for who, pid, c in pins if who == me and pid == 0] == [[0], [0, 1]]
        assert [c for who, pid, c in pins if who == me and pid != 0] == given_back
        assert all((who, c) == ("spikeprune-helper-1", [1]) for who, _, c in pins if who != me)
        started.clear()
        pins.clear()
        names = self.threads_of(net, rng.normal(size=(2 * net.tile, 1, 8, 8)), 2)
        assert names == {me, "spikeprune-helper-1"} and started == []
        assert [c for who, pid, c in pins if who == me and pid == 0] == [[0], [0, 1]]
        assert [c for who, pid, c in pins if who == me and pid != 0] == given_back
        assert [(who, c) for who, _, c in pins if who != me] == [("spikeprune-helper-1", [1])]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or cores.BLAS is None,
                        reason="needs two cores and OpenBLAS's thread count")
    def test_worker_tiles_run_on_another_core(self):
        """Each thread sees a one-core mask of its own while it runs its tiles;
        the caller waits in its first tile until a helper has run one."""
        net, rng = _eval_net((4, 8), seed=37)
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
        """Where the host refuses an affinity change, the caller runs every
        tile, with the same results, and no thread starts."""
        net, rng = _eval_net((4, 8), seed=38)
        x = rng.normal(size=(5 * net.tile + 1, 1, 8, 8))
        pinned = net.forward(x, training=False)

        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        ran = []
        refused = net.forward(x, training=False, on_tile=lambda rows, states: ran.append(
            threading.current_thread().name))
        np.testing.assert_array_equal(refused, pinned)
        assert ran == [threading.current_thread().name] * 6
        assert set(started) <= helper_names(len(mask)) and os.sched_getaffinity(0) == mask

    def test_non_finite_input_in_a_worker_tile(self, monkeypatch, fake_mask, started):
        """Every tile but the first holds a NaN, and the thread that runs the
        first waits in it until a helper has begun a tile, so a helper meets
        one too: the error is the serial path's."""
        net, rng = _eval_net((4, 8), seed=34)
        x = rng.normal(size=(4 * net.tile, 1, 8, 8))
        x[net.tile::net.tile, 0, 2, 2] = np.nan
        me, helper_began = threading.current_thread().name, threading.Event()
        layer_input = net.layer_input

        def noting(xs):
            if threading.current_thread().name != me:
                helper_began.set()
            return layer_input(xs)

        monkeypatch.setattr(net, "layer_input", noting)
        errors = []
        for k in (1, 2):
            fake_mask(k)
            with pytest.raises(NumericError) as info:
                net.forward(x, training=False, on_tile=lambda rows, states: (
                    k == 1 or cores.BLAS is None or helper_began.wait(10)))
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert helper_began.is_set() or cores.BLAS is None
        assert set(started) <= helper_names(2)

    def test_earliest_failing_tile_is_raised_after_every_thread(self, fake_mask):
        """On a faked 3-core mask every tile fails; the error of tile 0 is
        raised, after every tile has run."""
        net, rng = _eval_net((4, 8), seed=35)
        fake_mask(3)
        done = []

        def on_tile(rows, states):
            done.append(rows.start)
            raise ValueError(f"tile at {rows.start}")

        with pytest.raises(ValueError, match="tile at 0$"):
            net.forward(rng.normal(size=(6 * net.tile, 1, 8, 8)), training=False,
                        on_tile=on_tile)
        assert sorted(done) == [k * net.tile for k in range(6)]


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
        """Evaluation and feature extraction derive no g' and leave every LIF
        layer of the network without a state."""
        net, trainer, data = tiny_run(seed=3)
        trainer.evaluate()
        extract_features(net, data.x_train)
        assert all(net.layers[i].state is None for i in net.lif_indices())
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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_training_forward_that_raises_leaves_nothing_to_read(self):
        """A training forward that raises part-way, after a clean one, leaves
        no backward to run and no LIF state to read, and no gradient moves."""
        net, rng = _eval_net((12, 24), seed=44)
        x = rng.normal(size=(4, 1, 8, 8))
        net.forward(x, training=True)
        grad = net.grad.copy()
        x[2, 0, 3, 3] = np.nan
        with pytest.raises(NumericError):
            net.forward(x, training=True)
        with pytest.raises(StateError, match="backward before a training forward"):
            net.backward(np.ones((4, 3)))
        with pytest.raises(StateError, match="training forward"):
            net.lif_states()
        np.testing.assert_array_equal(net.grad, grad)

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
