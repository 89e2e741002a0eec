"""Training steps on two cores: every per-row kernel of a training forward and
backward runs as two fixed halves, one of them on a pinned helper thread, and
gives the caller-only step's results bit for bit. The same pool of helpers
runs the tiles of inference forwards."""

import contextlib
import itertools
import os
import threading

import numpy as np
import pytest

from conftest import helper_names, helper_threads, tiny_run
from spikeprune import cores, ops
from spikeprune.errors import NumericError
from spikeprune.network import SpikingNetwork, vgg_mini
from spikeprune.optim import SGD, TrainConfig, loss_ce_l1

TWO_CORES = len(os.sched_getaffinity(0)) > 1 and cores.BLAS is not None
# The pool's helpers this process's mask allows: helper k runs on its k-th core.
HELPERS = helper_names(len(os.sched_getaffinity(0)))


@pytest.fixture
def helper_pieces(monkeypatch):
    """Names of the threads that ran each piece of a shared kernel."""
    ran = []
    work = cores._Job.work

    def recording(job, call=None, cpu=None):
        def note(kernel, lo, hi):
            ran.append(threading.current_thread().name)
            (kernel(lo, hi) if call is None else call(kernel, lo, hi))
        work(job, note, cpu)

    monkeypatch.setattr(cores._Job, "work", recording)
    return ran


def no_region(monkeypatch):
    """Every kernel as one range on the caller, as before the split."""
    monkeypatch.setattr(cores, "training", contextlib.nullcontext)


def caller_only(monkeypatch):
    """Halves as in a region, both on the caller."""
    monkeypatch.setattr(cores, "BLAS", None)


def steps(channels, batch, relaxed, n_steps=3, seed=7):
    """Logits, the gradient arena, every LIF's h, s and g', and the BN running
    statistics after each of n_steps SGD steps."""
    rng = np.random.default_rng(seed)
    net = SpikingNetwork(vgg_mini(channels=channels, t_steps=5), rng)
    net.set_relaxed(relaxed)
    optim = SGD(net.flat.size, net.n_decayed, TrainConfig())
    out = []
    for _ in range(n_steps):
        x = 2.0 * rng.normal(size=(batch, 1, 8, 8))
        logits = net.forward(x, training=True)
        _, dlogits, _ = loss_ce_l1(logits, rng.integers(0, 3, size=batch))
        net.backward(dlogits)
        out += [logits, net.grad.copy()]
        for st in net.lif_states().values():
            out += [st.h, st.s, st.gprime]
        out += [a.copy() for a in net.state_arrays().values()]
        optim.step(net.flat, net.grad, 0.1, None)
    return out


@pytest.fixture
def one_blas_thread():
    """OpenBLAS at one thread, as in a region: the products a step keeps whole
    (dW) may round differently under a multi-threaded OpenBLAS, whose split
    of a product among its threads depends on the shape."""
    if cores.BLAS is None:
        yield
        return
    get, put = cores.BLAS
    before = get()
    put(1)
    yield
    put(before)


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("relaxed", [False, True])
@pytest.mark.parametrize("share_min", [0, cores.SHARE_MIN])
@pytest.mark.parametrize("channels,batch", [((12, 24), 128), ((64, 128), 8), ((12, 24), 7),
                                            ((12, 24), 1), ((12, 24), 2), ((4, 8), 16)])
def test_two_threads_give_the_one_thread_step(monkeypatch, helper_pieces, channels, batch,
                                              relaxed, share_min):
    """Halves on the helper, halves on the caller alone, and one range per
    kernel (share_min 0 splits every kernel, also those of 0- and 1-sample
    halves at batches 1 and 2) give identical steps."""
    monkeypatch.setattr(cores, "SHARE_MIN", share_min)
    shared = steps(channels, batch, relaxed)
    by_thread = set(helper_pieces)
    with monkeypatch.context() as m:
        caller_only(m)
        alone = steps(channels, batch, relaxed)
    assert set(helper_pieces) <= {threading.current_thread().name} | HELPERS
    with monkeypatch.context() as m:
        no_region(m)
        whole = steps(channels, batch, relaxed)
    for a, b, c in zip(shared, alone, whole):
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(b, c)
    if TWO_CORES and share_min == 0 and batch >= 8:
        assert by_thread & HELPERS


@pytest.mark.skipif(not TWO_CORES, reason="the helper runs only on two cores")
@pytest.mark.parametrize("share_min", [0, cores.SHARE_MIN])
def test_a_step_under_a_multithreaded_blas(monkeypatch, share_min):
    """OpenBLAS at 2 threads, the default on two cores, and the desk net at
    batch 7, where a 2-thread OpenBLAS rounds some products otherwise than a
    1-thread one. A step that shares its kernels (share_min 0) runs every
    product at one thread and gives the unshared step at one thread; a step
    with no kernel past SHARE_MIN keeps 2 threads and gives the unshared
    step at 2 threads."""
    get, put = cores.BLAS
    before = get()
    monkeypatch.setattr(cores, "SHARE_MIN", share_min)
    try:
        put(2)
        shared = steps((12, 24), 7, False)
        assert get() == 2
        with monkeypatch.context() as m:
            no_region(m)
            put(1 if share_min == 0 else 2)
            whole = steps((12, 24), 7, False)
    finally:
        put(before)
    for a, b in zip(shared, whole):
        np.testing.assert_array_equal(a, b)


def test_row_halves_keeps_every_sum():
    """Wherever row_halves allows a split, the two half products equal the
    rows of the whole product (forward patch GEMM and dX GEMM shapes)."""
    rng = np.random.default_rng(0)
    allowed = 0
    for k, n, rows, items in itertools.product((9, 36, 108, 576), (3, 4, 12, 24, 64, 128),
                                               (1, 4, 9, 16, 64), (2, 3, 7, 16, 40)):
        if not ops.row_halves(items, rows, k, n):
            continue
        allowed += 1
        a, b = rng.normal(size=(items * rows, k)), rng.normal(size=(k, n))
        whole, mid = a @ b, items // 2 * rows
        np.testing.assert_array_equal(a[:mid] @ b, whole[:mid])
        np.testing.assert_array_equal(a[mid:] @ b, whole[mid:])
    assert allowed > 100


def test_row_halves_rule():
    """Only products past the small-matrix bound, or wholly under it with 4
    or more columns, split; a half needs 2 rows."""
    assert ops.row_halves(128, 64, 9, 12)           # whole under the bound
    assert not ops.row_halves(128, 64, 9, 3)        # 3 columns
    assert ops.row_halves(640, 16, 108, 24)         # halves past the bound
    assert not ops.row_halves(64, 64, 27, 12)       # whole past it, halves under
    assert not ops.row_halves(1, 64, 9, 12) and not ops.row_halves(3, 1, 9, 12)


@pytest.mark.skipif(cores.BLAS is None, reason="OpenBLAS's thread count is out of reach")
class TestRegionState:
    """Pinning, the BLAS thread count and errors around a training step."""

    @pytest.fixture
    def blas_two(self):
        """OpenBLAS at 2 threads for the test, so that a restore is visible."""
        get, put = cores.BLAS
        before = get()
        put(2)
        yield 2
        put(before)

    def test_step_restores_mask_and_blas(self, monkeypatch, blas_two):
        """Halves run with OpenBLAS at one thread; after the step, the
        caller's and every helper's masks and the BLAS count are as before."""
        monkeypatch.setattr(cores, "SHARE_MIN", 0)
        seen = []
        real = cores._Job.work

        def watch(job, call=None, cpu=None):
            def note(kernel, lo, hi):
                seen.append(cores.BLAS[0]())
                (kernel(lo, hi) if call is None else call(kernel, lo, hi))
            real(job, note, cpu)

        monkeypatch.setattr(cores._Job, "work", watch)
        net, trainer, data = tiny_run(seed=2, n_train=16, batch=16)
        mask = os.sched_getaffinity(0)
        trainer.train_step(data.x_train, data.y_train, 0.05)
        assert os.sched_getaffinity(0) == mask and cores.BLAS[0]() == blas_two
        if TWO_CORES:
            assert seen and set(seen) == {1}
            assert helper_threads()
            for helper in helper_threads():
                assert os.sched_getaffinity(helper.native_id) == mask

    def test_nan_in_the_helper_half_ends_in_the_trainer_error(self, monkeypatch, meeting,
                                                              helper_pieces, blas_two):
        """A NaN sample in the second half: the step ends in the Trainer's
        NumericError, the mask and BLAS count are as before, and the next
        step runs on the helper again: its first shared kernel waits until
        a helper has run a half."""
        monkeypatch.setattr(cores, "SHARE_MIN", 0)
        net, trainer, data = tiny_run(seed=3, n_train=16, batch=16)
        x = data.x_train.copy()
        x[-1, 0, 3, 3] = np.nan
        mask = os.sched_getaffinity(0)
        with pytest.raises(NumericError, match=r"^training diverged at epoch 0, step 1, lr 0\.05: "
                                               r"lif_step received non-finite input$"):
            trainer.train_step(x, data.y_train, 0.05)
        assert os.sched_getaffinity(0) == mask and cores.BLAS[0]() == blas_two
        helper_pieces.clear()
        if TWO_CORES:
            monkeypatch.setattr(cores, "share", meeting.first_meets(cores.share))
        trainer.train_step(data.x_train, data.y_train, 0.05)
        assert os.sched_getaffinity(0) == mask and cores.BLAS[0]() == blas_two
        if TWO_CORES:
            assert set(helper_pieces) & HELPERS

    def test_error_in_a_helper_piece_waits_for_every_piece(self, monkeypatch):
        """Each piece fails; the earliest piece's error is raised after both
        have run, and the caller's mask is as before."""
        ran = []

        def kernel(lo, hi):
            ran.append((lo, hi))
            raise ValueError(f"piece at {lo}")

        mask = os.sched_getaffinity(0)
        with pytest.raises(ValueError, match="piece at 0$"):
            with cores.training():
                cores.halves(kernel, 10, cores.SHARE_MIN)
        assert sorted(ran) == [(0, 5), (5, 10)] and os.sched_getaffinity(0) == mask

    @pytest.mark.skipif(not TWO_CORES, reason="the helper runs only on two cores")
    def test_a_job_the_caller_finished_leaves_the_helper_unpinned(self):
        """Helper 1 is kept busy with a job of no core. The caller runs both
        halves of its own call meanwhile, and its region ends; once released,
        helper 1 takes the spent job from its queue, and then a no-op job
        queued behind it. It stays idle with the caller's mask, not one core."""
        go = threading.Event()
        helper = cores._helpers(1)[0]
        helper.jobs.put(cores._Job(lambda lo, hi: go.wait(10), [(0, 1)], [None, None]))
        mask, ran = os.sched_getaffinity(0), []
        try:
            with cores.training():
                cores.halves(lambda lo, hi: ran.append((lo, hi)), 10, cores.SHARE_MIN)
        finally:
            go.set()
        assert ran == [(0, 5), (5, 10)]
        drained = cores._Job(lambda lo, hi: None, [(0, 1)], [None, None])
        helper.jobs.put(drained)
        assert drained.done.acquire(timeout=10)
        for helper in helper_threads():
            assert os.sched_getaffinity(helper.native_id) == mask

    def test_refused_pinning_runs_both_halves_on_the_caller(self, monkeypatch, helper_pieces):
        """A sched_setaffinity that raises: same results, all on the caller."""
        monkeypatch.setattr(cores, "SHARE_MIN", 0)
        pinned = steps((4, 8), 16, False, n_steps=2)

        def refuse(pid, cpus):
            raise OSError(22, "Invalid argument")

        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        helper_pieces.clear()
        refused = steps((4, 8), 16, False, n_steps=2)
        assert helper_pieces and not set(helper_pieces) & HELPERS
        assert os.sched_getaffinity(0) == mask
        for a, b in zip(pinned, refused):
            np.testing.assert_array_equal(a, b)


def test_without_blas_control_no_second_thread(monkeypatch, helper_pieces):
    """Where no OpenBLAS thread-count symbol resolves, a training step runs
    both halves on the caller, and an inference forward every tile."""
    monkeypatch.setattr(cores, "BLAS", None)
    monkeypatch.setattr(cores, "SHARE_MIN", 0)
    steps((4, 8), 16, False, n_steps=1)
    assert helper_pieces and not set(helper_pieces) & HELPERS
    helper_pieces.clear()
    net = SpikingNetwork(vgg_mini(channels=(4, 8)), np.random.default_rng(0))
    net.forward(np.zeros((4 * net.tile, 1, 8, 8)))
    assert helper_pieces == [threading.current_thread().name] * 4


def test_pieces_run_once_under_fast_switching():
    """Three callers, each in its own region, share the one helper with a
    1 us switch interval: every piece of every call runs exactly once, and
    OpenBLAS's thread count is as before."""
    import sys
    counts = [np.zeros(9, dtype=int) for _ in range(3)]
    errors = []

    def caller(c):
        try:
            with cores.training():
                for _ in range(200):
                    cores.halves(lambda lo, hi: c.__setitem__(slice(lo, hi), c[lo:hi] + 1),
                                 len(c), cores.SHARE_MIN)
        except BaseException as exc:
            errors.append(exc)

    blas = cores.BLAS and cores.BLAS[0]()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(c,)) for c in counts]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    assert (cores.BLAS and cores.BLAS[0]()) == blas
    for c in counts:
        np.testing.assert_array_equal(c, 200)


@pytest.mark.usefixtures("one_blas_thread")
def test_two_callers_share_the_pool(monkeypatch):
    """One thread runs multi-tile eval forwards while another runs shared
    training steps, both through the one pool: each gives its serial results
    bit for bit, and afterwards both callers and every helper have the mask
    as before, and OpenBLAS (a stand-in that records its count) its count."""
    monkeypatch.setattr(cores, "SHARE_MIN", 0)
    net = SpikingNetwork(vgg_mini(channels=(12, 24)), np.random.default_rng(3))
    x = np.random.default_rng(4).normal(size=(7 * net.tile + 3, 1, 8, 8))
    serial = {"eval": [net.forward(x)] * 20, "train": steps((12, 24), 16, False, n_steps=8)}
    count = [3]
    monkeypatch.setattr(cores, "BLAS", (lambda: count[0], lambda c: count.__setitem__(0, c)))
    work = {"eval": lambda: [net.forward(x) for _ in range(20)],
            "train": lambda: steps((12, 24), 16, False, n_steps=8)}
    mask, out, errors = os.sched_getaffinity(0), {}, []

    def caller(name):
        try:
            out[name] = work[name]()
            out[name + " mask"] = os.sched_getaffinity(0)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(name,)) for name in work]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert not any(t.is_alive() for t in threads) and errors == []
    for name, expected in serial.items():
        assert len(out[name]) == len(expected) and out[name + " mask"] == mask
        for a, b in zip(out[name], expected):
            np.testing.assert_array_equal(a, b)
    assert count == [3]
    for helper in helper_threads():
        assert os.sched_getaffinity(helper.native_id) == mask


@pytest.mark.skipif(not TWO_CORES, reason="the helpers run only on two cores")
def test_every_helper_gets_the_callers_mask_back(monkeypatch, meeting):
    """A helper is pinned to a core of its own while it runs a tile of a
    multi-tile eval forward or a half of a shared training step; after
    either, every helper's mask is the caller's. The caller's tile or half
    waits until a helper has run one."""
    mask, pinned = os.sched_getaffinity(0), []
    work = cores._Job.work

    def noting(job, call=None, cpu=None):
        def note(kernel, lo, hi):
            if threading.current_thread() is not meeting.caller:
                pinned.append(os.sched_getaffinity(0))
            (kernel(lo, hi) if call is None else call(kernel, lo, hi))
        work(job, note, cpu)

    monkeypatch.setattr(cores._Job, "work", noting)
    net = SpikingNetwork(vgg_mini(channels=(12, 24)), np.random.default_rng(5))
    net.forward(np.zeros((4 * net.tile, 1, 8, 8)), on_tile=meeting.meet)
    assert meeting.helper_ran.is_set() and pinned and all(len(m) == 1 and m < mask for m in pinned)
    for helper in helper_threads():
        assert os.sched_getaffinity(helper.native_id) == mask
    pinned.clear()
    meeting.helper_ran.clear()
    monkeypatch.setattr(cores, "share", meeting.first_meets(cores.share))
    monkeypatch.setattr(cores, "SHARE_MIN", 0)
    _, trainer, data = tiny_run(seed=2, n_train=16, batch=16)
    trainer.train_step(data.x_train, data.y_train, 0.05)
    assert meeting.helper_ran.is_set() and pinned and all(len(m) == 1 and m < mask for m in pinned)
    assert os.sched_getaffinity(0) == mask
    for helper in helper_threads():
        assert os.sched_getaffinity(helper.native_id) == mask
