"""The second core: a helper thread for the per-row kernels of a training step,
core pinning, and OpenBLAS's thread count.

Inside `training()`, a kernel that calls `halves(kernel, n, size)` runs
kernel(lo, hi) over two fixed halves of [0, n), [0, n // 2) and [n // 2, n):
the caller and one persistent helper thread each take the next half nobody
has taken yet. A kernel writing fewer than SHARE_MIN elements runs as one
range on the caller. Outside a region, and in any thread but the one that
opened it, the kernel runs as one range. Which pieces a call has depends
only on its shape, and a kernel whose halves give its one-range result bit
for bit gives it whoever ran which half, on one core or two. The helper
starts on first use, never at import, and runs each half in a copy of the
caller's context, so numpy's error state carries over.

From the first shared call of a region to its end, the caller is pinned to
the first core of its affinity mask and the helper to the second, and
OpenBLAS runs one thread, so that two Python threads never contend with a
BLAS pool for two cores. The masks of both threads and the BLAS count are
restored when the region ends, also when it raises. On one core, where the host refuses the
pinning, or where OpenBLAS's thread count is out of reach, both halves run
on the caller.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
import queue
import threading

# OpenBLAS's thread-count calls, by the names numpy's wheels (scipy-openblas,
# 64-bit integers) and plain builds export them.
_BLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _find_blas():
    """(get, set) of the thread count of the BLAS numpy calls, or None."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for get_name, set_name in _BLAS_SYMBOLS:
        get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and put is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


BLAS = _find_blas()


def pin(cpu: int) -> bool:
    """Pin the calling thread to one core; False where the host refuses."""
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return False
    return True


_blas_lock = threading.Lock()
_blas_users = 0         # open second_thread() blocks, in any thread
_blas_count = None      # OpenBLAS's thread count before the first of them


@contextlib.contextmanager
def second_thread():
    """For a block that runs Python threads on two or more cores: OpenBLAS at
    one thread, then the caller's affinity mask as before, and OpenBLAS's
    count as before the first of the blocks open in any thread. Yields the
    caller's cores in order."""
    global _blas_users, _blas_count
    mask = os.sched_getaffinity(0)
    get, put = BLAS
    with _blas_lock:
        if not _blas_users:
            _blas_count = get()
            put(1)
        _blas_users += 1
    try:
        yield sorted(mask)
    finally:
        with _blas_lock:
            _blas_users -= 1
            if not _blas_users:
                put(_blas_count)
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, mask)


class _Job:
    """One halves() call: its pieces go to whichever thread asks first."""

    def __init__(self, kernel, pieces, cpu):
        self.kernel = kernel
        self.cpu = cpu
        self.context = contextvars.copy_context()
        self._pending = iter(pieces)
        self._left = len(pieces)
        self._lock = threading.Lock()
        self.done = threading.Lock()        # held until the last piece has run
        if pieces:
            self.done.acquire()
        self.errors = {}                # piece start -> the error it raised

    def work(self, call=None, cpu=None):
        """Run pieces nobody has taken, each as call(kernel, lo, hi), or
        kernel(lo, hi) where call is None. Given a cpu, the thread pins itself
        to it before the first piece it takes: the caller waits for that piece,
        so the region's release of the helper's mask comes after the pin, and
        a job whose pieces the caller has already run pins nothing."""
        while True:
            with self._lock:
                piece = next(self._pending, None)
            if piece is None:
                return
            if cpu is not None:
                pin(cpu)
                cpu = None
            try:
                if call is None:
                    self.kernel(*piece)
                else:
                    call(self.kernel, *piece)
            except BaseException as exc:    # re-raised by the caller
                self.errors[piece[0]] = exc
            with self._lock:
                self._left -= 1
                if not self._left:
                    self.done.release()


class _Helper:
    """The persistent helper thread: it runs the pieces it takes from each
    job, pinned to the core the job names from its first piece on."""

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._loop, name="spikeprune-helper", daemon=True)
        self.thread.start()

    def _loop(self):
        while True:
            job = self.jobs.get()
            job.work(job.context.run, job.cpu)
            job = None      # the kernel's arrays are the caller's to free

    def release(self, mask):
        """Give the idle helper the caller's mask back. Left pinned between
        training steps, it cost the evaluations that followed 5-15% on the
        2-vCPU benchmark host (desk_regen, six interleaved rounds)."""
        with contextlib.suppress(OSError):
            os.sched_setaffinity(self.thread.native_id, mask)


# Elements below which a kernel runs as one range on the caller: waking the
# helper (25-90 us) and trading the interpreter lock cost more than half of
# it. With every kernel shared, a (4, 8) net step at batch 16 took 2.2-2.6x
# the one-thread step; from 2**17 elements up it took 0.93x, the (64, 128)
# net at batch 8 0.80x and the desk net at batch 128 0.71x (one process,
# interleaved, OpenBLAS at one thread).
SHARE_MIN = 1 << 17
_helper = None
_start_lock = threading.Lock()
_local = threading.local()          # .region: this thread's open training region


def _the_helper() -> _Helper:
    global _helper
    with _start_lock:
        if _helper is None:
            _helper = _Helper()
        return _helper


class _Region:
    """One training() block. The caller is pinned, and OpenBLAS set to one
    thread, on the first halves() call that shares its work."""

    def __init__(self, stack: contextlib.ExitStack):
        self.stack = stack
        self.started = False
        self.cpu = None             # the helper's core, or None: the caller runs all

    def helper_cpu(self):
        if not self.started:
            self.started = True
            mask = os.sched_getaffinity(0)
            if BLAS is not None and len(mask) > 1:
                cpus = sorted(self.stack.enter_context(second_thread()))
                if pin(cpus[0]):
                    self.cpu = cpus[1]
                    self.stack.callback(_the_helper().release, mask)
        return self.cpu


@contextlib.contextmanager
def training():
    """Run the block's halves() calls as two halves each, on two cores where
    the host allows (module docstring). A nested region is the outer one.

    The block's results are those of the block run on the caller alone with
    OpenBLAS at one thread, bit for bit. Under a multi-threaded OpenBLAS they
    can differ from that block's in the last bit: from the first shared call
    on, the whole-batch products too run at one thread, and OpenBLAS splits a
    product among its threads by shape (the desk net at batch 7 is such a
    shape). A block that shares no kernel leaves the count alone."""
    if getattr(_local, "region", None) is not None:
        yield
        return
    with contextlib.ExitStack() as stack:
        _local.region = _Region(stack)
        try:
            yield
        finally:
            _local.region = None


def halves(kernel, n: int, size: int, also=None, split: bool = True):
    """kernel(lo, hi) over [0, n): in a training region as two halves, else
    as one range on the caller. It is one range also where split is False
    or size, the element count of the largest array the kernel writes over
    [0, n), is below SHARE_MIN: a rule on the shape alone. also(), if given,
    runs on the caller first, while the helper takes a piece. Returns after
    every piece has run; the error of the earliest piece that failed, or
    else also()'s, is raised then."""
    region = getattr(_local, "region", None)
    if region is None or size < SHARE_MIN or (also is None and not split):
        if also is not None:
            also()
        kernel(0, n)
        return
    mid = n // 2 if split else 0
    cpu = region.helper_cpu()
    job = _Job(kernel, [p for p in ((0, mid), (mid, n)) if p[1] > p[0]], cpu)
    if cpu is not None:
        _the_helper().jobs.put(job)
    try:
        if also is not None:
            also()
    finally:
        job.work()
        job.done.acquire()
        if job.errors:
            raise job.errors[min(job.errors)]
