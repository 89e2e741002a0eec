"""Every thread the package runs: a pool of persistent helper threads, core
pinning, and OpenBLAS's thread count.

`share(kernel, pieces, also)` runs kernel(lo, hi) over each (lo, hi) of
pieces: the caller and up to len(mask) - 1 persistent helpers each take the
next piece nobody has taken yet, so a thread slowed by a busy core takes
fewer. also(), if given, runs on the caller first. The helpers start on
first use, never at import, and run each piece in a copy of the caller's
context, so numpy's error state carries over. A kernel whose pieces write
disjoint rows gives the same result whoever ran which piece, on one core or
several. An inference forward shares its tiles this way (spikeprune.network).

Inside `training()`, a kernel that calls `halves(kernel, n, size)` is shared
as two fixed halves of [0, n), [0, n // 2) and [n // 2, n). A kernel writing
fewer than SHARE_MIN elements runs as one range on the caller. Outside a
region, and in any thread but the one that opened it, the kernel runs as one
range. Which pieces a call has depends only on its shape.

While pieces are shared, the caller is pinned to the first core of its
affinity mask and helper k to core k, and OpenBLAS runs one thread, so that
Python threads never contend with a BLAS pool for the cores. A training
region holds this from its first shared call to its end; a share() call
outside one holds it for itself. When it ends, also when a piece raises, the
caller and every started helper get the caller's mask back, and OpenBLAS its
count. On one core, where the host refuses the pinning, or where OpenBLAS's
thread count is out of reach, the caller runs every piece.
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
_blas_users = 0         # open regions that share pieces, in any thread
_blas_count = None      # OpenBLAS's thread count before the first of them


@contextlib.contextmanager
def _one_blas_thread():
    """OpenBLAS at one thread; the count as before the first of the blocks
    open in any thread comes back when the last of them ends."""
    global _blas_users, _blas_count
    get, put = BLAS
    with _blas_lock:
        if not _blas_users:
            _blas_count = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if not _blas_users:
                put(_blas_count)


class _Job:
    """One share() call: its pieces go to whichever thread asks first."""

    def __init__(self, kernel, pieces, cpus):
        self.kernel = kernel
        self.cpus = cpus
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
    """Persistent helper k (the caller is thread 0): it runs the pieces it
    takes from each job, pinned to the job's core k from its first piece on."""

    def __init__(self, k: int):
        self.k = k
        self.jobs = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._loop, name=f"spikeprune-helper-{k}",
                                       daemon=True)
        self.thread.start()

    def _loop(self):
        while True:
            job = self.jobs.get()
            job.work(job.context.copy().run, job.cpus[self.k])
            job = None      # the kernel's arrays are the caller's to free


# Elements below which a kernel runs as one range on the caller: waking the
# helper (25-90 us) and trading the interpreter lock cost more than half of
# it. With every kernel shared, a (4, 8) net step at batch 16 took 2.2-2.6x
# the one-thread step; from 2**17 elements up it took 0.93x, the (64, 128)
# net at batch 8 0.80x and the desk net at batch 128 0.71x (one process,
# interleaved, OpenBLAS at one thread).
SHARE_MIN = 1 << 17
_pool: list[_Helper] = []           # helper k at _pool[k - 1]
_start_lock = threading.Lock()
_local = threading.local()          # .region: this thread's open training region


def _helpers(count: int) -> list:
    """Helpers 1 to count, started on first use."""
    with _start_lock:
        while len(_pool) < count:
            _pool.append(_Helper(len(_pool) + 1))
        return _pool[:count]


def _give_back(mask):
    """The caller's mask to it and to every started helper. Left pinned
    between training steps, the helper cost the evaluations that followed
    5-15% on the 2-vCPU benchmark host (desk_regen, six interleaved rounds)."""
    for tid in [0] + [h.thread.native_id for h in list(_pool)]:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(tid, mask)


class _Region:
    """Where shared pieces run pinned: one training() block, or one share()
    call outside such a block. The caller is pinned, and OpenBLAS set to one
    thread, on the first call that shares its pieces."""

    def __init__(self, stack: contextlib.ExitStack):
        self.stack = stack
        self.cpus = None        # sorted mask, the caller on its first core; [] if it runs all

    def cores(self) -> list:
        if self.cpus is None:
            self.cpus = []
            mask = os.sched_getaffinity(0)
            if BLAS is not None and len(mask) > 1:
                self.stack.enter_context(_one_blas_thread())
                self.stack.callback(_give_back, mask)
                if pin(min(mask)):
                    self.cpus = sorted(mask)
        return self.cpus


@contextlib.contextmanager
def training():
    """Run the block's halves() calls as two halves each, shared with the
    helpers where the host allows (module docstring). A nested region is the
    outer one.

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


def share(kernel, pieces, also=None):
    """kernel(lo, hi) over each (lo, hi) of pieces, shared between the caller
    and the helpers (module docstring); also(), if given, runs on the caller
    first, while the helpers take pieces. One piece and no also() run on the
    caller. Returns after every piece has run; the error of the earliest
    piece that failed, or else also()'s, is raised then."""
    threads = len(pieces) + (also is not None)
    with contextlib.ExitStack() as stack:
        region = getattr(_local, "region", None) or _Region(stack)
        cpus = region.cores() if threads > 1 else []
        job = _Job(kernel, pieces, cpus)
        for helper in _helpers(min(len(cpus), threads) - 1) if cpus else ():
            helper.jobs.put(job)
        try:
            if also is not None:
                also()
        finally:
            job.work()
            job.done.acquire()
            if job.errors:
                raise job.errors[min(job.errors)]


def halves(kernel, n: int, size: int, also=None, split: bool = True):
    """kernel(lo, hi) over [0, n): in a training region shared as two halves,
    else as one range on the caller. It is one range also where split is
    False or size, the element count of the largest array the kernel writes
    over [0, n), is below SHARE_MIN: a rule on the shape alone. also() and
    errors are as in share()."""
    region = getattr(_local, "region", None)
    if region is None or size < SHARE_MIN or (also is None and not split):
        if also is not None:
            also()
        kernel(0, n)
        return
    mid = n // 2 if split else 0
    share(kernel, [p for p in ((0, mid), (mid, n)) if p[1] > p[0]], also)
