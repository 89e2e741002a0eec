import json
import struct
import threading

import numpy as np
import pytest

from spikeprune.verify import tiny_run


def helper_names(k):
    """Names of the spikeprune.cores helpers that a k-core mask may use."""
    return {f"spikeprune-helper-{j}" for j in range(1, k)}


def helper_threads():
    """The spikeprune.cores helper threads started so far."""
    return [t for t in threading.enumerate() if t.name.startswith("spikeprune-helper-")]


class Meeting:
    """Makes a helper thread run a piece or tile of a shared run. meet(),
    called in each piece or tile, holds the caller's thread until a helper
    has called it too (or 10 s); helper_ran is set once one has. The caller
    is the thread that made the Meeting."""

    def __init__(self):
        self.caller, self.helper_ran = threading.current_thread(), threading.Event()

    def meet(self, *args):
        if threading.current_thread() is self.caller:
            self.helper_ran.wait(10)
        else:
            self.helper_ran.set()

    def first_meets(self, share):
        """share (spikeprune.cores.share), except that the first two-piece
        kernel run while helper_ran is clear meets a helper in each piece."""
        def sharing(kernel, pieces, also=None):
            if len(pieces) > 1 and not self.helper_ran.is_set():
                return share(lambda lo, hi: (self.meet(), kernel(lo, hi)), pieces, also)
            return share(kernel, pieces, also)
        return sharing


@pytest.fixture
def meeting():
    return Meeting()


@pytest.fixture
def tiny():
    return tiny_run()


def save_v1(path, arrays: dict, meta: dict):
    """Write a checkpoint in the version-1 layout: no dtype byte, every
    entry float64 (what save wrote before bool entries were bit-packed)."""
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [b"SPKC\x01", struct.pack("<Q", len(meta_blob)), meta_blob,
             struct.pack("<Q", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        blob = name.encode("utf-8")
        parts += [struct.pack("<I", len(blob)), blob, struct.pack("<I", arr.ndim),
                  struct.pack(f"<{arr.ndim}Q", *arr.shape), arr.tobytes()]
    with open(path, "wb") as f:
        f.write(b"".join(parts))
