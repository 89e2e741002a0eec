import json
import struct

import numpy as np
import pytest

from spikeprune.verify import tiny_run


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
