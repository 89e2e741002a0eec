"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic     5 bytes   b"SPKC" + format version (1)
    meta_len  uint64    length of the JSON metadata blob
    meta      bytes     UTF-8 JSON, keys sorted, compact separators
    n_entries uint64
    entries, sorted by name, each:
        name_len uint32, name UTF-8 bytes,
        ndim uint32, dims uint64 * ndim,
        data float64 little-endian, prod(dims) values, row-major

Save -> load -> save is byte-identical because entry order and JSON key
order are canonical.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"SPKC\x01"


def save(path, arrays: dict, meta: dict):
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(meta_blob)))
        f.write(meta_blob)
        f.write(struct.pack("<Q", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            blob = name.encode("utf-8")
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def load(path):
    """Returns (arrays, meta); ValueError naming the path and byte offset if
    the file ends before a field it declares."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(n: int) -> bytes:
            at = f.tell()
            if n > size - at:
                raise ValueError(f"{path}: truncated checkpoint: {n} bytes needed at "
                                 f"byte offset {at}, {size - at} left")
            return f.read(n)

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        magic = f.read(5)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a spikeprune checkpoint (magic {magic!r})")
        (meta_len,) = unpack("<Q")
        meta = json.loads(take(meta_len).decode("utf-8"))
        (n_entries,) = unpack("<Q")
        arrays = {}
        for _ in range(n_entries):
            (name_len,) = unpack("<I")
            name = take(name_len).decode("utf-8")
            (ndim,) = unpack("<I")
            shape = unpack(f"<{ndim}Q")
            data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
            arrays[name] = data.astype(np.float64).reshape(shape)
    return arrays, meta
