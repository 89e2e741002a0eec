"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic     5 bytes   b"SPKC" + format version (2)
    meta_len  uint64    length of the JSON metadata blob
    meta      bytes     UTF-8 JSON, keys sorted, compact separators
    n_entries uint64
    entries, sorted by name, each:
        name_len uint32, name UTF-8 bytes,
        ndim uint32, dims uint64 * ndim,
        dtype    1 byte   b"f" or b"b"
        data     b"f": float64 little-endian, prod(dims) values, row-major
                 b"b": bool as np.packbits of the row-major values,
                       ceil(prod(dims)/8) bytes, padding bits zero

Version 1 files have no dtype byte; every entry is float64. `load` reads
both versions; `save` writes version 2, storing bool arrays bit-packed and
every other array as float64.

Save -> load -> save is byte-identical because entry order and JSON key
order are canonical and bool entries load back as bool.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

MAGIC_PREFIX = b"SPKC"
VERSION = 2
FLOAT, BOOL = b"f", b"b"


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open a temporary file beside `path` and move it over `path` with
    os.replace when the block exits cleanly; on an exception the temporary
    file is removed and `path` is left as it was. No fsync: this guards
    against a process dying mid-write, not against power loss."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save(path, arrays: dict, meta: dict):
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as f:
        f.write(MAGIC_PREFIX + bytes([VERSION]))
        f.write(struct.pack("<Q", len(meta_blob)))
        f.write(meta_blob)
        f.write(struct.pack("<Q", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name])
            if arr.dtype == np.bool_:
                code, data = BOOL, np.packbits(arr.reshape(-1)).tobytes()
            else:
                arr = np.ascontiguousarray(arr, dtype=np.float64)
                code, data = FLOAT, arr.astype("<f8").tobytes()
            blob = name.encode("utf-8")
            f.write(struct.pack("<I", len(blob)))
            f.write(blob)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(code)
            f.write(data)


def load(path):
    """Returns (arrays, meta). Float entries load as float64, bool entries as
    bool; every array is writeable. ValueError naming the path and byte
    offset if the file ends before a field it declares, names an unknown
    dtype, or sets a padding bit of a bool entry."""
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
        if len(magic) < 5 or magic[:4] != MAGIC_PREFIX:
            raise ValueError(f"{path}: not a spikeprune checkpoint (magic {magic!r})")
        version = magic[4]
        if version not in (1, VERSION):
            raise ValueError(f"{path}: unsupported checkpoint format version {version}")
        (meta_len,) = unpack("<Q")
        meta = json.loads(take(meta_len).decode("utf-8"))
        (n_entries,) = unpack("<Q")
        arrays = {}
        for _ in range(n_entries):
            (name_len,) = unpack("<I")
            name = take(name_len).decode("utf-8")
            (ndim,) = unpack("<I")
            shape = unpack(f"<{ndim}Q")
            n = math.prod(shape)
            code_at = f.tell()
            code = FLOAT if version == 1 else take(1)
            if code == FLOAT:
                data = np.frombuffer(take(8 * n), dtype="<f8")
                arrays[name] = data.astype(np.float64).reshape(shape)
            elif code == BOOL:
                packed = np.frombuffer(take(-(-n // 8)), dtype=np.uint8)
                bits = np.unpackbits(packed)
                if bits[n:].any():
                    raise ValueError(f"{path}: entry {name!r} sets padding bits at byte "
                                     f"offset {f.tell() - 1}")
                arrays[name] = bits[:n].view(bool).reshape(shape)
            else:
                raise ValueError(f"{path}: entry {name!r} has unknown dtype code {code!r} "
                                 f"at byte offset {code_at}")
    return arrays, meta
