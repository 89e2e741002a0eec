"""Self-describing binary checkpoint container.

Layout (all integers little-endian):

    magic     5 bytes   b"SPKC" + format version (3)
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
    crc32     uint32    zlib.crc32 of every byte before it

Version 1 files have no dtype byte; every entry is float64. Versions 1 and 2
have no checksum. `load` reads all three, and refuses bytes past the end of
the layout; `save` writes version 3, storing bool arrays bit-packed and
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
import zlib

import numpy as np

MAGIC_PREFIX = b"SPKC"
VERSION = 3
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
    """A value (n, packed) is a flat bool entry of n values, packed already."""
    meta_blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path) as f:
        crc = 0

        def put(data: bytes):
            nonlocal crc
            crc = zlib.crc32(data, crc)
            f.write(data)

        put(MAGIC_PREFIX + bytes([VERSION]))
        put(struct.pack("<Q", len(meta_blob)))
        put(meta_blob)
        put(struct.pack("<Q", len(arrays)))
        for name in sorted(arrays):
            arr = arrays[name]
            if isinstance(arr, tuple):
                shape, code, data = (arr[0],), BOOL, arr[1].tobytes()
            elif (arr := np.asarray(arr)).dtype == np.bool_:
                shape, code, data = arr.shape, BOOL, np.packbits(arr.reshape(-1)).tobytes()
            else:
                shape, code, data = arr.shape, FLOAT, arr.astype("<f8").tobytes()
            blob = name.encode("utf-8")
            put(struct.pack("<I", len(blob)))
            put(blob)
            put(struct.pack("<I", len(shape)))
            put(struct.pack(f"<{len(shape)}Q", *shape))
            put(code)
            put(data)
        f.write(struct.pack("<I", crc))


def load(path):
    """Returns (arrays, meta). Float entries load as float64, bool entries as
    bool; every array is writeable. ValueError naming the path and byte
    offset if the file ends before a field it declares, names an unknown
    dtype, sets a padding bit of a bool entry, holds text that is not
    UTF-8 or metadata that is not JSON, or goes on past its layout;
    ValueError naming the path if a version-3 checksum does not match."""
    crc = 0
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(n: int) -> bytes:
            nonlocal crc
            at = f.tell()
            if n > size - at:
                raise ValueError(f"{path}: truncated checkpoint: {n} bytes needed at "
                                 f"byte offset {at}, {size - at} left")
            data = f.read(n)
            crc = zlib.crc32(data, crc)
            return data

        def unpack(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        def text(n: int) -> str:
            at = f.tell()
            try:
                return take(n).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: text at byte offset {at} is not UTF-8: "
                                 f"{exc.reason}") from None

        magic = f.read(5)
        if len(magic) < 5 or magic[:4] != MAGIC_PREFIX:
            raise ValueError(f"{path}: not a spikeprune checkpoint (magic {magic!r})")
        crc = zlib.crc32(magic)
        version = magic[4]
        if version not in (1, 2, VERSION):
            raise ValueError(f"{path}: unsupported checkpoint format version {version}")
        (meta_len,) = unpack("<Q")
        meta_at = f.tell()
        try:
            meta = json.loads(text(meta_len))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: metadata at byte offset {meta_at} is not JSON: "
                             f"{exc}") from None
        (n_entries,) = unpack("<Q")
        arrays = {}
        for _ in range(n_entries):
            (name_len,) = unpack("<I")
            name = text(name_len)
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
        if version == VERSION:
            expected = crc              # reading the trailer moves crc on
            (stored,) = unpack("<I")
            if stored != expected:
                raise ValueError(f"{path}: checksum mismatch: the file stores CRC32 "
                                 f"{stored:#010x}, its bytes give {expected:#010x}")
        if f.tell() != size:
            raise ValueError(f"{path}: {size - f.tell()} bytes past the end of the "
                             f"checkpoint at byte offset {f.tell()}")
    return arrays, meta
