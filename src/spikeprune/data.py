"""Datasets: seeded synthetic Gaussian class blobs in image shape, and a
reader for the standard IDX byte format so MNIST-class corpora work too.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError


@dataclass
class DatasetSpec:
    source: str = "synthetic"            # "synthetic" | "idx"
    classes: int = 3
    train_samples: int = 600
    test_samples: int = 300
    shape: tuple = (1, 8, 8)
    separation: float = 4.0
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    normalize_mean: float = 0.0
    normalize_std: float = 1.0


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray


def _balanced_labels(n: int, classes: int) -> np.ndarray:
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    return np.repeat(np.arange(classes), counts)


def _blob_split(means: np.ndarray, n: int, shape: tuple, rng: np.random.Generator):
    classes, dim = means.shape
    labels = _balanced_labels(n, classes)
    x = means[labels] + rng.standard_normal((n, dim))
    perm = rng.permutation(n)
    return x[perm].reshape((n,) + shape), labels[perm]


def make_synthetic(spec: DatasetSpec, rng: np.random.Generator) -> Dataset:
    """Gaussian class blobs with unit noise around means `separation` from origin.

    Draw order (fixed for reproducibility): class directions, train noise,
    train shuffle, test noise, test shuffle.
    """
    if spec.classes < 2:
        raise ArgumentError(f"need >= 2 classes, got {spec.classes}")
    dim = int(np.prod(spec.shape))
    if dim == 0 or spec.train_samples < spec.classes or spec.test_samples < 1:
        raise ArgumentError(f"degenerate dataset spec: shape={spec.shape}, "
                            f"n={spec.train_samples}/{spec.test_samples}")
    dirs = rng.standard_normal((spec.classes, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = spec.separation * dirs
    x_train, y_train = _blob_split(means, spec.train_samples, spec.shape, rng)
    x_test, y_test = _blob_split(means, spec.test_samples, spec.shape, rng)
    return Dataset(x_train, y_train, x_test, y_test)


_IDX_DTYPES = {
    0x08: np.uint8, 0x09: np.int8, 0x0B: ">i2",
    0x0C: ">i4", 0x0D: ">f4", 0x0E: ">f8",
}


def load_idx(path: str) -> np.ndarray:
    """Read one IDX file (big-endian, per the MNIST distribution format)."""
    with open(path, "rb") as f:
        header = f.read(4)
        if len(header) != 4 or header[0] != 0 or header[1] != 0:
            raise ArgumentError(f"{path}: not an IDX file")
        code, ndim = header[2], header[3]
        if code not in _IDX_DTYPES:
            raise ArgumentError(f"{path}: unknown IDX type code 0x{code:02x}")
        raw = f.read(4 * ndim)
        if len(raw) != 4 * ndim:
            raise ArgumentError(f"{path}: IDX header truncated: {ndim} dimensions need "
                                f"{4 * ndim} bytes, found {len(raw)}")
        dims = struct.unpack(f">{ndim}I", raw)
        dtype = np.dtype(_IDX_DTYPES[code])
        count = int(np.prod(dims))
        body = f.read()
        if len(body) < count * dtype.itemsize:
            raise ArgumentError(f"{path}: IDX data truncated: shape {dims} needs "
                                f"{count * dtype.itemsize} bytes, found {len(body)}")
        data = np.frombuffer(body, dtype=dtype, count=count)
    return data.reshape(dims).astype(np.float64)


def load_idx_dataset(spec: DatasetSpec) -> Dataset:
    def prep(images_path, labels_path, limit):
        x = load_idx(images_path)
        y = load_idx(labels_path)
        bad = y[~np.isin(y, np.arange(spec.classes))]
        if bad.size:
            raise ArgumentError(f"{labels_path}: label {bad[0]:g} is not an integer in "
                                f"[0, {spec.classes}) (key 'classes')")
        if x.shape[0] != y.shape[0]:
            raise ArgumentError(f"{images_path} holds {x.shape[0]} images but "
                                f"{labels_path} holds {y.shape[0]} labels")
        if x.ndim == 3:
            x = x[:, None, :, :]
        x = (x / 255.0 - spec.normalize_mean) / spec.normalize_std
        if limit:
            x, y = x[:limit], y[:limit]
        return x, y.astype(np.int64)

    x_train, y_train = prep(spec.idx_train_images, spec.idx_train_labels, spec.train_samples)
    x_test, y_test = prep(spec.idx_test_images, spec.idx_test_labels, spec.test_samples)
    return Dataset(x_train, y_train, x_test, y_test)


def load_dataset(spec: DatasetSpec, rng: np.random.Generator) -> Dataset:
    if spec.source == "synthetic":
        return make_synthetic(spec, rng)
    if spec.source == "idx":
        return load_idx_dataset(spec)
    raise ArgumentError(f"unknown dataset source {spec.source!r}")
