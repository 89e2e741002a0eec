import json
import struct

import numpy as np
import pytest

from spikeprune.data import DatasetSpec, make_synthetic
from spikeprune.network import SpikingNetwork, vgg_mini
from spikeprune.optim import TrainConfig
from spikeprune.train import Trainer


def tiny_run(seed=0, channels=(2, 3), n_train=24, n_test=12, batch=8, epochs=6,
             image=(1, 8, 8), classes=3, lr=0.05, separation=4.0):
    """Small net + blobs + trainer wired the way the harness does it."""
    rng = np.random.default_rng(seed)
    data = make_synthetic(
        DatasetSpec(classes=classes, train_samples=n_train, test_samples=n_test,
                    shape=image, separation=separation), rng)
    net = SpikingNetwork(vgg_mini(input_shape=image, channels=channels,
                                  classes=classes), rng)
    cfg = TrainConfig(lr=lr, momentum=0.9, weight_decay=5e-4, batch_size=batch,
                      epochs=epochs)
    return net, Trainer(net, data, cfg, rng), data


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
