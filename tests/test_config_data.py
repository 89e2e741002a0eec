"""Config parsing, defaults, synthetic data determinism, and the IDX reader."""

import struct

import numpy as np
import pytest

from spikeprune.config import (
    _FLOAT_KEYS,
    ExperimentConfig,
    default_regen_ratio,
    parse_config_text,
)
from spikeprune.data import DatasetSpec, load_idx, make_synthetic
from spikeprune.errors import ArgumentError, ConfigError


class TestConfig:
    def test_empty_file_gives_defaults(self):
        cfg = parse_config_text("")
        assert cfg.lr == 0.3
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 128
        assert cfg.T == 5
        assert cfg.tau == pytest.approx(4.0 / 3.0)
        assert cfg.v_threshold == 1.0
        assert cfg.v_reset == 0.0
        assert cfg.wd == 5e-4
        assert cfg.s == 1e-4

    def test_regen_ratio_pairing(self):
        # published pairings (s_f, r): (0.90, 0.5), (0.95, 0.2), (0.98, 0.1)
        cfg = parse_config_text("s_f = 0.95\n")
        assert cfg.regen_ratio("unstructured") == 0.2
        cfg = parse_config_text("s_f = 0.9\n")
        assert cfg.regen_ratio("unstructured") == 0.5
        cfg = parse_config_text("s_f = 0.98\n")
        assert cfg.regen_ratio("unstructured") == 0.1
        cfg = parse_config_text("s_f = 0.9\nr = 0.25\n")
        assert cfg.regen_ratio("unstructured") == 0.25

    def test_nearest_pairing_for_other_sparsities(self):
        assert default_regen_ratio(0.91) == 0.5
        assert default_regen_ratio(0.97) == 0.1

    def test_malformed_number_names_key(self):
        with pytest.raises(ConfigError, match="lr"):
            parse_config_text("lr = fast\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="warp_speed"):
            parse_config_text("warp_speed = 9\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\nseed = 3   # trailing\n")
        assert cfg.seed == 3

    def test_tuple_keys(self):
        cfg = parse_config_text("image = 1x8x8\nchannels = 4, 6\n")
        assert cfg.image == (1, 8, 8)
        assert cfg.channels == (4, 6)

    def test_schedule_default_per_mode(self):
        cfg = parse_config_text("")
        assert cfg.schedule_kind("unstructured") == "cosine"
        assert cfg.schedule_kind("structured") == "step"
        cfg = parse_config_text("lr_schedule = step\n")
        assert cfg.schedule_kind("unstructured") == "step"

    def test_validation_errors(self):
        with pytest.raises(ConfigError, match="s_f"):
            parse_config_text("s_f = 1.5\n")
        with pytest.raises(ConfigError, match="delta_t"):
            parse_config_text("delta_t = 0\n")
        with pytest.raises(ConfigError, match="aggregation"):
            parse_config_text("aggregation = median\n")

    @pytest.mark.parametrize("key", sorted(_FLOAT_KEYS))
    def test_non_finite_float_names_key(self, key):
        """nan and inf are refused at parse time, before any default or range
        check could let them through."""
        for raw in ("nan", "inf", "-inf", "NaN"):
            with pytest.raises(ConfigError, match=f"key '{key}': must be finite"):
                parse_config_text(f"{key} = {raw}\n")

    def test_roundtrip_dict(self):
        cfg = parse_config_text("seed = 5\nchannels = 2,3\n")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestSyntheticData:
    def test_same_seed_identical_bytes(self):
        spec = DatasetSpec(classes=3, train_samples=30, test_samples=12)
        a = make_synthetic(spec, np.random.default_rng(9))
        b = make_synthetic(spec, np.random.default_rng(9))
        assert a.x_train.tobytes() == b.x_train.tobytes()
        assert a.y_train.tobytes() == b.y_train.tobytes()
        assert a.x_test.tobytes() == b.x_test.tobytes()

    def test_zero_separation_indistinguishable(self):
        """With separation 0 every class has the same (zero) mean."""
        spec = DatasetSpec(classes=2, train_samples=400, test_samples=10,
                           shape=(1, 4, 4), separation=0.0)
        d = make_synthetic(spec, np.random.default_rng(10))
        m0 = d.x_train[d.y_train == 0].mean(axis=0)
        m1 = d.x_train[d.y_train == 1].mean(axis=0)
        # class means differ only by sampling noise around a shared center
        assert np.abs(m0 - m1).max() < 0.5

    def test_large_separation_linear_probe(self):
        """A closed-form least-squares probe reaches >= 99% train accuracy."""
        spec = DatasetSpec(classes=3, train_samples=300, test_samples=10,
                           shape=(1, 6, 6), separation=8.0)
        d = make_synthetic(spec, np.random.default_rng(11))
        x = d.x_train.reshape(300, -1)
        x = np.hstack([x, np.ones((300, 1))])
        onehot = np.eye(3)[d.y_train]
        coef, *_ = np.linalg.lstsq(x, onehot, rcond=None)
        pred = (x @ coef).argmax(axis=1)
        assert (pred == d.y_train).mean() >= 0.99

    def test_labels_balanced_and_in_range(self):
        spec = DatasetSpec(classes=4, train_samples=10, test_samples=8)
        d = make_synthetic(spec, np.random.default_rng(12))
        assert set(np.unique(d.y_train)) <= set(range(4))
        counts = np.bincount(d.y_train, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ArgumentError):
            make_synthetic(DatasetSpec(classes=1), np.random.default_rng(0))
        with pytest.raises(ArgumentError):
            make_synthetic(DatasetSpec(shape=(0, 2, 2)), np.random.default_rng(0))


class TestIdx:
    def _write_idx(self, path, arr, code):
        arr = np.asarray(arr)
        with open(path, "wb") as f:
            f.write(bytes([0, 0, code, arr.ndim]))
            f.write(struct.pack(f">{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())

    def test_ubyte_images_roundtrip(self, tmp_path):
        imgs = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        p = tmp_path / "imgs.idx"
        self._write_idx(p, imgs, 0x08)
        out = load_idx(p)
        np.testing.assert_array_equal(out, imgs.astype(float))

    def test_labels_roundtrip(self, tmp_path):
        labels = np.array([0, 1, 2, 1], dtype=np.uint8)
        p = tmp_path / "labels.idx"
        self._write_idx(p, labels, 0x08)
        np.testing.assert_array_equal(load_idx(p), labels.astype(float))

    def test_big_endian_int32(self, tmp_path):
        vals = np.array([1, 256, 65536], dtype=">i4")
        p = tmp_path / "ints.idx"
        self._write_idx(p, vals, 0x0C)
        np.testing.assert_array_equal(load_idx(p), [1.0, 256.0, 65536.0])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.idx"
        p.write_bytes(b"\x01\x02\x03\x04rest")
        with pytest.raises(ArgumentError):
            load_idx(p)
