"""Subcommand surface: artifacts, determinism, resume audit, error lines."""

import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import save_v1
import spikeprune
from spikeprune import checkpoint, cli
from spikeprune.cli import main
from spikeprune.network import SpikingNetwork, vgg_mini

TINY = """
seed = 5
channels = 2, 3
classes = 3
train_samples = 60
test_samples = 30
separation = 4.0
lr = 0.1
batch_size = 16
epochs = 2
N_pre = 2
N_p = 2
N_f = 1
delta_t = 4
s_f = 0.9
N_t = 2
N_1 = 1
N_2 = 2
percent = 0.5
"""
NET = vgg_mini().to_dict()


@pytest.fixture
def tiny_cfg(tmp_path, monkeypatch):
    monkeypatch.setenv("SPIKEPRUNE_OUT", str(tmp_path / "runs"))
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    return str(cfg), tmp_path


def read(path):
    with open(path, "rb") as f:
        return f.read()


def assert_same_files(a, b):
    """Directories a and b hold the same file names with the same bytes."""
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        assert read(a / name) == read(b / name), name


class TestSubcommands:
    def test_train_artifacts(self, tiny_cfg):
        cfg, root = tiny_cfg
        out = str(root / "t")
        assert main(["train", "--config", cfg, "--out", out]) == 0
        assert (root / "t" / "train_log.csv").exists()
        assert (root / "t" / "checkpoint.ckpt").exists()
        header = (root / "t" / "train_log.csv").read_text().splitlines()[0]
        assert header == "epoch,lr,train_loss,train_acc,test_loss,test_acc,sparsity"

    def test_unstructured_artifacts(self, tiny_cfg):
        cfg, root = tiny_cfg
        out = str(root / "u")
        assert main(["prune-unstructured", "--config", cfg, "--out", out]) == 0
        for name in ("pretrain_log.csv", "epoch_log.csv", "prune_log.csv",
                     "mask_history.ckpt", "survival.json", "checkpoint_final.ckpt"):
            assert (root / "u" / name).exists(), name
        report = json.loads((root / "u" / "survival.json").read_text())
        assert 0.0 <= report["survived_via_regeneration"] <= 1.0

    def test_structured_artifacts(self, tiny_cfg):
        cfg, root = tiny_cfg
        out = str(root / "s")
        assert main(["prune-structured", "--config", cfg, "--out", out]) == 0
        for name in ("train_log.csv", "finetune_log.csv", "flops.json",
                     "criticality.csv", "survival.json",
                     "checkpoint_l1.ckpt", "checkpoint_slim.ckpt"):
            assert (root / "s" / name).exists(), name
        flops = json.loads((root / "s" / "flops.json").read_text())
        assert 0.0 <= flops["reduction"] < 1.0
        crit = (root / "s" / "criticality.csv").read_text().splitlines()
        assert crit[0] == "layer,unit,score" and len(crit) > 1

    def test_structured_without_finetune_reports_slim_accuracy(self, tiny_cfg, capsys):
        """N_f = 0: the printed accuracy is the slimmed net's, from one evaluation."""
        cfg, root = tiny_cfg
        Path(cfg).write_text(TINY.replace("N_f = 1", "N_f = 0"))
        out = root / "s0"
        assert main(["prune-structured", "--config", cfg, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split("final test acc ")[1].split(",")[0]
        assert (out / "finetune_log.csv").read_text().splitlines() == [cli.EPOCH_HEADER]
        net, _, meta = cli.load_run_state(str(out / "checkpoint_slim.ckpt"))
        conf = cli.ExperimentConfig.from_dict(meta["config"])
        data = cli.load_dataset(conf.dataset_spec(), np.random.default_rng(conf.seed))
        trainer = cli.Trainer(net, data, cli._train_cfg(conf, 0, "structured"),
                              np.random.default_rng(0))
        assert printed == f"{trainer.evaluate()[1]:.4f}"

    def test_analyze_metrics(self, tiny_cfg):
        cfg, root = tiny_cfg
        main(["train", "--config", cfg, "--out", str(root / "t")])
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "u")])
        ckpt = str(root / "t" / "checkpoint.ckpt")
        assert main(["analyze", "--checkpoint", ckpt, "--metric", "variance",
                     "--out", str(root / "a1")]) == 0
        assert main(["analyze", "--checkpoint", ckpt, "--metric", "cosine",
                     "--out", str(root / "a2")]) == 0
        assert main(["analyze", "--checkpoint", str(root / "u" / "checkpoint_final.ckpt"),
                     "--metric", "survival", "--out", str(root / "a3")]) == 0
        assert (root / "a1" / "variance.csv").exists()
        assert (root / "a2" / "cosine.csv").exists()
        assert (root / "a3" / "survival_recomputed.json").exists()

    def test_analyze_survival_matches_run_report(self, tiny_cfg):
        cfg, root = tiny_cfg
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "u")])
        main(["analyze", "--checkpoint", str(root / "u" / "checkpoint_final.ckpt"),
              "--metric", "survival", "--out", str(root / "a")])
        live = json.loads((root / "u" / "survival.json").read_text())
        recomputed = json.loads((root / "a" / "survival_recomputed.json").read_text())
        assert live == recomputed

    def test_mask_history_is_bit_packed(self, tiny_cfg):
        """One bit per prunable weight per mask, two masks per prune event,
        plus a fixed allowance per entry (name, dims, dtype byte) and for the
        header: float64 masks would take 64 times the mask bytes."""
        cfg, root = tiny_cfg
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "u")])
        hist = root / "u" / "mask_history.ckpt"
        arrays, meta = checkpoint.load(hist)
        n, iterations = meta["total"], meta["iterations"]
        assert iterations > 0 and len(arrays) == 2 * iterations
        assert all(a.dtype == bool and a.size == n for a in arrays.values())
        allowance = 256 + 64 * len(arrays)
        assert hist.stat().st_size <= 2 * -(-n // 8) * iterations + allowance

    def test_mask_history_is_the_save_of_the_unpacked_masks(self, tiny_cfg, monkeypatch):
        """The run writes its packed history as the very bytes checkpoint.save
        writes from the same masks unpacked to bool."""
        cfg, root = tiny_cfg
        results, run = [], cli.prune_loop

        def recording(*a, **kw):
            results.append(run(*a, **kw))
            return results[-1]

        monkeypatch.setattr(cli, "prune_loop", recording)
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "u")])
        (res,) = results
        masks = {f"it{i:04d}.{name}": m for i, pair in enumerate(res.unpacked_history(), start=1)
                 for name, m in zip(("post_prune", "post_regen"), pair)}
        assert all(m.dtype == bool for m in masks.values())
        checkpoint.save(root / "bool.ckpt", masks,
                        {"iterations": len(res.mask_history), "total": res.mask.size})
        assert read(root / "bool.ckpt") == read(root / "u" / "mask_history.ckpt")

    def test_analyze_survival_reads_v1_history(self, tiny_cfg):
        """A version-1 (float64) mask history replays to the same report."""
        cfg, root = tiny_cfg
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "u")])
        ckpt = str(root / "u" / "checkpoint_final.ckpt")
        main(["analyze", "--checkpoint", ckpt, "--metric", "survival", "--out", str(root / "a2")])
        hist = root / "u" / "mask_history.ckpt"
        assert read(hist)[:5] == b"SPKC\x03"
        arrays, meta = checkpoint.load(hist)
        save_v1(hist, arrays, meta)
        main(["analyze", "--checkpoint", ckpt, "--metric", "survival", "--out", str(root / "a1")])
        assert read(root / "a1" / "survival_recomputed.json") == \
            read(root / "a2" / "survival_recomputed.json")

    def test_transition_between_two_structured_runs(self, tiny_cfg):
        cfg, root = tiny_cfg
        main(["prune-structured", "--config", cfg, "--out", str(root / "s1")])
        main(["prune-structured", "--config", cfg, "--out", str(root / "s2"),
              "--seed", "6"])
        rc = main(["analyze",
                   "--checkpoint", str(root / "s1" / "checkpoint_slim.ckpt"),
                   "--checkpoint-b", str(root / "s2" / "checkpoint_slim.ckpt"),
                   "--metric", "transition", "--out", str(root / "a")])
        assert rc == 0
        assert (root / "a" / "transition.csv").exists()


class TestVerify:
    PROPERTIES = {
        "surrogate", "lif-dynamics", "stbp-gradients", "prefix-once", "sparsity-schedule",
        "sparsity-exactness", "regeneration-topk", "r0-equals-gmp", "slim-mask-equivalence",
        "arena-views", "flops-accounting", "criticality-partition", "survival-replay",
        "checkpoint-roundtrip", "determinism",
    }

    def test_fresh_build_passes_all_properties(self, capsys):
        t0 = time.monotonic()
        assert main(["verify"]) == 0
        dt = time.monotonic() - t0
        lines = capsys.readouterr().out.splitlines()
        assert all(line.startswith("PASS ") for line in lines), lines
        names = [line.split(":")[0].removeprefix("PASS ") for line in lines]
        assert sorted(names) == sorted(self.PROPERTIES)
        assert dt < 15.0, f"verify took {dt:.1f}s"

    def test_runs_as_a_module(self):
        """`python -m spikeprune` reaches the same entry point as the script."""
        src = str(Path(spikeprune.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "spikeprune", "verify", "--help"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: spikeprune verify")


class TestDeterminism:
    def test_rerun_byte_identical_csvs(self, tiny_cfg):
        cfg, root = tiny_cfg
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "r1")])
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "r2")])
        assert_same_files(root / "r1", root / "r2")

    def test_structured_rerun_byte_identical(self, tiny_cfg):
        cfg, root = tiny_cfg
        main(["prune-structured", "--config", cfg, "--out", str(root / "r1")])
        main(["prune-structured", "--config", cfg, "--out", str(root / "r2")])
        assert_same_files(root / "r1", root / "r2")

    def test_resume_reproduces_single_command_run(self, tiny_cfg):
        """train (N_pre epochs) then --resume == one prune-unstructured run."""
        cfg, root = tiny_cfg
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "whole")])
        main(["train", "--config", cfg, "--out", str(root / "stage1")])
        rc = main(["prune-unstructured", "--config", cfg, "--out", str(root / "stage2"),
                   "--resume", str(root / "stage1" / "checkpoint.ckpt")])
        assert rc == 0
        for name in os.listdir(root / "stage2"):
            assert read(root / "whole" / name) == read(root / "stage2" / name), name

    def test_checkpoint_save_load_save_identical(self, tiny_cfg):
        cfg, root = tiny_cfg
        main(["train", "--config", cfg, "--out", str(root / "t")])
        p = root / "t" / "checkpoint.ckpt"
        arrays, meta = checkpoint.load(p)
        checkpoint.save(root / "again.ckpt", arrays, meta)
        assert read(p) == read(root / "again.ckpt")


class TestErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("bogus_key = 1\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_malformed_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("lr = banana\n")
        rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "lr" in err

    def test_negative_l1_strength(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("s = -1\n")
        rc = main(["prune-structured", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "key 's': must be >= 0" in capsys.readouterr().err

    def test_negative_seed_override_names_the_key(self, tmp_path, capsys):
        rc = main(["train", "--seed", "-1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["error: key 'seed': must be >= 0, got -1"]

    def test_truncated_checkpoint_every_offset(self, tmp_path, capsys):
        whole = tmp_path / "whole.ckpt"
        checkpoint.save(whole, {"a": np.arange(6.0).reshape(2, 3), "b": np.array(2.5),
                                "mask/c": np.array([True, False, True])},
                        {"network": {}, "note": "small"})
        blob = whole.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            rc = main(["analyze", "--checkpoint", str(cut), "--metric", "variance",
                       "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err.splitlines()
            assert rc == 2, n
            assert len(err) == 1 and err[0].startswith("error:") and "cut.ckpt" in err[0], n

    def test_diverging_lr_names_epoch_step_and_lr(self, tiny_cfg, capsys):
        cfg, root = tiny_cfg
        with open(cfg, "a") as f:
            f.write("lr = 1e300\n")
        err = self._one_error_line(["train", "--config", cfg, "--out", str(root / "t")], capsys)
        assert "epoch 0, step 2, lr 1e+300" in err

    def _one_error_line(self, argv, capsys):
        rc = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1 and err[0].startswith("error:"), err
        return err[0]

    @pytest.mark.parametrize("metric", ["variance", "cosine"])
    def test_checkpoint_without_network_meta(self, tmp_path, capsys, metric):
        """A mask-history file is a valid checkpoint but not a run state."""
        hist = tmp_path / "mask_history.ckpt"
        checkpoint.save(hist, {"it0001.post_prune": np.ones(4), "it0001.post_regen": np.ones(4)},
                        {"iterations": 1, "total": 4})
        err = self._one_error_line(["analyze", "--checkpoint", str(hist), "--metric", metric,
                                    "--out", str(tmp_path / "o")], capsys)
        assert "mask_history.ckpt" in err and "network" in err

    @pytest.mark.parametrize("meta, key", [
        ({"network": {}}, "input_shape"),
        ({"network": {**NET, "layers": [{"kind": "flatten", "hn_channels": 2}]}}, "hn_channels"),
        ({"network": {**NET, "lif": {"uau": 1.0}}}, "uau"),
        ({"network": NET}, "config"),
        ({"network": NET, "config": {"seed": "x"}}, "config"),
        ({"network": NET, "config": [1, 2]}, "config"),
    ])
    def test_malformed_run_state_meta(self, tmp_path, capsys, meta, key):
        """Each file holds every array of NET, so only its meta is at fault."""
        net = SpikingNetwork(vgg_mini(), np.random.default_rng(0))
        bad = tmp_path / "bad.ckpt"
        checkpoint.save(bad, {**net.parameters(), **net.state_arrays()}, meta)
        err = self._one_error_line(["analyze", "--checkpoint", str(bad), "--metric", "variance",
                                    "--out", str(tmp_path / "o")], capsys)
        assert "bad.ckpt" in err and key in err

    def test_bit_flip_in_every_byte(self, tmp_path, capsys):
        """Flipping one bit of any byte of a run state, headers, data and the
        CRC32 trailer alike, ends in one error: line. The flipped bit cycles
        through the byte so that every bit position is hit; the magic and
        version bytes get all eight."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\nchannels = 2\nclasses = 2\ntrain_samples = 8\n"
                       "test_samples = 4\nbatch_size = 4\nepochs = 1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        blob = (tmp_path / "t" / "checkpoint.ckpt").read_bytes()
        assert blob[4] == 3
        flips = [(o, bit) for o in range(5) for bit in range(8)]
        flips += [(o, o % 8) for o in range(5, len(blob))]
        bad = tmp_path / "bad.ckpt"
        for o, bit in flips:
            flipped = bytearray(blob)
            flipped[o] ^= 1 << bit
            bad.write_bytes(flipped)
            rc = main(["analyze", "--checkpoint", str(bad), "--metric", "variance",
                       "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err.splitlines()
            assert rc == 2 and len(err) == 1 and err[0].startswith("error:"), (o, bit, rc, err)
            assert "bad.ckpt" in err[0], (o, bit, err)

    @pytest.mark.parametrize("key, value", [("it0002.post_regen", None), ("iterations", None),
                                            ("total", None),
                                            ("it0002.post_regen", np.ones(3, dtype=bool))])
    def test_survival_history_lacks_entry_or_key(self, tmp_path, capsys, key, value):
        """A missing entry or meta key, or a mask of the wrong size (value)."""
        masks = {f"it{i:04d}.{phase}": np.ones(4, dtype=bool)
                 for i in (1, 2) for phase in ("post_prune", "post_regen")}
        meta = {"iterations": 2, "total": 4}
        target = meta if key in meta else masks
        if value is None:
            del target[key]
        else:
            target[key] = value
        checkpoint.save(tmp_path / "mask_history.ckpt", masks, meta)
        err = self._one_error_line(["analyze", "--checkpoint",
                                    str(tmp_path / "checkpoint_final.ckpt"),
                                    "--metric", "survival", "--out", str(tmp_path / "o")], capsys)
        assert "mask_history.ckpt" in err and key in err

    def test_checkpoint_array_outside_network(self, tmp_path, capsys):
        odd = tmp_path / "odd.ckpt"
        checkpoint.save(odd, {"layers.3.weight": np.ones((2, 1, 3, 3))},
                        {"network": vgg_mini().to_dict()})
        err = self._one_error_line(["analyze", "--checkpoint", str(odd), "--metric", "variance",
                                    "--out", str(tmp_path / "o")], capsys)
        assert "odd.ckpt" in err and "layers.3.weight" in err

    @pytest.mark.parametrize("name, value", [("layers.5.weight", np.nan),
                                             ("layers.0.weight", np.inf),
                                             ("layers.1.running_var", -1.0)])
    def test_checkpoint_value_out_of_range(self, tmp_path, capsys, name, value):
        """A non-finite parameter or a negative running variance is refused at load."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\nchannels = 2\nclasses = 2\ntrain_samples = 8\n"
                       "test_samples = 4\nbatch_size = 4\nepochs = 1\n")
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
        arrays, meta = checkpoint.load(tmp_path / "t" / "checkpoint.ckpt")
        arrays[name].flat[0] = value
        checkpoint.save(tmp_path / "bad.ckpt", arrays, meta)
        err = self._one_error_line(["analyze", "--checkpoint", str(tmp_path / "bad.ckpt"),
                                    "--metric", "variance", "--out", str(tmp_path / "o")], capsys)
        assert "bad.ckpt" in err and repr(name) in err

    @pytest.mark.parametrize("name", ["layers.0.weight", "layers.1.running_var"])
    @pytest.mark.parametrize("command", ["analyze", "resume"])
    def test_checkpoint_missing_an_array(self, tiny_cfg, capsys, command, name):
        """A run state without one of its network's parameters or running
        statistics is refused, not filled with the initial values."""
        cfg, root = tiny_cfg
        assert main(["train", "--config", cfg, "--out", str(root / "t")]) == 0
        capsys.readouterr()
        arrays, meta = checkpoint.load(root / "t" / "checkpoint.ckpt")
        del arrays[name]
        bad = root / "bad.ckpt"
        checkpoint.save(bad, arrays, meta)
        argv = (["analyze", "--checkpoint", str(bad), "--metric", "variance"]
                if command == "analyze" else
                ["prune-unstructured", "--config", cfg, "--resume", str(bad)])
        err = self._one_error_line(argv + ["--out", str(root / "o")], capsys)
        assert "bad.ckpt" in err and repr(name) in err

    @pytest.mark.parametrize("layer", [0, 99])
    def test_transition_plan_outside_the_network(self, tiny_cfg, capsys, layer):
        """A slim checkpoint whose plan names a conv layer, or a layer the
        network does not have, is refused naming the file and the layer."""
        cfg, root = tiny_cfg
        assert main(["prune-structured", "--config", cfg, "--out", str(root / "s")]) == 0
        capsys.readouterr()
        slim = root / "s" / "checkpoint_slim.ckpt"
        arrays, meta = checkpoint.load(slim)
        meta["plan"] = {"keep": {str(layer): [0]}, "widths": {str(layer): 2}}
        bad = root / "bad.ckpt"
        checkpoint.save(bad, arrays, meta)
        err = self._one_error_line(["analyze", "--checkpoint", str(bad), "--checkpoint-b",
                                    str(slim), "--metric", "transition",
                                    "--out", str(root / "o")], capsys)
        assert "bad.ckpt" in err and f"layer {layer} " in err

    def _idx_run(self, tmp_path, images: bytes, labels: bytes):
        def idx(arr):
            return bytes([0, 0, 0x08, arr.ndim]) + struct.pack(f">{arr.ndim}I", *arr.shape) \
                + arr.tobytes()

        files = {"train_images": images, "train_labels": labels,
                 "test_images": idx(np.zeros((4, 8, 8), dtype=np.uint8)),
                 "test_labels": idx(np.zeros(4, dtype=np.uint8))}
        cfg = tmp_path / "idx.cfg"
        lines = ["dataset = idx"]
        for key, blob in files.items():
            (tmp_path / f"{key}.idx").write_bytes(blob)
            lines.append(f"idx_{key} = {tmp_path / f'{key}.idx'}")
        cfg.write_text("\n".join(lines) + "\n")
        return ["train", "--config", str(cfg), "--out", str(tmp_path / "o")]

    def test_idx_header_truncated_in_dims(self, tmp_path, capsys):
        images = bytes([0, 0, 0x08, 3]) + struct.pack(">I", 5)      # 1 of 3 dims present
        labels = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 5) + bytes(5)
        err = self._one_error_line(self._idx_run(tmp_path, images, labels), capsys)
        assert "train_images.idx" in err and "truncated" in err

    def test_idx_image_label_count_mismatch(self, tmp_path, capsys):
        images = bytes([0, 0, 0x08, 3]) + struct.pack(">3I", 5, 8, 8) + bytes(5 * 64)
        labels = bytes([0, 0, 0x08, 1]) + struct.pack(">I", 4) + bytes(4)
        err = self._one_error_line(self._idx_run(tmp_path, images, labels), capsys)
        assert "train_images.idx" in err and "train_labels.idx" in err

    @pytest.mark.parametrize("code, labels", [(0x08, np.array([0, 1, 7, 2, 0], np.uint8)),
                                              (0x09, np.array([0, 1, -1, 2, 0], np.int8)),
                                              (0x0D, np.array([0, 1, 1.5, 2, 0], ">f4"))],
                             ids=["uint8_7", "int8_minus_1", "float_1.5"])
    def test_idx_label_outside_classes(self, tmp_path, capsys, code, labels):
        """A label that is not an integer in [0, classes) is refused, naming the
        label file, before it can index the loss or train as another class."""
        images = bytes([0, 0, 0x08, 3]) + struct.pack(">3I", 5, 8, 8) + bytes(5 * 64)
        blob = bytes([0, 0, code, 1]) + struct.pack(">I", 5) + labels.tobytes()
        err = self._one_error_line(self._idx_run(tmp_path, images, blob), capsys)
        assert "train_labels.idx" in err and "[0, 3)" in err

    def test_nonpositive_normalize_std(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("normalize_std = 0\n")
        err = self._one_error_line(["train", "--config", str(bad),
                                    "--out", str(tmp_path / "o")], capsys)
        assert "normalize_std" in err

    def test_resume_seed_mismatch(self, tiny_cfg, capsys):
        cfg, root = tiny_cfg
        main(["train", "--config", cfg, "--out", str(root / "t")])
        rc = main(["prune-unstructured", "--config", cfg, "--seed", "99",
                   "--out", str(root / "x"),
                   "--resume", str(root / "t" / "checkpoint.ckpt")])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, named", [
        ("classes = 3", "classes = 4", "dataset has classes = 3, the config's 4"),
        ("channels = 2, 3", "channels = 5, 6",
         "network has layer 0 out_channels = 2, the config's 5"),
    ])
    def test_resume_config_mismatch(self, tiny_cfg, capsys, old, new, named):
        """A checkpoint whose dataset or network differs from the config's is
        refused with one error line naming the difference, before any training."""
        cfg, root = tiny_cfg
        main(["train", "--config", cfg, "--out", str(root / "t")])
        capsys.readouterr()
        other = root / "other.cfg"
        other.write_text(TINY.replace(old, new))
        err = self._one_error_line(["prune-unstructured", "--config", str(other),
                                    "--out", str(root / "x"),
                                    "--resume", str(root / "t" / "checkpoint.ckpt")], capsys)
        assert named in err
        assert not (root / "x" / "checkpoint_final.ckpt").exists()

    def test_delta_t_exceeding_budget(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY.replace("delta_t = 4", "delta_t = 1000"))
        rc = main(["prune-unstructured", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "delta_t" in capsys.readouterr().err

    def test_final_sparsity_leaving_no_weight_names_s_f(self, tmp_path, capsys):
        """s_f = 0.992 leaves round(0.864) = 1 of TINY's 108 prunable weights
        under GMP, but the last event's regeneration target (r = 0.5) none."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(TINY.replace("s_f = 0.9", "s_f = 0.992") + "r = 0.5\n")
        argv = ["prune-unstructured", "--config", str(cfg), "--out", str(tmp_path / "o")]
        err = self._one_error_line(argv, capsys)
        assert "key 's_f'" in err and "none of the 108 prunable weights" in err
        assert main(argv + ["--gmp-only"]) == 0

    @pytest.mark.parametrize("case", ["train-idx", "structured-idx", "resume-seed",
                                      "budget-after-pretraining", "analyze-checkpoint",
                                      "analyze-checkpoint-b"])
    def test_refused_run_leaves_no_directory(self, tiny_cfg, capsys, case):
        """A run refused by any check exits 2 with one error line and writes
        nothing, not even its output directory."""
        cfg, root = tiny_cfg
        idx = root / "idx.cfg"
        idx.write_text(TINY + "dataset = idx\n" + "".join(
            f"idx_{split}_{kind} = {root / 'missing.idx'}\n"
            for split in ("train", "test") for kind in ("images", "labels")))
        budget = root / "budget.cfg"
        budget.write_text(TINY.replace("delta_t = 4", "delta_t = 50"))
        bad = root / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint")
        if case == "resume-seed":
            assert main(["train", "--config", cfg, "--out", str(root / "t")]) == 0
            capsys.readouterr()
        argv = {
            "train-idx": ["train", "--config", str(idx)],
            "structured-idx": ["prune-structured", "--config", str(idx)],
            "resume-seed": ["prune-unstructured", "--config", cfg, "--seed", "99",
                            "--resume", str(root / "t" / "checkpoint.ckpt")],
            "budget-after-pretraining": ["prune-unstructured", "--config", str(budget)],
            "analyze-checkpoint": ["analyze", "--checkpoint", str(bad), "--metric", "cosine"],
            "analyze-checkpoint-b": ["analyze", "--checkpoint", str(bad),
                                     "--metric", "transition"],
        }[case]
        self._one_error_line(argv + ["--out", str(root / "o")], capsys)
        assert not (root / "o").exists()

    def test_survival_zeros_on_r0_run(self, tiny_cfg):
        cfg, root = tiny_cfg
        with open(cfg, "a") as f:
            f.write("r = 0.0\n")
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "z")])
        main(["analyze", "--checkpoint", str(root / "z" / "checkpoint_final.ckpt"),
              "--metric", "survival", "--out", str(root / "za")])
        lines = (root / "za" / "survival.csv").read_text().splitlines()[1:]
        assert lines and all(line.endswith(",0.0") for line in lines)

    def test_gmp_only_flag_matches_r0(self, tiny_cfg):
        """--gmp-only and r=0 keep identical masks (baseline reduction)."""
        cfg, root = tiny_cfg
        with open(cfg, "a") as f:
            f.write("r = 0.0\n")
        main(["prune-unstructured", "--config", cfg, "--out", str(root / "a")])
        main(["prune-unstructured", "--config", cfg, "--gmp-only",
              "--out", str(root / "b")])
        arrays_a, _ = checkpoint.load(root / "a" / "checkpoint_final.ckpt")
        arrays_b, _ = checkpoint.load(root / "b" / "checkpoint_final.ckpt")
        for name in arrays_a:
            if name.startswith("mask/"):
                np.testing.assert_array_equal(arrays_a[name], arrays_b[name])


class TestAllocatorThresholds:
    def test_sets_mmap_then_trim_threshold(self, monkeypatch):
        calls = []

        class Mallopt:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class Libc:
            mallopt = Mallopt()

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        cli.fix_allocator_thresholds()
        assert calls == [(cli.M_MMAP_THRESHOLD, 32 << 20), (cli.M_TRIM_THRESHOLD, 64 << 20),
                         (cli.M_ARENA_MAX, 1)]
        assert Libc.mallopt.argtypes == (cli.ctypes.c_int, cli.ctypes.c_int)

    @pytest.mark.parametrize("missing", [AttributeError, OSError])
    def test_quiet_without_mallopt(self, monkeypatch, missing):
        """A C library without mallopt, or none to open: nothing happens."""
        class Libc:
            def __getattr__(self, name):
                raise AttributeError(name)

        def cdll(name):
            if missing is OSError:
                raise OSError("no C library")
            return Libc()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli.fix_allocator_thresholds() is None


# One-epoch toy base for single-key edits: (its value, a boundary value) per key.
GRAMMAR_BASE = {
    "seed": ("5", "0"), "channels": ("2, 3", "1, 1"), "kernel": ("3", "1"), "pool": ("2", "1"),
    "classes": ("3", "2"), "train_samples": ("24", "3"), "test_samples": ("12", "1"),
    "image": ("1x8x8", "1x4x4"), "separation": ("4.0", "0"), "normalize_mean": ("0", "-3"),
    "normalize_std": ("1", "1e-9"), "lr": ("0.1", "1e-12"), "momentum": ("0.9", "0"),
    "batch_size": ("8", "1"), "T": ("3", "1"), "tau": ("1.5", "1"),
    "v_threshold": ("1.0", "1e-9"), "v_reset": ("0.0", "-5"), "wd": ("5e-4", "0"),
    "epochs": ("1", "1"), "N_p": ("1", "1"), "N_f": ("1", "0"), "N_pre": ("0", "0"),
    "delta_t": ("2", "1"), "s_f": ("0.5", "0.999"), "r": ("0.5", "0"), "N_t": ("1", "1"),
    "N_1": ("1", "0"), "N_2": ("1", "0"), "s": ("1e-4", "0"), "percent": ("0.5", "0"),
}
WRONG_ARITY = {"channels": "", "image": "1x8x8x8"}


@st.composite
def single_key_edits(draw):
    key = draw(st.sampled_from(sorted(GRAMMAR_BASE)))
    valid, boundary = GRAMMAR_BASE[key]
    value = draw(st.sampled_from([valid, boundary, "0", "-1", "nan", "inf",
                                  WRONG_ARITY.get(key, "1, 2")]))
    command = draw(st.sampled_from(["train", "prune-unstructured", "prune-structured"]))
    return key, value, command


class TestConfigGrammar:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(single_key_edits())
    def test_single_key_edit_runs_or_names_its_key(self, edit):
        """Every edit either runs to exit 0, or exits 2 with one error line
        that names the edited key, whether validation or the run refuses it."""
        key, value, command = edit
        text = "".join(f"{k} = {v if k != key else value}\n"
                       for k, (v, _) in GRAMMAR_BASE.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.cfg"
            cfg.write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([command, "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == [], (key, value, command, lines)
        else:
            assert rc == 2 and len(lines) == 1 and lines[0].startswith("error:"), lines
            assert f"key '{key}'" in lines[0], (key, value, command, lines)
