"""Experiment configuration: a simple `key = value` text format.

Lines are `key = value`; blank lines and `#` comments are ignored. Keys keep
the hyperparameter names of the experiment tables (N_p, N_f, wd, delta_t,
s_f, r, N_t, N_1, N_2, s, percent) next to the global training knobs. An
empty file yields the documented defaults. Epoch-count defaults are scaled
to desk size; the global defaults (lr, momentum, batch_size, T, tau,
v_threshold, v_reset) are the published settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .data import DatasetSpec
from .errors import ConfigError

# r pairings for the published final sparsities; nearest s_f wins.
R_BY_SPARSITY = ((0.90, 0.5), (0.95, 0.2), (0.98, 0.1))


def default_regen_ratio(s_f: float) -> float:
    return min(R_BY_SPARSITY, key=lambda p: abs(p[0] - s_f))[1]


@dataclass
class ExperimentConfig:
    seed: int = 0
    out: str = ""

    # architecture
    arch: str = "vgg_mini"
    channels: tuple = (12, 24)
    kernel: int = 3
    pool: int = 2

    # dataset
    dataset: str = "synthetic"
    classes: int = 3
    train_samples: int = 600
    test_samples: int = 300
    image: tuple = (1, 8, 8)
    separation: float = 5.0
    idx_train_images: str = ""
    idx_train_labels: str = ""
    idx_test_images: str = ""
    idx_test_labels: str = ""
    normalize_mean: float = 0.0
    normalize_std: float = 1.0

    # global training settings
    lr: float = 0.3
    momentum: float = 0.9
    batch_size: int = 128
    T: int = 5
    tau: float = 4.0 / 3.0
    v_threshold: float = 1.0
    v_reset: float = 0.0
    wd: float = 5e-4
    lr_schedule: str = ""               # "" = per-mode default
    epochs: int = 30                    # dense training budget

    # unstructured pruning (Algorithm-1 loop)
    N_p: int = 20
    N_f: int = 20
    N_pre: int = 0
    delta_t: int = 10
    s_f: float = 0.9
    r: float = -1.0                     # -1 = per-mode default
    aggregation: str = "max"

    # structured pruning
    N_t: int = 30
    N_1: int = 15
    N_2: int = 25
    s: float = 1e-4
    percent: float = 0.5

    def regen_ratio(self, mode: str) -> float:
        if self.r >= 0.0:
            return self.r
        return default_regen_ratio(self.s_f) if mode == "unstructured" else 0.1

    def schedule_kind(self, mode: str) -> str:
        if self.lr_schedule:
            return self.lr_schedule
        return "step" if mode == "structured" else "cosine"

    def dataset_spec(self) -> DatasetSpec:
        return DatasetSpec(
            source=self.dataset,
            classes=self.classes,
            train_samples=self.train_samples,
            test_samples=self.test_samples,
            shape=tuple(self.image),
            separation=self.separation,
            idx_train_images=self.idx_train_images,
            idx_train_labels=self.idx_train_labels,
            idx_test_images=self.idx_test_images,
            idx_test_labels=self.idx_test_labels,
            normalize_mean=self.normalize_mean,
            normalize_std=self.normalize_std,
        )

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        cfg = ExperimentConfig()
        for f in fields(cfg):
            if f.name in d:
                v = d[f.name]
                setattr(cfg, f.name, tuple(v) if isinstance(getattr(cfg, f.name), tuple) else v)
        return cfg


_INT_KEYS = {"seed", "kernel", "pool", "classes", "train_samples", "test_samples",
             "batch_size", "T", "epochs", "N_p", "N_f", "N_pre", "delta_t",
             "N_t", "N_1", "N_2"}
_FLOAT_KEYS = {"separation", "normalize_mean", "normalize_std", "lr", "momentum",
               "tau", "v_threshold", "v_reset", "wd", "s_f", "r", "s", "percent"}
_STR_KEYS = {"out", "arch", "dataset", "lr_schedule", "aggregation",
             "idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels"}
_TUPLE_KEYS = {"channels", "image"}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            value = float(raw)
        elif key in _TUPLE_KEYS:
            sep = "x" if "x" in raw else ","
            return tuple(int(p.strip()) for p in raw.split(sep))
        else:
            return raw
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    known = _INT_KEYS | _FLOAT_KEYS | _STR_KEYS | _TUPLE_KEYS
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    _validate(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


def _validate(cfg: ExperimentConfig):
    if not 0.0 < cfg.s_f < 1.0:
        raise ConfigError(f"key 's_f': must be in (0, 1), got {cfg.s_f}")
    for key in ("epochs", "N_p", "N_t"):
        if getattr(cfg, key) < 1:
            raise ConfigError(f"key {key!r}: must be >= 1, got {getattr(cfg, key)}")
    for key in ("N_f", "N_pre"):
        if getattr(cfg, key) < 0:
            raise ConfigError(f"key {key!r}: must be >= 0, got {getattr(cfg, key)}")
    if cfg.r >= 0 and not cfg.r < 1.0:
        raise ConfigError(f"key 'r': must be in [0, 1), got {cfg.r}")
    if cfg.s < 0:
        raise ConfigError(f"key 's': must be >= 0, got {cfg.s}")
    if not 0.0 <= cfg.percent < 1.0:
        raise ConfigError(f"key 'percent': must be in [0, 1), got {cfg.percent}")
    if cfg.delta_t <= 0:
        raise ConfigError(f"key 'delta_t': must be positive, got {cfg.delta_t}")
    if cfg.batch_size <= 0:
        raise ConfigError(f"key 'batch_size': must be positive, got {cfg.batch_size}")
    if cfg.T < 1:
        raise ConfigError(f"key 'T': must be >= 1, got {cfg.T}")
    if cfg.tau < 1.0:
        raise ConfigError(f"key 'tau': must be >= 1, got {cfg.tau}")
    if cfg.aggregation not in ("max", "mean"):
        raise ConfigError(f"key 'aggregation': must be max or mean, got {cfg.aggregation!r}")
    if cfg.lr_schedule not in ("", "cosine", "step"):
        raise ConfigError(f"key 'lr_schedule': must be cosine or step, got {cfg.lr_schedule!r}")
    if not cfg.normalize_std > 0:
        raise ConfigError(f"key 'normalize_std': must be > 0, got {cfg.normalize_std}")
    if cfg.dataset not in ("synthetic", "idx"):
        raise ConfigError(f"key 'dataset': must be synthetic or idx, got {cfg.dataset!r}")
