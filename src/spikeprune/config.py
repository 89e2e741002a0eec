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

    # architecture (a vgg_mini stack)
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


_KINDS = {f.name: f.type for f in fields(ExperimentConfig)}    # "int", "float", "str", "tuple"
# The admissible values of each bounded number; a tuple key's rule holds for
# each of its entries. Every interval's upper end is open.
_RULES = {
    "seed": ">= 0", "channels": ">= 1", "kernel": ">= 1", "pool": ">= 1", "classes": ">= 2",
    "train_samples": ">= 0", "test_samples": ">= 0", "image": ">= 1", "separation": ">= 0",
    "normalize_std": "> 0", "lr": "> 0", "momentum": "in [0, 1)", "batch_size": ">= 1",
    "T": ">= 1", "tau": ">= 1", "wd": ">= 0", "epochs": ">= 1", "N_p": ">= 1", "N_f": ">= 0",
    "N_pre": ">= 0", "delta_t": ">= 1", "s_f": "in (0, 1)", "N_t": ">= 1", "N_1": ">= 0",
    "N_2": ">= 0", "s": ">= 0", "percent": "in [0, 1)",
}
_CHOICES = {"dataset": ("synthetic", "idx"), "lr_schedule": ("", "cosine", "step"),
            "aggregation": ("max", "mean")}


def _parse_value(key: str, raw: str):
    raw, kind = raw.strip(), _KINDS[key]
    try:
        if kind == "tuple":
            return tuple(int(p) for p in raw.split("x" if "x" in raw else ","))
        value = {"int": int, "float": float, "str": str}[kind](raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r}") from None
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _parse_value(key, raw))
    validate(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


def _admits(rule: str, v) -> bool:
    op, bound = rule.split(" ", 1)
    if op != "in":
        return v > float(bound) if op == ">" else v >= float(bound)
    lo, hi = (float(b) for b in bound[1:-1].split(","))
    return (lo < v if bound[0] == "(" else lo <= v) and v < hi


def validate(cfg: ExperimentConfig):
    """Raise ConfigError, naming the key, for the first value that breaks a rule."""
    for key, rule in _RULES.items():
        value = getattr(cfg, key)
        if not all(_admits(rule, v) for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"key {key!r}: must be {rule}, got {value}")
    for key, choices in _CHOICES.items():
        if getattr(cfg, key) not in choices:
            raise ConfigError(f"key {key!r}: must be one of {', '.join(map(repr, choices))}, "
                              f"got {getattr(cfg, key)!r}")
    if cfg.r >= 0 and not cfg.r < 1.0:
        raise ConfigError(f"key 'r': must be in [0, 1), got {cfg.r}")
    if not cfg.v_threshold > cfg.v_reset:
        raise ConfigError(f"key 'v_threshold': must exceed key 'v_reset' ({cfg.v_reset}), "
                          f"got {cfg.v_threshold}")
    if cfg.kernel % 2 == 0:
        raise ConfigError(f"key 'kernel': must be odd, so that padding kernel // 2 keeps "
                          f"the image size, got {cfg.kernel}")
    if len(cfg.image) != 3:
        raise ConfigError(f"key 'image': must be CxHxW, got {cfg.image}")
    side = cfg.pool ** len(cfg.channels)    # each channels entry adds one pool stage
    if min(cfg.image[1:]) < side:
        raise ConfigError(f"key 'image': {len(cfg.channels)} stages (key 'channels') of "
                          f"key 'pool' = {cfg.pool} need height and width >= {side}, "
                          f"got {cfg.image}")
    if cfg.dataset == "synthetic" and not (cfg.train_samples >= cfg.classes and cfg.test_samples):
        raise ConfigError(f"key 'train_samples' = {cfg.train_samples}, key 'test_samples' = "
                          f"{cfg.test_samples}: a synthetic set needs one training sample per "
                          f"class (key 'classes' = {cfg.classes}) and one test sample")
