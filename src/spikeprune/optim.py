"""SGD with momentum, learning-rate schedules, and the cross-entropy + L1-on-gamma loss."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DimensionError

LR_DROP_FACTOR = 0.1        # the step schedule's lr multiplier at each milestone


@dataclass
class TrainConfig:
    lr: float = 0.3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 128
    epochs: int = 20
    lr_schedule: str = "cosine"          # "cosine" | "step"
    lr_drop_epochs: tuple = (80, 120)

    def __post_init__(self):
        if self.lr <= 0:
            raise ArgumentError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ArgumentError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.lr_schedule not in ("cosine", "step"):
            raise ArgumentError(f"unknown lr schedule {self.lr_schedule!r}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate for a given epoch. Cosine decays to ~0; step drops 10x per milestone."""
    if not 0 <= epoch < cfg.epochs:
        raise ArgumentError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if cfg.lr_schedule == "cosine":
        return cfg.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / cfg.epochs))
    drops = sum(1 for d in cfg.lr_drop_epochs if epoch >= d)
    return cfg.lr * LR_DROP_FACTOR ** drops


class SGD:
    """Classical momentum over one flat parameter vector:
    v <- m*v + g + wd*p ; p <- p - lr*v.

    Weight decay applies to the leading n_decayed entries only (the network
    arena puts batch-norm gamma/beta after them; the L1 penalty handles
    gamma). A boolean mask covers the leading mask.size entries: masked
    parameters are re-zeroed (value and velocity) after every step so pruned
    connections stay exactly 0.
    """

    def __init__(self, size: int, n_decayed: int, cfg: TrainConfig):
        self.cfg = cfg
        self.n_decayed = n_decayed
        self.velocity = np.zeros(size)

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float,
             mask: np.ndarray | None = None):
        g = grads
        if self.cfg.weight_decay:
            g = grads.copy()
            g[:self.n_decayed] += self.cfg.weight_decay * params[:self.n_decayed]
        v = self.velocity
        v *= self.cfg.momentum
        v += g
        params -= lr * v
        if mask is not None:
            params[:mask.size] *= mask
            v[:mask.size] *= mask


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_ce_l1(logits: np.ndarray, targets: np.ndarray, gammas: dict | None = None,
               lambda_l1: float = 0.0):
    """Mean cross-entropy plus lambda * sum|gamma|.

    Returns (loss, dlogits, gamma_l1_grads). The |gamma| subgradient at 0 is 0.
    """
    n = logits.shape[0]
    if n == 0:
        raise ArgumentError("empty batch")
    if targets.shape[0] != n:
        raise DimensionError(f"{n} logit rows vs {targets.shape[0]} targets")
    p = softmax(logits)
    nll = -np.log(np.maximum(p[np.arange(n), targets], 1e-300))
    loss = nll.mean()
    dlogits = p
    dlogits[np.arange(n), targets] -= 1.0
    dlogits /= n
    l1_grads = {}
    if gammas:
        for name, g in gammas.items():
            loss += lambda_l1 * np.abs(g).sum()
            l1_grads[name] = lambda_l1 * np.sign(g)
    return loss, dlogits, l1_grads


def accuracy(logits: np.ndarray, targets: np.ndarray) -> float:
    return float((logits.argmax(axis=1) == targets).mean())
