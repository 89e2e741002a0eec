"""Training loop around one network: batching, SGD steps over the
network's flat parameter arena, evaluation, per-epoch CSV rows, and run-state
checkpoints (parameters, BN running statistics, the prune mask as per-tensor
bool entries, and the RNG stream) from which a run resumes bit-identically.
The optimizer velocity is not saved: every phase starts a fresh SGD.
"""

from __future__ import annotations

import numpy as np

from . import checkpoint
from .data import Dataset
from .errors import NumericError
from .network import NetworkSpec, SpikingNetwork
from .optim import SGD, TrainConfig, accuracy, loss_ce_l1, lr_at
from .unstructured import sparsity

EPOCH_HEADER = "epoch,lr,train_loss,train_acc,test_loss,test_acc,sparsity"
PRUNE_HEADER = "iteration,step,s_t,s_prime,k,regenerated_fraction,train_acc"
EVAL_SLICE = 256            # rows per slice of the summed test loss


def fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header: str, rows):
    with checkpoint.atomic_write(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


class Trainer:
    def __init__(self, net: SpikingNetwork, data: Dataset, cfg: TrainConfig,
                 rng: np.random.Generator):
        self.net = net
        self.data = data
        self.cfg = cfg
        self.rng = rng
        self.optim = SGD(net.flat.size, net.n_decayed, cfg)
        self.steps_per_epoch = -(-data.x_train.shape[0] // cfg.batch_size)
        self.steps_done = 0

    def batches(self):
        """One epoch of shuffled training batches (one permutation draw)."""
        n = self.data.x_train.shape[0]
        perm = self.rng.permutation(n)
        for i in range(0, n, self.cfg.batch_size):
            sel = perm[i:i + self.cfg.batch_size]
            yield self.data.x_train[sel], self.data.y_train[sel]

    def train_step(self, x, y, lr: float, mask: np.ndarray | None = None,
                   lambda_l1: float = 0.0):
        """One SGD step; mask is a bool vector over net.flat[:net.n_prunable].

        Raises NumericError naming the epoch, the step and the lr when the
        step meets a non-finite value or leaves a non-finite loss or
        parameter; numpy's overflow warnings are silenced in its place."""
        self.steps_done += 1
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                params = self.net.parameters()
                logits = self.net.forward(x, training=True)
                gammas = ({name: p for name, p in params.items() if name.endswith(".gamma")}
                          if lambda_l1 > 0 else None)
                loss, dlogits, l1_grads = loss_ce_l1(logits, y, gammas, lambda_l1)
                acc = accuracy(logits, y)
                self.net.backward(dlogits)
                grads = self.net.grads()
                for name, g in l1_grads.items():
                    grads[name] += g
                self.optim.step(self.net.flat, self.net.grad, lr, mask)
            if not np.isfinite(loss):
                raise NumericError(f"non-finite loss {float(loss)}")
            if not np.isfinite(self.net.flat).all():
                raise NumericError("the SGD step left a non-finite parameter")
        except NumericError as exc:
            epoch = (self.steps_done - 1) // self.steps_per_epoch
            raise NumericError(f"training diverged at epoch {epoch}, step {self.steps_done}, "
                               f"lr {float(lr)!r}: {exc}") from None
        return float(loss), acc

    def evaluate(self):
        """(loss, accuracy) on the test split from one inference forward; the
        loss is summed over EVAL_SLICE-row slices of the logits."""
        x, y = self.data.x_test, self.data.y_test
        logits = self.net.forward(x, training=False)
        losses = 0.0
        for i in range(0, len(y), EVAL_SLICE):
            yb = y[i:i + EVAL_SLICE]
            loss, _, _ = loss_ce_l1(logits[i:i + EVAL_SLICE], yb)
            losses += loss * len(yb)
        hits = (logits.argmax(axis=1) == y).sum()
        return float(losses / len(y)), float(hits / len(y))

    def run_epochs(self, epochs: int, lambda_l1: float = 0.0, mask=None, after_step=None) -> list:
        """One EPOCH_HEADER row per epoch. Every step trains under mask; the
        row's sparsity is mask's at the epoch's end (0.0 without one).
        after_step(acc) runs after each step and may change mask."""
        rows = []
        for epoch in range(epochs):
            lr = lr_at(epoch, self.cfg)
            losses, accs = [], []
            for x, y in self.batches():
                loss, acc = self.train_step(x, y, lr, mask=mask, lambda_l1=lambda_l1)
                losses.append(loss)
                accs.append(acc)
                if after_step is not None:
                    after_step(acc)
            test_loss, test_acc = self.evaluate()
            rows.append((epoch, lr, float(np.mean(losses)), float(np.mean(accs)),
                         test_loss, test_acc, 0.0 if mask is None else sparsity(mask)))
        return rows


# ---------------------------------------------------------------------------
# Full-state checkpoints
# ---------------------------------------------------------------------------

def save_run_state(path, net: SpikingNetwork, meta_extra: dict | None = None,
                   mask: np.ndarray | None = None, rng: np.random.Generator | None = None):
    """Write parameters, running statistics and, given a bool prune mask over
    net.flat[:net.n_prunable], one bool `mask/<param>` entry per weight tensor."""
    arrays = {**net.parameters(), **net.state_arrays()}
    if mask is not None:
        for name, m in net.split(mask).items():
            arrays[f"mask/{name}"] = m
    meta = {"network": net.spec.to_dict()}
    if rng is not None:
        meta["rng_state"] = rng.bit_generator.state
    if meta_extra:
        meta.update(meta_extra)
    checkpoint.save(path, arrays, meta)


def meta_entry(path, meta: dict, key: str, parse):
    """parse(meta[key]); a missing or malformed entry (a lookup, type or value
    error inside parse) becomes one ValueError naming the file and the key."""
    if key not in meta:
        raise ValueError(f"{path}: the checkpoint's meta has no {key!r} entry")
    try:
        return parse(meta[key])
    except KeyError as exc:
        raise ValueError(f"{path}: the meta's {key!r} entry has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {key!r} entry in the meta: {exc}") from None


def load_run_state(path):
    """Returns (net, arrays, meta); mask entries (and the velocity entries of
    older files) stay in arrays. A missing or non-finite parameter or running
    statistic, or a negative running variance, is a ValueError naming the
    file and array."""
    arrays, meta = checkpoint.load(path)
    spec = meta_entry(path, meta, "network", NetworkSpec.from_dict)
    net = SpikingNetwork(spec, np.random.default_rng(0))
    params, stats = net.parameters(), net.state_arrays()
    for name, value in arrays.items():
        if name.startswith(("velocity/", "mask/")):
            continue
        if name not in stats and name not in params:
            raise ValueError(f"{path}: array {name!r} is not in the network its meta describes")
        if not np.isfinite(value).all():
            raise ValueError(f"{path}: array {name!r} holds a non-finite value")
        if name.endswith(".running_var") and (value < 0).any():
            raise ValueError(f"{path}: array {name!r} holds a negative variance")
        if name in stats:
            net.set_state_array(name, value)
        else:
            net.set_parameter(name, value)
    missing = sorted({*params, *stats} - arrays.keys())
    if missing:
        raise ValueError(f"{path}: the checkpoint has no array {missing[0]!r} of the "
                         f"network its meta describes")
    return net, arrays, meta

