"""Connection-level pruning: cubic gradual schedule, global magnitude
criterion, over-pruning to an extended sparsity, and criticality-ranked
top-k regeneration, all maintained through one boolean mask over the
network's prunable arena prefix, net.flat[:net.n_prunable]. That prefix is
the single flat index space where all global ranking happens.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import SurvivalLedger
from .criticality import connection_runs, network_connection_scores, sample_scores, score_batch
from .errors import ArgumentError


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass
class SparsitySchedule:
    """Cubic gradual-pruning ramp with a regeneration ratio.

    Iteration n of the schedule targets s_f - s_f*(1 - n*delta_t/t_f)^3.
    """

    s_f: float
    delta_t: int
    t_f: int
    r: float = 0.0
    n: int = 0

    def __post_init__(self):
        if not 0.0 < self.s_f < 1.0:
            raise ArgumentError(f"s_f must be in (0, 1), got {self.s_f}")
        if not 0.0 <= self.r < 1.0:
            raise ArgumentError(f"r must be in [0, 1), got {self.r}")
        if self.delta_t <= 0:
            raise ArgumentError(f"delta_t must be positive, got {self.delta_t}")


def current_sparsity(sched: SparsitySchedule) -> float:
    """s_t = s_f - s_f*(1 - n*delta_t/t_f)^3, monotone non-decreasing in n."""
    if sched.n * sched.delta_t > sched.t_f:
        raise ArgumentError(f"iteration {sched.n} is past the schedule end "
                            f"({sched.t_f} steps)")
    frac = sched.n * sched.delta_t / sched.t_f
    return sched.s_f - sched.s_f * (1.0 - frac) ** 3


def extend_sparsity(s_t: float, r: float) -> float:
    """Over-pruned level s_t + r*(1 - s_t) from which k structures come back."""
    if not 0.0 <= s_t < 1.0:
        raise ArgumentError(f"s_t must be in [0, 1), got {s_t}")
    if not 0.0 <= r < 1.0:
        raise ArgumentError(f"r must be in [0, 1), got {r}")
    return s_t + r * (1.0 - s_t)


def sparsity(mask: np.ndarray) -> float:
    """Pruned share of a boolean keep-mask."""
    return 1.0 - int(np.count_nonzero(mask)) / mask.size


def select_first(key: np.ndarray, k: int) -> np.ndarray:
    """Bool selector of the k entries that come first in ascending
    (key, position) order, in time linear in key.size.

    np.partition finds the key value at the cut; every entry strictly below
    it is taken, and the tie group at the cut is taken in position order.
    Keys must be free of NaN.
    """
    sel = np.zeros(key.size, dtype=bool)
    if k == 0:
        return sel
    kth = np.partition(key, k - 1)[k - 1]
    np.less(key, kth, out=sel)
    tie = np.flatnonzero(key == kth)
    sel[tie[:k - int(np.count_nonzero(sel))]] = True
    return sel


def prune_global_magnitude(weights: np.ndarray, mask: np.ndarray,
                           s_prime: float) -> np.ndarray:
    """Mask the smallest-|w| weights of the flat weight vector down to sparsity s_prime.

    Already-masked weights rank below any magnitude: they stay masked and
    fill the cut first, so a target at or below the current sparsity
    prunes nothing new. Ties break toward the lower flat index. Returns the
    flat indices newly pruned by this call, ascending; mask is updated and
    weights are zeroed in place.
    """
    total = mask.size
    survivors_target = round_half_up((1.0 - s_prime) * total)
    if survivors_target < 1:
        raise ArgumentError(f"sparsity {s_prime} would leave no survivors")
    # Only the unmasked weights are ranked: np.partition slows by an order
    # of magnitude on a large group of equal keys, such as a shared key for
    # the masked ones.
    live = np.flatnonzero(mask)
    newly_pruned = live[select_first(np.abs(weights[live]),
                                     max(live.size - survivors_target, 0))]
    mask[newly_pruned] = False
    weights *= mask
    return newly_pruned


def regenerate(mask: np.ndarray, weights: np.ndarray, scores: np.ndarray,
               lengths: np.ndarray, snapshot: np.ndarray, k: int) -> np.ndarray:
    """Unmask the top-k pruned structures by criticality.

    mask, weights and snapshot share the flat index space; scores and
    lengths cut it into runs, run i being the next lengths[i] >= 1 indices,
    all scored scores[i]. Ranking is (score desc, |snapshot| desc, flat
    index asc). Only the runs are sorted: every pruned entry of a run above
    the cut score is taken, and only the runs at the cut, which may lie in
    several layers, are ordered further. Restored structures take their
    snapshot value: the pre-prune weight for ones cut this iteration, 0 for
    ones cut earlier. Returns the flat indices regenerated, ascending.
    """
    pruned = np.flatnonzero(~mask)
    if k > pruned.size:
        raise ArgumentError(f"k={k} exceeds pruned count {pruned.size}")
    counts = np.diff(np.searchsorted(pruned, np.cumsum(lengths)), prepend=0)
    order = np.argsort(-scores, kind="stable")
    cut = scores[order[np.searchsorted(np.cumsum(counts[order]), k)]]
    taken = np.repeat(scores > cut, counts)
    tie = np.flatnonzero(np.repeat(scores == cut, counts))
    need = k - int(np.count_nonzero(taken))
    taken[tie[select_first(-np.abs(snapshot[pruned[tie]]), need)]] = True
    chosen = pruned[taken]
    mask[chosen] = True
    weights[chosen] = snapshot[chosen]
    return chosen


@dataclass
class PruneEvent:
    iteration: int
    step: int
    s_t: float
    s_prime: float
    k: int
    rescue_fraction: float
    train_acc: float
    sparsity_after: float = 0.0


@dataclass
class PruneRunResult:
    mask: np.ndarray            # bool over net.flat[:net.n_prunable]
    ledger: SurvivalLedger
    events: list
    epoch_rows: list
    mask_history: list          # (post_prune, post_regen) np.packbits of the mask per event

    def unpacked_history(self):
        """The mask history as flat bool pairs, unpacked one pair at a time."""
        for pair in self.mask_history:
            yield tuple(np.unpackbits(m, count=self.mask.size).view(bool) for m in pair)


def prune_loop(net, trainer, sched: SparsitySchedule, epochs: int,
               aggregation: str = "max", gmp_only: bool = False) -> PruneRunResult:
    """Iterative train/prune/regenerate driver over trainer.run_epochs.

    After every step t of this loop with t % delta_t == 0 and t <= t_f,
    advances the schedule, prunes globally to the extended sparsity, scores
    criticality from the step just trained, and regenerates back to the
    schedule sparsity. Steps past t_f fine-tune with masks frozen. With
    gmp_only the event prunes straight to the schedule sparsity and skips
    scoring and regeneration entirely.
    """
    weights = net.flat[:net.n_prunable]
    mask = np.ones(net.n_prunable, dtype=bool)
    ledger = SurvivalLedger(mask.size)
    runs = connection_runs(net)
    events, history = [], []
    first = trainer.steps_done

    def prune_event(acc):
        step = trainer.steps_done - first
        if step > sched.t_f or step % sched.delta_t:
            return
        sched.n += 1
        s_t = current_sparsity(sched)
        s_prime = s_t if gmp_only else extend_sparsity(s_t, sched.r)
        snapshot = weights.copy()
        newly = prune_global_magnitude(weights, mask, s_prime)
        post_prune = np.packbits(mask)
        k, chosen = 0, np.empty(0, dtype=np.intp)
        if not gmp_only:
            scores = network_connection_scores(
                runs, score_batch(sample_scores(net.lif_states(), aggregation)))
            k = round_half_up((1.0 - s_t) * mask.size) - int(np.count_nonzero(mask))
            chosen = regenerate(mask, weights, scores, runs.lengths, snapshot, k)
        ledger.on_iteration(sched.n, newly, chosen)
        history.append((post_prune, np.packbits(mask)))
        events.append(PruneEvent(sched.n, step, s_t, s_prime, int(k),
                                 ledger.records[-1]["rescue_fraction"], acc, sparsity(mask)))

    epoch_rows = trainer.run_epochs(epochs, mask=mask, after_step=prune_event)
    return PruneRunResult(mask=mask, ledger=ledger, events=events,
                          epoch_rows=epoch_rows, mask_history=history)
