"""Matrix-factorization backbone trained with BPR on warm interactions.

Embedding tables are float64 numpy arrays in memory and persist through the
float32 binary table format in :mod:`coldsim.store`.
"""

from __future__ import annotations

import bisect
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import store
from .corpus import ColdWarmSplit
from .metrics import hit_metrics, rank_by_score, row_chunks

logger = logging.getLogger(__name__)

# Attempts a negative sampler makes for one positive before giving it up.
MAX_REJECTS = 100
# Attempts draw_accepted draws in one block, and tests in one call; a
# rewind redraws up to this many.
DRAW_BLOCK = 256


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss, weight or score."""


@dataclass
class BackboneConfig:
    """The ``backbone`` section: SGD, early stopped on NDCG@20."""

    dim: int = 200
    lr: float = 1e-3
    max_epochs: int = 500
    patience: int = 10
    batch_size: int = 1024
    eval_users: int = 2000
    seed: int = 0


@dataclass
class BackboneModel:
    """User/item embedding tables plus training bookkeeping."""

    user_emb: np.ndarray
    item_emb: np.ndarray
    trained_epochs: int = 0
    history: list = field(default_factory=list)

    @property
    def n_users(self) -> int:
        return self.user_emb.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_emb.shape[0]

    @property
    def dim(self) -> int:
        return self.user_emb.shape[1]

    def copy(self) -> "BackboneModel":
        return BackboneModel(self.user_emb.copy(), self.item_emb.copy(),
                             self.trained_epochs, list(self.history))

    def save(self, out_dir: str | Path) -> None:
        out = Path(out_dir)
        store.save_table(out / "backbone_user.cemb", self.user_emb)
        store.save_table(out / "backbone_item.cemb", self.item_emb)

    @classmethod
    def load(cls, out_dir: str | Path, n_users: int | None = None,
             n_items: int | None = None) -> "BackboneModel":
        """The model saved in ``out_dir``: a user table of ``n_users`` rows
        and an item table of ``n_items`` rows and the user table's width
        (``None``: any count), else ValueError naming the table."""
        out = Path(out_dir)
        user = store.load_table(out / "backbone_user.cemb", (n_users, None))
        item = store.load_table(out / "backbone_item.cemb",
                                (n_items, user.shape[1]))
        return cls(user_emb=user.astype(np.float64),
                   item_emb=item.astype(np.float64))


def init_embeddings(rows: int, dim: int, seed: int) -> np.ndarray:
    """Fresh table with entries i.i.d. normal(0, 0.01); deterministic per seed."""
    if rows < 0 or dim < 1:
        raise ValueError(f"bad table shape ({rows}, {dim})")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, dim)) * 0.01


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def expit(x) -> np.ndarray:
    """Logistic sigmoid ``1 / (1 + exp(-x))``, elementwise in float64.

    ``exp`` is the C library's, through :func:`math.exp`, and an overflow
    gives ``inf`` (so a result of 0.0).  numpy may route float64 ``exp`` to
    its own SIMD kernel, whose last bits differ from the C library's on some
    inputs; the C library's ``exp`` gives the same bits as
    ``scipy.special.expit``, so trained weights do not depend on which
    kernel numpy picks.
    """
    x = np.asarray(x, dtype=np.float64)
    neg = (-x).ravel().tolist()
    try:
        e = np.fromiter(map(math.exp, neg), dtype=np.float64, count=len(neg))
    except OverflowError:
        e = np.fromiter(map(_exp_or_inf, neg), dtype=np.float64, count=len(neg))
    return (1.0 / (1.0 + e)).reshape(x.shape)


def bpr_loss(model: BackboneModel, triples) -> float:
    """Mean BPR loss -ln sigmoid(margin) for a batch, no update."""
    t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    eu = model.user_emb[t[:, 0]]
    margin = np.einsum("bd,bd->b", eu, model.item_emb[t[:, 1]] - model.item_emb[t[:, 2]])
    return float(np.mean(np.logaddexp(0.0, -margin)))


def bpr_step(model: BackboneModel, triples, lr: float) -> float:
    """One SGD step of the BPR objective on the rows named in the batch.

    Returns the pre-step mean loss.  Only the user, positive, and negative
    rows that appear in the batch are touched.
    """
    t = np.asarray(triples, dtype=np.int64).reshape(-1, 3)
    if t.size == 0:
        return 0.0
    users, pos, neg = t[:, 0], t[:, 1], t[:, 2]
    eu, ei, ej = model.user_emb[users], model.item_emb[pos], model.item_emb[neg]
    margin = np.einsum("bd,bd->b", eu, ei - ej)
    loss = float(np.mean(np.logaddexp(0.0, -margin)))
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite BPR loss {loss}")

    coef = (-expit(-margin) / len(t))[:, None]
    grad_u = coef * (ei - ej)
    grad_i = coef * eu
    grad_j = -coef * eu
    # scatter-add handles repeated rows within one batch
    np.add.at(model.user_emb, users, -lr * grad_u)
    np.add.at(model.item_emb, pos, -lr * grad_i)
    np.add.at(model.item_emb, neg, -lr * grad_j)
    return loss


def draw_accepted(rng: np.random.Generator, bounds, rejected,
                  tries: int | None = MAX_REJECTS, exhausted=None):
    """Rejection sampling, slot after slot, drawing what the scalar loop draws.

    Slot ``s`` draws attempts ``rng.integers(0, bounds[s])`` (a row of 2-D
    ``bounds``) until ``rejected(slots, attempts)`` passes one, or until
    ``tries`` have failed (``None``: no limit); then ``exhausted(slot)``,
    if given, runs with ``rng`` just past the slot's last draw and may
    return an attempt to accept.  Returns each slot's attempt (2-D) and
    whether it was accepted; the final ``rng`` state is the scalar loop's.

    Blocks of ``DRAW_BLOCK`` attempts are drawn as if all pass.  Under
    equal bounds a rejection shifts the block's later rows onto the slots
    before them; otherwise, and before ``exhausted``, the block is rewound
    and its used rows are drawn again.  ``rejected`` is asked about rows
    under several shifts at once, so it also sees attempts paired with
    slots they do not serve; those answers are not used.
    """
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim == 1:
        bounds = bounds[:, None]
    draws, ok = np.zeros(bounds.shape, np.int64), np.zeros(len(bounds), bool)
    uniform = None              # whether all bounds are equal, once needed
    band = 1                    # shifts per table of rejections
    slot = failed = shifts = 0  # next slot, its failed tries, recent shifts
    while slot < len(bounds):
        state, drawn = rng.bit_generator.state, bounds[slot:slot + DRAW_BLOCK]
        block = rng.integers(0, drawn)
        row = shift = last = top = 0    # row r serves slot slot + r - shift
        gave_up = None
        while row < len(block):
            if row == last or shift == top:
                # which rows first..last are rejected under the shifts
                # top - band..top, keyed (shift - top + band) * (last - first)
                # + row - first; the band follows the rate of rejections
                band = 2 * band if shift == top > 0 else max(1, shifts)
                first, top, shifts = row, shift + band, 0
                last = min(len(block), row + max(1, DRAW_BLOCK // band))
                serves = np.arange(slot + row - shift, slot + last - shift)
                attempts = block[row:last]
                if band > 1:
                    serves = (serves - np.arange(band)[:, None]).ravel()
                    np.maximum(serves, 0, out=serves)   # < 0: never served
                    attempts = np.concatenate([attempts] * band)
                keys = rejected(serves, attempts).nonzero()[0].tolist()
            base = (shift - top + band) * (last - first) - first
            k = bisect.bisect_left(keys, base + row)
            end = min(keys[k] - base if k < len(keys) else last, last)
            if end > row:
                draws[slot + row - shift:slot + end - shift] = block[row:end]
                ok[slot + row - shift:slot + end - shift] = True
                failed, row = 0, end
            if row == last:
                continue
            failed, row = failed + 1, row + 1
            if tries is None or failed < tries:
                shift, shifts = shift + 1, shifts + 1
                if uniform is None:
                    uniform = bool((bounds == bounds[0]).all())
                if not uniform:     # the shifted rows' bounds may differ
                    break
            elif exhausted is None:
                failed = 0
            else:
                failed, gave_up = 0, slot + row - 1 - shift
                break
        slot += row - shift
        if row < len(block):
            rng.bit_generator.state = state
            rng.integers(0, drawn[:row])
        if gave_up is not None and (fallback := exhausted(gave_up)) is not None:
            draws[gave_up], ok[gave_up] = fallback, True
    return draws, ok


def _epoch_triples(rng, split: ColdWarmSplit, n_users: int) -> np.ndarray:
    """One negative per warm-train positive, positives in random order.

    The epoch sampler of the backbone and of both filters: each positive
    draws uniform warm items until its user has not read one, and is
    skipped after ``MAX_REJECTS`` draws.
    """
    index = split.index(n_users)
    positives = split.warm_train[rng.permutation(len(split.warm_train))]
    warm = np.asarray(split.warm_items, dtype=np.int64)
    draws, ok = draw_accepted(
        rng, np.full(len(positives), len(warm)),
        lambda s, a: index.train.contains(positives[s, 0], warm[a[:, 0]]))
    if not ok.all():
        logger.warning("epoch sampling skipped %d exhausted positives",
                       len(ok) - ok.sum())
    return np.column_stack([positives[ok], warm[draws[ok, 0]]])


def ordered_subsample(rng, seq, n: int | None):
    """``n`` entries of ``seq`` drawn without replacement, in ``seq``'s
    order; all of them, and no draw, when ``n`` is None or not below
    ``len(seq)``.  An array gives an array of its rows, anything else a
    list."""
    if n is None or n >= len(seq):
        return seq if isinstance(seq, np.ndarray) else list(seq)
    pick = np.sort(rng.choice(len(seq), size=n, replace=False))
    return seq[pick] if isinstance(seq, np.ndarray) else [seq[k] for k in pick]


def ranked_validation_ndcg(split: ColdWarmSplit, users, user_vectors,
                           item_vectors, n_users: int, k: int = 20) -> float:
    """Mean NDCG@k of warm-item rankings against warm-val positives.

    Users are scored chunk by chunk as ``user_vectors(rows) @
    item_vectors(warm).T``, with ``warm`` the warm item ids ascending, and
    ranked with their warm-train positives masked out.  Users without
    warm-val positives are skipped; 0.0 when none remain.
    """
    index = split.index(n_users)
    items = item_vectors(index.warm)
    users = np.asarray(list(users), dtype=np.int64)
    users = users[index.val_warm.sizes(users) > 0]
    if not len(users):
        return 0.0
    ndcg = [hit_metrics(rank_by_score(user_vectors(rows) @ items.T, k=k,
                                      exclude=index.train_warm.select(rows)),
                        index.val_warm, rows, k)[1]
            for rows in row_chunks(users, len(index.warm))]
    # summed user by user in order, as a per-user loop would
    return float(np.cumsum(np.concatenate(ndcg))[-1]) / len(users)


def validation_ndcg(model: BackboneModel, split: ColdWarmSplit, users,
                    k: int = 20) -> float:
    """NDCG@k of warm-item rankings against warm-val positives.

    Used for early stopping; ranks warm items only, with each user's
    warm-train positives masked out.
    """
    return ranked_validation_ndcg(split, users, lambda rows: model.user_emb[rows],
                                  lambda warm: model.item_emb[warm],
                                  model.n_users, k)


def fit_epochs(name: str, run_epoch, snapshot, validate, max_epochs: int,
               patience: int):
    """The early-stopping loop of the backbone and both filters.

    Epoch 0 is the first ``snapshot()``, scored -1.0.  Each epoch runs
    ``run_epoch(epoch)`` (its batch losses) and ``validate()``; only a
    strictly higher score is snapshot, and ``patience`` epochs without one
    stop the run, logged under ``name``.  Returns (best snapshot, its
    epoch, one ``{"epoch", "loss", "val_ndcg"}`` record per epoch).
    """
    best, best_epoch, best_ndcg, stale, history = snapshot(), 0, -1.0, 0, []
    for epoch in range(1, max_epochs + 1):
        losses = run_epoch(epoch)
        val = validate()
        history.append({"epoch": epoch,
                        "loss": float(np.mean(losses)) if losses else 0.0,
                        "val_ndcg": val})
        if val > best_ndcg:
            best, best_epoch, best_ndcg, stale = snapshot(), epoch, val, 0
        else:
            stale += 1
            if stale >= patience:
                logger.info("%s: early stop at epoch %d (best %d, ndcg %.4f)",
                            name, epoch, best_epoch, best_ndcg)
                break
    return best, best_epoch, history


def train_backbone(split: ColdWarmSplit, config: BackboneConfig,
                   n_users: int, n_items: int) -> BackboneModel:
    """Train MF embeddings with BPR, one sampled negative per warm-train
    positive per epoch, early stopped by :func:`fit_epochs` on NDCG@20 over
    a fixed sample of warm-val users.  Returns the best snapshot, with
    ``trained_epochs`` its epoch and ``history`` every epoch's record.

    A batch whose loss is not finite is skipped and halves lr; an epoch
    that leaves a weight non-finite or a validation score NaN raises
    :class:`DivergenceError`.  Cold item rows keep their initialization.
    """
    if len(split.warm_train) == 0:
        raise ValueError("warm-train split is empty")
    model = BackboneModel(
        user_emb=init_embeddings(n_users, config.dim, config.seed),
        item_emb=init_embeddings(n_items, config.dim, config.seed + 1),
    )
    if config.max_epochs <= 0:
        return model

    rng = np.random.default_rng(config.seed + 2)
    val_users = ordered_subsample(rng, split.index(n_users).val_users,
                                  config.eval_users)
    lr, last_epoch = config.lr, 0

    def run_epoch(epoch):
        nonlocal lr, last_epoch
        last_epoch = epoch
        triples = _epoch_triples(rng, split, n_users)
        losses = []
        for start in range(0, len(triples), config.batch_size):
            batch = triples[start:start + config.batch_size]
            try:
                losses.append(bpr_step(model, batch, lr))
            except DivergenceError:
                lr /= 2
                logger.warning("divergence at epoch %d, halving lr to %g", epoch, lr)
        return losses

    def validate():     # right after run_epoch(last_epoch)
        try:
            if all(np.isfinite(t).all() for t in (model.user_emb, model.item_emb)):
                return validation_ndcg(model, split, val_users)
            cause = "non-finite weights"
        except ValueError as exc:   # NaN scores: finite weights overflowed
            cause = exc
        raise DivergenceError(f"backbone diverged at epoch {last_epoch} "
                              f"(lr {lr:g}): {cause}")

    best, best_epoch, history = fit_epochs(
        "backbone", run_epoch, model.copy, validate, config.max_epochs,
        config.patience)
    best.trained_epochs, best.history = best_epoch, history
    return best
