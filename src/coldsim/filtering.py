"""Two-tower candidate filtering over a shared 200-d space.

Each filter pairs a user tower (input: behavior embedding concatenated
with the mean content vector of the user's train history) with an item
tower (input: the item's raw content vector).  Candidates for an item are
the top-K users by dot product.  Two trained variants exist side by side:

* ``B``: trained with pairwise BPR on observed interactions.
* ``L``: trained to imitate the yes/no oracle with a cross-entropy loss on
  labeled pairs, plus a weighted BPR term.

The funnel merges both variants' rankings by interleaving.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import store
from .backbone import (BackboneModel, DivergenceError, _epoch_triples,
                       check_trainable, draw_accepted, expit, fit_epochs,
                       ordered_subsample, ranked_validation_ndcg)
from .corpus import ColdWarmSplit
from .metrics import rank_by_score, row_chunks

logger = logging.getLogger(__name__)

PROB_CLIP = 1e-7


@dataclass
class TowerMlp:
    """input -> rectified hidden -> linear output perceptron."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @classmethod
    def init(cls, d_in: int, hidden: int, d_out: int, seed: int) -> "TowerMlp":
        rng = np.random.default_rng(seed)
        return cls(w1=rng.standard_normal((d_in, hidden)) / np.sqrt(d_in),
                   b1=np.zeros(hidden),
                   w2=rng.standard_normal((hidden, d_out)) / np.sqrt(hidden),
                   b2=np.zeros(d_out))

    @property
    def d_in(self) -> int:
        return self.w1.shape[0]

    @property
    def d_out(self) -> int:
        return self.w2.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self) -> "TowerMlp":
        return TowerMlp(self.w1.copy(), self.b1.copy(),
                        self.w2.copy(), self.b2.copy())

    def forward(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward_cached`'s output; a 1-D ``x`` is a one-row block."""
        out = self.forward_cached(np.atleast_2d(x))[0]
        return out[0] if np.ndim(x) == 1 else out

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping activations for :meth:`backward`."""
        x = np.asarray(x, dtype=np.float64)
        hidden = np.maximum(x @ self.w1 + self.b1, 0.0)
        return hidden @ self.w2 + self.b2, (x, hidden)

    def backward(self, ctx, d_out: np.ndarray) -> dict[str, np.ndarray]:
        """Parameter gradients for a batch given d(loss)/d(output)."""
        x, hidden = ctx
        d_hidden = (d_out @ self.w2.T) * (hidden > 0.0)
        return {"w1": x.T @ d_hidden, "b1": d_hidden.sum(axis=0),
                "w2": hidden.T @ d_out, "b2": d_out.sum(axis=0)}


@dataclass
class TwoTowerFilter:
    variant: str                  # "B" or "L"
    user_tower: TowerMlp
    item_tower: TowerMlp

    @classmethod
    def init(cls, variant: str, backbone_dim: int, content_dim: int,
             hidden: int = 200, out: int = 200, seed: int = 0) -> "TwoTowerFilter":
        if variant not in ("B", "L"):
            raise ValueError(f"variant must be 'B' or 'L', got {variant!r}")
        return cls(variant=variant,
                   user_tower=TowerMlp.init(backbone_dim + content_dim, hidden,
                                            out, seed),
                   item_tower=TowerMlp.init(content_dim, hidden, out, seed + 1))

    def copy(self) -> "TwoTowerFilter":
        return TwoTowerFilter(self.variant, self.user_tower.copy(),
                              self.item_tower.copy())

    def save(self, out_dir: str | Path, train_config: dict | None = None) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for tower_name, tower in (("user", self.user_tower), ("item", self.item_tower)):
            for pname, arr in tower.params().items():
                mat = arr if arr.ndim == 2 else arr[None, :]
                store.save_table(out / f"{tower_name}_{pname}.cemb", mat)
        manifest = {
            "variant": self.variant,
            "user_d_in": self.user_tower.d_in,
            "item_d_in": self.item_tower.d_in,
            "hidden": self.user_tower.w1.shape[1],
            "out": self.user_tower.d_out,
            "train_config": train_config,
        }
        store.write_atomic(out / "manifest.json",
                           json.dumps(manifest, sort_keys=True, indent=1) + "\n")

    @classmethod
    def load(cls, out_dir: str | Path, backbone_dim: int | None = None,
             content_dim: int | None = None) -> "TwoTowerFilter":
        """The filter saved in ``out_dir``, each table of the shape its
        manifest gives, but with the tower inputs :meth:`init` gives for
        ``backbone_dim`` and ``content_dim`` when both are given; a table
        that does not fit raises ValueError naming it."""
        out = Path(out_dir)
        manifest = store.load_json(out / "manifest.json", lambda doc: {
            key: doc[key]
            for key in ("variant", "user_d_in", "item_d_in", "hidden", "out")})
        if content_dim is not None:
            manifest.update(user_d_in=backbone_dim + content_dim,
                            item_d_in=content_dim)
        hidden, d_out = manifest["hidden"], manifest["out"]
        towers = {}
        for tower_name in ("user", "item"):
            d_in = manifest[f"{tower_name}_d_in"]
            raw = {p: store.load_table(out / f"{tower_name}_{p}.cemb",
                                       shape).astype(np.float64)
                   for p, shape in (("w1", (d_in, hidden)), ("b1", (1, hidden)),
                                    ("w2", (hidden, d_out)), ("b2", (1, d_out)))}
            towers[tower_name] = TowerMlp(w1=raw["w1"], b1=raw["b1"][0],
                                          w2=raw["w2"], b2=raw["b2"][0])
        return cls(variant=manifest["variant"], user_tower=towers["user"],
                   item_tower=towers["item"])


@dataclass
class CandidateSet:
    """Ranked candidate users for one item."""

    item: int | None
    users: list[int]


def map_item(filt: TwoTowerFilter, raw: np.ndarray) -> np.ndarray:
    """Filter vector of an item from its raw content vector."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.shape[-1] != filt.item_tower.d_in:
        raise ValueError(f"raw vector width {raw.shape[-1]} != item tower input "
                         f"{filt.item_tower.d_in}")
    return filt.item_tower.forward(raw)


def history_content_means(train_items: list[list[int]],
                          content_matrix: np.ndarray) -> np.ndarray:
    """Per-user mean raw content vector over train history; zeros when empty.

    ``train_items`` is a split index's ``train_items``; a ``Pipeline``
    computes the means once as its ``hist_means``.
    """
    n_users = len(train_items)
    out = np.zeros((n_users, content_matrix.shape[1]))
    for u, items in enumerate(train_items):
        if items:
            out[u] = content_matrix[items].mean(axis=0)
    return out


def user_filter_vectors(filt: TwoTowerFilter, user_emb: np.ndarray,
                        hist_means: np.ndarray) -> np.ndarray:
    """Precompute all users' filter vectors; rows align with user ids."""
    inputs = np.concatenate([user_emb, hist_means], axis=1)
    return filt.user_tower.forward(inputs)


def topk_candidates(filt: TwoTowerFilter, raw_item: np.ndarray,
                    user_vectors: np.ndarray, k: int,
                    item=None) -> CandidateSet | list[CandidateSet]:
    """Exact top-K users by dot product with each item's filter vector.

    Ties break by ascending user id; K beyond the user count returns the
    full ranking.  A block ``raw_item`` (items x content width) gives one
    candidate set per row, ``item`` naming the rows; a 1-D one is a
    one-row block whose set is returned alone.  The item tower runs once
    over the block, and each :func:`~coldsim.metrics.row_chunks` slice is
    scored against all users with one product.  That product sums in
    another order than one matvec per item: it gives the matvec's ids
    except where scores equal in exact arithmetic, from different user
    vectors, round apart in one and together in the other.
    """
    raw = np.asarray(raw_item, dtype=np.float64)
    vecs = map_item(filt, np.atleast_2d(raw))
    items = [item] if raw.ndim == 1 else \
        [None] * len(vecs) if item is None else list(item)
    out: list[CandidateSet] = []
    for rows in row_chunks(np.arange(len(vecs)), len(user_vectors)):
        ranked = rank_by_score(vecs[rows] @ user_vectors.T, k=k)
        out.extend(CandidateSet(item=items[r], users=users)
                   for r, users in zip(rows.tolist(), ranked.tolist()))
    return out[0] if raw.ndim == 1 else out


class InnerProductIndex:
    """Exact maximum-inner-product index over fixed user vectors.

    A query is one row of :func:`~coldsim.metrics.rank_by_score`: the same
    ids as a full sort, including the ascending-id tie rule.
    """

    def __init__(self, vectors: np.ndarray):
        self.vectors = np.asarray(vectors, dtype=np.float64)

    def query(self, q: np.ndarray, k: int):
        scores = self.vectors @ np.asarray(q, dtype=np.float64)
        ids = rank_by_score(scores, k=k)
        return ids, scores[ids]


def funnel_filter(raw_item: np.ndarray, k: int,
                  filter_b: TwoTowerFilter | None = None,
                  filter_l: TwoTowerFilter | None = None,
                  users_b: np.ndarray | None = None,
                  users_l: np.ndarray | None = None,
                  item=None) -> CandidateSet | list[CandidateSet]:
    """Merge both filters' rankings into one candidate list.

    Candidates are drawn alternately from the coupled (L) and behavior (B)
    rankings, L first, skipping duplicates, until K distinct users are
    collected.  With a single filter supplied, its ranking is used alone.
    A block ``raw_item`` gives one merged list per row, from one
    :func:`topk_candidates` call per filter (see there); a 1-D one is a
    one-row block whose list is returned alone.
    """
    rankings = []
    for name, filt, users in (("L", filter_l, users_l), ("B", filter_b, users_b)):
        if filt is None:
            continue
        if users is None:
            raise ValueError(f"filter {name} supplied without its user vectors")
        rankings.append(topk_candidates(filt, raw_item, users, k, item))
    if not rankings:
        raise ValueError("funnel_filter needs at least one trained filter")
    if np.ndim(raw_item) == 1:
        return _interleave(rankings, k)
    return [_interleave(row, k) for row in zip(*rankings)]


def _interleave(rankings: list[CandidateSet], k: int) -> CandidateSet:
    merged: list[int] = []
    seen: set[int] = set()
    users = [r.users for r in rankings]
    for pos in range(max(len(r) for r in users)):
        for ranking in users:
            if pos < len(ranking) and ranking[pos] not in seen:
                seen.add(ranking[pos])
                merged.append(ranking[pos])
        if len(merged) >= k:
            break
    return CandidateSet(item=rankings[0].item, users=merged[:k])


@dataclass
class FilterTrainConfig:
    """The ``filter`` section's training keys: Adam, early stopped on NDCG@20."""

    lr: float = 1e-5
    batch_size: int = 128
    max_epochs: int = 100
    patience: int = 10
    coupled_weight: float = 1.0   # BPR weight in the coupled loss
    label_pairs: int | None = None  # positives in the oracle-label pool; None = all
    eval_users: int = 2000
    seed: int = 0


class _Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, towers: dict[str, TowerMlp], lr):
        self.lr, self.t = lr, 0
        self.m = {tn: {p: np.zeros_like(a) for p, a in tw.params().items()}
                  for tn, tw in towers.items()}
        self.v = {tn: {p: np.zeros_like(a) for p, a in tw.params().items()}
                  for tn, tw in towers.items()}

    def step(self, towers: dict[str, TowerMlp], grads: dict[str, dict]) -> None:
        self.t += 1
        c1, c2 = 1 - self.beta1 ** self.t, 1 - self.beta2 ** self.t
        for tn, tower in towers.items():
            params = tower.params()
            for p, g in grads[tn].items():
                m, v = self.m[tn][p], self.v[tn][p]
                m *= self.beta1
                m += (1 - self.beta1) * g
                v *= self.beta2
                v += (1 - self.beta2) * g * g
                params[p] -= self.lr * ((m / c1) / (np.sqrt(v / c2) + self.eps))


def _merge_grads(*grad_dicts):
    out = {}
    for gd in grad_dicts:
        for p, g in gd.items():
            out[p] = out.get(p, 0) + g
    return out


def behavior_bpr_batch(filt: TwoTowerFilter, user_inputs: np.ndarray,
                       raw_pos: np.ndarray, raw_neg: np.ndarray,
                       scale: float = 1.0):
    """Mean BPR loss on a triple batch and tower-parameter gradients.

    Score(u, i) is user_tower(u) . item_tower(raw_i); the loss encourages
    the observed item's score above the sampled negative's.
    """
    fu, ctx_u = filt.user_tower.forward_cached(user_inputs)
    fi, ctx_i = filt.item_tower.forward_cached(raw_pos)
    fj, ctx_j = filt.item_tower.forward_cached(raw_neg)
    margin = np.einsum("bd,bd->b", fu, fi - fj)
    batch = len(margin)
    loss = float(np.mean(np.logaddexp(0.0, -margin))) * scale
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite filter BPR loss {loss}")
    coef = (-expit(-margin) * scale / batch)[:, None]
    g_user = filt.user_tower.backward(ctx_u, coef * (fi - fj))
    g_item = _merge_grads(filt.item_tower.backward(ctx_i, coef * fu),
                          filt.item_tower.backward(ctx_j, -coef * fu))
    return loss, {"user": g_user, "item": g_item}


def coupled_ce_batch(filt: TwoTowerFilter, user_inputs: np.ndarray,
                     raw_items: np.ndarray, labels: np.ndarray,
                     scale: float = 1.0):
    """Mean cross-entropy of sigmoid(dot) against oracle labels, with grads.

    Probabilities are clipped to [1e-7, 1 - 1e-7] inside the log only; the
    gradient uses the exact sigmoid.
    """
    fu, ctx_u = filt.user_tower.forward_cached(user_inputs)
    fi, ctx_i = filt.item_tower.forward_cached(raw_items)
    logits = np.einsum("bd,bd->b", fu, fi)
    prob = expit(logits)
    clipped = np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP)
    z = np.asarray(labels, dtype=np.float64)
    batch = len(z)
    loss = float(-np.mean(z * np.log(clipped) + (1 - z) * np.log1p(-clipped))) * scale
    if not np.isfinite(loss):
        raise DivergenceError(f"non-finite coupled CE loss {loss}")
    coef = ((prob - z) * scale / batch)[:, None]
    g_user = filt.user_tower.backward(ctx_u, coef * fi)
    g_item = filt.item_tower.backward(ctx_i, coef * fu)
    return loss, {"user": g_user, "item": g_item}


def filter_validation_ndcg(filt: TwoTowerFilter, backbone: BackboneModel,
                           content_matrix: np.ndarray, hist_means: np.ndarray,
                           split: ColdWarmSplit, users, k: int = 20) -> float:
    """NDCG@k of filter-scored warm-item rankings against warm-val positives."""
    return ranked_validation_ndcg(
        split, users, lambda rows: user_filter_vectors(
            filt, backbone.user_emb[rows], hist_means[rows]),
        lambda warm: filt.item_tower.forward(content_matrix[warm]),
        backbone.n_users, k)


def _run_filter_training(filt, backbone, content_matrix, hist_means, split,
                         config, batch_fn):
    """(``filt`` holding its best snapshot, history): one Adam step per
    ``(loss, grads)`` that ``batch_fn(rng, user_inputs)`` yields, epoch by
    epoch through :func:`~coldsim.backbone.fit_epochs`."""
    rng = np.random.default_rng(config.seed)
    user_inputs = np.concatenate([backbone.user_emb, hist_means], axis=1)
    towers = {"user": filt.user_tower, "item": filt.item_tower}
    opt = _Adam(towers, config.lr)
    val_users = ordered_subsample(rng, split.index(backbone.n_users).val_users,
                                  config.eval_users)

    def run_epoch(epoch):
        losses = []
        for loss, grads in batch_fn(rng, user_inputs):
            losses.append(loss)
            opt.step(towers, grads)
        return losses

    best, _, history = fit_epochs(
        f"filter {filt.variant}", run_epoch, filt.copy,
        lambda: filter_validation_ndcg(filt, backbone, content_matrix,
                                       hist_means, split, val_users),
        config.max_epochs, config.patience)
    filt.user_tower, filt.item_tower = best.user_tower, best.item_tower
    return filt, history


def train_behavior_filter(filt: TwoTowerFilter, backbone: BackboneModel,
                          content_matrix: np.ndarray, hist_means: np.ndarray,
                          split: ColdWarmSplit, config: FilterTrainConfig):
    """Train the B variant with BPR over warm-train triples.

    Backbone embeddings, content vectors and each user's history content
    mean (``hist_means``, see :func:`history_content_means`) are frozen
    inputs; one fresh negative is sampled per positive per epoch.  Returns
    the filter (best validation-NDCG snapshot) and the epoch history.
    """
    check_trainable(split, "filter", config.eval_users)

    def batches(rng, user_inputs):
        triples = _epoch_triples(rng, split, backbone.n_users)
        for start in range(0, len(triples), config.batch_size):
            b = triples[start:start + config.batch_size]
            yield behavior_bpr_batch(filt, user_inputs[b[:, 0]],
                                     content_matrix[b[:, 1]],
                                     content_matrix[b[:, 2]])

    return _run_filter_training(filt, backbone, content_matrix, hist_means,
                                split, config, batches)


def sample_label_pairs(split: ColdWarmSplit, n_users: int,
                       n_positives: int | None, seed: int) -> np.ndarray:
    """Pool of warm-train positives and uniform unobserved (user, warm item)
    pairs, one per positive that finds one, as (n, 2) rows: the positives
    in split order, then the unobserved pairs.

    Unobserved pairs draw a warm-train user and a warm item uniformly.  A
    positive whose ``MAX_REJECTS`` draws all hit observed pairs gets none,
    and a warning counts them.
    """
    rng = np.random.default_rng(seed)
    positives = ordered_subsample(rng, split.warm_train, n_positives)
    index = split.index(n_users)
    users = np.asarray(index.train_users, dtype=np.int64)
    warm = np.asarray(split.warm_items, dtype=np.int64)
    draws, ok = draw_accepted(
        rng, np.full((len(positives), 2), [len(users), len(warm)]),
        lambda s, a: index.train.contains(users[a[:, 0]], warm[a[:, 1]]))
    if not ok.all():
        logger.warning("label sampling skipped %d exhausted positives",
                       len(ok) - ok.sum())
    return np.concatenate([positives, np.column_stack([users[draws[ok, 0]],
                                                      warm[draws[ok, 1]]])])


def train_coupled_filter(filt: TwoTowerFilter, backbone: BackboneModel,
                         content_matrix: np.ndarray, hist_means: np.ndarray,
                         split: ColdWarmSplit, labeler,
                         config: FilterTrainConfig):
    """Train the L variant against oracle labels.

    ``labeler(users, items)`` is called once, with the pairs of
    :func:`sample_label_pairs`' pool, and returns one answer per pair in
    order: an oracle decision, whose ``value`` is the 0/1 label, or the
    :class:`~coldsim.refiner.OracleError` it failed with, which skips the
    pair and is counted.  Any exception the labeler raises propagates.
    The loss is cross-entropy of sigmoid(dot) against the labels plus
    ``coupled_weight`` times the BPR term over warm-train triples.  Inputs are frozen as in
    :func:`train_behavior_filter`.  Returns (filter, history).
    """
    from .refiner import OracleError  # refiner imports this module

    check_trainable(split, "filter", config.eval_users)
    pool = sample_label_pairs(split, backbone.n_users, config.label_pairs,
                              config.seed + 17)

    labeled = []
    failures = 0
    answers = labeler(pool[:, 0].tolist(), pool[:, 1].tolist())
    for (u, i), answer in zip(pool.tolist(), answers):
        if isinstance(answer, OracleError):
            failures += 1
            logger.debug("labeler failed for (%d, %d): %s", u, i, answer)
            continue
        labeled.append((u, i, int(answer.value)))
    if failures:
        logger.warning("oracle labeling failed for %d of %d pairs",
                       failures, len(pool))
    if not labeled:
        raise ValueError("no labeled pairs available for coupled training")
    labeled_arr = np.asarray(labeled, dtype=np.int64)

    def batches(rng, user_inputs):
        order = rng.permutation(len(labeled_arr))
        triples = _epoch_triples(rng, split, backbone.n_users)
        for start in range(0, len(order), config.batch_size):
            sel = labeled_arr[order[start:start + config.batch_size]]
            loss, grads = coupled_ce_batch(filt, user_inputs[sel[:, 0]],
                                           content_matrix[sel[:, 1]],
                                           sel[:, 2].astype(np.float64))
            if config.coupled_weight > 0 and len(triples):
                tsel = triples[start % len(triples):][:config.batch_size]
                bpr_loss, bpr_grads = behavior_bpr_batch(
                    filt, user_inputs[tsel[:, 0]], content_matrix[tsel[:, 1]],
                    content_matrix[tsel[:, 2]], scale=config.coupled_weight)
                loss += bpr_loss
                grads = {tn: _merge_grads(grads[tn], bpr_grads[tn])
                         for tn in grads}
            yield loss, grads

    return _run_filter_training(filt, backbone, content_matrix, hist_means,
                                split, config, batches)
