"""Turn simulated interactions into trained cold-item embeddings.

Item-side BPR: each step samples one simulated user as the positive and a
uniform non-simulated user as the negative, and applies the gradient to the
cold item's row only.  Every user row and every warm item row stays
bitwise untouched.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import store
from .backbone import BackboneModel, draw_accepted, expit
from .corpus import ColdWarmSplit
from .filtering import TwoTowerFilter, map_item
from .refiner import SimulationResult

logger = logging.getLogger(__name__)

INIT_MODES = ("user-mean", "filter-map", "zero")


@dataclass
class WarmupConfig:
    lr: float = 1e-3
    steps: int = 100
    negatives_per_positive: int = 1
    init: str = "user-mean"
    seed: int = 0


@dataclass
class ColdEmbeddingResult:
    item: int
    embedding: np.ndarray
    users: list[int]
    final_loss: float
    fallback_used: bool = False


def init_cold_embedding(item: int, users, backbone: BackboneModel,
                        mode: str, filt_b: TwoTowerFilter | None = None,
                        raw: np.ndarray | None = None) -> np.ndarray:
    """Starting point for a cold item's embedding.

    ``user-mean`` averages the simulated users' embeddings, ``filter-map``
    runs the raw content vector through the behavior filter's item tower,
    ``zero`` starts at the origin.
    """
    if mode not in INIT_MODES:
        raise ValueError(f"unknown init mode {mode!r}, expected one of {INIT_MODES}")
    if mode == "zero":
        return np.zeros(backbone.dim)
    if mode == "user-mean":
        users = list(users)
        if not users:
            raise ValueError(f"user-mean init needs a non-empty simulated set "
                             f"for item {item}")
        return backbone.user_emb[users].mean(axis=0)
    if filt_b is None or raw is None:
        raise ValueError("filter-map init needs the behavior filter and the "
                         "item's raw content vector")
    fvec = map_item(filt_b, raw)
    if fvec.shape[0] != backbone.dim:
        raise ValueError(f"filter output width {fvec.shape[0]} != embedding "
                         f"dim {backbone.dim}")
    return fvec


def warmup_loss(e_item: np.ndarray, pos_emb: np.ndarray,
                neg_emb: np.ndarray) -> float:
    margin = (pos_emb - neg_emb) @ e_item
    return float(np.mean(np.logaddexp(0.0, -margin)))


def draw_step_users(rng: np.random.Generator, users: np.ndarray, n_users: int,
                    steps: int, negatives: int) -> tuple[np.ndarray, np.ndarray]:
    """The users each of ``steps`` warmup steps trains on: (positives
    (steps,), negatives (steps, negatives)).

    A step draws one index into the ascending simulated ``users`` as its
    positive, then users below ``n_users`` until it holds ``negatives``
    that are not simulated, all through
    :func:`~coldsim.backbone.draw_accepted`: the ids and the final state of
    ``rng`` are the scalar loop's.  ``users`` covering every user leaves no
    negative to draw, a ``ValueError``.
    """
    simulated = np.zeros(n_users, dtype=bool)
    simulated[users] = True
    if simulated.all():
        raise ValueError(f"simulated users cover every user of {n_users}, "
                         f"cannot sample negatives")
    is_neg = np.arange(steps * (1 + negatives)) % (1 + negatives) > 0
    ids = draw_accepted(rng, np.where(is_neg, n_users, len(users)),
                        lambda s, a: is_neg[s] & simulated[a[:, 0]],
                        tries=None)[0].reshape(steps, 1 + negatives)
    return users[ids[:, 0]], ids[:, 1:]


def optimize_cold_embedding(item: int, users, backbone: BackboneModel,
                            config: WarmupConfig,
                            init: np.ndarray | None = None,
                            filt_b: TwoTowerFilter | None = None,
                            raw: np.ndarray | None = None) -> ColdEmbeddingResult:
    """Item-side BPR on one cold item against its simulated users.

    Only the returned vector is produced; the backbone is read, never
    written.  Deterministic given the config seed (the per-item stream is
    seeded with (seed, item)).
    """
    users = sorted(int(u) for u in users)
    if not users:
        raise ValueError(f"item {item}: simulated user set is empty")
    if init is None:
        init = init_cold_embedding(item, users, backbone, config.init,
                                   filt_b=filt_b, raw=raw)
    e_item = np.asarray(init, dtype=np.float64).copy()
    pos_ids, neg_ids = draw_step_users(
        np.random.default_rng((config.seed, item)),
        np.asarray(users, dtype=np.int64), backbone.n_users, config.steps,
        config.negatives_per_positive)
    loss = 0.0
    for pos, negs in zip(pos_ids, neg_ids):
        pos_emb = backbone.user_emb[pos]
        neg_emb = backbone.user_emb[negs]
        margin = (pos_emb - neg_emb) @ e_item
        loss = float(np.mean(np.logaddexp(0.0, -margin)))
        coef = -expit(-margin) / len(negs)
        grad = (coef[:, None] * (pos_emb - neg_emb)).sum(axis=0)
        e_item -= config.lr * grad
    return ColdEmbeddingResult(item=item, embedding=e_item, users=users,
                               final_loss=loss)


def warm_all_cold(split: ColdWarmSplit, simulations: dict[int, SimulationResult],
                  backbone: BackboneModel, config: WarmupConfig,
                  filt_b: TwoTowerFilter | None = None,
                  content_matrix: np.ndarray | None = None) -> tuple[BackboneModel, list[dict]]:
    """Replace every cold item row with its optimized embedding.

    Warm rows and the user table are carried over bitwise.  Cold items
    without a simulation (or with an empty one) are reported and skipped,
    keeping their backbone row.  Items whose simulation
    fell back to the top filtered candidate use the filter-map
    initialization when the behavior filter is available.

    Every cold item runs the item-side BPR of
    :func:`optimize_cold_embedding` at once, as one (items x dim) block.
    Each item draws its users with :func:`draw_step_users`, from its own
    (seed, item) stream, so each row equals the per-item result up to
    floating-point summation order.
    """
    model = backbone.copy()
    report = []
    warmed, inits, pos_ids, neg_ids = [], [], [], []
    for item in sorted(split.cold_items):
        sim = simulations.get(item)
        if sim is None or not sim.users:
            msg = "missing simulation" if sim is None else "empty simulation"
            logger.warning("cold item %d skipped: %s", item, msg)
            report.append({"item": item, "skipped": msg})
            continue
        raw = content_matrix[item] if content_matrix is not None else None
        mode = "filter-map" if (config.init == "user-mean"
                                and sim.fallback_used and filt_b is not None
                                and raw is not None) else config.init
        users = sorted(int(u) for u in sim.users)
        init = init_cold_embedding(item, users, backbone, mode, filt_b=filt_b,
                                   raw=raw)
        # the draws never depend on the embedding, so they all come first
        pos, negs = draw_step_users(
            np.random.default_rng((config.seed, item)),
            np.asarray(users, dtype=np.int64), backbone.n_users, config.steps,
            config.negatives_per_positive)
        pos_ids.append(pos)
        neg_ids.append(negs)
        inits.append(np.asarray(init, dtype=np.float64))
        warmed.append({"item": item, "n_users": len(users), "final_loss": 0.0,
                       "fallback_used": bool(sim.fallback_used)})
        report.append(warmed[-1])
    if not warmed:
        return model, report

    n_negs = config.negatives_per_positive
    pos_ids, neg_ids = np.stack(pos_ids), np.stack(neg_ids)
    emb = np.stack(inits)
    for step in range(config.steps):
        diff = (backbone.user_emb[pos_ids[:, step]][:, None, :]
                - backbone.user_emb[neg_ids[:, step]])
        margin = np.einsum("cnd,cd->cn", diff, emb)
        coef = -expit(-margin) / n_negs
        emb -= config.lr * (coef[:, :, None] * diff).sum(axis=1)
    model.item_emb[[entry["item"] for entry in warmed]] = emb
    if config.steps > 0:    # the loss of the last step, before its update
        loss = np.logaddexp(0.0, -margin).mean(axis=1).tolist()
        for entry, final_loss in zip(warmed, loss):
            entry["final_loss"] = final_loss
    return model, report


def save_warmup_report(path: str | Path, report: list[dict]) -> None:
    store.write_atomic(path, json.dumps(report, sort_keys=True, indent=1) + "\n")
