"""Offline evaluation: full-ranking Recall@K / NDCG@K and adoption rate.

Every task ranks the whole item catalog for each sampled user, with the
user's warm-train positives masked out; the tasks differ in the relevant
set (overall: warm-test plus cold-test positives, warm: warm-test only,
cold: cold-test only).  Metrics are macro-averaged over users.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import store
from .backbone import BackboneModel
from .corpus import TASKS, ColdWarmSplit
from .metrics import hit_metrics, rank_by_score, row_chunks

logger = logging.getLogger(__name__)


@dataclass
class EvalReport:
    task: str
    k: int
    recall: float
    ndcg: float
    n_users: int
    seed: int
    fingerprint: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1) + "\n"

    def save(self, path: str | Path) -> None:
        store.write_atomic(path, self.to_json())


@dataclass
class AdoptionStats:
    filtered: int
    accepted: int

    @property
    def rate(self) -> float:
        return self.accepted / self.filtered


def sample_eval_users(eligible, n_users_total: int, sample: int,
                      seed: int) -> list[int]:
    """First ``sample`` eligible users of a seed-fixed permutation of all users.

    The permutation is shared across tasks for one seed; each task keeps
    its own eligible subset of it.
    """
    eligible = set(eligible)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n_users_total)
    picked = [int(u) for u in perm if u in eligible]
    return picked[:sample]


def evaluate(model: BackboneModel, split: ColdWarmSplit, task: str = "overall",
             k: int = 20, n_users: int = 2000, seed: int = 0,
             fingerprint: str = "") -> EvalReport:
    """Macro-averaged Recall@K and NDCG@K over a sampled user set.

    Samples up to ``n_users`` users having at least one test positive for
    the task; ``n_users`` below 1 raises ValueError.  Scores are embedding
    dot products over the full catalog with each user's warm-train
    positives excluded, ranked a chunk of users at a time by
    :func:`~coldsim.metrics.rank_by_score`.
    """
    if n_users < 1:
        raise ValueError(f"evaluation needs a user sample of at least 1, "
                         f"got n_users={n_users}")
    index = split.index(model.n_users)
    relevant = index.relevant(task)
    eligible = np.flatnonzero(relevant.sizes(np.arange(model.n_users)))
    users = sample_eval_users(eligible.tolist(), model.n_users, n_users, seed)
    if not users:
        raise ValueError(f"no eligible users for task {task!r}")

    per_user = [hit_metrics(rank_by_score(model.user_emb[rows] @ model.item_emb.T,
                                          k=k, exclude=index.train.select(rows)),
                            relevant, rows, k)
                for rows in row_chunks(users, model.n_items)]
    # summed user by user in order, as a per-user loop would
    recall_sum, ndcg_sum = np.cumsum(np.concatenate(per_user, axis=1), axis=1)[:, -1]
    n = len(users)
    return EvalReport(task=task, k=k, recall=float(recall_sum) / n,
                      ndcg=float(ndcg_sum) / n, n_users=n, seed=seed,
                      fingerprint=fingerprint)


def adoption_rate(decisions) -> AdoptionStats:
    """Accepted / filtered over refine decisions (records or DecisionLog)."""
    records = getattr(decisions, "records", decisions)
    records = list(records)
    if not records:
        raise ValueError("decision log is empty")
    accepted = sum(1 for r in records if r["z"])
    return AdoptionStats(filtered=len(records), accepted=accepted)


def format_report(report: EvalReport) -> str:
    """Aligned text table for one report."""
    rows = [("task", report.task), ("K", report.k),
            (f"Recall@{report.k}", f"{report.recall:.4f}"),
            (f"NDCG@{report.k}", f"{report.ndcg:.4f}"),
            ("users", report.n_users), ("seed", report.seed)]
    width = max(len(str(name)) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows) + "\n"


def reports_to_csv(rows: list[dict], path: str | Path) -> None:
    """Write sweep/ablation rows as CSV; column order is fixed by first row."""
    if not rows:
        raise ValueError("no rows to write")
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    store.write_atomic(path, buf.getvalue())
