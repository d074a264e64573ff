"""Top-K ranking metrics with binary relevance, and the masked top-K ranker."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

logger = logging.getLogger(__name__)

# Most scores in one block when callers rank users chunk by chunk; keeps the
# block and the ranker's temporaries small next to the embedding tables.
RANK_CHUNK_SCORES = 1 << 16
# Fewest users in one block: each block's product reads the whole item
# matrix, so blocks of a few users are bound by that read (about 8x slower
# per user at 4 users than at 16 over 13,584 items of width 200).
RANK_CHUNK_MIN_ROWS = 16


def recall_at_k(ranked, relevant, k: int) -> float:
    """|top-K hits| / |relevant|; 0.0 (logged) when relevant is empty."""
    if len(set(ranked)) != len(ranked):
        raise ValueError("ranked list contains duplicates")
    relevant = set(relevant)
    if not relevant:
        logger.debug("recall_at_k: empty relevant set, returning 0")
        return 0.0
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked, relevant, k: int) -> float:
    """Binary-relevance NDCG: DCG uses 1/log2(rank+1), IDCG fills the top slots."""
    if len(set(ranked)) != len(ranked):
        raise ValueError("ranked list contains duplicates")
    relevant = set(relevant)
    if not relevant:
        logger.debug("ndcg_at_k: empty relevant set, returning 0")
        return 0.0
    dcg = sum(1.0 / math.log2(rank + 1)
              for rank, item in enumerate(ranked[:k], start=1)
              if item in relevant)
    ideal = sum(1.0 / math.log2(rank + 1)
                for rank in range(1, min(len(relevant), k) + 1))
    return dcg / ideal


def rank_by_score(scores: np.ndarray, k: int | None = None,
                  exclude=None) -> np.ndarray:
    """Each row's ``k`` best columns by descending score, ties to the lower.

    ``scores`` is a 2-D (rows, m) block or a 1-D vector (one row).  ``k``
    defaults to m, and ``k > m`` returns all m.  ``exclude`` is an optional
    pair of index arrays (rows, columns) naming entries that are scored -inf
    before ranking, so a row with fewer than ``k`` unmasked entries lists
    its unmasked columns by score and then fills up with masked columns in
    ascending order.  The result has the shape of ``scores`` with the last
    axis cut to ``min(k, m)``.

    Each row's K best come from ``argpartition``; a row whose K-th score is
    tied beyond the free slots takes the tied columns in ascending order, so
    the output equals a full sort by (-score, column).  A NaN score raises
    ValueError naming the first row that holds one.
    """
    block = np.asarray(scores, dtype=np.float64)
    one_row = block.ndim == 1
    block = np.atleast_2d(block)
    n, m = block.shape
    if k is not None and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    k = m if k is None else min(k, m)
    if m and np.isnan(block.max()):     # max propagates NaN
        bad = np.flatnonzero(np.isnan(block).any(axis=1))[0]
        raise ValueError(f"NaN score in row {bad}")
    neg = np.negative(block)            # ascending neg is descending score
    if exclude is not None:
        neg[exclude] = np.inf
    rows = np.arange(n)[:, None]
    if k < m:
        cols = np.argpartition(neg, k - 1, axis=1)[:, :k]
        kth = neg[rows, cols].max(axis=1)
        # rows with more entries at or above the K-th score than K slots
        for r in np.flatnonzero((neg <= kth[:, None]).sum(axis=1) > k):
            cols[r] = _repair_ties(neg[r], kth[r], k)
    else:
        cols = np.broadcast_to(np.arange(m), neg.shape)
    order = np.lexsort((cols, neg[rows, cols]), axis=1)
    ranked = cols[rows, order]
    return ranked[0] if one_row else ranked


def _repair_ties(neg: np.ndarray, kth: float, k: int):
    """Columns of a row's K best: every negated score below ``kth``, then the
    tied columns ascending."""
    above = np.flatnonzero(neg < kth)
    ties = np.flatnonzero(neg == kth)[:k - len(above)]
    return np.concatenate([above, ties])


def pair_array(pairs, name: str = "pairs") -> np.ndarray:
    """``pairs`` as an (n, 2) int64 array, rows in the order given.

    Anything else, such as a flat list of ids or rows of three, raises a
    ValueError naming ``name``.
    """
    try:
        arr = np.asarray(pairs, dtype=np.int64)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr is None or arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must be (user, item) pairs, an (n, 2) "
                         f"array or a sequence of 2-sequences")
    return arr


def sorted_positions(ids: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Each of ``values``' position in the ascending ``ids``; -1 where absent."""
    pos = np.searchsorted(ids, values)
    found = pos < len(ids)
    found[found] = ids[pos[found]] == values[found]
    return np.where(found, pos, -1)


@dataclass(frozen=True)
class PairSets:
    """Each row's set of columns in compressed-row form (a user's items)."""

    indptr: np.ndarray
    indices: np.ndarray

    @classmethod
    def from_pairs(cls, pairs, n_rows: int,
                   columns: np.ndarray | None = None) -> "PairSets":
        """Distinct (row, item) pairs, a sequence or an (n, 2) array; column
        j is item ``j``, or with ``columns`` (ascending item ids) item
        ``columns[j]``.  Pairs whose item is not among ``columns`` are
        dropped; a row outside ``[0, n_rows)`` raises ValueError."""
        arr = pair_array(pairs)
        rows, cols = arr[:, 0], arr[:, 1]
        if len(rows) and not 0 <= rows.min() <= rows.max() < n_rows:
            raise ValueError(f"pair rows span [{rows.min()}, {rows.max()}], "
                             f"outside [0, {n_rows})")
        if columns is not None:
            pos = sorted_positions(columns, cols)
            rows, cols = rows[pos >= 0], pos[pos >= 0]
        width = int(cols.max(initial=0)) + 1
        # sort and drop repeats; numpy 2.4's hashing np.unique is ~20x slower
        # on 9k keys
        keys = np.sort(rows * width + cols)
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = keys[1:] != keys[:-1]
        keys = keys[distinct]
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // width, minlength=n_rows), out=indptr[1:])
        return cls(indptr=indptr, indices=keys % width)

    @cached_property
    def _keys(self) -> tuple[int, np.ndarray]:
        width = int(self.indices.max(initial=0)) + 1
        rows = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        keys = rows * width + self.indices
        return width, np.append(keys, np.iinfo(np.int64).max)

    def contains(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Whether each (row, column) pair is an entry."""
        width, keys = self._keys    # ascending row * width + column, sentinel
        query = rows * width + cols
        return (cols < width) & (keys[np.searchsorted(keys, query)] == query)

    def sizes(self, rows: np.ndarray) -> np.ndarray:
        return self.indptr[rows + 1] - self.indptr[rows]

    def select(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(position in ``rows``, column) index arrays of the rows' entries."""
        starts, lens = self.indptr[rows], self.sizes(rows)
        firsts = np.cumsum(lens) - lens
        within = np.arange(lens.sum()) - np.repeat(firsts, lens)
        return (np.repeat(np.arange(len(rows)), lens),
                self.indices[np.repeat(starts, lens) + within])


def row_chunks(rows, n_cols: int):
    """Consecutive slices of ``rows`` whose score blocks hold at most
    ``RANK_CHUNK_SCORES`` scores over ``n_cols`` columns, or
    ``RANK_CHUNK_MIN_ROWS`` rows when that is more."""
    rows = np.asarray(rows, dtype=np.int64)
    step = max(RANK_CHUNK_MIN_ROWS, RANK_CHUNK_SCORES // max(n_cols, 1))
    for start in range(0, len(rows), step):
        yield rows[start:start + step]


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's ``a[j] @ b[j]`` with the bits of that 1-D dot (a BLAS dot
    per row); a row-wise ``einsum`` changes some of them."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def hit_metrics(ranked: np.ndarray, relevant: PairSets, rows: np.ndarray,
                k: int) -> np.ndarray:
    """Per-row Recall@k and NDCG@k as a (2, rows) array.

    ``ranked`` holds the top columns of each of ``rows`` in rank order, and
    ``relevant`` each row's relevant columns.  Row by row the values equal
    :func:`recall_at_k` and :func:`ndcg_at_k`, gains summed in rank order
    as they sum them; rows with nothing relevant score 0.
    """
    rel_rows, rel_cols = relevant.select(rows)
    width = 1 + max(int(ranked.max(initial=-1)), int(rel_cols.max(initial=-1)))
    is_relevant = np.zeros((len(rows), width), dtype=bool)
    is_relevant[rel_rows, rel_cols] = True
    hits = np.take_along_axis(is_relevant, ranked, axis=1)
    n_rel = np.maximum(relevant.sizes(rows), 1)
    discounts = np.array([1.0 / math.log2(rank + 1) for rank in range(1, k + 1)])
    gains = np.cumsum(hits * discounts[:hits.shape[1]], axis=1)[:, -1]
    ideal = np.cumsum(discounts)[np.minimum(n_rel, k) - 1]
    return np.stack([hits.sum(axis=1) / n_rel, gains / ideal])
