"""Interaction logs, item content catalogs, and the cold/warm split.

Input formats
-------------
CiteULike-style corpus directory:
    ``users.dat``   one line per user, whitespace-separated raw item indices
    ``items.tsv``   tab-separated ``raw_id<TAB>title<TAB>abstract``

MovieLens-style corpus directory:
    ``ratings.dat`` ``user::item::rating::timestamp`` records
    ``movies.dat``  ``id::title::genre|genre|...`` records

Both loaders re-index users and items to dense integers starting at 0 and
can persist the dense-to-raw mapping as JSON.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import store
from .metrics import PairSets, pair_array, sorted_positions

logger = logging.getLogger(__name__)

# evaluation tasks: the test positives of the warm items, the cold items, or both
TASKS = ("overall", "warm", "cold")


def lexsorted(pairs: np.ndarray) -> np.ndarray:
    """The rows of an (n, 2) pair array sorted by user, then item, equal rows
    in their order: one stable sort of ``user * width + item``, ``width`` the
    largest item plus 1, which orders rows as ``np.lexsort`` does for ids in
    ``[0, 2**31)``, as every caller's dense ids are."""
    width = np.int64(pairs[:, 1].max(initial=-1)) + 1
    return pairs[np.argsort(pairs[:, 0] * width + pairs[:, 1], kind="stable")]


def _groups(keys: np.ndarray, values: np.ndarray, n: int) -> list[np.ndarray]:
    """``values`` cut into read-only groups by their ``keys`` in ``[0, n)``,
    each group in the order of ``values``."""
    grouped = values[np.argsort(keys, kind="stable")]
    grouped.flags.writeable = False
    ends = np.cumsum(np.bincount(keys, minlength=n)).tolist()
    return [grouped[start:end] for start, end in zip([0] + ends[:-1], ends)]


@dataclass
class InteractionLog:
    """Historical user-item interactions with dense ids.

    ``pairs`` is an (n, 2) int64 array holding every (user, item) exactly
    once, in first-occurrence order.  ``user_items[u]`` is the user's item
    history in that order and ``item_users[i]`` the item's users ascending,
    both read-only int64 arrays.
    """

    n_users: int
    n_items: int
    pairs: np.ndarray
    user_items: list[np.ndarray]
    item_users: list[np.ndarray]

    @classmethod
    def from_pairs(cls, n_users: int, n_items: int, pairs) -> "InteractionLog":
        """Build adjacency from (user, item) pairs, an (n, 2) array or a
        sequence of 2-sequences.

        Duplicate pairs are collapsed; the first occurrence fixes the order
        within the user's history.
        """
        pairs = pair_array(pairs)
        bad = ((pairs < 0) | (pairs >= (n_users, n_items))).any(axis=1)
        if bad.any():
            u, i = pairs[bad.argmax()].tolist()
            raise ValueError(f"pair ({u}, {i}) outside id universe "
                             f"{n_users}x{n_items}")
        # a stable sort by (user, item) and a mask keep each first occurrence
        keys = pairs[:, 0] * n_items + pairs[:, 1]
        order = np.argsort(keys, kind="stable")
        first = np.ones(len(order), dtype=bool)
        first[1:] = keys[order[1:]] != keys[order[:-1]]
        ascending = pairs[order[first]]
        pairs = pairs[np.sort(order[first])]
        return cls(n_users=n_users, n_items=n_items, pairs=pairs,
                   user_items=_groups(pairs[:, 0], pairs[:, 1], n_users),
                   item_users=_groups(ascending[:, 1], ascending[:, 0], n_items))


@dataclass
class ItemCatalog:
    """Item id to content text; titles kept separately when the source has them."""

    content: dict[int, str]
    titles: dict[int, str] | None = None

    def text(self, item: int) -> str:
        return self.content[item]

    def title(self, item: int) -> str:
        if self.titles is not None and item in self.titles:
            return self.titles[item]
        return self.content[item]

    def __len__(self) -> int:
        return len(self.content)


@dataclass(frozen=True)
class SplitIndex:
    """Array forms of a split's interactions over ``n_users`` users.

    Built once per split and user count by :meth:`ColdWarmSplit.index` and
    shared by every stage that reads histories, masks or relevant sets, so
    callers read its lists and arrays and never change them.
    """

    warm: np.ndarray                # warm item ids, ascending
    train: PairSets                 # warm-train; column j is item j
    train_warm: PairSets            # warm-train; column j is item warm[j]
    val_warm: PairSets              # warm-val; column j is item warm[j]
    val_users: list[int]            # distinct warm-val users, ascending
    train_users: list[int]          # distinct warm-train users, ascending
    train_items: list[list[int]]    # each user's warm-train items, ascending
    test: dict[str, PairSets]       # each task's relevant test pairs

    @classmethod
    def build(cls, split: "ColdWarmSplit", n_users: int) -> "SplitIndex":
        warm = np.unique(np.asarray(split.warm_items, dtype=np.int64))
        train, val = split.warm_train, split.warm_val
        train_sets = PairSets.from_pairs(train, n_users)
        flat, ptr = train_sets.indices.tolist(), train_sets.indptr.tolist()
        return cls(
            warm=warm, train=train_sets,
            train_warm=PairSets.from_pairs(train, n_users, columns=warm),
            val_warm=PairSets.from_pairs(val, n_users, columns=warm),
            val_users=np.flatnonzero(np.bincount(val[:, 0],
                                                 minlength=n_users)).tolist(),
            train_users=np.flatnonzero(np.diff(train_sets.indptr)).tolist(),
            train_items=[flat[ptr[u]:ptr[u + 1]] for u in range(n_users)],
            test={"overall": PairSets.from_pairs(
                      np.concatenate([split.warm_test, split.cold_test]),
                      n_users),
                  "warm": PairSets.from_pairs(split.warm_test, n_users),
                  "cold": PairSets.from_pairs(split.cold_test, n_users)})

    def relevant(self, task: str) -> PairSets:
        """Each user's test positives for an evaluation task."""
        if task not in self.test:
            raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")
        return self.test[task]


# the split's (n, 2) int64 pair fields
PAIR_FIELDS = ("warm_train", "warm_val", "warm_test", "cold_val", "cold_test")


@dataclass
class ColdWarmSplit:
    """Cold/warm item partition with per-split interaction sets.

    ``warm_items`` and ``cold_items`` are lists of item ids, ascending as
    :func:`make_cold_split` and :meth:`load` give them.  The five pair
    fields are (n, 2) int64 arrays of (user, item) rows, kept in the order
    given; the constructor converts sequences of pairs.  A split is not
    changed after its first use: :meth:`index` keeps what it derives from
    the pair arrays.
    """

    warm_items: list[int]
    cold_items: list[int]
    warm_train: np.ndarray
    warm_val: np.ndarray
    warm_test: np.ndarray
    cold_val: np.ndarray
    cold_test: np.ndarray
    seed: int
    cold_frac: float

    def __post_init__(self):
        for name in PAIR_FIELDS:
            setattr(self, name, pair_array(getattr(self, name), name))
        self._indexes: dict[int, SplitIndex] = {}

    @cached_property
    def warm_train_set(self) -> set:
        """The warm-train pairs as a set of tuples, built on first read."""
        return set(map(tuple, self.warm_train.tolist()))

    def index(self, n_users: int) -> SplitIndex:
        """The split's :class:`SplitIndex` over ``n_users`` users, built on
        first use and kept."""
        if n_users not in self._indexes:
            self._indexes[n_users] = SplitIndex.build(self, n_users)
        return self._indexes[n_users]

    def save(self, path: str | Path) -> None:
        doc = {"seed": self.seed, "cold_frac": self.cold_frac,
               "warm_items": sorted(self.warm_items),
               "cold_items": sorted(self.cold_items),
               **{name: getattr(self, name).tolist() for name in PAIR_FIELDS}}
        store.write_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ColdWarmSplit":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return cls(warm_items=list(doc["warm_items"]),
                   cold_items=list(doc["cold_items"]),
                   **{name: doc[name] for name in PAIR_FIELDS},
                   seed=int(doc["seed"]), cold_frac=float(doc["cold_frac"]))


def _raw_ids(ids, path) -> np.ndarray:
    """Raw ids read from ``path`` as an int64 array."""
    try:
        return np.asarray(ids, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"{path}: an id is outside the int64 range") from None


def _persist_idmap(path, raw_user_ids, raw_item_ids) -> None:
    doc = {"users": list(raw_user_ids), "items": list(raw_item_ids)}
    store.write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def _dense_corpus(source: str, raw_user_ids, users: np.ndarray,
                  raw_items: np.ndarray, items_path: Path,
                  texts: dict[int, tuple[str, str]], mapping_path):
    """(InteractionLog, ItemCatalog) of parsed interactions: dense ``users``
    (positions in ``raw_user_ids``) with ``raw_items``, and ``texts``, each
    raw item id of ``items_path`` to its (title, content).  Items are
    re-indexed densely in ascending raw order.  An interaction whose item
    has no catalog row, or an item with empty content, raises ValueError.
    """
    raw_item_ids = sorted(texts)
    items = sorted_positions(_raw_ids(raw_item_ids, items_path), raw_items)
    missing = np.unique(raw_items[items < 0])
    if len(missing):
        raise ValueError(f"{len(missing)} items referenced without metadata "
                         f"(e.g. raw id {missing[0]})")
    extra = np.count_nonzero(np.bincount(items, minlength=len(texts)) == 0)
    if extra:
        logger.info("%d catalog items have no interactions", extra)
    log = InteractionLog.from_pairs(len(raw_user_ids), len(raw_item_ids),
                                    np.column_stack([users, items]))
    dense = {raw: idx for idx, raw in enumerate(raw_item_ids)}
    content, titles = {}, {}
    for raw, (title, text) in texts.items():
        if not text:
            raise ValueError(f"item raw id {raw} has empty content")
        titles[dense[raw]], content[dense[raw]] = title, text
    if mapping_path is not None:
        _persist_idmap(mapping_path, raw_user_ids, raw_item_ids)
    logger.info("%s corpus: %d users, %d items, %d interactions", source,
                log.n_users, log.n_items, len(log.pairs))
    return log, ItemCatalog(content=content, titles=titles)


def load_citeulike(path: str | Path, mapping_path: str | Path | None = None):
    """Load a CiteULike-style corpus: ``users.dat`` and ``items.tsv`` in ``path``.

    Line number in ``users.dat`` is the user id.  Raw item indices are
    re-indexed densely in ascending raw order.  Every item referenced by the
    interaction file must have a metadata row.

    Returns ``(InteractionLog, ItemCatalog)``.
    """
    root = Path(path)
    users_path, items_path = root / "users.dat", root / "items.tsv"
    for p in (users_path, items_path):
        if not p.exists():
            raise FileNotFoundError(f"missing file: {p}")

    texts: dict[int, tuple[str, str]] = {}   # raw id: (title, content)
    with open(items_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise ValueError(f"{items_path}:{lineno}: malformed line, "
                                 f"expected id<TAB>title[<TAB>abstract]")
            try:
                raw = int(fields[0])
            except ValueError:
                raise ValueError(f"{items_path}:{lineno}: non-integer item id "
                                 f"{fields[0]!r}") from None
            title = fields[1]
            abstract = fields[2] if len(fields) > 2 else ""
            texts[raw] = (title, f"{title}. {abstract}".strip()
                          if abstract else title)

    raw_items: list[int] = []   # every user's raw items, user after user
    counts: list[int] = []      # items per user
    with open(users_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            for tok in toks:
                try:
                    raw_items.append(int(tok))
                except ValueError:
                    raise ValueError(f"{users_path}:{lineno}: non-integer item "
                                     f"index {tok!r}") from None
            counts.append(len(toks))

    if not raw_items:
        raise ValueError(f"{users_path}: no interactions")

    return _dense_corpus("citeulike", range(len(counts)),
                         np.repeat(np.arange(len(counts)), counts),
                         _raw_ids(raw_items, users_path), items_path, texts,
                         mapping_path)


def load_movielens(path: str | Path, mapping_path: str | Path | None = None,
                   min_rating: float = 0):
    """Load a MovieLens-style corpus: ``ratings.dat`` and ``movies.dat`` in
    ``path``.

    Every rating record with rating >= ``min_rating`` becomes a positive
    interaction (default keeps all records).  The item universe is the
    movies file; movies never rated stay in the catalog with an empty
    interaction sequence, and :func:`make_cold_split` makes them cold.

    Returns ``(InteractionLog, ItemCatalog)``.
    """
    root = Path(path)
    ratings_path, movies_path = root / "ratings.dat", root / "movies.dat"
    for p in (ratings_path, movies_path):
        if not p.exists():
            raise FileNotFoundError(f"missing file: {p}")

    texts: dict[int, tuple[str, str]] = {}   # raw id: (title, content)
    with open(movies_path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("::")
            if len(fields) != 3:
                raise ValueError(f"{movies_path}:{lineno}: malformed line, "
                                 f"expected id::title::genres")
            try:
                raw = int(fields[0])
            except ValueError:
                raise ValueError(f"{movies_path}:{lineno}: non-integer movie id "
                                 f"{fields[0]!r}") from None
            genre_text = " ".join(g for g in fields[2].split("|") if g)
            texts[raw] = (fields[1], f"{fields[1]} {genre_text}".strip())

    records: list[tuple[int, int]] = []
    with open(ratings_path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split("::")
            if len(fields) != 4:
                raise ValueError(f"{ratings_path}:{lineno}: malformed line, "
                                 f"expected user::item::rating::timestamp")
            try:
                ru, ri, rating = int(fields[0]), int(fields[1]), float(fields[2])
            except ValueError:
                raise ValueError(f"{ratings_path}:{lineno}: non-numeric field") from None
            if ri not in texts:
                raise ValueError(f"{ratings_path}:{lineno}: item {ri} referenced "
                                 f"without metadata")
            if rating < min_rating:
                continue
            records.append((ru, ri))

    if not records:
        raise ValueError(f"{ratings_path}: no interactions")

    raw = _raw_ids(records, ratings_path)
    raw_user_ids, users = np.unique(raw[:, 0], return_inverse=True)
    return _dense_corpus("movielens", raw_user_ids.tolist(), users, raw[:, 1],
                         movies_path, texts, mapping_path)


def make_cold_split(log: InteractionLog, cold_frac: float, seed: int,
                    cold_items=None) -> ColdWarmSplit:
    """Designate cold items and partition interactions.

    floor(cold_frac * rated) of the ``rated`` items, those with an
    interaction, are sampled uniformly as cold (or taken from
    ``cold_items`` when given, e.g. planted experiments).  Every item with
    no interaction is cold as well: it is the cold-start case itself, and
    has no pairs to train or evaluate on.  Each cold item's interactions
    split 1:1 into validation and test, the odd record going to test; an
    item with a single interaction contributes it to test only.  Warm
    interactions split 8:1:1 globally at random.  Deterministic given the
    seed.
    """
    if not (0 <= cold_frac < 1):
        raise ValueError(f"cold_frac must be in [0, 1), got {cold_frac}")
    sizes = np.bincount(log.pairs[:, 1], minlength=log.n_items)
    rated = np.flatnonzero(sizes)
    unrated = np.flatnonzero(sizes == 0).tolist()

    rng = np.random.default_rng(seed)
    if cold_items is None:
        # with every item rated, rated[i] == i: the draw is the same
        n_cold = math.floor(cold_frac * len(rated))
        cold = rated[rng.choice(len(rated), size=n_cold, replace=False)].tolist()
    else:
        cold = sorted(int(i) for i in cold_items)
        if len(set(cold)) != len(cold) or any(not 0 <= i < log.n_items for i in cold):
            raise ValueError("cold_items must be distinct in-range item ids")
    if unrated:
        logger.info("%d items have no interactions; they are cold", len(unrated))
    cold = sorted(set(cold).union(unrated))
    cold_ids = np.asarray(cold, dtype=np.int64)
    is_cold = np.zeros(log.n_items, dtype=bool)
    is_cold[cold_ids] = True

    # each cold item's users, ascending, in one permutation each; the first
    # half of every item's shuffled users goes to validation
    sizes = sizes[cold_ids]
    users = np.concatenate([np.zeros(0, dtype=np.int64)] + [
        log.item_users[i][rng.permutation(n)] for i, n in zip(cold, sizes.tolist())])
    rank = np.arange(len(users)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    to_val = rank < np.repeat(sizes // 2, sizes)
    cold_pairs = np.column_stack([users, np.repeat(cold_ids, sizes)])

    warm_pairs = log.pairs[~is_cold[log.pairs[:, 1]]]
    n = len(warm_pairs)
    warm_pairs = warm_pairs[rng.permutation(n)]
    n_train, n_val = math.floor(0.8 * n), math.floor(0.1 * n)

    return ColdWarmSplit(warm_items=np.flatnonzero(~is_cold).tolist(),
                         cold_items=cold,
                         warm_train=lexsorted(warm_pairs[:n_train]),
                         warm_val=lexsorted(warm_pairs[n_train:n_train + n_val]),
                         warm_test=lexsorted(warm_pairs[n_train + n_val:]),
                         cold_val=lexsorted(cold_pairs[to_val]),
                         cold_test=lexsorted(cold_pairs[~to_val]),
                         seed=seed, cold_frac=cold_frac)
