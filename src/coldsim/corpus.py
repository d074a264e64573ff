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

import itertools
import json
import logging
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import store
from .metrics import PairSets

logger = logging.getLogger(__name__)

# evaluation tasks: the test positives of the warm items, the cold items, or both
TASKS = ("overall", "warm", "cold")


@dataclass
class InteractionLog:
    """Historical user-item interactions with dense ids.

    ``user_items[u]`` is the user's item history in input order and
    ``item_users[i]`` is the item's interacted-user sequence (ascending
    user id).  ``pairs`` holds every (user, item) exactly once.
    """

    n_users: int
    n_items: int
    pairs: list[tuple[int, int]]
    user_items: list[list[int]]
    item_users: list[list[int]]
    raw_user_ids: list = field(default_factory=list)
    raw_item_ids: list = field(default_factory=list)

    @classmethod
    def from_pairs(cls, n_users: int, n_items: int, pairs,
                   raw_user_ids=None, raw_item_ids=None) -> "InteractionLog":
        """Build adjacency from an iterable of (user, item) pairs.

        Duplicate pairs are collapsed; the first occurrence fixes the order
        within the user's history.
        """
        seen = set()
        uniq = []
        user_items = [[] for _ in range(n_users)]
        item_users = [[] for _ in range(n_items)]
        for u, i in pairs:
            if not (0 <= u < n_users and 0 <= i < n_items):
                raise ValueError(f"pair ({u}, {i}) outside id universe "
                                 f"{n_users}x{n_items}")
            if (u, i) in seen:
                continue
            seen.add((u, i))
            uniq.append((u, i))
            user_items[u].append(i)
        for u, i in sorted(uniq):
            item_users[i].append(u)
        return cls(n_users=n_users, n_items=n_items, pairs=uniq,
                   user_items=user_items, item_users=item_users,
                   raw_user_ids=list(raw_user_ids or range(n_users)),
                   raw_item_ids=list(raw_item_ids or range(n_items)))


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
    train_pairs: np.ndarray         # warm-train (user, item) rows, list order
    train: PairSets                 # warm-train; column j is item j
    train_warm: PairSets            # warm-train; column j is item warm[j]
    val_warm: PairSets              # warm-val; column j is item warm[j]
    val_users: list[int]            # distinct warm-val users, ascending
    train_users: list[int]          # distinct warm-train users, ascending
    train_items: list[list[int]]    # each user's warm-train items, ascending
    test: dict[str, PairSets]       # each task's relevant test pairs

    @classmethod
    def build(cls, split: "ColdWarmSplit", n_users: int) -> "SplitIndex":
        def arr(pairs):
            flat = itertools.chain.from_iterable(pairs)
            return np.fromiter(flat, dtype=np.int64,
                               count=2 * len(pairs)).reshape(-1, 2)

        warm = np.unique(np.asarray(split.warm_items, dtype=np.int64))
        train, val = arr(split.warm_train), arr(split.warm_val)
        warm_test, cold_test = arr(split.warm_test), arr(split.cold_test)
        train_sets = PairSets.from_pairs(train, n_users)
        flat, ptr = train_sets.indices.tolist(), train_sets.indptr.tolist()
        return cls(
            warm=warm, train_pairs=train, train=train_sets,
            train_warm=PairSets.from_pairs(train, n_users, columns=warm),
            val_warm=PairSets.from_pairs(val, n_users, columns=warm),
            val_users=np.flatnonzero(np.bincount(val[:, 0],
                                                 minlength=n_users)).tolist(),
            train_users=np.flatnonzero(np.diff(train_sets.indptr)).tolist(),
            train_items=[flat[ptr[u]:ptr[u + 1]] for u in range(n_users)],
            test={"overall": PairSets.from_pairs(
                      np.concatenate([warm_test, cold_test]), n_users),
                  "warm": PairSets.from_pairs(warm_test, n_users),
                  "cold": PairSets.from_pairs(cold_test, n_users)})

    def relevant(self, task: str) -> PairSets:
        """Each user's test positives for an evaluation task."""
        if task not in self.test:
            raise ValueError(f"unknown task {task!r}, expected one of {TASKS}")
        return self.test[task]


@dataclass
class ColdWarmSplit:
    """Cold/warm item partition with per-split interaction sets.

    A split is not changed after its first use: :meth:`index` keeps what
    it derives from the pair lists.
    """

    warm_items: list[int]
    cold_items: list[int]
    warm_train: list[tuple[int, int]]
    warm_val: list[tuple[int, int]]
    warm_test: list[tuple[int, int]]
    cold_val: list[tuple[int, int]]
    cold_test: list[tuple[int, int]]
    seed: int
    cold_frac: float

    def __post_init__(self):
        self._indexes: dict[int, SplitIndex] = {}

    @cached_property
    def warm_train_set(self) -> set:
        """The warm-train pairs as a set, built on first read."""
        return set(self.warm_train)

    def index(self, n_users: int) -> SplitIndex:
        """The split's :class:`SplitIndex` over ``n_users`` users, built on
        first use and kept."""
        if n_users not in self._indexes:
            self._indexes[n_users] = SplitIndex.build(self, n_users)
        return self._indexes[n_users]

    def save(self, path: str | Path) -> None:
        doc = {
            "seed": self.seed,
            "cold_frac": self.cold_frac,
            "warm_items": sorted(self.warm_items),
            "cold_items": sorted(self.cold_items),
            "warm_train": [list(p) for p in sorted(self.warm_train)],
            "warm_val": [list(p) for p in sorted(self.warm_val)],
            "warm_test": [list(p) for p in sorted(self.warm_test)],
            "cold_val": [list(p) for p in sorted(self.cold_val)],
            "cold_test": [list(p) for p in sorted(self.cold_test)],
        }
        store.write_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ColdWarmSplit":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        pairs = lambda key: [tuple(p) for p in doc[key]]
        return cls(warm_items=list(doc["warm_items"]),
                   cold_items=list(doc["cold_items"]),
                   warm_train=pairs("warm_train"), warm_val=pairs("warm_val"),
                   warm_test=pairs("warm_test"), cold_val=pairs("cold_val"),
                   cold_test=pairs("cold_test"),
                   seed=int(doc["seed"]), cold_frac=float(doc["cold_frac"]))

    def check_invariants(self, log: InteractionLog) -> None:
        """Raise AssertionError if the partition contracts are violated."""
        warm, cold = set(self.warm_items), set(self.cold_items)
        assert not warm & cold, "warm and cold item sets overlap"
        assert warm | cold == set(range(log.n_items)), "items lost by the split"
        warm_pairs = [p for p in log.pairs if p[1] in warm]
        cold_pairs = [p for p in log.pairs if p[1] in cold]
        got_warm = self.warm_train + self.warm_val + self.warm_test
        assert sorted(got_warm) == sorted(warm_pairs), "warm splits do not partition"
        assert len(set(got_warm)) == len(got_warm), "warm pair duplicated across splits"
        got_cold = self.cold_val + self.cold_test
        assert sorted(got_cold) == sorted(cold_pairs), "cold splits do not partition"
        assert len(set(got_cold)) == len(got_cold), "cold pair duplicated across splits"
        for _, i in got_warm:
            assert i not in cold, "cold interaction leaked into a warm split"


def _persist_idmap(path, raw_user_ids, raw_item_ids) -> None:
    doc = {"users": list(raw_user_ids), "items": list(raw_item_ids)}
    store.write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")


def load_citeulike(path: str | Path, mapping_path: str | Path | None = None,
                   users_file: str = "users.dat", items_file: str = "items.tsv"):
    """Load a CiteULike-style corpus.

    Line number in ``users_file`` is the user id.  Raw item indices are
    re-indexed densely in ascending raw order.  Every item referenced by the
    interaction file must have a metadata row.

    Returns ``(InteractionLog, ItemCatalog)``.
    """
    root = Path(path)
    users_path, items_path = root / users_file, root / items_file
    for p in (users_path, items_path):
        if not p.exists():
            raise FileNotFoundError(f"missing file: {p}")

    meta: dict[int, tuple[str, str]] = {}
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
            meta[raw] = (title, abstract)

    per_user_raw: list[list[int]] = []
    with open(users_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            items = []
            for tok in toks:
                try:
                    items.append(int(tok))
                except ValueError:
                    raise ValueError(f"{users_path}:{lineno}: non-integer item "
                                     f"index {tok!r}") from None
            per_user_raw.append(items)

    if not any(per_user_raw):
        raise ValueError(f"{users_path}: no interactions")

    interacted = {raw for items in per_user_raw for raw in items}
    missing = interacted - meta.keys()
    if missing:
        raise ValueError(f"{len(missing)} items referenced without metadata "
                         f"(e.g. raw id {sorted(missing)[0]})")
    extra = meta.keys() - interacted
    if extra:
        logger.info("%d catalog items have no interactions", len(extra))

    raw_item_ids = sorted(meta)
    item_of_raw = {raw: idx for idx, raw in enumerate(raw_item_ids)}
    pairs = [(u, item_of_raw[raw])
             for u, items in enumerate(per_user_raw) for raw in items]
    log = InteractionLog.from_pairs(len(per_user_raw), len(raw_item_ids), pairs,
                                    raw_item_ids=raw_item_ids)
    content = {}
    titles = {}
    for raw, (title, abstract) in meta.items():
        i = item_of_raw[raw]
        titles[i] = title
        content[i] = f"{title}. {abstract}".strip() if abstract else title
        if not content[i]:
            raise ValueError(f"item raw id {raw} has empty content")
    catalog = ItemCatalog(content=content, titles=titles)
    if mapping_path is not None:
        _persist_idmap(mapping_path, log.raw_user_ids, log.raw_item_ids)
    logger.info("citeulike corpus: %d users, %d items, %d interactions",
                log.n_users, log.n_items, len(log.pairs))
    return log, catalog


def load_movielens(path: str | Path, mapping_path: str | Path | None = None,
                   min_rating: float = 0,
                   ratings_file: str = "ratings.dat",
                   movies_file: str = "movies.dat"):
    """Load a MovieLens-style corpus.

    Every rating record with rating >= ``min_rating`` becomes a positive
    interaction (default keeps all records).  The item universe is the
    movies file; movies never rated stay in the catalog with an empty
    interaction sequence.

    Returns ``(InteractionLog, ItemCatalog)``.
    """
    root = Path(path)
    ratings_path, movies_path = root / ratings_file, root / movies_file
    for p in (ratings_path, movies_path):
        if not p.exists():
            raise FileNotFoundError(f"missing file: {p}")

    meta: dict[int, tuple[str, str]] = {}
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
            meta[raw] = (fields[1], fields[2])

    records: list[tuple[int, int]] = []
    raw_users: list[int] = []
    seen_users: set[int] = set()
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
            if ri not in meta:
                raise ValueError(f"{ratings_path}:{lineno}: item {ri} referenced "
                                 f"without metadata")
            if rating < min_rating:
                continue
            if ru not in seen_users:
                seen_users.add(ru)
                raw_users.append(ru)
            records.append((ru, ri))

    if not records:
        raise ValueError(f"{ratings_path}: no interactions")

    raw_user_ids = sorted(seen_users)
    raw_item_ids = sorted(meta)
    user_of_raw = {raw: idx for idx, raw in enumerate(raw_user_ids)}
    item_of_raw = {raw: idx for idx, raw in enumerate(raw_item_ids)}
    pairs = [(user_of_raw[ru], item_of_raw[ri]) for ru, ri in records]
    log = InteractionLog.from_pairs(len(raw_user_ids), len(raw_item_ids), pairs,
                                    raw_user_ids=raw_user_ids,
                                    raw_item_ids=raw_item_ids)
    content, titles = {}, {}
    for raw, (title, genres) in meta.items():
        i = item_of_raw[raw]
        titles[i] = title
        genre_text = " ".join(g for g in genres.split("|") if g)
        content[i] = f"{title} {genre_text}".strip()
    catalog = ItemCatalog(content=content, titles=titles)
    if mapping_path is not None:
        _persist_idmap(mapping_path, log.raw_user_ids, log.raw_item_ids)
    logger.info("movielens corpus: %d users, %d items, %d interactions",
                log.n_users, log.n_items, len(log.pairs))
    return log, catalog


def make_cold_split(log: InteractionLog, cold_frac: float, seed: int,
                    cold_items=None) -> ColdWarmSplit:
    """Designate cold items and partition interactions.

    floor(cold_frac * n_items) items are sampled uniformly as cold (or
    taken from ``cold_items`` when given, e.g. planted experiments).  Each
    cold item's interactions split 1:1 into validation and test, the odd
    record going to test; an item with a single interaction contributes it
    to test only.  Warm interactions split 8:1:1 globally at random.
    Deterministic given the seed.
    """
    if not (0 <= cold_frac < 1):
        raise ValueError(f"cold_frac must be in [0, 1), got {cold_frac}")
    empty = [i for i in range(log.n_items) if not log.item_users[i]]
    if empty:
        raise ValueError(f"{len(empty)} items have no interactions "
                         f"(e.g. item {empty[0]}); cannot split")

    rng = np.random.default_rng(seed)
    if cold_items is None:
        n_cold = math.floor(cold_frac * log.n_items)
        cold = sorted(rng.choice(log.n_items, size=n_cold, replace=False).tolist())
    else:
        cold = sorted(int(i) for i in cold_items)
        if len(set(cold)) != len(cold) or any(not 0 <= i < log.n_items for i in cold):
            raise ValueError("cold_items must be distinct in-range item ids")
    cold_set = set(cold)
    warm = [i for i in range(log.n_items) if i not in cold_set]

    cold_val, cold_test = [], []
    for i in cold:
        users = log.item_users[i]
        order = rng.permutation(len(users))
        n_val = len(users) // 2
        for pos, k in enumerate(order):
            (cold_val if pos < n_val else cold_test).append((users[k], i))

    warm_pairs = [p for p in log.pairs if p[1] not in cold_set]
    order = rng.permutation(len(warm_pairs))
    n = len(warm_pairs)
    n_train, n_val = math.floor(0.8 * n), math.floor(0.1 * n)
    warm_train = [warm_pairs[k] for k in order[:n_train]]
    warm_val = [warm_pairs[k] for k in order[n_train:n_train + n_val]]
    warm_test = [warm_pairs[k] for k in order[n_train + n_val:]]

    return ColdWarmSplit(warm_items=warm, cold_items=cold,
                         warm_train=sorted(warm_train), warm_val=sorted(warm_val),
                         warm_test=sorted(warm_test), cold_val=sorted(cold_val),
                         cold_test=sorted(cold_test),
                         seed=seed, cold_frac=cold_frac)
