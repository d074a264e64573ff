"""Grouped synthetic corpus with the CiteULike counts, written as corpus files.

Users and items are dealt into interest groups.  Every item first gets one
user of its own group, so no item is left without interactions; the
remaining pairs pick a uniform user and, with probability ``in_group``, an
item of that user's group, otherwise a uniform item.  Titles and abstracts
draw most of their words from the item's group vocabulary, so hashed
content vectors, the threshold oracle and the filters all see the groups.

At ``scale=1`` the counts are exactly 5,551 users, 16,980 items and
204,986 pairs, and a 0.2 cold split holds 3,396 items.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CITEULIKE_USERS = 5551
CITEULIKE_ITEMS = 16980
CITEULIKE_PAIRS = 204986
CITEULIKE_COLD = 3396
COLD_FRAC = 0.2

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z")
_VOWELS = ("a", "e", "i", "o", "u")
WORDS_PER_GROUP = 6


@dataclass
class GroupedCorpus:
    per_user: list[list[int]]                  # item ids per user, generation order
    metadata: list[tuple[int, str, str]]       # (raw id, title, abstract)

    @property
    def n_pairs(self) -> int:
        return sum(len(items) for items in self.per_user)


def scaled_counts(scale: float) -> tuple[int, int, int]:
    """(users, items, pairs) at ``scale`` times the CiteULike counts."""
    if scale == 1:
        return CITEULIKE_USERS, CITEULIKE_ITEMS, CITEULIKE_PAIRS
    return (max(8, round(CITEULIKE_USERS * scale)),
            max(8, round(CITEULIKE_ITEMS * scale)),
            max(16, round(CITEULIKE_PAIRS * scale)))


def _word(group: int, j: int) -> str:
    """Pronounceable token unique to (group, j); the noise group is -1."""
    n = (group + 1) * WORDS_PER_GROUP + j
    syllables = []
    for _ in range(3):
        n, r = divmod(n, len(_ONSETS) * len(_VOWELS))
        syllables.append(_ONSETS[r // len(_VOWELS)] + _VOWELS[r % len(_VOWELS)])
    return "".join(syllables)


def _members(group_of: np.ndarray, n_groups: int):
    """Ids sorted by group, and each group's start offset (plus the end)."""
    by_group = np.argsort(group_of, kind="stable")
    start = np.zeros(n_groups + 1, dtype=np.int64)
    start[1:] = np.cumsum(np.bincount(group_of, minlength=n_groups))
    return by_group, start


def make_grouped_corpus(seed: int, scale: float = 1.0, n_groups: int = 40,
                        in_group: float = 0.8) -> GroupedCorpus:
    """Deterministic grouped corpus for ``seed``; see the module docstring."""
    n_users, n_items, n_pairs = scaled_counts(scale)
    n_groups = min(n_groups, n_users, n_items)
    rng = np.random.default_rng(seed)
    user_group = rng.permutation(n_users) % n_groups
    item_group = rng.permutation(n_items) % n_groups
    users_by_group, user_start = _members(user_group, n_groups)
    items_by_group, item_start = _members(item_group, n_groups)

    def pick_member(by_group, start, groups, u01):
        size = start[groups + 1] - start[groups]
        return by_group[start[groups] + (u01 * size).astype(np.int64)]

    first_users = pick_member(users_by_group, user_start, item_group,
                              rng.random(n_items))
    keys = [first_users * n_items + np.arange(n_items)]
    seen = set(keys[0].tolist())
    total = len(seen)
    while total < n_pairs:
        need = n_pairs - total
        us = rng.integers(n_users, size=need + 1024)
        own = rng.random(need + 1024) < in_group
        pick = rng.random(need + 1024)
        its = rng.integers(n_items, size=need + 1024)
        its[own] = pick_member(items_by_group, item_start,
                               user_group[us[own]], pick[own])
        fresh = []
        for key in (us * n_items + its).tolist():
            if key not in seen:
                seen.add(key)
                fresh.append(key)
                total += 1
                if total == n_pairs:
                    break
        keys.append(np.asarray(fresh, dtype=np.int64))
    all_keys = np.concatenate(keys)
    per_user: list[list[int]] = [[] for _ in range(n_users)]
    for key in all_keys.tolist():
        per_user[key // n_items].append(key % n_items)

    metadata = []
    noise = [_word(-1, j) for j in range(WORDS_PER_GROUP * 4)]
    for i in range(n_items):
        g = int(item_group[i])
        vocab = [_word(g, j) for j in range(WORDS_PER_GROUP)]
        words = rng.integers(WORDS_PER_GROUP, size=8)
        fill = rng.integers(len(noise), size=4)
        title = " ".join([vocab[w] for w in words[:3]] + [noise[fill[0]]])
        abstract = " ".join([vocab[w] for w in words[3:]]
                            + [noise[f] for f in fill[1:]] + [f"paper{i}"])
        metadata.append((i, title, abstract))
    return GroupedCorpus(per_user=per_user, metadata=metadata)


def write_corpus(corpus: GroupedCorpus, root: str | Path) -> Path:
    """Write ``users.dat`` and ``items.tsv`` in the CiteULike layout."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "users.dat", "w", encoding="utf-8") as fh:
        for items in corpus.per_user:
            fh.write(" ".join(map(str, items)) + "\n")
    with open(root / "items.tsv", "w", encoding="utf-8") as fh:
        for raw, title, abstract in corpus.metadata:
            fh.write(f"{raw}\t{title}\t{abstract}\n")
    return root


def self_check(seed: int = 0) -> None:
    """Raise unless the full-scale corpus has the CiteULike counts."""
    corpus = make_grouped_corpus(seed)
    n_users, n_items = len(corpus.per_user), len(corpus.metadata)
    n_cold = math.floor(COLD_FRAC * n_items)
    got = (n_users, n_items, corpus.n_pairs, n_cold)
    want = (CITEULIKE_USERS, CITEULIKE_ITEMS, CITEULIKE_PAIRS, CITEULIKE_COLD)
    if got != want:
        raise RuntimeError(f"grouped corpus counts {got} != CiteULike {want}")
    covered = {i for items in corpus.per_user for i in items}
    if len(covered) != n_items:
        raise RuntimeError(f"{n_items - len(covered)} items have no interactions")
