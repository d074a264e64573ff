"""The negative sampler against scalar rejection loops.

``backbone.draw_accepted`` draws every rejection-sampled slot in blocks of
``integers(0, bounds)`` values.  The references below are scalar loops
for the sampler itself, the epoch sampler, the label pool and the
fine-tune export: one ``integers`` call per draw, membership in Python
sets.  The warmup reference is ``scalar_draws`` in
``tests/test_block_paths.py``.  Every comparison asks for equal outputs
and, where the caller owns the generator, an equal final state.
"""

import ast
import logging
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coldsim.backbone import _epoch_triples, draw_accepted, ordered_subsample
from coldsim.corpus import ColdWarmSplit, ItemCatalog
from coldsim.filtering import TwoTowerFilter, sample_label_pairs
from coldsim.metrics import PairSets
from coldsim.refiner import (FinetuneRecord, prepare_finetune_data,
                             render_prompt)

from conftest import as_tuples, context_block, pair_split, tiny_cluster_setup

SRC = Path(__file__).resolve().parent.parent / "src" / "coldsim"


# -- the scalar references ---------------------------------------------------

def scalar_draw_accepted(rng, bounds, rejected, tries, exhausted=None):
    bounds = np.asarray(bounds, dtype=np.int64)
    if bounds.ndim == 1:
        bounds = bounds[:, None]
    draws = np.zeros_like(bounds)
    ok = np.zeros(len(bounds), dtype=bool)
    for slot in range(len(bounds)):
        failed = 0
        while True:
            row = np.array([rng.integers(b) for b in bounds[slot]])
            if not rejected(np.array([slot]), row[None])[0]:
                draws[slot], ok[slot] = row, True
                break
            failed += 1
            if tries is not None and failed == tries:
                fallback = None if exhausted is None else exhausted(slot)
                if fallback is not None:
                    draws[slot], ok[slot] = fallback, True
                break
    return draws, ok


def reference_epoch_triples(rng, positives, warm_items, observed):
    order = rng.permutation(len(positives))
    triples = []
    for k in order:
        u, i = positives[k]
        for _ in range(100):
            j = int(warm_items[rng.integers(len(warm_items))])
            if (u, j) not in observed:
                triples.append((u, i, j))
                break
    skipped = len(positives) - len(triples)
    if skipped:
        logging.getLogger("coldsim.backbone").warning(
            "epoch sampling skipped %d exhausted positives", skipped)
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


def reference_label_pairs(split, n_users, n_positives, seed):
    rng = np.random.default_rng(seed)
    positives = as_tuples(split.warm_train)
    if n_positives is not None and n_positives < len(positives):
        pick = rng.choice(len(positives), size=n_positives, replace=False)
        positives = [positives[idx] for idx in sorted(pick)]
    users = split.index(n_users).train_users
    warm, observed = split.warm_items, split.warm_train_set
    pairs = list(positives)
    for _ in positives:
        for _ in range(100):
            u = users[rng.integers(len(users))]
            i = int(warm[rng.integers(len(warm))])
            if (u, i) not in observed:
                pairs.append((u, i))
                break
    return pairs


def reference_finetune(split, catalog, filt, content_matrix, n_users, mode,
                       seed, n_positives, negatives, top_l):
    rng = np.random.default_rng(seed)
    positives = sorted(as_tuples(split.warm_train))
    if n_positives is not None and n_positives < len(positives):
        pick = rng.choice(len(positives), size=n_positives, replace=False)
        positives = [positives[idx] for idx in sorted(pick)]
    train_items = split.index(n_users).train_items
    warm, observed = split.warm_items, split.warm_train_set
    neg_by_user = {}
    if negatives is not None:
        for u, i in sorted(negatives):
            neg_by_user.setdefault(u, []).append(i)
    item_vectors = filt.item_tower.forward(content_matrix)
    titles = [catalog.title(i) for i in range(len(content_matrix))]

    def make_record(user, item, completion):
        # one user's context: the history's top_l by similarity, then id
        hist_ids = np.asarray(train_items[user], dtype=np.int64)
        sims = item_vectors[hist_ids] @ item_vectors[item]
        items = hist_ids[np.lexsort((hist_ids, -sims))[:top_l]].tolist()
        block = context_block([(user, item, items)], titles)
        return FinetuneRecord(prompt=render_prompt(block, 0),
                              completion=completion)

    def sample_unobserved(u):
        for _ in range(100):
            j = int(warm[rng.integers(len(warm))])
            if (u, j) not in observed:
                return j
        pool = [int(j) for j in warm if (u, j) not in observed]
        return pool[rng.integers(len(pool))] if pool else None

    records, exhausted = [], 0
    for u, i in positives:
        if mode == "online" and neg_by_user.get(u):
            j = neg_by_user[u][rng.integers(len(neg_by_user[u]))]
            records.append(make_record(u, i, "Yes"))
            records.append(make_record(u, j, "No"))
        j = sample_unobserved(u)
        if j is None:
            exhausted += 1
            continue
        records.append(make_record(u, i, "Yes"))
        records.append(make_record(u, j, "No"))
    if exhausted:
        logging.getLogger("coldsim.refiner").warning(
            "%d positives dropped: their users have no unobserved warm item",
            exhausted)
    return records


# -- splits ------------------------------------------------------------------

def dense_split(seed, n_users=4, n_warm=80, shuffled=False):
    """Small integer split at 50-98% density per user.  User 0 has read
    every warm item, and user 1 all but warm items 0 and 1, so about one
    in twelve of user 1's positives runs out of tries before finding one."""
    rng = np.random.default_rng(seed)
    density = rng.uniform(0.5, 0.98, n_users)
    train = {(u, i) for u in range(n_users) for i in range(n_warm)
             if rng.random() < density[u]}
    train |= {(0, i) for i in range(n_warm)} | {(1, i) for i in range(2, n_warm)}
    train -= {(1, 0), (1, 1)}
    warm = list(range(n_warm))
    if shuffled:
        warm = rng.permutation(n_warm).tolist()
    return ColdWarmSplit(warm_items=warm, cold_items=[n_warm],
                         warm_train=sorted(train), warm_val=[], warm_test=[],
                         cold_val=[], cold_test=[(2, n_warm)], seed=seed,
                         cold_frac=0.0)


SPLITS = [("planted", tiny_cluster_setup(seed=4)[1], 40),
          ("dense", dense_split(0), 4),
          ("dense-shuffled", dense_split(1, shuffled=True), 4)]


# -- the sampler itself ------------------------------------------------------

def assert_draws_equal_scalar_loop(seed, bounds, rate, tries):
    """``draw_accepted`` against the scalar loop, without and with an
    ``exhausted`` fallback: the same draws and acceptances, the same
    ``exhausted`` calls and the same final generator state.  Slot ``s``
    rejects about ``rate[s]`` percent of its attempts, and every one at 100."""
    rate = np.asarray(rate, dtype=np.int64)
    width = 1 if np.ndim(bounds) == 1 else np.shape(bounds)[1]

    def rejected(slots, rows):
        # a first draw of 0 passes unless the slot rejects everything
        mix = slots * 7919 + rows @ np.array([104729, 1299709])[:rows.shape[1]]
        return (mix % 100 < rate[slots]) & ((rows[:, 0] > 0)
                                            | (rate[slots] == 100))

    def fallback(rng, calls):
        # draws, and accepts the draw for odd ones
        def exhausted(slot):
            calls.append((slot, int(rng.integers(5))))
            return [calls[-1][1]] * width if calls[-1][1] % 2 else None
        return exhausted

    for with_exhausted in (False, True):
        got_rng, want_rng = (np.random.default_rng((seed, 1)) for _ in range(2))
        got_calls, want_calls = [], []
        got = draw_accepted(got_rng, bounds, rejected, tries=tries,
                            exhausted=fallback(got_rng, got_calls)
                            if with_exhausted else None)
        want = scalar_draw_accepted(want_rng, bounds, rejected, tries,
                                    fallback(want_rng, want_calls)
                                    if with_exhausted else None)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got_calls == want_calls
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("tries", [1, 3, 100, None])
@pytest.mark.parametrize("seed", range(4))
def test_draw_accepted_equals_scalar_loop(seed, tries):
    # mixed bounds, so a rejection rewinds the block, then every slot's
    # bounds equal, so a rejection shifts the block's later rows; over one
    # or more blocks; per-slot rejection rates mixed, then all at one
    # level, and up to always (exhausted slots) when tries are limited
    rng = np.random.default_rng(seed)
    n, width = int(rng.integers(0, 300)), int(rng.integers(1, 3))
    mixed = rng.choice([2, 3, 7, 7, 7, 50], size=(n, width))
    rates = [rng.choice([0, 0, 10, 50, 90], size=n)]
    rates += [np.full(n, level) for level in (10, 50, 90)]
    always = rng.choice(n, size=min(n, 4), replace=False) if tries and n else []
    for rate in rates:
        rate[always] = 100
    for bounds in (mixed, np.repeat(mixed[:1], n, axis=0)):
        for rate in rates:
            assert_draws_equal_scalar_loop(seed, bounds, rate, tries)


@settings(max_examples=160, deadline=None, derandomize=True, database=None)
@given(slots=st.lists(st.tuples(st.sampled_from([1, 2, 3, 7, 50]),
                                st.sampled_from([1, 2, 3, 7, 50]),
                                st.sampled_from([0, 10, 50, 90, 100])),
                      max_size=60),
       width=st.integers(1, 2), tries=st.sampled_from([1, 3, None]),
       equal=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(slots=[], width=1, tries=None, equal=False, seed=27)
@example(slots=[], width=2, tries=3, equal=True, seed=27)
def test_draw_accepted_equals_scalar_loop_property(slots, width, tries, equal,
                                                   seed):
    # width 1 goes in as 1-D bounds; equal gives every slot the first
    # slot's bounds; no limit on tries needs a slot that accepts something
    bounds = np.array([(slots[0] if equal else s)[:width] for s in slots],
                      dtype=np.int64).reshape(len(slots), width)
    rate = [min(s[2], 90) if tries is None else s[2] for s in slots]
    assert_draws_equal_scalar_loop(seed, bounds[:, 0] if width == 1 else bounds,
                                   rate, tries)


def test_draw_accepted_empty_draws_nothing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    draws, ok = draw_accepted(rng, np.zeros(0, dtype=np.int64),
                              lambda slots, rows: np.ones(len(slots), bool))
    assert draws.shape == (0, 1) and ok.shape == (0,)
    assert rng.bit_generator.state == before


def test_pair_sets_contains_equals_set_membership():
    for _, split, n_users in SPLITS:
        sets = split.index(n_users).train
        observed = split.warm_train_set
        # past the last row and past the widest column too
        users, items = np.meshgrid(np.arange(n_users + 2), np.arange(70))
        got = sets.contains(users.ravel(), items.ravel())
        assert got.tolist() == [(u, i) in observed
                                for u, i in zip(users.ravel().tolist(),
                                                items.ravel().tolist())]
    assert not PairSets.from_pairs([], 3).contains(np.arange(3),
                                                   np.zeros(3, int)).any()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 30)),
                      max_size=40),
       columns=st.none() | st.lists(st.integers(0, 30), unique=True),
       queries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 40)),
                        max_size=30),
       rows=st.lists(st.integers(0, 5), max_size=10))
def test_pair_sets_equal_python_sets(pairs, columns, queries, rows):
    # repeated pairs, items outside ``columns``, queries past the widest
    # column and repeated rows in a selection
    columns = None if columns is None else sorted(columns)
    sets = PairSets.from_pairs(pairs, 6, None if columns is None
                               else np.array(columns, dtype=np.int64))
    column_of = {i: i for _, i in pairs} if columns is None else \
        {i: j for j, i in enumerate(columns)}
    want = [set() for _ in range(6)]
    for u, i in pairs:
        if i in column_of:
            want[u].add(column_of[i])
    got = sets.contains(np.array([u for u, _ in queries], dtype=np.int64),
                        np.array([c for _, c in queries], dtype=np.int64))
    assert got.tolist() == [c in want[u] for u, c in queries]
    at, cols = sets.select(np.array(rows, dtype=np.int64))
    assert list(zip(at.tolist(), cols.tolist())) == \
        [(k, c) for k, u in enumerate(rows) for c in sorted(want[u])]


# -- the callers against their scalar loops ----------------------------------

@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name,split,n_users", SPLITS,
                         ids=[name for name, _, _ in SPLITS])
def test_epoch_triples_equal_scalar_loop(name, split, n_users, seed, caplog):
    got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
    with caplog.at_level(logging.WARNING):
        got = _epoch_triples(got_rng, split, n_users)
        got_log = caplog.messages[:]
        caplog.clear()
        want = reference_epoch_triples(want_rng, split.warm_train,
                                       split.warm_items, split.warm_train_set)
        assert got_log == caplog.messages
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if name.startswith("dense"):   # user 0 has no negative at all
        assert got_log and 0 not in got[:, 0]


def test_epoch_triples_on_the_planted_fixture(planted):
    # criteria 5 and 6 train on this split
    data, split = planted
    for seed in (0, 1, 2):
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = _epoch_triples(got_rng, split, data.log.n_users)
        want = reference_epoch_triples(want_rng, split.warm_train,
                                       split.warm_items, split.warm_train_set)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_epoch_triples_empty():
    rng = np.random.default_rng(0)
    want_rng = np.random.default_rng(0)
    got = _epoch_triples(rng, pair_split([], [0, 1, 2]), 1)
    assert got.shape == (0, 3) and got.dtype == np.int64
    assert np.array_equal(got, reference_epoch_triples(want_rng, [],
                                                       np.arange(3), set()))
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n_positives", [None, 0, 7, 30])
@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name,split,n_users", SPLITS,
                         ids=[name for name, _, _ in SPLITS])
def test_label_pairs_equal_scalar_loop(name, split, n_users, seed,
                                       n_positives):
    assert (as_tuples(sample_label_pairs(split, n_users, n_positives, seed))
            == reference_label_pairs(split, n_users, n_positives, seed))


def test_label_pool_warns_about_exhausted_positives(caplog):
    # every train user has read every warm item: no positive gets a negative
    warm = [0, 1, 2]
    split = pair_split([(u, i) for u in range(3) for i in warm], warm)
    with caplog.at_level(logging.WARNING, logger="coldsim.filtering"):
        pairs = sample_label_pairs(split, 4, None, seed=0)
    assert np.array_equal(pairs, split.warm_train)
    assert "label sampling skipped 9 exhausted positives" in caplog.text


def finetune_inputs(split, n_users, seed):
    n_items = max(split.warm_items + split.cold_items) + 1
    content = np.random.default_rng(seed).standard_normal((n_items, 5))
    catalog = ItemCatalog(content={i: f"item {i}" for i in range(n_items)})
    filt = TwoTowerFilter.init("B", 4, 5, hidden=6, out=3, seed=seed)
    return catalog, filt, content


@pytest.mark.parametrize("mode,seed,n_positives", [("offline", 0, None),
                                                   ("offline", 3, 25),
                                                   ("online", 3, 40)])
@pytest.mark.parametrize("name,split,n_users", SPLITS,
                         ids=[name for name, _, _ in SPLITS])
def test_finetune_export_equals_scalar_loop(name, split, n_users, mode, seed,
                                            n_positives, caplog):
    catalog, filt, content = finetune_inputs(split, n_users, seed)
    rng = np.random.default_rng(seed + 1)
    # explicit negatives for half the users, some of them several
    negatives = {(u, int(i)) for u in range(0, n_users, 2)
                 for i in rng.choice(len(split.warm_items),
                                     size=1 + u % 3, replace=False)}
    # more explicit negatives than warm items: the online pick's bound is
    # above the warm items' one
    negatives |= {(2, i) for i in range(len(content))}
    args = (split, catalog, filt, content, n_users)
    kwargs = dict(mode=mode, seed=seed, n_positives=n_positives,
                  negatives=negatives, top_l=3)
    with caplog.at_level(logging.WARNING):
        got = prepare_finetune_data(*args, **kwargs)
        got_log = caplog.messages[:]
        caplog.clear()
        want = reference_finetune(*args, **kwargs)
        assert got_log == caplog.messages
    assert got == want


def test_dense_split_reaches_the_fallback(monkeypatch):
    # the export's exact fallback runs, so the tests above cover its rewind
    from coldsim import refiner
    split = dense_split(0)
    calls = []

    def spy(rng, bounds, rejected, exhausted):
        def note(slot):
            calls.append(slot)
            return exhausted(slot)
        return draw_accepted(rng, bounds, rejected, exhausted=note)

    monkeypatch.setattr(refiner, "draw_accepted", spy)
    catalog, filt, content = finetune_inputs(split, 4, 0)
    prepare_finetune_data(split, catalog, filt, content, 4, seed=0)
    users = [sorted(as_tuples(split.warm_train))[k][0] for k in calls]
    assert 0 in users and 1 in users


# -- ordered subsample -------------------------------------------------------

@pytest.mark.parametrize("n", [None, 0, 3, 9, 10, 12])
def test_ordered_subsample_equals_sorted_choice(n):
    seq = list(range(100, 110))
    got_rng, want_rng = (np.random.default_rng(2) for _ in range(2))
    got = ordered_subsample(got_rng, seq, n)
    if n is None or n >= len(seq):
        want = seq
    else:
        want = [seq[k] for k in sorted(want_rng.choice(len(seq), size=n,
                                                       replace=False))]
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- one place for generator state and pair sets -----------------------------

# the split's pair arrays and the log's; code outside the warm_train_set
# property reads them as arrays, never pair by pair
PAIR_ARRAYS = {"warm_train", "warm_val", "warm_test", "cold_val", "cold_test",
               "pairs"}
# calls that turn an iterable into Python objects one element at a time
CONVERTERS = {"sorted", "set", "frozenset", "list", "tuple", "dict", "iter",
              "zip", "enumerate", "map", "filter", "fromiter", "chain",
              "from_iterable"}


def pair_loops(tree) -> list[int]:
    """Lines that iterate over a pair array, or its ``tolist()``, or hand
    one to a converter, outside a ``warm_train_set`` function."""
    def is_pairs(node):
        if (isinstance(node, ast.Call) and not node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "tolist"):
            node = node.func.value
        return isinstance(node, ast.Attribute) and node.attr in PAIR_ARRAYS

    exempt = {id(inner) for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef)
              and node.name == "warm_train_set" for inner in ast.walk(node)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.For) and is_pairs(node.iter):
            lines.append(node.lineno)
        elif isinstance(node, ast.comprehension) and is_pairs(node.iter):
            lines.append(node.iter.lineno)
        elif isinstance(node, ast.Call) and any(map(is_pairs, node.args)):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in CONVERTERS:
                lines.append(node.lineno)
    return lines


def test_generator_state_and_pair_sets_read_in_one_place():
    # only the sampler saves and restores generator state, only tests and
    # corpus.py read the warm-train set of tuples, and no module loops over
    # a pair array or converts it element by element
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        allowed = set()
        if module.name == "backbone.py":
            (sampler,) = [node for node in tree.body
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "draw_accepted"]
            allowed = {id(node) for node in ast.walk(sampler)}
        for node in ast.walk(tree):
            state = (isinstance(node, ast.Attribute) and node.attr == "state"
                     and isinstance(node.value, ast.Attribute)
                     and node.value.attr == "bit_generator")
            pair_set = module.name != "corpus.py" and (
                (isinstance(node, ast.Attribute)
                 and node.attr == "warm_train_set")
                or (isinstance(node, ast.Constant)
                    and node.value == "warm_train_set"))
            if (state and id(node) not in allowed) or pair_set:
                offenders.append(f"{module.name}:{node.lineno}")
        offenders += [f"{module.name}:{line}" for line in pair_loops(tree)]
    assert offenders == []


@pytest.mark.parametrize("source,flagged", [
    ("set(split.warm_train) | set(extra)", True),
    ("ordered_subsample(rng, sorted(split.warm_train), n)", True),
    ("[p for p in log.pairs if p[1] in warm]", True),
    ("for u, i in split.cold_test.tolist(): pass", True),
    ("np.fromiter(itertools.chain.from_iterable(split.warm_val), int)", True),
    ("list(zip(log.pairs, answers))", True),
    ("positives = index.train_pairs[rng.permutation(n)]", False),
    ("len(split.warm_train) == 0", False),
    ("lexsorted(log.pairs).tolist()", False),
    ("labeler(pool[:, 0].tolist(), pool[:, 1].tolist())", False),
    ("@property\ndef warm_train_set(self):\n"
     "    return set(map(tuple, self.warm_train.tolist()))", False),
])
def test_pair_loop_scan(source, flagged):
    assert bool(pair_loops(ast.parse(source))) == flagged


def test_warm_train_set_built_on_first_read():
    split = dense_split(0)
    assert "warm_train_set" not in vars(split)
    assert split.warm_train_set == set(as_tuples(split.warm_train))
    assert split.warm_train_set is split.warm_train_set
