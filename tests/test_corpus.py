"""Corpus loading and the cold/warm split.

The log and the split hold their pairs as (n, 2) int64 arrays.  The
references below are the per-pair tuple loops those arrays replaced:
``reference_from_pairs`` (a ``seen`` set and per-user lists),
``reference_make_cold_split`` (tuple lists, sorted) and
``reference_split_json`` (the JSON a split of sorted tuple lists saved).
The array path must give the same pairs, histories, ``split.json`` bytes
and split index.
"""

import json
import math
import re
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from coldsim.corpus import (PAIR_FIELDS, ColdWarmSplit, InteractionLog,
                            lexsorted, load_citeulike, load_movielens,
                            make_cold_split)
from coldsim.synthetic import random_toy_log

from conftest import (as_tuples, pair_split, write_citeulike_fixture,
                      write_movielens_fixture)
from test_acceptance import build_citeulike_scale_fixture


# -- the tuple-loop references -----------------------------------------------

def reference_from_pairs(n_users, n_items, pairs):
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
    return SimpleNamespace(n_users=n_users, n_items=n_items, pairs=uniq,
                           user_items=user_items, item_users=item_users)


def reference_make_cold_split(log, cold_frac, seed, cold_items=None):
    """The split's fields as sorted tuple lists, from a reference log."""
    rng = np.random.default_rng(seed)
    if cold_items is None:
        n_cold = math.floor(cold_frac * log.n_items)
        cold = sorted(rng.choice(log.n_items, size=n_cold, replace=False).tolist())
    else:
        cold = sorted(int(i) for i in cold_items)
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
    return dict(warm_items=warm, cold_items=cold,
                warm_train=sorted(warm_train), warm_val=sorted(warm_val),
                warm_test=sorted(warm_test), cold_val=sorted(cold_val),
                cold_test=sorted(cold_test), seed=seed, cold_frac=cold_frac)


def reference_split_json(fields) -> bytes:
    doc = {"seed": fields["seed"], "cold_frac": fields["cold_frac"],
           "warm_items": sorted(fields["warm_items"]),
           "cold_items": sorted(fields["cold_items"])}
    for name in ("warm_train", "warm_val", "warm_test", "cold_val", "cold_test"):
        doc[name] = [list(p) for p in sorted(fields[name])]
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()


def check_invariants(split, log) -> None:
    """Raise AssertionError if the partition contracts are violated."""
    warm, cold = set(split.warm_items), set(split.cold_items)
    assert not warm & cold, "warm and cold item sets overlap"
    assert warm | cold == set(range(log.n_items)), "items lost by the split"
    is_cold = np.zeros(log.n_items, dtype=bool)
    is_cold[split.cold_items] = True
    in_cold = is_cold[log.pairs[:, 1]]
    for kind, got, want in (
            ("warm", (split.warm_train, split.warm_val, split.warm_test),
             log.pairs[~in_cold]),
            ("cold", (split.cold_val, split.cold_test), log.pairs[in_cold])):
        got = lexsorted(np.concatenate(got))
        assert np.array_equal(got, lexsorted(want)), \
            f"{kind} splits do not partition"


def saved_bytes(split) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        split.save(Path(tmp) / "split.json")
        return (Path(tmp) / "split.json").read_bytes()


def index_arrays(index) -> dict:
    """Every array and list of a split index, as plain lists."""
    sets = {"train": index.train, "train_warm": index.train_warm,
            "val_warm": index.val_warm,
            **{f"test_{task}": index.test[task] for task in index.test}}
    out = {name: [s.indptr.tolist(), s.indices.tolist()]
           for name, s in sets.items()}
    out.update(warm=index.warm.tolist(), val_users=index.val_users,
               train_users=index.train_users,
               train_items=index.train_items)
    return out


class TestLoadCiteulike:
    def test_toy_fixture(self, tmp_path):
        # 3 users, 2 items, raw item ids 10 and 20 re-index to 0 and 1
        root = write_citeulike_fixture(
            tmp_path / "cu",
            per_user_items=[[10], [20, 10], [20]],
            metadata=[(10, "Alpha", "about a"), (20, "Beta", "about b")])
        log, catalog = load_citeulike(root)
        assert (log.n_users, log.n_items) == (3, 2)
        assert sorted(as_tuples(log.pairs)) == [(0, 0), (1, 0), (1, 1), (2, 1)]
        assert log.user_items[1].tolist() == [1, 0]  # input order preserved
        assert log.item_users[1].tolist() == [1, 2]
        assert catalog.title(0) == "Alpha"
        assert catalog.text(0) == "Alpha. about a"

    def test_empty_interactions(self, tmp_path):
        root = write_citeulike_fixture(tmp_path / "cu", [[], []],
                                       [(0, "T", "A")])
        with pytest.raises(ValueError, match="no interactions"):
            load_citeulike(root)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_citeulike(tmp_path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        root = write_citeulike_fixture(tmp_path / "cu", [[1], [1]],
                                       [(1, "T", "A")])
        (root / "users.dat").write_text("1\nfoo 1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="users.dat:2"):
            load_citeulike(root)

    @pytest.mark.parametrize("line,message", [
        ("5 no tab here", "items.tsv:2: malformed line, expected "
                          "id<TAB>title[<TAB>abstract]"),
        ("x5\tT\tA", "items.tsv:2: non-integer item id 'x5'")])
    def test_bad_items_line_named(self, tmp_path, line, message):
        root = write_citeulike_fixture(tmp_path / "cu", [[1]], [(1, "T", "A")])
        with open(root / "items.tsv", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_citeulike(root)

    def test_item_without_metadata(self, tmp_path):
        root = write_citeulike_fixture(tmp_path / "cu", [[1, 2]],
                                       [(1, "T", "A")])
        with pytest.raises(ValueError, match="without metadata"):
            load_citeulike(root)

    def test_idmap_persisted(self, tmp_path):
        root = write_citeulike_fixture(tmp_path / "cu", [[7]], [(7, "T", "A")])
        mapping = tmp_path / "idmap.json"
        load_citeulike(root, mapping_path=mapping)
        doc = json.loads(mapping.read_text())
        assert doc["items"] == [7]
        assert doc["users"] == [0]

    @pytest.mark.parametrize("users_id,items_id", [(2**63, 1), (1, -2**63 - 1)])
    def test_id_outside_int64_named(self, tmp_path, users_id, items_id):
        root = write_citeulike_fixture(tmp_path / "cu", [[users_id]],
                                       [(items_id, "T", "A")])
        with pytest.raises(ValueError, match="outside the int64 range"):
            load_citeulike(root)

    def test_empty_content_rejected(self, tmp_path):
        root = write_citeulike_fixture(tmp_path / "cu", [[5]],
                                       [(5, "T", "A"), (3, "", "")])
        with pytest.raises(ValueError,
                           match="^item raw id 3 has empty content$"):
            load_citeulike(root)

    def test_duplicate_pairs_collapse(self, tmp_path):
        root = write_citeulike_fixture(tmp_path / "cu", [[5, 5]],
                                       [(5, "T", "A")])
        log, _ = load_citeulike(root)
        assert len(log.pairs) == 1


class TestLoadMovielens:
    def test_single_record(self, tmp_path):
        root = write_movielens_fixture(tmp_path / "ml",
                                       [(1, 1, 5, 1000)],
                                       [(1, "Toy Story (1995)", "Animation|Comedy")])
        log, catalog = load_movielens(root)
        assert len(log.pairs) == 1
        assert catalog.text(0) == "Toy Story (1995) Animation Comedy"

    def test_keep_all_policy(self, tmp_path):
        root = write_movielens_fixture(
            tmp_path / "ml",
            [(1, 1, 1, 0), (2, 1, 3, 0), (3, 1, 5, 0)],
            [(1, "M", "Drama")])
        log, _ = load_movielens(root, min_rating=0)
        assert len(log.pairs) == 3

    def test_min_rating_knob(self, tmp_path):
        root = write_movielens_fixture(
            tmp_path / "ml",
            [(1, 1, 1, 0), (2, 1, 3, 0), (3, 1, 5, 0)],
            [(1, "M", "Drama")])
        log, _ = load_movielens(root, min_rating=4)
        assert len(log.pairs) == 1

    def test_unrated_movie_stays_in_catalog(self, tmp_path):
        root = write_movielens_fixture(
            tmp_path / "ml", [(1, 1, 5, 0)],
            [(1, "A", "Drama"), (2, "B", "Horror")])
        log, catalog = load_movielens(root)
        assert log.n_items == 2
        assert log.item_users[1].tolist() == []
        assert len(catalog) == 2

    def test_raw_ids_map_ascending(self, tmp_path):
        root = write_movielens_fixture(
            tmp_path / "ml", [(30, 7, 5, 0), (10, 2, 5, 0), (20, 7, 5, 0),
                              (30, 2, 5, 0)],
            [(7, "A", "Drama"), (2, "B", "Horror"), (9, "C", "Comedy")])
        log, _ = load_movielens(root, mapping_path=tmp_path / "idmap.json")
        assert as_tuples(log.pairs) == [(2, 1), (0, 0), (1, 1), (2, 0)]
        assert json.loads((tmp_path / "idmap.json").read_text()) == \
            {"users": [10, 20, 30], "items": [2, 7, 9]}

    def test_id_outside_int64_named(self, tmp_path):
        root = write_movielens_fixture(tmp_path / "ml", [(2**63, 1, 5, 0)],
                                       [(1, "M", "Drama")])
        with pytest.raises(ValueError, match="ratings.dat: an id is outside"):
            load_movielens(root)

    def test_empty_content_rejected(self, tmp_path):
        # "7::::" has neither a title nor a genre
        root = write_movielens_fixture(tmp_path / "ml", [(1, 1, 5, 0)],
                                       [(1, "M", "Drama"), (7, "", "")])
        with pytest.raises(ValueError,
                           match="^item raw id 7 has empty content$"):
            load_movielens(root)

    def test_malformed_record(self, tmp_path):
        root = write_movielens_fixture(tmp_path / "ml", [(1, 1, 5, 0)],
                                       [(1, "M", "Drama")])
        (root / "ratings.dat").write_text("1::1::5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="ratings.dat:1"):
            load_movielens(root)

    @pytest.mark.parametrize("name", ["ratings.dat", "movies.dat"])
    def test_missing_file_named(self, tmp_path, name):
        root = write_movielens_fixture(tmp_path / "ml", [(1, 1, 5, 0)],
                                       [(1, "M", "Drama")])
        (root / name).unlink()
        path = re.escape(str(root / name))
        with pytest.raises(FileNotFoundError, match=f"^missing file: {path}$"):
            load_movielens(root)

    @pytest.mark.parametrize("name,text,message", [
        ("movies.dat", "1::M\n",
         "movies.dat:1: malformed line, expected id::title::genres"),
        ("movies.dat", "one::M::Drama\n",
         "movies.dat:1: non-integer movie id 'one'"),
        ("ratings.dat", "1::1::5::0\n1::1::five::0\n",
         "ratings.dat:2: non-numeric field"),
        ("ratings.dat", "1::9::5::0\n",
         "ratings.dat:1: item 9 referenced without metadata"),
        ("ratings.dat", "\n", "ratings.dat: no interactions")])
    def test_bad_record_named(self, tmp_path, name, text, message):
        root = write_movielens_fixture(tmp_path / "ml", [(1, 1, 5, 0)],
                                       [(1, "M", "Drama")])
        (root / name).write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_movielens(root)

    def test_no_rating_above_the_minimum(self, tmp_path):
        root = write_movielens_fixture(tmp_path / "ml", [(1, 1, 3, 0)],
                                       [(1, "M", "Drama")])
        with pytest.raises(ValueError, match="ratings.dat: no interactions$"):
            load_movielens(root, min_rating=4)


class TestMakeColdSplit:
    def test_cold_frac_zero(self, toy_log):
        split = make_cold_split(toy_log, 0.0, seed=1)
        assert split.cold_items == []
        assert (len(split.warm_train) + len(split.warm_val)
                + len(split.warm_test)) == len(toy_log.pairs)

    def test_cold_frac_bounds(self, toy_log):
        with pytest.raises(ValueError):
            make_cold_split(toy_log, 1.0, seed=0)
        with pytest.raises(ValueError):
            make_cold_split(toy_log, -0.1, seed=0)

    def test_zero_interaction_items_go_cold(self):
        # floor(cold_frac * rated) rated items are sampled, and every
        # unrated item is cold on top of them, with no val/test pairs
        rng = np.random.default_rng(1)
        unrated = [2, 5, 9]
        pairs = sorted({(int(rng.integers(12)), i) for i in range(10)
                        if i not in unrated}
                       | {(int(rng.integers(12)), int(rng.choice([0, 1, 3])))
                          for _ in range(20)})
        log = InteractionLog.from_pairs(12, 10, pairs)
        split = make_cold_split(log, 0.3, seed=0)
        check_invariants(split, log)
        rated_cold = sorted(set(split.cold_items) - set(unrated))
        assert set(unrated) <= set(split.cold_items)
        assert len(rated_cold) == math.floor(0.3 * 7)
        held_out = np.concatenate([split.cold_val, split.cold_test])
        assert not set(held_out[:, 1].tolist()) & set(unrated)
        given = make_cold_split(log, 0.0, seed=0, cold_items=[0])
        assert given.cold_items == [0] + unrated
        check_invariants(given, log)
        only = InteractionLog.from_pairs(2, 2, [(0, 0), (1, 0)])
        assert make_cold_split(only, 0.5, seed=0).cold_items == [1]

    @pytest.mark.parametrize("cold_items", [[1, 1], [5], [-1]])
    def test_given_cold_items_distinct_and_in_range(self, toy_log, cold_items):
        with pytest.raises(ValueError, match="^cold_items must be distinct "
                                             "in-range item ids$"):
            make_cold_split(toy_log, 0.0, seed=0, cold_items=cold_items)

    def test_cold_item_val_test_ratio(self):
        # item 0 has 5 interactions: 2 go to val, 3 to test
        pairs = [(u, 0) for u in range(5)] + [(u, 1) for u in range(5)]
        log = InteractionLog.from_pairs(5, 2, pairs)
        split = make_cold_split(log, 0.0, seed=3, cold_items=[0])
        assert len(split.cold_val) == 2
        assert len(split.cold_test) == 3

    def test_single_interaction_goes_to_test(self):
        pairs = [(0, 0), (0, 1), (1, 1)]
        log = InteractionLog.from_pairs(2, 2, pairs)
        split = make_cold_split(log, 0.0, seed=0, cold_items=[0])
        assert split.cold_val.tolist() == []
        assert split.cold_test.tolist() == [[0, 0]]

    def test_count_floor(self):
        rng = np.random.default_rng(0)
        pairs = sorted({(int(rng.integers(12)), i) for i in range(10)})
        log = InteractionLog.from_pairs(12, 10, pairs)
        split = make_cold_split(log, 0.25, seed=0)
        assert len(split.cold_items) == math.floor(0.25 * 10)

    def test_same_seed_same_split(self, toy_log):
        a = make_cold_split(toy_log, 0.4, seed=9)
        b = make_cold_split(toy_log, 0.4, seed=9)
        assert saved_bytes(a) == saved_bytes(b)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(4)
        pairs = sorted({(int(rng.integers(30)), i) for i in range(40)}
                       | {(int(rng.integers(30)), int(rng.integers(40)))
                          for _ in range(200)})
        log = InteractionLog.from_pairs(30, 40, pairs)
        cold_sets = {tuple(make_cold_split(log, 0.3, seed=s).cold_items)
                     for s in range(10)}
        assert len(cold_sets) > 1

    def test_warm_ratio(self):
        rng = np.random.default_rng(7)
        pairs = sorted({(int(rng.integers(50)), i) for i in range(20)}
                       | {(int(rng.integers(50)), int(rng.integers(20)))
                          for _ in range(400)})
        log = InteractionLog.from_pairs(50, 20, pairs)
        split = make_cold_split(log, 0.0, seed=2)
        n = len(log.pairs)
        assert len(split.warm_train) == math.floor(0.8 * n)
        assert len(split.warm_val) == math.floor(0.1 * n)

    def test_round_trip(self, toy_log, tmp_path):
        split = make_cold_split(toy_log, 0.4, seed=5)
        split.save(tmp_path / "split.json")
        loaded = ColdWarmSplit.load(tmp_path / "split.json")
        # saving the reloaded split is byte-identical
        loaded.save(tmp_path / "split2.json")
        assert (tmp_path / "split.json").read_bytes() == \
            (tmp_path / "split2.json").read_bytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), frac=st.floats(0, 0.9),
       split_seed=st.integers(0, 10_000))
def test_split_partition_properties(seed, frac, split_seed):
    log = random_toy_log(np.random.default_rng(seed))
    split = make_cold_split(log, frac, seed=split_seed)
    check_invariants(split, log)


# -- the array path against the tuple loops ----------------------------------

@st.composite
def small_logs(draw):
    """``(n_users, n_items, pairs)``: every item read at least once, the
    pairs in random order and some of them repeated."""
    n_users, n_items = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    pair = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1))
    pairs = draw(st.lists(pair, max_size=48))
    pairs += [(draw(st.integers(0, n_users - 1)), i) for i in range(n_items)]
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=12))
    return n_users, n_items, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(log_args=small_logs(), frac=st.floats(0, 0.9),
       seed=st.integers(0, 2**32 - 1),
       planted=st.none() | st.lists(st.integers(0, 7), unique=True))
def test_array_log_and_split_equal_the_tuple_loops(log_args, frac, seed,
                                                   planted):
    log = InteractionLog.from_pairs(*log_args)
    ref = reference_from_pairs(*log_args)
    assert log.pairs.dtype == np.int64
    assert as_tuples(log.pairs) == ref.pairs
    assert [items.tolist() for items in log.user_items] == ref.user_items
    assert [users.tolist() for users in log.item_users] == ref.item_users
    assert not any(a.flags.writeable for a in log.user_items + log.item_users)

    cold = None if planted is None else [i for i in planted if i < log.n_items]
    split = make_cold_split(log, frac, seed, cold_items=cold)
    want = reference_make_cold_split(ref, frac, seed, cold_items=cold)
    assert saved_bytes(split) == reference_split_json(want)
    for n_users in (log.n_users, log.n_users + 2):
        assert index_arrays(split.index(n_users)) == \
            index_arrays(ColdWarmSplit(**want).index(n_users))


@settings(max_examples=100, deadline=None)
@given(log_args=small_logs())
def test_out_of_range_error_names_the_first_bad_pair(log_args):
    # one user and one item fewer: the last item is out of range, and is read
    n_users, n_items, pairs = log_args
    with pytest.raises(ValueError, match="outside id universe") as want:
        reference_from_pairs(n_users - 1, n_items - 1, pairs)
    with pytest.raises(ValueError) as got:
        InteractionLog.from_pairs(n_users - 1, n_items - 1, pairs)
    assert str(got.value) == str(want.value)


@settings(max_examples=50, deadline=None)
@given(log_args=small_logs(), seed=st.integers(0, 2**32 - 1))
def test_saved_split_reloads_to_the_same_bytes(log_args, seed):
    log = InteractionLog.from_pairs(*log_args)
    shuffled = log.pairs[np.random.default_rng(seed).permutation(len(log.pairs))]
    # a made split, lexsorted, and one whose pairs keep a given order
    for split in (make_cold_split(log, 0.3, seed),
                  pair_split(shuffled, range(log.n_items))):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "split.json"
            split.save(path)
            loaded = ColdWarmSplit.load(path)
            assert saved_bytes(loaded) == path.read_bytes()
        for name in PAIR_FIELDS:
            got, want = getattr(loaded, name), getattr(split, name)
            assert got.dtype == np.int64 and np.array_equal(got, want)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pairs=st.sampled_from([np.int32, np.int64]).flatmap(
    lambda dtype: hnp.arrays(dtype, st.tuples(st.integers(0, 40), st.just(2)),
                             elements=st.integers(0, 6)
                             | st.integers(0, 2**31 - 1))))
def test_lexsorted_equals_lexsort(pairs):
    # small ids repeat rows; ids up to 2**31 - 1 fill most of the int64 key,
    # and overflow an int32 one
    for rows in (pairs, pairs[:1], pairs[:0]):
        want = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
        got = lexsorted(rows)
        assert got.dtype == rows.dtype and got.shape == rows.shape
        assert np.array_equal(got, want)


def test_citeulike_scale_split_equals_the_tuple_loops(tmp_path):
    # criterion 7's fixture; the former loader read users.dat line by line
    # and mapped raw item ids through a dict
    root = build_citeulike_scale_fixture(tmp_path / "cu")
    log, _ = load_citeulike(root)
    raw_ids = sorted(int(line.split("\t")[0]) for line in
                     (root / "items.tsv").read_text().splitlines())
    item_of_raw = {raw: idx for idx, raw in enumerate(raw_ids)}
    lines = (root / "users.dat").read_text().splitlines()
    ref = reference_from_pairs(len(lines), len(raw_ids),
                               [(u, item_of_raw[int(tok)])
                                for u, line in enumerate(lines)
                                for tok in line.split()])
    assert saved_bytes(make_cold_split(log, 0.2, seed=0)) == \
        reference_split_json(reference_make_cold_split(ref, 0.2, 0))


class TestMalformedPairs:
    @pytest.mark.parametrize("pairs,bad", [([(0, 0), (2, 1), (0, 5)], "(2, 1)"),
                                           ([(1, 1), (1, -1)], "(1, -1)")])
    def test_out_of_range_pair_named(self, pairs, bad):
        with pytest.raises(ValueError,
                           match=re.escape(f"pair {bad} outside id universe 2x2")):
            InteractionLog.from_pairs(2, 2, pairs)

    @pytest.mark.parametrize("pairs", [[0, 1, 1, 0], [(0, 1, 1)],
                                       [[0, 1], [1]], 5])
    def test_log_rejects_what_is_not_pairs(self, pairs):
        with pytest.raises(ValueError, match="^pairs must be"):
            InteractionLog.from_pairs(2, 2, pairs)

    @pytest.mark.parametrize("name", PAIR_FIELDS)
    @pytest.mark.parametrize("pairs", [[0, 1, 1, 0], [(0, 1, 1)]])
    def test_split_rejects_what_is_not_pairs(self, name, pairs):
        fields = {**dict.fromkeys(PAIR_FIELDS, []), name: pairs}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ColdWarmSplit(warm_items=[0, 1], cold_items=[], seed=0,
                          cold_frac=0.0, **fields)
