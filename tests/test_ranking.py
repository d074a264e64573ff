"""The batched masked top-K ranker and its callers against per-user references.

The references are the per-user loops the batched code replaced: one score
vector, one Python mask list and one full lexsort per user.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from coldsim import metrics
from coldsim.backbone import BackboneModel, validation_ndcg
from coldsim.corpus import ColdWarmSplit
from coldsim.evaluation import evaluate, sample_eval_users
from coldsim.filtering import filter_validation_ndcg, history_content_means
from coldsim.metrics import PairSets, ndcg_at_k, rank_by_score, recall_at_k

from conftest import as_tuples
from test_evaluation import reference_relevant, sets_by_row
from test_filtering import (brute_force_topk, lexsort_rank, map_user,
                            random_filter)


def reference_validation_ndcg(model, split, users, k=20):
    val_of = {}
    for u, i in split.warm_val:
        val_of.setdefault(u, set()).add(i)
    warm = np.asarray(split.warm_items, dtype=np.int64)
    item_mat = model.item_emb[warm]
    total, n_eval = 0.0, 0
    for u in users:
        rel = val_of.get(u)
        if not rel:
            continue
        scores = item_mat @ model.user_emb[u]
        masked = np.array([(u, int(i)) in split.warm_train_set for i in warm])
        scores = np.where(masked, -np.inf, scores)
        ranked = lexsort_rank(scores, ids=warm, k=k)
        total += ndcg_at_k(ranked.tolist(), rel, k)
        n_eval += 1
    return total / n_eval if n_eval else 0.0


def reference_filter_validation_ndcg(filt, backbone, content_matrix, hist_means,
                                     split, users, k=20):
    val_of = {}
    for u, i in split.warm_val:
        val_of.setdefault(u, set()).add(i)
    warm = np.asarray(split.warm_items, dtype=np.int64)
    item_vecs = filt.item_tower.forward(content_matrix[warm])
    total, n_eval = 0.0, 0
    for u in users:
        rel = val_of.get(u)
        if not rel:
            continue
        scores = item_vecs @ map_user(filt, backbone.user_emb[u], hist_means[u])
        masked = np.array([(u, int(i)) in split.warm_train_set for i in warm])
        scores = np.where(masked, -np.inf, scores)
        ranked = lexsort_rank(scores, ids=warm, k=k)
        total += ndcg_at_k(ranked.tolist(), rel, k)
        n_eval += 1
    return total / n_eval if n_eval else 0.0


def reference_train_items(split, n_users):
    """Each user's warm-train items, ascending."""
    hist = [[] for _ in range(n_users)]
    for u, i in sorted(as_tuples(split.warm_train)):
        hist[u].append(i)
    return hist


def reference_evaluate(model, split, task, k, n_users, seed):
    rel = reference_relevant(split, task)
    users = sample_eval_users(rel, model.n_users, n_users, seed)
    train_of = {}
    for u, i in split.warm_train:
        train_of.setdefault(u, []).append(i)
    recall_sum, ndcg_sum = 0.0, 0.0
    for u in users:
        scores = model.item_emb @ model.user_emb[u]
        if train_of.get(u):
            scores = scores.copy()
            scores[train_of[u]] = -np.inf
        ranked = lexsort_rank(scores, k=k).tolist()
        recall_sum += recall_at_k(ranked, rel[u], k)
        ndcg_sum += ndcg_at_k(ranked, rel[u], k)
    return recall_sum / len(users), ndcg_sum / len(users)


def masked_block(rng, n, m):
    """Score block with duplicate rows, duplicate scores and -inf-masked rows."""
    block = rng.integers(-3, 4, size=(n, m)).astype(float)
    if rng.random() < 0.5:
        block += rng.normal(size=(n, m)) * (rng.random((n, m)) < 0.5)
    if n > 1:
        block[1] = block[0]
    exclude = rng.random((n, m)) < rng.choice([0.0, 0.3, 0.9])
    exclude[rng.integers(n)] = rng.random() < 0.3        # at times all masked
    return block, exclude


class TestKernel:
    def test_equals_brute_force_on_masked_tie_heavy_blocks(self):
        rng = np.random.default_rng(31)
        for _ in range(600):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 30))
            block, exclude = masked_block(rng, n, m)
            k = int(rng.choice([1, m, m + 3, rng.integers(1, m + 1)]))
            ranked = rank_by_score(block, k=k, exclude=np.nonzero(exclude))
            masked = np.where(exclude, -np.inf, block)
            assert ranked.shape == (n, min(k, m))
            for row, scores in zip(ranked, masked):
                assert row.tolist() == brute_force_topk(scores.tolist(), k)

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 5),
                                           st.integers(0, 12)))
    def test_equals_a_full_lexsort(self, data, shape):
        # few distinct values, signed zeros and -inf, so ties are common
        block = data.draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(
            [-np.inf, -1.5, -0.0, 0.0, 1.0, 2.5])))
        exclude = data.draw(hnp.arrays(bool, shape))
        if data.draw(st.booleans()):
            exclude[data.draw(st.integers(0, shape[0] - 1))] = True
        k = data.draw(st.one_of(st.none(), st.integers(1, shape[1] + 3)))
        one_row = shape[0] == 1 and data.draw(st.booleans())
        # exclude names (row, column) entries of the one-row block too
        ranked = rank_by_score(block[0] if one_row else block, k=k,
                               exclude=np.nonzero(exclude))
        want = [lexsort_rank(row, k=k).tolist()
                for row in np.where(exclude, -np.inf, block)]
        assert ranked.tolist() == (want[0] if one_row else want)

    def test_vector_is_the_one_row_case(self):
        scores = np.array([0.5, 2.0, 0.5, -1.0, 2.0])
        assert rank_by_score(scores, k=3).tolist() == [1, 4, 0]
        assert rank_by_score(scores).tolist() == [1, 4, 0, 2, 3]
        assert rank_by_score(scores[None, :], k=3).tolist() == [[1, 4, 0]]

    def test_short_row_lists_masked_ids_last_in_ascending_order(self):
        # two unmasked entries for k = 4: both by score, then masked ids 0, 2
        exclude = (np.array([0, 0]), np.array([0, 2]))
        ranked = rank_by_score(np.array([[5.0, 1.0, 3.0, 2.0]]), k=4,
                               exclude=exclude)
        assert ranked.tolist() == [[3, 1, 0, 2]]
        everything = np.nonzero(np.ones((1, 4), dtype=bool))
        ranked = rank_by_score(np.array([[5.0, 1.0, 3.0, 2.0]]), k=3,
                               exclude=everything)
        assert ranked.tolist() == [[0, 1, 2]]

    def test_nan_names_the_first_bad_row(self):
        block = np.zeros((4, 3))
        block[2, 1] = block[3, 0] = np.nan
        with pytest.raises(ValueError, match="row 2"):
            rank_by_score(block, k=2)
        with pytest.raises(ValueError, match="row 0"):
            rank_by_score(np.array([1.0, np.nan]))

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            rank_by_score(np.ones((2, 3)), k=0)

    def test_input_block_is_not_modified(self):
        block = np.arange(6.0).reshape(2, 3)
        rank_by_score(block, k=2, exclude=(np.array([0, 1]), np.array([0, 1])))
        assert block.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_pair_sets_keep_distinct_pairs_per_row():
    sets = PairSets.from_pairs([(2, 7), (0, 5), (2, 3), (2, 7), (0, 9)], 4,
                               columns=np.array([3, 5, 7]))
    # item 9 is no column and is dropped; (2, 7) is kept once
    assert sets.sizes(np.arange(4)).tolist() == [1, 0, 2, 0]
    rows, cols = sets.select(np.array([2, 1, 0]))
    assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0), (0, 2), (2, 1)]


def tie_heavy_split():
    """12 users, items 0..7 warm and 8..9 cold; user 0 has 6 train items, so
    it ranks fewer unmasked warm items than K."""
    warm_train = [(0, i) for i in range(6)] + [(u, u % 8) for u in range(1, 12)]
    warm_val = [(0, 7), (0, 6)] + [(u, (u + 3) % 8) for u in range(1, 12)]
    warm_test = [(u, (u + 5) % 8) for u in range(12)]
    cold_test = [(u, 8 + u % 2) for u in range(12)]
    return ColdWarmSplit(warm_items=list(range(8)), cold_items=[8, 9],
                         warm_train=warm_train, warm_val=warm_val,
                         warm_test=warm_test, cold_val=[], cold_test=cold_test,
                         seed=0, cold_frac=0.2)


def tie_heavy_model(rng, n_users, n_items, dim=3):
    """Small-integer embeddings with duplicate rows: scores tie everywhere."""
    user = rng.integers(-1, 2, size=(n_users, dim)).astype(float)
    item = rng.integers(-1, 2, size=(n_items, dim)).astype(float)
    item[1::3] = item[0]
    return BackboneModel(user_emb=user, item_emb=item)


def models_for(rng, n_users, n_items, dim=8):
    yield BackboneModel(user_emb=rng.normal(size=(n_users, dim)),
                        item_emb=rng.normal(size=(n_items, dim)))
    yield tie_heavy_model(rng, n_users, n_items, dim)


@pytest.fixture(params=["planted", "tie-heavy"])
def split_case(request, planted):
    if request.param == "planted":
        data, split = planted
        return split, data.log.n_users, data.log.n_items
    return tie_heavy_split(), 12, 10


@pytest.fixture(params=["default", "one-row"])
def chunk_scores(request, monkeypatch):
    """The default chunks and chunks of one user each."""
    if request.param == "one-row":
        monkeypatch.setattr(metrics, "RANK_CHUNK_SCORES", 1)
        monkeypatch.setattr(metrics, "RANK_CHUNK_MIN_ROWS", 1)
    return request.param


def test_row_chunks_cap_scores_above_a_row_floor():
    assert [len(c) for c in metrics.row_chunks(range(150), 1000)] == [65, 65, 20]
    # 2^16 scores over 2^14 columns would be 4 rows; the floor is 16
    assert [len(c) for c in metrics.row_chunks(range(40), 1 << 14)] == [16, 16, 8]


class TestSplitIndex:
    def test_repeated_calls_return_one_index(self, split_case):
        split, n_users, _ = split_case
        assert split.index(n_users) is split.index(n_users)

    def test_equals_per_user_references(self, split_case):
        split, n_users, _ = split_case
        index = split.index(n_users)
        assert index.train_items == reference_train_items(split, n_users)
        assert sets_by_row(index.train) == {
            u: set(items) for u, items in
            enumerate(reference_train_items(split, n_users)) if items}
        assert index.warm.tolist() == sorted(split.warm_items)
        warm_of = lambda sets: {u: {int(index.warm[j]) for j in cols}
                                for u, cols in sets_by_row(sets).items()}
        assert warm_of(index.train_warm) == sets_by_row(index.train)
        val = {}
        for u, i in split.warm_val:
            val.setdefault(u, set()).add(i)
        assert warm_of(index.val_warm) == val
        assert index.val_users == sorted(val)
        assert index.train_users == sorted({u for u, _ in split.warm_train})
        for task in ("overall", "warm", "cold"):
            assert sets_by_row(index.relevant(task)) == \
                reference_relevant(split, task)
        overall, warm, cold = (sets_by_row(index.relevant(task))
                               for task in ("overall", "warm", "cold"))
        for u in overall:
            assert overall[u] == warm.get(u, set()) | cold.get(u, set())
        with pytest.raises(ValueError, match="unknown task"):
            index.relevant("lukewarm")

    def test_user_beyond_the_count_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            tie_heavy_split().index(11)


class TestCallersEqualPerUserLoops:
    def test_evaluate(self, split_case, chunk_scores):
        split, n_users, n_items = split_case
        rng = np.random.default_rng(41)
        for model in models_for(rng, n_users, n_items):
            for task, k in (("overall", 20), ("warm", 5), ("cold", 1),
                            ("overall", n_items + 2)):
                report = evaluate(model, split, task=task, k=k, n_users=150,
                                  seed=3)
                recall, ndcg = reference_evaluate(model, split, task, k, 150, 3)
                assert abs(report.recall - recall) <= 1e-12
                assert abs(report.ndcg - ndcg) <= 1e-12

    def test_validation_ndcg(self, split_case, chunk_scores):
        split, n_users, n_items = split_case
        rng = np.random.default_rng(42)
        users = list(rng.permutation(n_users))
        for model in models_for(rng, n_users, n_items):
            for k in (1, 5, 20):
                assert abs(validation_ndcg(model, split, users, k)
                           - reference_validation_ndcg(model, split, users, k)) <= 1e-12

    def test_filter_validation_ndcg(self, split_case, chunk_scores):
        split, n_users, n_items = split_case
        rng = np.random.default_rng(43)
        users = list(rng.permutation(n_users))
        content = rng.normal(size=(n_items, 5))
        content[1::3] = content[0]                      # tied item vectors
        hist = history_content_means(reference_train_items(split, n_users),
                                     content)
        for model in models_for(rng, n_users, n_items, dim=6):
            filt = random_filter(rng, backbone_dim=6, content_dim=5)
            for k in (1, 5, 20):
                got = filter_validation_ndcg(filt, model, content, hist, split,
                                             users, k)
                want = reference_filter_validation_ndcg(filt, model, content,
                                                        hist, split, users, k)
                assert abs(got - want) <= 1e-12

    def test_users_without_validation_positives_give_zero(self):
        split = replace(tie_heavy_split(), warm_val=[])
        model = tie_heavy_model(np.random.default_rng(44), 12, 10)
        assert validation_ndcg(model, split, range(12)) == 0.0


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), shape=st.tuples(st.integers(0, 12), st.integers(1, 70)))
def test_row_dots_equal_one_dot_per_row(data, shape):
    # widths past the unrolled blocks of a BLAS dot
    elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    a, b = (data.draw(hnp.arrays(np.float64, shape, elements=elements))
            for _ in range(2))
    got = metrics.row_dots(a, b)
    assert got.shape == (shape[0],)
    assert got.tobytes() == np.array([a[j] @ b[j] for j in range(shape[0])],
                                     dtype=np.float64).tobytes()
