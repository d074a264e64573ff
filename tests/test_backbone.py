import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit as scipy_expit

from coldsim.backbone import (BackboneConfig, BackboneModel, _epoch_triples,
                              bpr_loss, bpr_step, expit, init_embeddings,
                              score, train_backbone)
from coldsim.corpus import InteractionLog, make_cold_split
from coldsim.filtering import (FilterTrainConfig, TwoTowerFilter,
                               train_behavior_filter, train_coupled_filter)

from conftest import as_tuples, pair_split, tiny_cluster_setup


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


EXPIT_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                        709.78, -709.78, 745.13, -745.13, 800.0, -800.0,
                        np.inf, -np.inf, np.nan])


class TestExpit:
    """The C-library logistic gives scipy.special.expit's bits."""

    @pytest.mark.parametrize("magnitude", 10.0 ** np.arange(-6, 4))
    def test_seeded_values(self, magnitude):
        x = np.random.default_rng(7).standard_normal(20_000) * magnitude
        assert_same_bits(expit(x), scipy_expit(x))

    def test_edge_values(self):
        # the whole array overflows math.exp at -745.13 and -800; one value
        # at a time, the others take the path without an overflow
        assert_same_bits(expit(EXPIT_EDGES), scipy_expit(EXPIT_EDGES))
        for v in EXPIT_EDGES:
            assert_same_bits(expit(v), scipy_expit(v))

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4), (0,), (2, 0)])
    def test_shapes(self, shape):
        x = np.random.default_rng(1).standard_normal(shape) * 30
        got = expit(x)
        assert isinstance(got, np.ndarray)
        assert_same_bits(got, scipy_expit(x))


def finite_diff_grad(loss_fn, arr, h=1e-5):
    """Central differences over every coordinate of arr."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    g = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        g[idx] = (up - down) / (2 * h)
    return grad


class TestInitEmbeddings:
    def test_empty_table(self):
        assert init_embeddings(0, 8, seed=0).shape == (0, 8)

    def test_deterministic(self):
        a = init_embeddings(5, 200, seed=7)
        b = init_embeddings(5, 200, seed=7)
        assert np.array_equal(a, b)

    def test_distribution(self):
        table = init_embeddings(10_000, 200, seed=1)
        n = table.size
        assert abs(table.mean()) < 3 * 0.01 / math.sqrt(n)
        assert 0.009 < table.std() < 0.011

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            init_embeddings(-1, 8, seed=0)


class TestSampleTriples:
    """Triple sampling checks, on the epoch sampler every trainer uses."""

    def test_empty_split(self, toy_log):
        # the sampler returns an empty block, and every trainer that calls
        # it rejects an empty warm-train split
        assert _epoch_triples(np.random.default_rng(0), pair_split([], [0]),
                              1).shape == (0, 3)
        split = replace(make_cold_split(toy_log, 0.0, seed=0), warm_train=[])
        model = BackboneModel(user_emb=init_embeddings(6, 4, 0),
                              item_emb=init_embeddings(5, 4, 1))
        content, hist = np.ones((5, 3)), np.zeros((6, 3))
        filt = TwoTowerFilter.init("B", 4, 3, hidden=2, out=2)
        cfg = FilterTrainConfig()
        trainers = (
            lambda: train_backbone(split, BackboneConfig(dim=4), n_users=6,
                                   n_items=5),
            lambda: train_behavior_filter(filt, model, content, hist, split,
                                          cfg),
            lambda: train_coupled_filter(filt, model, content, hist, split,
                                         lambda users, items: [], cfg))
        for train in trainers:
            with pytest.raises(ValueError, match="warm-train split is empty"):
                train()

    def test_exhausted_user_skipped(self, caplog):
        # user 0 interacted with every warm item: no negative exists
        pairs = [(0, 0), (0, 1), (1, 0)]
        triples = _epoch_triples(np.random.default_rng(0),
                                 pair_split(pairs * 7, [0, 1]), 2)
        assert all(u == 1 for u, _, _ in triples.tolist())

    def test_negative_uniformity_chi2(self):
        pairs = [(0, 0)]
        warm = list(range(11))  # 10 eligible negatives
        triples = _epoch_triples(np.random.default_rng(3),
                                 pair_split(pairs * 100_000, warm), 1)
        counts = np.bincount(triples[:, 2], minlength=11)[1:]
        _, p = stats.chisquare(counts)
        assert p > 0.01


def epoch_pairs_with_negatives(rng, positives, warm_items, observed):
    """The filter trainers' former epoch sampler, kept as the reference."""
    order = rng.permutation(len(positives))
    triples = []
    for idx in order:
        u, i = positives[idx]
        for _ in range(100):
            j = int(warm_items[rng.integers(len(warm_items))])
            if (u, j) not in observed:
                triples.append((u, i, j))
                break
    return np.asarray(triples, dtype=np.int64).reshape(-1, 3)


class TestEpochTriples:
    def setup_positives(self):
        # the planted split plus one extra user who read every warm item
        data, split = tiny_cluster_setup(seed=4)
        exhausted = data.log.n_users
        positives = as_tuples(split.warm_train) + [(exhausted, i)
                                                   for i in split.warm_items]
        warm = np.asarray(split.warm_items, dtype=np.int64)
        return positives, warm, set(positives), exhausted

    @pytest.mark.parametrize("seed", [0, 1, 9])
    def test_equals_former_filter_sampler(self, seed):
        positives, warm, observed, exhausted = self.setup_positives()
        got = _epoch_triples(np.random.default_rng(seed),
                             pair_split(positives, warm), exhausted + 1)
        ref = epoch_pairs_with_negatives(np.random.default_rng(seed),
                                         positives, warm, observed)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_exhausted_user_skipped_with_warning(self, caplog):
        positives, warm, observed, exhausted = self.setup_positives()
        triples = _epoch_triples(np.random.default_rng(0),
                                 pair_split(positives, warm), exhausted + 1)
        assert exhausted not in triples[:, 0]
        assert len(triples) == len(positives) - len(warm)
        assert all((u, j) not in observed for u, _, j in triples.tolist())
        assert f"skipped {len(warm)} exhausted positives" in caplog.text

    def test_empty(self):
        triples = _epoch_triples(np.random.default_rng(0),
                                 pair_split([], np.arange(3)), 1)
        assert triples.shape == (0, 3)


class TestBprStep:
    def make_model(self, seed=0, rows=3, dim=6):
        return BackboneModel(user_emb=init_embeddings(rows, dim, seed),
                             item_emb=init_embeddings(rows, dim, seed + 1))

    def test_equal_scores_loss_ln2(self):
        model = self.make_model()
        model.item_emb[1] = model.item_emb[2]  # margin is exactly 0
        loss = bpr_step(model, [(0, 1, 2)], lr=0.0)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_large_margin_loss_vanishes(self):
        model = self.make_model()
        model.user_emb[0] = np.full(6, 10.0)
        model.item_emb[1] = np.full(6, 10.0)
        model.item_emb[2] = np.full(6, -10.0)
        assert bpr_step(model, [(0, 1, 2)], lr=0.0) < 1e-12

    def test_lr_zero_bit_identical(self):
        model = self.make_model(seed=2)
        before_u = model.user_emb.copy()
        before_i = model.item_emb.copy()
        bpr_step(model, [(0, 1, 2), (1, 0, 2)], lr=0.0)
        assert np.array_equal(model.user_emb, before_u)
        assert np.array_equal(model.item_emb, before_i)

    def test_only_touched_rows_change(self):
        model = self.make_model(seed=3, rows=6)
        before_u = model.user_emb.copy()
        before_i = model.item_emb.copy()
        bpr_step(model, [(1, 2, 4)], lr=0.5)
        changed_u = [r for r in range(6)
                     if not np.array_equal(model.user_emb[r], before_u[r])]
        changed_i = [r for r in range(6)
                     if not np.array_equal(model.item_emb[r], before_i[r])]
        assert changed_u == [1]
        assert sorted(changed_i) == [2, 4]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        for trial in range(100):
            model = self.make_model(seed=trial, rows=3, dim=6)
            model.user_emb *= 50  # O(0.5) entries exercise the nonlinearity
            model.item_emb *= 50
            pos, neg = rng.choice(3, size=2, replace=False)
            triple = (0, int(pos), int(neg))
            ref_u = model.user_emb.copy()
            ref_i = model.item_emb.copy()

            def loss_fn():
                return bpr_loss(model, [triple])

            fd_u = finite_diff_grad(loss_fn, model.user_emb)
            fd_i = finite_diff_grad(loss_fn, model.item_emb)
            # recover the analytic gradient from a unit-lr step
            bpr_step(model, [triple], lr=1.0)
            an_u = ref_u - model.user_emb
            an_i = ref_i - model.item_emb
            for fd, an in ((fd_u, an_u), (fd_i, an_i)):
                denom = max(np.linalg.norm(fd), 1e-12)
                assert np.linalg.norm(fd - an) / denom < 1e-4

    def test_returns_pre_step_loss(self):
        model = self.make_model(seed=5)
        expected = bpr_loss(model, [(0, 1, 2)])
        assert bpr_step(model, [(0, 1, 2)], lr=0.1) == pytest.approx(expected)


class TestScore:
    def test_zero_user_row(self):
        model = BackboneModel(user_emb=np.zeros((2, 4)),
                              item_emb=np.ones((3, 4)))
        assert all(score(model, 0, i) == 0.0 for i in range(3))

    def test_unit_axis(self):
        model = BackboneModel(user_emb=np.eye(4)[:1], item_emb=np.eye(4)[:1])
        assert score(model, 0, 0) == 1.0

    def test_matches_recomputation(self):
        rng = np.random.default_rng(8)
        model = BackboneModel(user_emb=rng.normal(size=(5, 16)),
                              item_emb=rng.normal(size=(7, 16)))
        u, i = 3, 6
        manual = sum(model.user_emb[u][d] * model.item_emb[i][d]
                     for d in range(16))
        assert abs(score(model, u, i) - manual) < 1e-12

    def test_out_of_bounds(self):
        model = BackboneModel(user_emb=np.zeros((2, 4)),
                              item_emb=np.zeros((3, 4)))
        with pytest.raises(IndexError):
            score(model, 2, 0)
        with pytest.raises(IndexError):
            score(model, 0, -1)


class TestTrainBackbone:
    def test_zero_epochs_returns_init(self, toy_log):
        split = make_cold_split(toy_log, 0.0, seed=0)
        cfg = BackboneConfig(dim=8, max_epochs=0, seed=4)
        model = train_backbone(split, cfg, n_users=6, n_items=5)
        assert np.array_equal(model.user_emb, init_embeddings(6, 8, 4))
        assert np.array_equal(model.item_emb, init_embeddings(5, 8, 5))

    def test_loss_descends(self, toy_log):
        split = make_cold_split(toy_log, 0.0, seed=0)
        cfg = BackboneConfig(dim=8, lr=0.1, max_epochs=20, patience=100,
                             batch_size=4, seed=0)
        model = train_backbone(split, cfg, n_users=6, n_items=5)
        assert model.history[-1]["loss"] < model.history[0]["loss"]

    def test_two_cluster_separation(self):
        data, split = tiny_cluster_setup(seed=1)
        cfg = BackboneConfig(dim=16, lr=0.1, max_epochs=60, patience=15,
                             batch_size=64, seed=1)
        model = train_backbone(split, cfg, n_users=data.log.n_users,
                               n_items=data.log.n_items)
        scores = model.user_emb @ model.item_emb[:16].T
        same = np.array([[data.user_group[u] == data.item_group[i]
                          for i in range(16)]
                         for u in range(data.log.n_users)])
        assert scores[same].mean() > scores[~same].mean()

    def test_deterministic(self, toy_log):
        split = make_cold_split(toy_log, 0.0, seed=0)
        cfg = BackboneConfig(dim=8, lr=0.05, max_epochs=5, batch_size=4, seed=9)
        a = train_backbone(split, cfg, n_users=6, n_items=5)
        b = train_backbone(split, cfg, n_users=6, n_items=5)
        assert np.array_equal(a.user_emb, b.user_emb)
        assert np.array_equal(a.item_emb, b.item_emb)

    def test_empty_train_rejected(self, toy_log):
        split = replace(make_cold_split(toy_log, 0.0, seed=0), warm_train=[])
        with pytest.raises(ValueError):
            train_backbone(split, BackboneConfig(dim=4), n_users=6, n_items=5)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        model = BackboneModel(user_emb=init_embeddings(4, 8, 0),
                              item_emb=init_embeddings(6, 8, 1))
        model.save(tmp_path)
        loaded = BackboneModel.load(tmp_path)
        assert np.array_equal(loaded.user_emb,
                              model.user_emb.astype(np.float32))
        # a second save/load cycle is lossless
        loaded.save(tmp_path, prefix="again")
        again = BackboneModel.load(tmp_path, prefix="again")
        assert np.array_equal(again.user_emb, loaded.user_emb)
