import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats
from scipy.special import expit as scipy_expit

from coldsim.backbone import (BackboneConfig, BackboneModel, DivergenceError,
                              _epoch_triples, bpr_loss, bpr_step, expit,
                              fit_epochs, init_embeddings, train_backbone)
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

    def test_no_validation_users_refused(self, toy_log):
        # validating on no users would score 0.0 and keep epoch 1 through
        # early stopping; every trainer refuses it before any work, the
        # coupled one before asking its labeler
        split = make_cold_split(toy_log, 0.0, seed=0)
        model = BackboneModel(user_emb=init_embeddings(6, 4, 0),
                              item_emb=init_embeddings(5, 4, 1))
        content, hist = np.ones((5, 3)), np.zeros((6, 3))
        filt = TwoTowerFilter.init("B", 4, 3, hidden=2, out=2)
        cfg = FilterTrainConfig(eval_users=0)

        def labeler(users, items):
            raise AssertionError("labeler called")
        trainers = (
            ("backbone", lambda: train_backbone(
                split, BackboneConfig(dim=4, eval_users=0), n_users=6,
                n_items=5)),
            ("filter", lambda: train_behavior_filter(filt, model, content,
                                                     hist, split, cfg)),
            ("filter", lambda: train_coupled_filter(filt, model, content,
                                                    hist, split, labeler,
                                                    cfg)))
        for section, train in trainers:
            with pytest.raises(ValueError, match=f"^{section}.eval_users "
                               f"must be at least 1, got 0$"):
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

    def test_no_triples_is_a_zero_loss_no_op(self):
        model = self.make_model(seed=4)
        user, item = model.user_emb.tobytes(), model.item_emb.tobytes()
        assert bpr_step(model, np.zeros((0, 3), dtype=np.int64), lr=1.0) == 0.0
        assert bpr_step(model, [], lr=1.0) == 0.0
        assert model.user_emb.tobytes() == user
        assert model.item_emb.tobytes() == item

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


def scripted_fit(scores, max_epochs, patience, losses=(1.0, 3.0)):
    """fit_epochs over validation scores taken in turn from ``scores``; a
    snapshot is the number of epochs run when it is taken."""
    epochs, scores = [], iter(scores)
    result = fit_epochs("scripted", lambda epoch: epochs.append(epoch) or
                        list(losses), lambda: len(epochs),
                        lambda: next(scores), max_epochs, patience)
    return result, epochs


class TestFitEpochs:
    def test_stops_after_patience_epochs_without_a_higher_score(self, caplog):
        with caplog.at_level("INFO", logger="coldsim.backbone"):
            (best, epoch, history), run = scripted_fit(
                [0.1, 0.4, 0.2, 0.3, 0.35, 0.9], max_epochs=10, patience=3)
        assert run == [1, 2, 3, 4, 5]
        assert (best, epoch) == (2, 2)
        assert [h["val_ndcg"] for h in history] == [0.1, 0.4, 0.2, 0.3, 0.35]
        assert "scripted: early stop at epoch 5 (best 2, ndcg 0.4000)" \
            in caplog.text

    def test_a_higher_score_resets_the_count(self):
        (best, epoch, history), _ = scripted_fit(
            [0.1, 0.0, 0.2, 0.1, 0.0], max_epochs=5, patience=2)
        assert (best, epoch, len(history)) == (3, 3, 5)

    def test_a_tie_is_not_higher(self):
        (best, epoch, history), _ = scripted_fit(
            [0.5, 0.5, 0.5], max_epochs=10, patience=2)
        assert (best, epoch, len(history)) == (1, 1, 3)

    def test_returns_the_best_snapshot_not_the_last(self):
        (best, epoch, history), run = scripted_fit(
            [0.3, 0.7, 0.6, 0.5], max_epochs=4, patience=10)
        assert (best, epoch) == (2, 2)
        assert len(run) == len(history) == 4

    def test_epoch_zero_scores_minus_one(self):
        # a first score of -1.0 does not replace the initial snapshot
        (best, epoch, _), _ = scripted_fit([-1.0], max_epochs=1, patience=5)
        assert (best, epoch) == (0, 0)
        (best, epoch, _), _ = scripted_fit([0.0], max_epochs=1, patience=5)
        assert (best, epoch) == (1, 1)

    def test_zero_epochs_returns_the_initial_snapshot(self):
        (best, epoch, history), run = scripted_fit([], max_epochs=0,
                                                   patience=1)
        assert (best, epoch, history, run) == (0, 0, [], [])

    def test_history_records(self):
        (_, _, history), _ = scripted_fit([0.25], max_epochs=1, patience=1)
        assert history == [{"epoch": 1, "loss": 2.0, "val_ndcg": 0.25}]
        assert list(history[0]) == ["epoch", "loss", "val_ndcg"]
        (_, _, history), _ = scripted_fit([0.25], max_epochs=1, patience=1,
                                          losses=())
        assert history[0]["loss"] == 0.0


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

    def test_trained_epochs_is_the_first_best_epoch(self):
        data, split = tiny_cluster_setup(seed=2)
        cfg = BackboneConfig(dim=8, lr=0.3, max_epochs=40, patience=2,
                             batch_size=64, seed=2)
        n_users, n_items = data.log.n_users, data.log.n_items
        model = train_backbone(split, cfg, n_users=n_users, n_items=n_items)
        scores = [h["val_ndcg"] for h in model.history]
        assert len(scores) < cfg.max_epochs     # stopped early
        assert model.trained_epochs == 1 + int(np.argmax(scores))
        assert len(scores) == model.trained_epochs + cfg.patience
        # the weights are those after the best epoch, not the last one
        upto = train_backbone(split, replace(cfg, max_epochs=model.trained_epochs),
                              n_users=n_users, n_items=n_items)
        assert np.array_equal(model.user_emb, upto.user_emb)
        assert np.array_equal(model.item_emb, upto.item_emb)
        assert model.history[:model.trained_epochs] == upto.history

    @pytest.mark.parametrize("seed,what", [(2, r"non-finite weights"),
                                           (0, r"NaN score in row \d+")])
    def test_divergence_raises_naming_the_epoch_and_lr(self, caplog, seed,
                                                       what):
        # seed 2 overflows a weight to inf; under seed 0 the weights stay
        # finite but their products overflow in validation
        data, split = tiny_cluster_setup(seed=seed)
        cfg = BackboneConfig(dim=64, lr=1e150, max_epochs=5, batch_size=16,
                             seed=seed)
        with pytest.raises(DivergenceError, match=r"^backbone diverged at "
                           r"epoch 1 \(lr \S+\): " + what + "$") as info:
            train_backbone(split, cfg, n_users=data.log.n_users,
                           n_items=data.log.n_items)
        # the lr named is the last halved one
        lr = re.search(r"\(lr (\S+)\)", str(info.value))[1]
        halved = [r.getMessage() for r in caplog.records
                  if "halving lr" in r.getMessage()]
        assert float(lr) < cfg.lr
        assert halved[-1] == f"divergence at epoch 1, halving lr to {lr}"

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
        (tmp_path / "again").mkdir()
        loaded.save(tmp_path / "again")
        again = BackboneModel.load(tmp_path / "again")
        assert np.array_equal(again.user_emb, loaded.user_emb)
