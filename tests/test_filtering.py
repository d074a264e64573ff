import math
from dataclasses import replace

import numpy as np
import pytest

from coldsim.backbone import BackboneModel, DivergenceError, init_embeddings
from coldsim.filtering import (FilterTrainConfig,
                               InnerProductIndex, TowerMlp, TwoTowerFilter,
                               behavior_bpr_batch, coupled_ce_batch,
                               funnel_filter, history_content_means, map_item,
                               sample_label_pairs, topk_candidates,
                               train_behavior_filter, train_coupled_filter,
                               user_filter_vectors)
from coldsim.refiner import OracleDecision, OracleError
from coldsim.synthetic import make_two_cluster_dataset, make_planted_split

from conftest import as_tuples, tiny_cluster_setup


def mlp_reference(tower, x):
    """Independent recomputation with explicit loops."""
    x = np.asarray(x, dtype=float)
    hidden = np.zeros(tower.w1.shape[1])
    for j in range(tower.w1.shape[1]):
        acc = tower.b1[j]
        for d in range(tower.w1.shape[0]):
            acc += x[d] * tower.w1[d, j]
        hidden[j] = max(acc, 0.0)
    out = np.zeros(tower.w2.shape[1])
    for o in range(tower.w2.shape[1]):
        acc = tower.b2[o]
        for j in range(tower.w2.shape[0]):
            acc += hidden[j] * tower.w2[j, o]
        out[o] = acc
    return out


def brute_force_topk(scores, k):
    """Full sort with the ascending-id tie rule."""
    pairs = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return pairs[:k]


def lexsort_rank(scores, ids=None, k=None):
    """One row, one full lexsort: the ranker the batched kernel replaced."""
    scores = np.asarray(scores)
    ids = np.arange(len(scores)) if ids is None else np.asarray(ids)
    order = np.lexsort((ids, -scores))
    ranked = ids[order]
    return ranked if k is None else ranked[:k]


def map_user(filt, e_u, hist_content):
    """One user's filter vector, the row ``user_filter_vectors`` batches.

    ``hist_content`` is the mean raw content vector of the user's train
    history.
    """
    return filt.user_tower.forward(np.concatenate([e_u, hist_content]))


def random_filter(rng, variant="B", backbone_dim=6, content_dim=5,
                  hidden=7, out=4):
    return TwoTowerFilter.init(variant, backbone_dim, content_dim,
                               hidden=hidden, out=out,
                               seed=int(rng.integers(1 << 30)))


class TestMapping:
    def test_zero_tower_zero_output(self):
        tower = TowerMlp(w1=np.zeros((5, 4)), b1=np.zeros(4),
                         w2=np.zeros((4, 3)), b2=np.zeros(3))
        filt = TwoTowerFilter("B", user_tower=tower, item_tower=tower)
        assert not map_item(filt, np.ones(5)).any()

    def test_identity_layers_pass_through(self):
        tower = TowerMlp(w1=np.eye(4), b1=np.zeros(4),
                         w2=np.eye(4), b2=np.zeros(4))
        filt = TwoTowerFilter("B", user_tower=tower, item_tower=tower)
        x = np.array([0.5, 1.0, 0.0, 2.0])  # nonnegative passes the rectifier
        assert np.array_equal(map_item(filt, x), x)

    def test_map_item_matches_reference(self):
        rng = np.random.default_rng(0)
        filt = random_filter(rng)
        raw = rng.normal(size=5)
        assert np.allclose(map_item(filt, raw),
                           mlp_reference(filt.item_tower, raw), atol=1e-10)

    def test_map_item_dim_mismatch(self):
        filt = random_filter(np.random.default_rng(1))
        with pytest.raises(ValueError, match="width"):
            map_item(filt, np.ones(9))

    def test_map_user_concatenates(self):
        rng = np.random.default_rng(2)
        filt = random_filter(rng)
        e_u, hist = rng.normal(size=6), rng.normal(size=5)
        expected = mlp_reference(filt.user_tower, np.concatenate([e_u, hist]))
        got = user_filter_vectors(filt, e_u[None, :], hist[None, :])[0]
        assert np.allclose(got, expected, atol=1e-10)

    def test_empty_history_uses_zero_block(self):
        rng = np.random.default_rng(3)
        filt = random_filter(rng)
        e_u = rng.normal(size=6)
        expected = mlp_reference(filt.user_tower,
                                 np.concatenate([e_u, np.zeros(5)]))
        no_history = history_content_means([[]], np.ones((1, 5)))
        got = user_filter_vectors(filt, e_u[None, :], no_history)[0]
        assert np.allclose(got, expected, atol=1e-10)

    def test_history_means(self):
        content = np.arange(12.0).reshape(4, 3)
        means = history_content_means([[0, 2], [], [3]], content)
        assert np.array_equal(means[0], content[[0, 2]].mean(axis=0))
        assert not means[1].any()
        assert np.array_equal(means[2], content[3])


class TestTopK:
    def test_k_covers_all_users(self):
        rng = np.random.default_rng(4)
        filt = random_filter(rng)
        vectors = rng.normal(size=(7, 4))
        cand = topk_candidates(filt, rng.normal(size=5), vectors, k=50)
        assert len(cand.users) == 7
        assert sorted(cand.users) == list(range(7))

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(5)
        for trial in range(200):
            filt = random_filter(rng)
            vectors = rng.normal(size=(30, 4))
            if trial % 3 == 0:
                vectors[::2] = vectors[0]  # force score ties
            raw = rng.normal(size=5)
            cand = topk_candidates(filt, raw, vectors, k=10)
            scores = vectors @ map_item(filt, raw)
            assert cand.users == brute_force_topk(scores, 10)

    def test_index_equals_brute_force(self):
        rng = np.random.default_rng(6)
        for trial in range(300):
            vectors = rng.normal(size=(40, 8))
            if trial % 4 == 0:
                vectors[10:20] = vectors[:10]
            q = rng.normal(size=8)
            k = int(rng.integers(1, 45))
            ids, scores = InnerProductIndex(vectors).query(q, k)
            expected = brute_force_topk(vectors @ q, k)
            assert ids.tolist() == expected

    def test_scaling_leaves_order_unchanged(self):
        rng = np.random.default_rng(7)
        filt = random_filter(rng)
        vectors = rng.normal(size=(25, 4))
        raw = rng.normal(size=5)
        base = topk_candidates(filt, raw, vectors, k=25).users
        f_i = map_item(filt, raw)
        scaled_ids, _ = InnerProductIndex(vectors).query(3.7 * f_i, 25)
        assert scaled_ids.tolist() == base

    def test_k_must_be_positive(self):
        filt = random_filter(np.random.default_rng(8))
        with pytest.raises(ValueError):
            topk_candidates(filt, np.ones(5), np.ones((3, 4)), k=0)


class TestFunnel:
    def build(self, seed):
        rng = np.random.default_rng(seed)
        filt_b = random_filter(rng, "B")
        filt_l = random_filter(rng, "L")
        users = rng.normal(size=(30, 10))
        hist = rng.normal(size=(30, 5))
        users_b = user_filter_vectors(filt_b, users[:, :6], hist)
        users_l = user_filter_vectors(filt_l, users[:, :6], hist)
        return filt_b, filt_l, users_b, users_l

    def test_identical_rankings(self):
        filt_b, _, users_b, _ = self.build(0)
        raw = np.ones(5)
        solo = topk_candidates(filt_b, raw, users_b, k=8).users
        both = funnel_filter(raw, 8, filter_b=filt_b, filter_l=filt_b,
                             users_b=users_b, users_l=users_b)
        assert both.users == solo

    def test_disjoint_lists_alternate(self):
        # hand-built rankings via rigged user vectors: L ranks users 0..9,
        # B ranks users 10..19
        class FixedFilter(TwoTowerFilter):
            pass

        rng = np.random.default_rng(1)
        filt = random_filter(rng)
        out_dim = filt.item_tower.d_out
        raw = np.ones(5)
        f_i = map_item(filt, raw)
        # construct user vectors with controlled dot products
        users_l = np.zeros((20, out_dim))
        users_b = np.zeros((20, out_dim))
        unit = f_i / (f_i @ f_i)
        for u in range(10):
            users_l[u] = (100 - u) * unit
            users_b[u + 10] = (100 - u) * unit
        cand = funnel_filter(raw, 20, filter_b=filt, filter_l=filt,
                             users_b=users_b, users_l=users_l)
        assert cand.users[:6] == [0, 10, 1, 11, 2, 12]
        assert len(cand.users) == 20
        assert set(cand.users) == set(range(20))

    def test_single_filter_ablation(self):
        filt_b, _, users_b, _ = self.build(2)
        raw = np.full(5, 0.3)
        solo = topk_candidates(filt_b, raw, users_b, k=12).users
        cand = funnel_filter(raw, 12, filter_b=filt_b, users_b=users_b)
        assert cand.users == solo

    def test_requires_a_filter(self):
        with pytest.raises(ValueError):
            funnel_filter(np.ones(5), 10)

    def test_empty_block_gives_no_candidate_sets(self):
        filt_b, filt_l, users_b, users_l = self.build(3)
        assert funnel_filter(np.ones((0, 5)), 10, filter_b=filt_b,
                             filter_l=filt_l, users_b=users_b,
                             users_l=users_l, item=[]) == []
        assert topk_candidates(filt_b, np.ones((0, 5)), users_b, k=10) == []

    def test_size_is_min_k_available(self):
        for seed in range(50):
            filt_b, filt_l, users_b, users_l = self.build(seed)
            k = int(np.random.default_rng(seed).integers(1, 40))
            cand = funnel_filter(np.ones(5), k, filter_b=filt_b,
                                 filter_l=filt_l, users_b=users_b,
                                 users_l=users_l)
            assert len(cand.users) == min(k, 30)
            assert len(set(cand.users)) == len(cand.users)


def tower_grad_fd(loss_fn, towers, h=1e-5):
    """Central differences over every tower parameter."""
    out = {}
    for tname, tower in towers.items():
        grads = {}
        for pname, arr in tower.params().items():
            g = np.zeros_like(arr)
            flat, gflat = arr.ravel(), g.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_fn()
                flat[idx] = orig - h
                down = loss_fn()
                flat[idx] = orig
                gflat[idx] = (up - down) / (2 * h)
            grads[pname] = g
        out[tname] = grads
    return out


def assert_grads_close(analytic, fd, rel_tol=1e-4, zero_tol=1e-8):
    for tname in fd:
        for pname in fd[tname]:
            a, f = analytic[tname][pname], fd[tname][pname]
            if max(np.linalg.norm(a), np.linalg.norm(f)) < zero_tol:
                continue  # structurally zero (e.g. item bias cancels in BPR)
            denom = max(np.linalg.norm(f), np.linalg.norm(a))
            assert np.linalg.norm(a - f) / denom < rel_tol, (tname, pname)


def kink_free(filt, batches, margin=1e-3):
    """True when every hidden pre-activation is safely away from the ReLU kink.

    Finite differences with step h are only valid where the loss is smooth;
    a pre-activation within ~h of zero would straddle the kink.
    """
    for tower, x in batches:
        pre = np.asarray(x) @ tower.w1 + tower.b1
        if np.min(np.abs(pre)) < margin:
            return False
    return True


class TestGradients:
    def test_behavior_bpr_gradient_fd(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 100:
            filt = random_filter(rng, backbone_dim=3, content_dim=3,
                                 hidden=4, out=3)
            towers = {"user": filt.user_tower, "item": filt.item_tower}
            u = rng.normal(size=(2, 6))
            ri, rj = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
            if not kink_free(filt, [(filt.user_tower, u),
                                    (filt.item_tower, ri),
                                    (filt.item_tower, rj)]):
                continue
            loss_fn = lambda: behavior_bpr_batch(filt, u, ri, rj)[0]
            _, analytic = behavior_bpr_batch(filt, u, ri, rj)
            assert_grads_close(analytic, tower_grad_fd(loss_fn, towers))
            checked += 1

    def test_coupled_ce_gradient_fd(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            filt = random_filter(rng, backbone_dim=3, content_dim=3,
                                 hidden=4, out=3)
            towers = {"user": filt.user_tower, "item": filt.item_tower}
            u = rng.normal(size=(3, 6))
            ri = rng.normal(size=(3, 3))
            z = rng.integers(0, 2, size=3).astype(float)
            if not kink_free(filt, [(filt.user_tower, u),
                                    (filt.item_tower, ri)]):
                continue
            loss_fn = lambda: coupled_ce_batch(filt, u, ri, z)[0]
            _, analytic = coupled_ce_batch(filt, u, ri, z)
            assert_grads_close(analytic, tower_grad_fd(loss_fn, towers))
            checked += 1

    def test_one_triple_loss_hand_computed(self):
        rng = np.random.default_rng(12)
        filt = random_filter(rng)
        u = rng.normal(size=(1, 11))
        ri, rj = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        loss, _ = behavior_bpr_batch(filt, u, ri, rj)
        fu = filt.user_tower.forward(u[0])
        margin = fu @ filt.item_tower.forward(ri[0]) - fu @ filt.item_tower.forward(rj[0])
        hand = -math.log(1.0 / (1.0 + math.exp(-margin)))
        assert loss == pytest.approx(hand, abs=1e-8)

    def test_ce_closed_forms(self):
        # z=1 with p=0.5 gives ln 2; p -> 1 sends it to 0
        tower = TowerMlp(w1=np.zeros((2, 2)), b1=np.zeros(2),
                         w2=np.zeros((2, 2)), b2=np.zeros(2))
        filt = TwoTowerFilter("L", user_tower=tower.copy(),
                              item_tower=tower.copy())
        loss, _ = coupled_ce_batch(filt, np.ones((1, 2)), np.ones((1, 2)),
                                   np.array([1.0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        filt.user_tower.b2 = np.full(2, 40.0)
        filt.item_tower.b2 = np.full(2, 1.0)  # logit 80, p ~ 1
        loss, _ = coupled_ce_batch(filt, np.ones((1, 2)), np.ones((1, 2)),
                                   np.array([1.0]))
        assert loss < 1e-6


    @pytest.mark.parametrize("variant", ["B", "L"])
    def test_non_finite_loss_is_a_divergence(self, variant):
        # a NaN weight makes the batch loss NaN: training stops, no step
        tower = TowerMlp(w1=np.zeros((2, 2)), b1=np.zeros(2),
                         w2=np.zeros((2, 2)), b2=np.full(2, np.nan))
        filt = TwoTowerFilter(variant, user_tower=tower.copy(),
                              item_tower=tower.copy())
        ones = np.ones((1, 2))
        with np.errstate(invalid="ignore"), pytest.raises(
                DivergenceError, match=("^non-finite filter BPR loss nan$"
                                        if variant == "B" else
                                        "^non-finite coupled CE loss nan$")):
            if variant == "B":
                behavior_bpr_batch(filt, ones, ones, ones)
            else:
                coupled_ce_batch(filt, ones, ones, np.array([1.0]))


class TestTraining:
    def setup_inputs(self, seed=0):
        data, split = tiny_cluster_setup(seed=seed)
        backbone = BackboneModel(
            user_emb=init_embeddings(data.log.n_users, 8, seed),
            item_emb=init_embeddings(data.log.n_items, 8, seed + 1))
        rng = np.random.default_rng(seed)
        content = rng.normal(size=(data.log.n_items, 6))
        hist = history_content_means(split.index(data.log.n_users).train_items,
                                     content)
        return data, split, backbone, content, hist

    def test_lr_zero_leaves_params(self):
        data, split, backbone, content, hist = self.setup_inputs()
        filt = TwoTowerFilter.init("B", 8, 6, hidden=5, out=4, seed=0)
        before = {p: a.copy() for p, a in filt.user_tower.params().items()}
        cfg = FilterTrainConfig(lr=0.0, max_epochs=2, batch_size=16, seed=0)
        train_behavior_filter(filt, backbone, content, hist, split, cfg)
        for p, a in filt.user_tower.params().items():
            assert np.array_equal(a, before[p])

    @pytest.mark.parametrize("variant", ["B", "L"])
    def test_early_stop_keeps_the_best_epoch(self, caplog, variant):
        data, split, backbone, content, hist = self.setup_inputs(seed=4)
        cfg = FilterTrainConfig(lr=0.05, max_epochs=30, patience=2,
                                batch_size=16, label_pairs=40, seed=4)

        def train(config):
            filt = TwoTowerFilter.init(variant, 8, 6, hidden=5, out=4, seed=4)
            if variant == "B":
                return train_behavior_filter(filt, backbone, content, hist,
                                             split, config)
            return train_coupled_filter(
                filt, backbone, content, hist, split,
                lambda users, items: [
                    OracleDecision(value=int((u, i) in data.truth), raw="")
                    for u, i in zip(users, items)], config)

        with caplog.at_level("INFO", logger="coldsim.backbone"):
            filt, history = train(cfg)
        scores = [h["val_ndcg"] for h in history]
        best = 1 + int(np.argmax(scores))
        assert len(history) == best + cfg.patience < cfg.max_epochs
        assert f"filter {variant}: early stop at epoch {len(history)} " \
            f"(best {best}, ndcg {scores[best - 1]:.4f})" in caplog.text
        # the weights after the best epoch, not after the last one
        upto, upto_history = train(replace(cfg, max_epochs=best))
        assert upto_history == history[:best]
        for tower in ("user_tower", "item_tower"):
            for name, arr in getattr(upto, tower).params().items():
                assert np.array_equal(getattr(filt, tower).params()[name], arr)

    def test_default_constants(self):
        cfg = FilterTrainConfig()
        assert cfg.lr == 1e-5
        assert cfg.batch_size == 128

    def test_coupled_separable_labels_reach_low_ce(self):
        # 50x50 toy: labels depend only on observable group structure
        data = make_two_cluster_dataset(n_users=50, n_warm=46, n_cold=4,
                                        groups_per_cluster=1, seed=3)
        split = make_planted_split(data, seed=3)
        backbone = BackboneModel(
            user_emb=init_embeddings(50, 8, 3),
            item_emb=init_embeddings(50, 8, 4))
        # strongly separable content: one-hot by group
        content = np.zeros((data.log.n_items, 4))
        for i in range(data.log.n_items):
            content[i, data.item_group[i]] = 1.0
        # make user embeddings carry the group too
        for u in range(50):
            backbone.user_emb[u, data.user_group[u]] += 1.0
        filt = TwoTowerFilter.init("L", 8, 4, hidden=16, out=8, seed=5)
        def labeler(users, items):
            return [OracleDecision(value=int((u, i) in data.truth), raw="")
                    for u, i in zip(users, items)]

        cfg = FilterTrainConfig(lr=0.01, batch_size=64, max_epochs=200,
                                patience=200, coupled_weight=0.0, seed=5)
        hist = history_content_means(split.index(50).train_items, content)
        _, history = train_coupled_filter(filt, backbone, content, hist, split,
                                          labeler, cfg)
        assert history[-1]["loss"] < 0.1

    def test_label_pool_is_balanced(self):
        data, split, _, _, _ = self.setup_inputs(seed=6)
        pairs = sample_label_pairs(split, data.log.n_users, n_positives=None,
                                   seed=6)
        observed = split.warm_train_set
        n_pos = sum(1 for p in as_tuples(pairs) if p in observed)
        n_neg = len(pairs) - n_pos
        assert n_pos == len(split.warm_train)
        assert n_neg == n_pos

    def test_labeler_failures_skipped(self, caplog):
        data, split, backbone, content, hist = self.setup_inputs(seed=7)
        filt = TwoTowerFilter.init("L", 8, 6, hidden=5, out=4, seed=7)

        def flaky(users, items):
            # every third pair fails in place
            return [OracleError("oracle down") if j % 3 == 2
                    else OracleDecision(value=1, raw="Yes")
                    for j in range(len(users))]

        cfg = FilterTrainConfig(lr=1e-4, max_epochs=1, batch_size=32, seed=7,
                                label_pairs=30)
        train_coupled_filter(filt, backbone, content, hist, split, flaky, cfg)
        n_pool = len(sample_label_pairs(split, data.log.n_users, 30, 7 + 17))
        assert f"oracle labeling failed for {n_pool // 3} of {n_pool} pairs" \
            in caplog.text
        # a failed pair is skipped, not labelled: with every pair failing
        # nothing is left to train on
        with pytest.raises(ValueError, match="no labeled pairs"):
            train_coupled_filter(filt, backbone, content, hist, split,
                                 lambda users, items: [OracleError("down")]
                                 * len(users), cfg)

    def test_labeler_bug_propagates(self):
        # only oracle faults skip a pair; a programming error is raised
        data, split, backbone, content, hist = self.setup_inputs(seed=7)
        filt = TwoTowerFilter.init("L", 8, 6, hidden=5, out=4, seed=7)

        def buggy(users, items):
            raise IndexError("context built from a bad row")

        cfg = FilterTrainConfig(lr=1e-4, max_epochs=1, batch_size=32, seed=7,
                                label_pairs=30)
        with pytest.raises(IndexError, match="bad row"):
            train_coupled_filter(filt, backbone, content, hist, split, buggy,
                                 cfg)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        filt = TwoTowerFilter.init("L", 6, 5, hidden=7, out=4, seed=9)
        filt.save(tmp_path / "filter_L", train_config={"lr": 1e-5})
        loaded = TwoTowerFilter.load(tmp_path / "filter_L")
        assert loaded.variant == "L"
        x = np.linspace(-1, 1, 5)
        assert np.allclose(map_item(loaded, x),
                           map_item(filt, x).astype(np.float32), atol=1e-6)
