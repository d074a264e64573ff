import hashlib

import numpy as np
import pytest

from coldsim import warmup
from coldsim.backbone import BackboneModel, init_embeddings
from coldsim.filtering import TwoTowerFilter, map_item
from coldsim.refiner import SimulationResult
from coldsim.warmup import (WarmupConfig, draw_step_users,
                            init_cold_embedding, optimize_cold_embedding,
                            warm_all_cold, warmup_loss)

from conftest import tiny_cluster_setup


def make_backbone(n_users=10, dim=6, seed=0):
    return BackboneModel(user_emb=init_embeddings(n_users, dim, seed),
                         item_emb=init_embeddings(n_users, dim, seed + 1))


def reference_warm_all_cold(split, simulations, backbone, config, filt_b=None,
                            content_matrix=None):
    """The per-item path: one optimize_cold_embedding call per cold item."""
    model = backbone.copy()
    report = []
    for item in sorted(split.cold_items):
        sim = simulations.get(item)
        if sim is None or not sim.users:
            report.append({"item": item, "skipped": "missing simulation"
                           if sim is None else "empty simulation"})
            continue
        init = None
        raw = content_matrix[item] if content_matrix is not None else None
        if (config.init == "user-mean" and sim.fallback_used
                and filt_b is not None and raw is not None):
            init = init_cold_embedding(item, sim.users, backbone, "filter-map",
                                       filt_b=filt_b, raw=raw)
        result = optimize_cold_embedding(item, sim.users, backbone, config,
                                         init=init, filt_b=filt_b, raw=raw)
        model.item_emb[item] = result.embedding
        report.append({"item": item, "n_users": len(sim.users),
                       "final_loss": result.final_loss,
                       "fallback_used": bool(sim.fallback_used)})
    return model, report


class TestInitCold:
    def test_zero_mode(self):
        model = make_backbone()
        vec = init_cold_embedding(0, [1, 2], model, "zero")
        assert not vec.any() and vec.shape == (6,)

    def test_single_user_mean_is_that_user(self):
        model = make_backbone()
        vec = init_cold_embedding(0, [4], model, "user-mean")
        assert np.array_equal(vec, model.user_emb[4])

    def test_three_user_mean(self):
        model = make_backbone(seed=2)
        users = [1, 5, 8]
        vec = init_cold_embedding(0, users, model, "user-mean")
        manual = (model.user_emb[1] + model.user_emb[5] + model.user_emb[8]) / 3
        assert np.allclose(vec, manual, atol=1e-14)

    def test_user_mean_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            init_cold_embedding(0, [], make_backbone(), "user-mean")

    def test_filter_map(self):
        model = make_backbone()
        filt = TwoTowerFilter.init("B", 6, 4, hidden=5, out=6, seed=3)
        raw = np.linspace(0, 1, 4)
        vec = init_cold_embedding(0, [], model, "filter-map", filt_b=filt,
                                  raw=raw)
        assert np.allclose(vec, map_item(filt, raw))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="init mode"):
            init_cold_embedding(0, [1], make_backbone(), "magic")

    def test_filter_map_needs_filter_and_content(self):
        filt = TwoTowerFilter.init("B", 6, 4, hidden=5, out=6, seed=3)
        for kwargs in ({"raw": np.ones(4)}, {"filt_b": filt}):
            with pytest.raises(ValueError, match="^filter-map init needs the "
                                                 "behavior filter and the "):
                init_cold_embedding(0, [1], make_backbone(), "filter-map",
                                    **kwargs)

    def test_filter_map_width_must_be_the_embedding_dim(self):
        filt = TwoTowerFilter.init("B", 6, 4, hidden=5, out=7, seed=3)
        with pytest.raises(ValueError, match="^filter output width 7 != "
                                             "embedding dim 6$"):
            init_cold_embedding(0, [1], make_backbone(), "filter-map",
                                filt_b=filt, raw=np.ones(4))


class TestOptimize:
    def test_zero_steps_returns_init(self):
        model = make_backbone(seed=4)
        cfg = WarmupConfig(steps=0, init="user-mean", seed=1)
        result = optimize_cold_embedding(3, [0, 1], model, cfg)
        assert np.array_equal(result.embedding,
                              model.user_emb[[0, 1]].mean(axis=0))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            model = make_backbone(seed=trial)
            model.user_emb *= 60
            pos = int(rng.integers(10))
            neg = int(rng.integers(10))
            if neg == pos:
                neg = (neg + 1) % 10
            e = rng.normal(size=6)
            pos_emb = model.user_emb[pos]
            neg_emb = model.user_emb[[neg]]

            h = 1e-5
            fd = np.zeros(6)
            for d in range(6):
                probe = e.copy()
                probe[d] += h
                up = warmup_loss(probe, pos_emb, neg_emb)
                probe[d] -= 2 * h
                down = warmup_loss(probe, pos_emb, neg_emb)
                fd[d] = (up - down) / (2 * h)
            # analytic gradient, recovered from one unit-lr step
            cfg = WarmupConfig(lr=1.0, steps=1, seed=trial)
            user_set = {pos}
            # force deterministic sampling by monkey substitution: run the
            # closed-form gradient directly instead
            from scipy.special import expit
            margin = (pos_emb - neg_emb) @ e
            analytic = (-expit(-margin)[:, None] * (pos_emb - neg_emb)).sum(0)
            denom = max(np.linalg.norm(fd), np.linalg.norm(analytic), 1e-10)
            assert np.linalg.norm(fd - analytic) / denom < 1e-4

    def test_descent_improves_simulated_scores(self):
        # start at the origin, where the mean score over the simulated
        # users is exactly zero, and require optimization to lift it
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            model = make_backbone(n_users=20, seed=seed)
            model.user_emb *= 100  # O(1) embeddings
            users = sorted(rng.choice(20, size=5, replace=False).tolist())
            cfg = WarmupConfig(lr=0.1, steps=50, init="zero", seed=seed)
            result = optimize_cold_embedding(0, users, model, cfg)
            before = 0.0
            after = (model.user_emb[users] @ result.embedding).mean()
            if after > before:
                wins += 1
        assert wins >= 95

    def test_empty_simulation_rejected(self):
        with pytest.raises(ValueError,
                           match="^item 3: simulated user set is empty$"):
            optimize_cold_embedding(3, [], make_backbone(), WarmupConfig())

    def test_all_users_simulated_rejected(self):
        model = make_backbone(n_users=4)
        with pytest.raises(ValueError, match="every user"):
            optimize_cold_embedding(0, [0, 1, 2, 3], model, WarmupConfig())

    def test_draws_with_every_user_simulated_rejected(self):
        # no user is left to be a negative; the draws would never end
        with pytest.raises(ValueError, match="every user"):
            draw_step_users(np.random.default_rng(0), np.arange(3), 3, 1, 1)

    def test_deterministic(self):
        model = make_backbone(seed=6)
        cfg = WarmupConfig(lr=0.05, steps=40, seed=9)
        a = optimize_cold_embedding(2, [1, 3], model, cfg)
        b = optimize_cold_embedding(2, [1, 3], model, cfg)
        assert np.array_equal(a.embedding, b.embedding)


class TestWarmAllCold:
    def make_setup(self, seed=0):
        data, split = tiny_cluster_setup(seed=seed)
        model = BackboneModel(
            user_emb=init_embeddings(data.log.n_users, 6, seed),
            item_emb=init_embeddings(data.log.n_items, 6, seed + 1))
        sims = {i: SimulationResult(item=i, users=[(i * 3) % 10, (i * 7) % 10 + 10])
                for i in split.cold_items}
        return data, split, model, sims

    def test_no_cold_items_bit_identical(self, toy_log):
        from coldsim.corpus import make_cold_split
        split = make_cold_split(toy_log, 0.0, seed=0)
        model = make_backbone(n_users=6)
        warmed, report = warm_all_cold(split, {}, model, WarmupConfig())
        assert np.array_equal(warmed.item_emb, model.item_emb)
        assert report == []

    def test_warm_rows_hash_identical(self):
        data, split, model, sims = self.make_setup()
        digest_before = {
            "user": hashlib.sha256(model.user_emb.tobytes()).hexdigest(),
            "warm": hashlib.sha256(
                model.item_emb[split.warm_items].tobytes()).hexdigest(),
        }
        warmed, _ = warm_all_cold(split, sims, model,
                                  WarmupConfig(lr=0.1, steps=20))
        assert hashlib.sha256(warmed.user_emb.tobytes()).hexdigest() == \
            digest_before["user"]
        assert hashlib.sha256(
            warmed.item_emb[split.warm_items].tobytes()).hexdigest() == \
            digest_before["warm"]
        # and the cold rows did change
        assert not np.array_equal(warmed.item_emb[split.cold_items],
                                  model.item_emb[split.cold_items])

    def test_missing_simulation_skipped_and_reported(self):
        data, split, model, sims = self.make_setup()
        dropped = split.cold_items[0]
        del sims[dropped]
        warmed, report = warm_all_cold(split, sims, model,
                                       WarmupConfig(lr=0.1, steps=5))
        skipped = [r for r in report if r.get("skipped")]
        assert [r["item"] for r in skipped] == [dropped]
        assert np.array_equal(warmed.item_emb[dropped], model.item_emb[dropped])

    def test_idempotent(self):
        data, split, model, sims = self.make_setup(seed=2)
        cfg = WarmupConfig(lr=0.2, steps=30, seed=5)
        a, _ = warm_all_cold(split, sims, model, cfg)
        b, _ = warm_all_cold(split, sims, model, cfg)
        assert np.array_equal(a.item_emb, b.item_emb)

    def test_cluster_structure_after_warmup(self):
        # with ground-truth simulations, each cold item scores higher for
        # its own group's users than for the rest
        data, split = tiny_cluster_setup(seed=3, n_users=40, n_warm=16,
                                         n_cold=4, groups_per_cluster=2)
        from coldsim.backbone import BackboneConfig, train_backbone
        model = train_backbone(split, BackboneConfig(
            dim=8, lr=0.1, max_epochs=40, patience=40, batch_size=32, seed=3),
            n_users=40, n_items=20)
        sims = {i: SimulationResult(item=i, users=[
            u for u in range(40) if (u, i) in data.truth])
            for i in split.cold_items}
        warmed, _ = warm_all_cold(split, sims, model,
                                  WarmupConfig(lr=0.1, steps=200, seed=3))
        for i in split.cold_items:
            own = [u for u in range(40) if data.user_group[u] == data.item_group[i]]
            other = [u for u in range(40) if u not in own]
            scores_own = warmed.user_emb[own] @ warmed.item_emb[i]
            scores_other = warmed.user_emb[other] @ warmed.item_emb[i]
            assert scores_own.mean() > scores_other.mean()


class TestWarmAllColdMatchesPerItem:
    """The batched block against the per-item reference, row by row."""

    def setup(self, seed):
        data, split = tiny_cluster_setup(seed=seed, n_users=40, n_warm=16,
                                         n_cold=8)
        rng = np.random.default_rng(seed)
        model = BackboneModel(
            user_emb=rng.normal(size=(data.log.n_users, 6)),
            item_emb=rng.normal(size=(data.log.n_items, 6)))
        filt = TwoTowerFilter.init("B", 6, 5, hidden=7, out=6, seed=seed)
        content = rng.normal(size=(data.log.n_items, 5))
        sims = {}
        for n, item in enumerate(sorted(split.cold_items)):
            users = rng.choice(40, size=int(rng.integers(1, 12)), replace=False)
            sims[item] = SimulationResult(item=item, users=users.tolist(),
                                          fallback_used=n % 3 == 0)
        return split, model, filt, content, sims

    @pytest.mark.parametrize("negatives,init,steps", [
        (1, "user-mean", 60), (3, "user-mean", 40), (2, "zero", 30),
        (1, "filter-map", 50), (2, "user-mean", 0)])
    def test_rows_and_losses_match(self, negatives, init, steps):
        split, model, filt, content, sims = self.setup(seed=negatives + steps)
        cfg = WarmupConfig(lr=0.3, steps=steps, negatives_per_positive=negatives,
                           init=init, seed=4)
        got, got_report = warm_all_cold(split, sims, model, cfg, filt_b=filt,
                                        content_matrix=content)
        want, want_report = reference_warm_all_cold(split, sims, model, cfg,
                                                    filt_b=filt,
                                                    content_matrix=content)
        assert np.allclose(got.item_emb, want.item_emb, rtol=0, atol=1e-12)
        assert got.user_emb.tobytes() == want.user_emb.tobytes()
        assert [r.keys() for r in got_report] == [r.keys() for r in want_report]
        for g, w in zip(got_report, want_report):
            assert g["item"] == w["item"] and g["n_users"] == w["n_users"]
            assert g["fallback_used"] == w["fallback_used"]
            assert abs(g["final_loss"] - w["final_loss"]) <= 1e-12

    @pytest.mark.parametrize("with_filter", [False, True])
    def test_one_init_per_item_filter_map_for_fallbacks(self, monkeypatch,
                                                        with_filter):
        split, model, filt, content, sims = self.setup(seed=3)
        modes = []

        def init(item, users, backbone, mode, **kwargs):
            modes.append((item, mode))
            return init_cold_embedding(item, users, backbone, mode, **kwargs)

        monkeypatch.setattr(warmup, "init_cold_embedding", init)
        warm_all_cold(split, sims, model, WarmupConfig(steps=5),
                      filt_b=filt if with_filter else None,
                      content_matrix=content)
        assert modes == [(item, "filter-map" if with_filter
                          and sims[item].fallback_used else "user-mean")
                         for item in sorted(split.cold_items)]

    def test_skips_match(self):
        split, model, filt, content, sims = self.setup(seed=1)
        cold = sorted(split.cold_items)
        del sims[cold[0]]
        sims[cold[3]] = SimulationResult(item=cold[3], users=[])
        cfg = WarmupConfig(lr=0.3, steps=20, seed=2)
        got, got_report = warm_all_cold(split, sims, model, cfg)
        want, want_report = reference_warm_all_cold(split, sims, model, cfg)
        assert np.allclose(got.item_emb, want.item_emb, rtol=0, atol=1e-12)
        assert [r.get("skipped") for r in got_report] == \
            [r.get("skipped") for r in want_report]
        assert got_report[0]["skipped"] == "missing simulation"
        assert got_report[3]["skipped"] == "empty simulation"

    def test_every_user_simulated_rejected(self):
        split, model, filt, content, sims = self.setup(seed=2)
        item = sorted(split.cold_items)[1]
        sims[item] = SimulationResult(item=item, users=list(range(40)))
        with pytest.raises(ValueError, match="every user"):
            warm_all_cold(split, sims, model, WarmupConfig(steps=5))
