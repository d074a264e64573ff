import dataclasses

import numpy as np
import pytest

from coldsim import backbone, evaluation, filtering, pipeline
from coldsim.backbone import BackboneConfig
from coldsim.config import default_config, resolve_seeds
from coldsim.filtering import FilterTrainConfig
from coldsim.refiner import SimulateConfig, SimulationResult
from coldsim.warmup import WarmupConfig
from coldsim.refiner import PlantedOracle
from coldsim.synthetic import make_planted_split, make_two_cluster_dataset

from conftest import as_tuples


def tiny_config(seed=0, **overrides):
    cfg = default_config()
    cfg["backbone"].update({"dim": 8, "lr": 0.3, "max_epochs": 30,
                            "patience": 30, "batch_size": 128})
    cfg["content"].update({"dim": 32})
    cfg["filter"].update({"hidden": 12, "out": 8, "lr": 5e-3, "batch_size": 64,
                          "max_epochs": 6, "patience": 6, "label_pairs": 120})
    # K above the 15-user group size so refinement has false candidates to drop
    cfg["refiner"].update({"oracle": "planted", "k": 24})
    cfg["warmup"].update({"lr": 0.1, "steps": 60})
    cfg["eval"].update({"users": 2000})
    for section, patch in overrides.items():
        cfg[section].update(patch)
    return resolve_seeds(cfg, seed)


@pytest.fixture(scope="module")
def small_pipe():
    data = make_two_cluster_dataset(n_users=60, n_warm=24, n_cold=6,
                                    groups_per_cluster=2, seed=11)
    split = make_planted_split(data, seed=11)
    cfg = tiny_config(seed=11)
    pipe = pipeline.build_pipeline(data.log, data.catalog, split, cfg,
                                   oracle=PlantedOracle(data.truth))
    return data, split, cfg, pipe


class TestBuildAndSimulate:
    def test_components_trained(self, small_pipe):
        _, _, _, pipe = small_pipe
        assert pipe.filter_b is not None and pipe.filter_l is not None
        assert pipe.backbone.trained_epochs > 0

    def test_simulations_cover_cold_items(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        sims = pipeline.simulate_all(pipe, cfg)
        assert sorted(sims) == sorted(split.cold_items)
        k = cfg["refiner"]["k"]
        assert all(0 < len(s.users) <= k for s in sims.values())

    def test_simulated_users_subset_of_funnel(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        refined = pipeline.simulate_all(pipe, cfg)
        unrefined = pipeline.simulate_all(pipe, cfg, skip_refine=True)
        for item in split.cold_items:
            assert set(refined[item].users) <= set(unrefined[item].users)

    def test_warmed_model_beats_random_cold_rows(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        sims = pipeline.simulate_all(pipe, cfg)
        warmed = pipeline.warm_from_simulations(pipe, sims, cfg)
        e = cfg["eval"]
        full = evaluation.evaluate(warmed, split, task="cold", k=e["k"],
                                   n_users=e["users"], seed=0)
        rand = evaluation.evaluate(pipe.backbone, split, task="cold", k=e["k"],
                                   n_users=e["users"], seed=0)
        assert full.ndcg > rand.ndcg


class TestAblations:
    def test_unknown_variant(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        with pytest.raises(ValueError, match="variant"):
            pipeline.run_ablation("no-everything", pipe, cfg)

    def test_no_r_never_calls_oracle(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        calls = {"n": 0}

        class Counting(PlantedOracle):
            def decide(self, *a, **kw):
                calls["n"] += 1
                return super().decide(*a, **kw)

        original = pipe.oracle
        pipe.oracle = Counting(set())  # always-no oracle
        try:
            pipeline.run_ablation("no-r", pipe, cfg)
        finally:
            pipe.oracle = original
        assert calls["n"] == 0

    def test_no_lsf_uses_behavior_topk(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        from coldsim.filtering import topk_candidates
        sims = pipeline.simulate_all(pipe, cfg, use_l=False, skip_refine=True)
        users_b = pipe.user_vectors(pipe.filter_b)
        for item in split.cold_items:
            expected = topk_candidates(pipe.filter_b,
                                       pipe.content_matrix[item], users_b,
                                       cfg["refiner"]["k"]).users
            assert sims[item].users == expected

    def test_missing_component_rejected(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        stripped = pipeline.Pipeline(
            log=pipe.log, catalog=pipe.catalog, split=pipe.split,
            backbone=pipe.backbone, content_matrix=pipe.content_matrix,
            filter_b=pipe.filter_b, filter_l=None, oracle=pipe.oracle)
        with pytest.raises(ValueError, match="coupled filter"):
            pipeline.run_ablation("no-bf", stripped, cfg)

    def test_labeler_without_filters_rejected(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        bare = dataclasses.replace(pipe, filter_b=None, filter_l=None)
        with pytest.raises(ValueError, match="trained filter"):
            pipeline.oracle_labeler(bare, pipe.oracle,
                                    cfg["refiner"]["context_len"])

    def test_full_refinement_not_worse_than_no_r(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        full = pipeline.run_ablation("full", pipe, cfg)["cold"]
        no_r = pipeline.run_ablation("no-r", pipe, cfg)["cold"]
        assert full.ndcg >= no_r.ndcg


def tower_weights(filt):
    return [w for tower in (filt.user_tower, filt.item_tower)
            for w in tower.params().values()]


class TestTrainFilter:
    def test_derived_state_matches_split(self, small_pipe):
        _, split, _, pipe = small_pipe
        expected = [[] for _ in range(pipe.log.n_users)]
        for u, i in sorted(as_tuples(split.warm_train)):
            expected[u].append(i)
        assert pipe.train_items == expected
        for u, items in enumerate(pipe.train_items):
            expected = (pipe.content_matrix[items].mean(axis=0) if items
                        else np.zeros(pipe.content_matrix.shape[1]))
            assert np.array_equal(pipe.hist_means[u], expected)

    def test_build_computes_history_means_once(self, monkeypatch):
        calls = []
        means = filtering.history_content_means

        def counted(*args):
            calls.append(args)
            return means(*args)

        monkeypatch.setattr(filtering, "history_content_means", counted)
        data = make_two_cluster_dataset(n_users=30, n_warm=12, n_cold=3,
                                        groups_per_cluster=1, seed=2)
        split = make_planted_split(data, seed=2)
        cfg = tiny_config(seed=2, backbone={"max_epochs": 2},
                          filter={"max_epochs": 1, "label_pairs": 20})
        pipeline.build_pipeline(data.log, data.catalog, split, cfg,
                                oracle=PlantedOracle(data.truth))
        assert len(calls) == 1

    @pytest.mark.parametrize("provider", ["file", "http"])
    def test_build_rejects_non_mock_content(self, provider):
        # only the mock provider embeds in process; the CLI caches the others
        data = make_two_cluster_dataset(n_users=30, n_warm=12, n_cold=3,
                                        groups_per_cluster=1, seed=2)
        cfg = tiny_config(seed=2, content={"provider": provider})
        with pytest.raises(ValueError, match="content.provider.*cache-content"):
            pipeline.build_pipeline(data.log, data.catalog,
                                    make_planted_split(data, seed=2), cfg,
                                    oracle=PlantedOracle(data.truth))

    def test_planted_oracle_kind_needs_the_pairs_passed_in(self):
        # tiny_config's refiner.oracle is "planted": its pairs are in no config
        data = make_two_cluster_dataset(n_users=30, n_warm=12, n_cold=3,
                                        groups_per_cluster=1, seed=2)
        cfg = tiny_config(seed=2, backbone={"max_epochs": 1})
        with pytest.raises(ValueError, match=r"oracle=PlantedOracle\(pairs\)$"):
            pipeline.build_pipeline(data.log, data.catalog,
                                    make_planted_split(data, seed=2), cfg)

    @pytest.mark.parametrize("refiner,error", [
        ({"oracle": "planted"}, r"oracle=PlantedOracle\(pairs\)$"),
        ({"oracle": "http", "endpoint": None}, "needs refiner.endpoint")])
    def test_unbuildable_oracle_fails_before_training(self, monkeypatch,
                                                      refiner, error):
        def no_training(*args, **kwargs):
            raise AssertionError("the backbone trained before the oracle "
                                 "was built")

        monkeypatch.setattr(backbone, "bpr_step", no_training)
        data = make_two_cluster_dataset(n_users=30, n_warm=12, n_cold=3,
                                        groups_per_cluster=1, seed=2)
        with pytest.raises(ValueError, match=error):
            pipeline.build_pipeline(data.log, data.catalog,
                                    make_planted_split(data, seed=2),
                                    tiny_config(seed=2, refiner=refiner))

    def test_retrained_l_ignores_existing_l(self, small_pipe):
        # labels take their contexts from filter B, so a filter L already on
        # the pipeline (here: B itself in its place) leaves the result as built
        _, _, cfg, pipe = small_pipe
        stale = dataclasses.replace(pipe, filter_l=pipe.filter_b.copy())
        filt, history = pipeline.train_filter(stale, "L", cfg)
        assert filt.variant == "L" and history
        for got, built in zip(tower_weights(filt), tower_weights(pipe.filter_l)):
            assert np.array_equal(got, built)

    def test_retrained_b_matches_build(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        filt, _ = pipeline.train_filter(pipe, "B", cfg)
        for got, built in zip(tower_weights(filt), tower_weights(pipe.filter_b)):
            assert np.array_equal(got, built)

    def test_l_needs_b(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        bare = dataclasses.replace(pipe, filter_b=None)
        with pytest.raises(ValueError, match="before filter L"):
            pipeline.train_filter(bare, "L", cfg)

    def test_unknown_variant(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        with pytest.raises(ValueError, match="variant"):
            pipeline.train_filter(pipe, "C", cfg)


class TestConfigSections:
    SECTIONS = ((BackboneConfig, "backbone"), (FilterTrainConfig, "filter"),
                (SimulateConfig, "refiner"), (WarmupConfig, "warmup"))

    @pytest.mark.parametrize("cls,section", SECTIONS)
    def test_defaults_come_from_the_dataclass(self, cls, section):
        cfg = resolve_seeds(default_config(), 0)
        assert pipeline.section_config(cls, cfg[section]) == cls()

    @pytest.mark.parametrize("cls,section", SECTIONS)
    def test_reads_every_field(self, cls, section):
        cfg = tiny_config(seed=4)
        got = pipeline.section_config(cls, cfg[section])
        for f in dataclasses.fields(cls):
            assert getattr(got, f.name) == cfg[section][f.name]

    def test_section_seeds_unresolved_by_default(self):
        cfg = default_config()
        for section in ("backbone", "filter", "warmup"):
            assert cfg[section]["seed"] is None


class TestSweep:
    def test_single_value_matches_direct_run(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        rows = pipeline.sweep("K", [24], pipe, cfg, tasks=("cold",))
        sims = pipeline.simulate_all(pipe, cfg)
        warmed = pipeline.warm_from_simulations(pipe, sims, cfg)
        e = cfg["eval"]
        direct = evaluation.evaluate(warmed, split, task="cold", k=e["k"],
                                     n_users=e["users"], seed=e["seed"])
        assert rows[0]["cold_ndcg"] == round(direct.ndcg, 6)

    def test_three_values_three_rows(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        rows = pipeline.sweep("K", [4, 8, 12], pipe, cfg, tasks=("cold",))
        assert [r["value"] for r in rows] == [4, 8, 12]
        assert all(r["param"] == "K" for r in rows)

    def test_warmup_lr_param(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        rows = pipeline.sweep("warmup-lr", [0.01, 0.1], pipe, cfg,
                              tasks=("cold",))
        assert len(rows) == 2

    def test_bad_param(self, small_pipe):
        _, _, cfg, pipe = small_pipe
        with pytest.raises(ValueError, match="sweep parameter"):
            pipeline.sweep("gamma", [1], pipe, cfg)
        with pytest.raises(ValueError, match="at least one"):
            pipeline.sweep("K", [], pipe, cfg)


class TestEnrichment:
    def test_retrain_with_simulated_runs(self, small_pipe):
        data, split, cfg, pipe = small_pipe
        cfg2 = {**cfg, "warmup": {**cfg["warmup"],
                                  "retrain_with_simulated": True},
                "backbone": {**cfg["backbone"], "max_epochs": 4}}
        sims = pipeline.simulate_all(pipe, cfg2)
        model = pipeline.warm_from_simulations(pipe, sims, cfg2)
        assert model.item_emb.shape == pipe.backbone.item_emb.shape

    def test_enriched_split_moves_simulated_items(self, small_pipe):
        _, split, _, _ = small_pipe
        simulated, unsimulated = split.cold_items[:2], split.cold_items[2:]
        sims = {i: SimulationResult(item=i, users=[0, 1 + i % 5])
                for i in simulated}
        sims.update({i: SimulationResult(item=i, users=[])
                     for i in unsimulated})
        enriched = pipeline.enriched_split(split, sims)
        assert enriched.warm_items == sorted(split.warm_items + simulated)
        assert enriched.cold_items == unsimulated
        extra = {(u, i) for i in simulated for u in sims[i].users}
        assert len(enriched.warm_train) == len(split.warm_train) + len(extra)
        assert enriched.warm_train_set == split.warm_train_set | extra
        assert as_tuples(enriched.warm_train) == sorted(enriched.warm_train_set)
        for name in ("warm_val", "warm_test", "cold_val", "cold_test"):
            assert np.array_equal(getattr(enriched, name), getattr(split, name))


def test_libm_expit_trains_scipy_expit_bits(monkeypatch):
    """Backbone, filter and warmed weights equal the scipy logistic's bytes."""
    from scipy.special import expit as scipy_expit

    from coldsim import backbone, warmup

    data = make_two_cluster_dataset(n_users=60, n_warm=24, n_cold=6,
                                    groups_per_cluster=2, seed=3)
    split = make_planted_split(data, seed=3)
    cfg = tiny_config(seed=3, backbone={"max_epochs": 2, "patience": 2},
                      filter={"max_epochs": 2, "patience": 2})
    warm_cfg = pipeline.section_config(WarmupConfig, cfg["warmup"])

    def weights():
        pipe = pipeline.build_pipeline(data.log, data.catalog, split, cfg,
                                       oracle=PlantedOracle(data.truth))
        sims = pipeline.simulate_all(pipe, cfg)
        warmed, _ = pipeline.warm_with_report(pipe, sims, cfg)
        item = min(split.cold_items)
        one = warmup.optimize_cold_embedding(item, sims[item].users,
                                             pipe.backbone, warm_cfg)
        assert len(pipe.backbone.history) == 2
        return [pipe.backbone.user_emb, pipe.backbone.item_emb,
                *tower_weights(pipe.filter_b), *tower_weights(pipe.filter_l),
                warmed.item_emb[sorted(split.cold_items)], one.embedding]

    got = weights()
    for module in (backbone, filtering, warmup):
        monkeypatch.setattr(module, "expit", scipy_expit)
    want = weights()
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
