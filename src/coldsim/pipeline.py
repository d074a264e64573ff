"""End-to-end orchestration: train all stages, simulate, warm, evaluate.

Also hosts the ablation variants and the parameter sweep.  Components are
assembled from a config dict (see :mod:`coldsim.config`); any stage can be
swapped for a pre-trained artifact by the CLI.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import filtering, refiner, warmup
from .backbone import BackboneConfig, BackboneModel, train_backbone
from .content import MockContentProvider, VectorCache
from .corpus import ColdWarmSplit, InteractionLog, ItemCatalog
from .evaluation import EvalReport, evaluate
from .filtering import FilterTrainConfig, TwoTowerFilter
from .refiner import DecisionLog, SimulateConfig, SimulationResult

logger = logging.getLogger(__name__)

ABLATION_VARIANTS = ("full", "no-lsf-r", "no-bf-r", "no-lsf", "no-bf", "no-r")


@dataclass
class Pipeline:
    """Trained components of one experiment."""

    log: InteractionLog
    catalog: ItemCatalog
    split: ColdWarmSplit
    backbone: BackboneModel
    content_matrix: np.ndarray
    filter_b: TwoTowerFilter | None = None
    filter_l: TwoTowerFilter | None = None
    oracle: object | None = None
    train_items: list = field(default_factory=list)
    hist_means: np.ndarray | None = None

    def user_vectors(self, filt: TwoTowerFilter) -> np.ndarray:
        return filtering.user_filter_vectors(filt, self.backbone.user_emb,
                                             self.hist_means)

    def item_vectors(self, filt: TwoTowerFilter) -> np.ndarray:
        """Every item's filter vector; rows align with item ids."""
        return filt.item_tower.forward(self.content_matrix)


def backbone_config_from(cfg: dict) -> BackboneConfig:
    b = cfg["backbone"]
    return BackboneConfig(dim=b["dim"], lr=b["lr"], optimizer=b["optimizer"],
                          l2=b["l2"], max_epochs=b["max_epochs"],
                          patience=b["patience"], batch_size=b["batch_size"],
                          eval_users=b["eval_users"], eval_k=b["eval_k"],
                          seed=b["seed"])


def filter_config_from(cfg: dict, seed_shift: int = 0) -> FilterTrainConfig:
    f = cfg["filter"]
    return FilterTrainConfig(lr=f["lr"], batch_size=f["batch_size"],
                             max_epochs=f["max_epochs"], patience=f["patience"],
                             optimizer=f["optimizer"],
                             weight_decay=f["weight_decay"],
                             coupled_weight=f["coupled_weight"],
                             label_pairs=f["label_pairs"],
                             eval_users=f["eval_users"], eval_k=f["eval_k"],
                             seed=f["seed"] + seed_shift)


def warmup_config_from(cfg: dict) -> warmup.WarmupConfig:
    w = cfg["warmup"]
    return warmup.WarmupConfig(lr=w["lr"], steps=w["steps"],
                               negatives_per_positive=w["negatives_per_positive"],
                               init=w["init"], seed=w["seed"])


def simulate_config_from(cfg: dict) -> SimulateConfig:
    r = cfg["refiner"]
    return SimulateConfig(k=r["k"], context_len=r["context_len"],
                          fallback_to_top1=r["fallback_to_top1"],
                          max_inflight=r["max_inflight"])


def make_oracle(cfg: dict, content_matrix: np.ndarray,
                planted_pairs=None):
    """Oracle client from the refiner config section."""
    r = cfg["refiner"]
    kind = r["oracle"]
    if kind == "mock-threshold":
        return refiner.ThresholdOracle(content_matrix, tau=r["tau"])
    if kind == "planted":
        if planted_pairs is None:
            raise ValueError("planted oracle needs ground-truth pairs")
        return refiner.PlantedOracle(planted_pairs)
    if kind == "http":
        if not r["endpoint"]:
            raise ValueError("http oracle needs refiner.endpoint")
        return refiner.HttpOracle(r["endpoint"], timeout=r["timeout"],
                                  retries=r["retries"], chat=r["chat"])
    raise ValueError(f"unknown oracle kind {kind!r}")


def oracle_labeler(pipe: Pipeline, oracle, top_l: int):
    """Adapter giving the coupled-filter trainer per-pair oracle labels.

    Contexts come from the coupled filter when present, otherwise from the
    behavior filter; its item vectors are computed once, here.
    """
    context_filter = pipe.filter_l if pipe.filter_l is not None else pipe.filter_b
    if context_filter is None:
        raise ValueError("oracle labels need a trained filter to build contexts")
    item_vectors = pipe.item_vectors(context_filter)

    def label(u: int, i: int) -> int:
        ctx = refiner.build_context(u, item_vectors[i], item_vectors,
                                    pipe.train_items[u], pipe.catalog, top_l)
        decision = refiner.query_oracle(oracle, ctx, pipe.catalog.title(i), i)
        return decision.value

    return label


def build_pipeline(log: InteractionLog, catalog: ItemCatalog,
                   split: ColdWarmSplit, cfg: dict, oracle=None,
                   planted_pairs=None, variants=("B", "L")) -> Pipeline:
    """Train backbone, content cache (mock provider), and both filters."""
    backbone = train_backbone(split, backbone_config_from(cfg),
                              n_users=log.n_users, n_items=log.n_items)
    provider = MockContentProvider(dim=cfg["content"]["dim"],
                                   hash_seed=cfg["content"]["hash_seed"])
    cache = VectorCache(dim=provider.dim, provider_kind=provider.kind,
                        hash_seed=provider.hash_seed)
    for i, text in catalog.content.items():
        cache.put(i, provider.embed(text))
    content_matrix = cache.matrix(log.n_items)

    pipe = Pipeline(log=log, catalog=catalog, split=split, backbone=backbone,
                    content_matrix=content_matrix,
                    train_items=split.train_items_of(log.n_users))
    pipe.hist_means = filtering.history_content_means(pipe.train_items,
                                                      content_matrix)
    if oracle is None:
        oracle = make_oracle(cfg, content_matrix, planted_pairs)
    pipe.oracle = oracle

    if "B" in variants:
        filt_b = TwoTowerFilter.init("B", backbone.dim, content_matrix.shape[1],
                                     hidden=cfg["filter"]["hidden"],
                                     out=cfg["filter"]["out"],
                                     seed=cfg["filter"]["seed"])
        filt_b, _ = filtering.train_behavior_filter(
            filt_b, backbone, content_matrix, split, filter_config_from(cfg))
        pipe.filter_b = filt_b
    if "L" in variants:
        filt_l = TwoTowerFilter.init("L", backbone.dim, content_matrix.shape[1],
                                     hidden=cfg["filter"]["hidden"],
                                     out=cfg["filter"]["out"],
                                     seed=cfg["filter"]["seed"] + 100)
        labeler = oracle_labeler(pipe, oracle, cfg["refiner"]["context_len"])
        filt_l, _ = filtering.train_coupled_filter(
            filt_l, backbone, content_matrix, split, labeler,
            filter_config_from(cfg, seed_shift=1))
        pipe.filter_l = filt_l
    return pipe


def simulate_all(pipe: Pipeline, cfg: dict, use_b: bool = True,
                 use_l: bool = True, skip_refine: bool = False,
                 decision_log: DecisionLog | None = None) -> dict[int, SimulationResult]:
    """Run the funnel for every cold item."""
    sim_cfg = simulate_config_from(cfg)
    filt_b = pipe.filter_b if use_b else None
    filt_l = pipe.filter_l if use_l else None
    if filt_b is None and filt_l is None:
        raise ValueError("simulation needs at least one filter")
    users_b = pipe.user_vectors(filt_b) if filt_b is not None else None
    users_l = pipe.user_vectors(filt_l) if filt_l is not None else None
    # contexts come from the coupled filter when present, else the behavior one
    item_vectors = None if skip_refine else pipe.item_vectors(
        filt_l if filt_l is not None else filt_b)
    results = {}
    for item in sorted(pipe.split.cold_items):
        results[item] = refiner.simulate_for_item(
            item, pipe.content_matrix[item], pipe.oracle, item_vectors,
            pipe.train_items, pipe.catalog, sim_cfg,
            filter_b=filt_b, filter_l=filt_l, users_b=users_b, users_l=users_l,
            decision_log=decision_log, skip_refine=skip_refine)
    return results


def warm_from_simulations(pipe: Pipeline, simulations, cfg: dict) -> BackboneModel:
    model, _ = warmup.warm_all_cold(pipe.split, simulations, pipe.backbone,
                                    warmup_config_from(cfg),
                                    filt_b=pipe.filter_b,
                                    content_matrix=pipe.content_matrix)
    if cfg["warmup"]["retrain_with_simulated"]:
        model = retrain_with_simulated(pipe, simulations, cfg, model)
    return model


def retrain_with_simulated(pipe: Pipeline, simulations, cfg: dict,
                           warmed: BackboneModel) -> BackboneModel:
    """Optional offline enrichment: append simulated pairs to warm-train and retrain."""
    extra = [(u, item) for item, sim in sorted(simulations.items())
             for u in sim.users]
    split = pipe.split
    enriched = ColdWarmSplit(
        warm_items=sorted(set(split.warm_items) | {i for _, i in extra}),
        cold_items=[i for i in split.cold_items
                    if i not in {j for _, j in extra}],
        warm_train=sorted(set(split.warm_train) | set(extra)),
        warm_val=split.warm_val, warm_test=split.warm_test,
        cold_val=split.cold_val, cold_test=split.cold_test,
        seed=split.seed, cold_frac=split.cold_frac)
    model = train_backbone(enriched, backbone_config_from(cfg),
                           n_users=pipe.log.n_users, n_items=pipe.log.n_items)
    return model


def run_ablation(variant: str, pipe: Pipeline, cfg: dict,
                 decision_log: DecisionLog | None = None,
                 tasks=("cold",)) -> dict[str, EvalReport]:
    """Simulate, warm, and evaluate under one ablation variant.

    Variants: ``full`` (both filters, refine), ``no-lsf`` (behavior filter
    only), ``no-bf`` (coupled filter only), ``no-r`` (refine skipped, the
    top-K candidates become the simulation), ``no-lsf-r`` / ``no-bf-r``
    (single filter and no refine).
    """
    if variant not in ABLATION_VARIANTS:
        raise ValueError(f"unknown ablation variant {variant!r}, expected one "
                         f"of {ABLATION_VARIANTS}")
    use_l = "lsf" not in variant
    use_b = "bf" not in variant
    skip_refine = variant.endswith("-r") or variant == "no-r"
    if use_b and pipe.filter_b is None:
        raise ValueError(f"variant {variant!r} needs the behavior filter")
    if use_l and pipe.filter_l is None:
        raise ValueError(f"variant {variant!r} needs the coupled filter")
    sims = simulate_all(pipe, cfg, use_b=use_b, use_l=use_l,
                        skip_refine=skip_refine, decision_log=decision_log)
    warmed = warm_from_simulations(pipe, sims, cfg)
    e = cfg["eval"]
    return {task: evaluate(warmed, pipe.split, task=task, k=e["k"],
                           n_users=e["users"], seed=e["seed"])
            for task in tasks}


SWEEP_PARAMS = {"K": ("refiner", "k"), "warmup-lr": ("warmup", "lr")}


def sweep(param: str, values, pipe: Pipeline, cfg: dict,
          tasks=("overall", "warm", "cold")) -> list[dict]:
    """One full simulate/warm/evaluate cycle per parameter value.

    Returns CSV-ready rows with the swept value and per-task metrics.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"unknown sweep parameter {param!r}, expected one of "
                         f"{sorted(SWEEP_PARAMS)}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    section, key = SWEEP_PARAMS[param]
    rows = []
    for value in values:
        run_cfg = {**cfg, section: {**cfg[section], key: value}}
        sims = simulate_all(pipe, run_cfg)
        warmed = warm_from_simulations(pipe, sims, run_cfg)
        row = {"param": param, "value": value}
        e = run_cfg["eval"]
        for task in tasks:
            report = evaluate(warmed, pipe.split, task=task, k=e["k"],
                              n_users=e["users"], seed=e["seed"])
            row[f"{task}_recall"] = round(report.recall, 6)
            row[f"{task}_ndcg"] = round(report.ndcg, 6)
        rows.append(row)
    return rows
