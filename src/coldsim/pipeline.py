"""End-to-end orchestration: train all stages, simulate, warm, evaluate.

Also hosts the ablation variants and the parameter sweep.  Components are
assembled from a config dict (see :mod:`coldsim.config`).  This module is
the one place that trains filters and reads config sections into their
dataclasses; the CLI only loads and saves the artifacts around it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields

import numpy as np

from . import filtering, refiner, warmup
from .backbone import BackboneConfig, BackboneModel, train_backbone
from .content import VectorCache, mock_embed_block
from .corpus import ColdWarmSplit, InteractionLog, ItemCatalog
from .evaluation import EvalReport, evaluate
from .filtering import FilterTrainConfig, TwoTowerFilter
from .metrics import pair_array
from .refiner import DecisionLog, SimulateConfig, SimulationResult

logger = logging.getLogger(__name__)

ABLATION_VARIANTS = ("full", "no-lsf-r", "no-bf-r", "no-lsf", "no-bf", "no-r")


@dataclass
class Pipeline:
    """Trained components of one experiment.

    ``train_items`` (each user's warm-train items, ascending) is the split
    index's, and ``hist_means`` (each user's mean history content vector)
    is computed from it and the content matrix once, here, as is
    ``titles``, every item's title indexed by item id.
    """

    log: InteractionLog
    catalog: ItemCatalog
    split: ColdWarmSplit
    backbone: BackboneModel
    content_matrix: np.ndarray
    filter_b: TwoTowerFilter | None = None
    filter_l: TwoTowerFilter | None = None
    oracle: object | None = None
    train_items: list = field(init=False)
    hist_means: np.ndarray = field(init=False)
    titles: list[str] = field(init=False)

    def __post_init__(self):
        self.train_items = self.split.index(self.log.n_users).train_items
        self.hist_means = filtering.history_content_means(self.train_items,
                                                          self.content_matrix)
        self.titles = [self.catalog.title(i) for i in range(self.log.n_items)]

    def user_vectors(self, filt: TwoTowerFilter) -> np.ndarray:
        return filtering.user_filter_vectors(filt, self.backbone.user_emb,
                                             self.hist_means)

    def item_vectors(self, filt: TwoTowerFilter) -> np.ndarray:
        """Every item's filter vector; rows align with item ids."""
        return filt.item_tower.forward(self.content_matrix)


def section_config(cls, section: dict):
    """A config dataclass filled from the same-named keys of a config section."""
    return cls(**{f.name: section[f.name] for f in fields(cls)})


def fit_backbone(split: ColdWarmSplit, log: InteractionLog, cfg: dict) -> BackboneModel:
    """Train the backbone on ``split`` under the backbone config section."""
    return train_backbone(split, section_config(BackboneConfig, cfg["backbone"]),
                          n_users=log.n_users, n_items=log.n_items)


def make_oracle(cfg: dict, content_matrix: np.ndarray):
    """Oracle client from the refiner config section; not the planted
    oracle, whose ground-truth pairs no config holds."""
    r = cfg["refiner"]
    kind = r["oracle"]
    if kind == "mock-threshold":
        return refiner.ThresholdOracle(content_matrix, tau=r["tau"])
    if kind == "planted":
        raise ValueError("the planted oracle needs ground-truth pairs, which "
                         "no config holds: pass oracle=PlantedOracle(pairs)")
    if kind == "http":
        if not r["endpoint"]:
            raise ValueError("http oracle needs refiner.endpoint")
        return refiner.HttpOracle(r["endpoint"], timeout=r["timeout"],
                                  retries=r["retries"], chat=r["chat"],
                                  max_inflight=r["max_inflight"])
    raise ValueError(f"unknown oracle kind {kind!r}")


def oracle_labeler(pipe: Pipeline, oracle, top_l: int):
    """The coupled-filter trainer's labeller: ``label(users, items)`` asks
    ``oracle`` about every (user, item) pair and returns its answers, each
    an :class:`~coldsim.refiner.OracleDecision` or the
    :class:`~coldsim.refiner.OracleError` it failed with, in pair order.

    The pairs' contexts come from one :func:`~coldsim.refiner.build_context`
    call and are answered by one ``decide`` call.  Contexts always come
    from the behavior filter, whose item vectors are computed once, here; a
    coupled filter already on the pipeline never labels its successor.
    """
    if pipe.filter_b is None:
        raise ValueError("oracle labels need a trained filter B to build "
                         "contexts: train filter B before filter L")
    item_vectors = pipe.item_vectors(pipe.filter_b)

    def label(users, items) -> list:
        return oracle.decide(refiner.build_context(
            users, items, item_vectors, pipe.train_items, pipe.titles, top_l))

    return label


def train_filter(pipe: Pipeline, variant: str, cfg: dict):
    """Initialise and train filter ``variant`` ("B" or "L"); (filter, history).

    The one filter recipe that :func:`build_pipeline` and the CLI share.
    Filter L starts from the filter seed plus 100, trains under the filter
    seed plus 1, and learns from ``pipe.oracle``'s labels on contexts built
    by filter B.
    """
    f = cfg["filter"]
    init_shift, train_shift = (100, 1) if variant == "L" else (0, 0)
    filt = TwoTowerFilter.init(variant, pipe.backbone.dim,
                               pipe.content_matrix.shape[1], hidden=f["hidden"],
                               out=f["out"], seed=f["seed"] + init_shift)
    train_cfg = section_config(FilterTrainConfig,
                               {**f, "seed": f["seed"] + train_shift})
    inputs = (filt, pipe.backbone, pipe.content_matrix, pipe.hist_means,
              pipe.split)
    if variant == "B":
        return filtering.train_behavior_filter(*inputs, train_cfg)
    labeler = oracle_labeler(pipe, pipe.oracle, cfg["refiner"]["context_len"])
    return filtering.train_coupled_filter(*inputs, labeler, train_cfg)


def build_pipeline(log: InteractionLog, catalog: ItemCatalog,
                   split: ColdWarmSplit, cfg: dict, oracle=None) -> Pipeline:
    """Embed content (mock provider), then train backbone and both filters.

    Only the mock provider embeds in process; content from a file or an
    HTTP service is cached by the CLI's ``cache-content``.  The content
    and the oracle come first, so a config whose oracle cannot be built
    fails before any training.
    """
    c = cfg["content"]
    if c["provider"] != "mock":
        raise ValueError(f"build_pipeline embeds with the mock provider, but "
                         f"content.provider is {c['provider']!r}; run "
                         f"`cache-content` and load its cache instead")
    cache = VectorCache(dim=c["dim"], provider_kind="mock",
                        hash_seed=c["hash_seed"])
    cache.vectors = dict(zip(catalog.content, mock_embed_block(
        list(catalog.content.values()), c["dim"], c["hash_seed"]
    ).astype(np.float32)))      # the rows VectorCache.put would store
    content_matrix = cache.matrix(log.n_items)
    if oracle is None:
        oracle = make_oracle(cfg, content_matrix)

    backbone = fit_backbone(split, log, cfg)
    pipe = Pipeline(log=log, catalog=catalog, split=split, backbone=backbone,
                    content_matrix=content_matrix, oracle=oracle)
    pipe.filter_b, _ = train_filter(pipe, "B", cfg)
    pipe.filter_l, _ = train_filter(pipe, "L", cfg)
    return pipe


def simulate_all(pipe: Pipeline, cfg: dict, use_b: bool = True,
                 use_l: bool = True, skip_refine: bool = False,
                 decision_log: DecisionLog | None = None) -> dict[int, SimulationResult]:
    """Simulate every cold item: funnel, refine pass, then fallback.

    One :func:`~coldsim.filtering.funnel_filter` call ranks the cold items
    with each filter in use, and the items with candidates go, in ascending
    item order, to one :func:`~coldsim.refiner.refine_all` pass with
    contexts from filter L when in use, else filter B.  An item whose
    candidates the oracle all rejects keeps its top candidate under
    ``refiner.fallback_to_top1``, else stays cold.  ``skip_refine`` makes
    the candidates the simulation.
    """
    sim_cfg = section_config(SimulateConfig, cfg["refiner"])
    filt_b = pipe.filter_b if use_b else None
    filt_l = pipe.filter_l if use_l else None
    items = sorted(pipe.split.cold_items)
    candidates = filtering.funnel_filter(
        pipe.content_matrix[items], sim_cfg.k, filter_b=filt_b,
        filter_l=filt_l, item=items,
        users_b=pipe.user_vectors(filt_b) if filt_b is not None else None,
        users_l=pipe.user_vectors(filt_l) if filt_l is not None else None)
    if skip_refine:
        return {cand.item: SimulationResult(item=cand.item, users=cand.users)
                for cand in candidates}
    asked = [cand for cand in candidates if cand.users]
    refined = dict(zip([cand.item for cand in asked], refiner.refine_all(
        asked, pipe.oracle,
        pipe.item_vectors(filt_l if filt_l is not None else filt_b),
        pipe.train_items, pipe.titles, sim_cfg.context_len, decision_log)))
    results = {}
    for cand in candidates:
        kept, failures = refined.get(cand.item, ([], 0))
        fallback = bool(cand.users) and not kept
        if fallback and sim_cfg.fallback_to_top1:
            kept = cand.users[:1]
        results[cand.item] = SimulationResult(
            item=cand.item, users=kept, fallback_used=fallback,
            failures=failures, decided=len(cand.users) - failures)
    return results


def warm_with_report(pipe: Pipeline, simulations,
                     cfg: dict) -> tuple[BackboneModel, list[dict]]:
    """Warm every cold item; the warmed model and the per-item warmup report.

    With ``warmup.retrain_with_simulated`` the model is instead a backbone
    retrained on warm-train plus the simulated pairs.
    """
    model, report = warmup.warm_all_cold(
        pipe.split, simulations, pipe.backbone,
        section_config(warmup.WarmupConfig, cfg["warmup"]),
        filt_b=pipe.filter_b, content_matrix=pipe.content_matrix)
    if cfg["warmup"]["retrain_with_simulated"]:
        model = retrain_with_simulated(pipe, simulations, cfg)
    return model, report


def warm_from_simulations(pipe: Pipeline, simulations, cfg: dict) -> BackboneModel:
    """The warmed model of :func:`warm_with_report`."""
    return warm_with_report(pipe, simulations, cfg)[0]


def enriched_split(split: ColdWarmSplit, simulations) -> ColdWarmSplit:
    """``split`` with the simulated pairs added to warm-train; every cold
    item with a simulated user becomes warm."""
    extra = pair_array([(u, item) for item, sim in sorted(simulations.items())
                        for u in sim.users])
    simulated = set(extra[:, 1].tolist())
    return ColdWarmSplit(
        warm_items=sorted(set(split.warm_items) | simulated),
        cold_items=[i for i in split.cold_items if i not in simulated],
        warm_train=np.unique(np.concatenate([split.warm_train, extra]), axis=0),
        warm_val=split.warm_val, warm_test=split.warm_test,
        cold_val=split.cold_val, cold_test=split.cold_test,
        seed=split.seed, cold_frac=split.cold_frac)


def retrain_with_simulated(pipe: Pipeline, simulations, cfg: dict) -> BackboneModel:
    """Optional offline enrichment: append simulated pairs to warm-train and retrain."""
    return fit_backbone(enriched_split(pipe.split, simulations), pipe.log, cfg)


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
