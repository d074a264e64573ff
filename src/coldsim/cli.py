"""Command-line interface.

Commands operate on a working directory (``--out``) holding the persisted
artifacts of earlier stages, so each stage can be rerun independently:

    ingest, split, train-backbone, cache-content, train-filter,
    export-finetune, simulate, warmup, evaluate, ablate, sweep,
    default-config

Exit codes: 0 success, 1 validation error (bad arguments, missing or
malformed inputs), 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import config as config_mod
from . import pipeline, store, warmup
from .backbone import BackboneModel
from .content import (FileContentProvider, HttpContentProvider,
                      MockContentProvider, VectorCache, warm_cache)
from .corpus import (ColdWarmSplit, InteractionLog, ItemCatalog, lexsorted,
                     load_citeulike, load_movielens, make_cold_split)
from .evaluation import (TASKS, AdoptionStats, evaluate, format_report,
                         reports_to_csv)
from .filtering import TwoTowerFilter
from .refiner import DecisionLog, SimulationResult, prepare_finetune_data

logger = logging.getLogger(__name__)

DEFAULT_WORKDIR = "runs"


def _workdir(args) -> Path:
    return Path(args.out if args.out is not None else DEFAULT_WORKDIR)


def _require(path: Path, command: str) -> Path:
    """``path``, or FileNotFoundError naming the command that writes it."""
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run `{command}` first")
    return path


def _save_dataset(out: Path, log: InteractionLog, catalog: ItemCatalog) -> None:
    doc = {
        "n_users": log.n_users,
        "n_items": log.n_items,
        "pairs": lexsorted(log.pairs).tolist(),
        "content": {str(i): t for i, t in sorted(catalog.content.items())},
        "titles": ({str(i): t for i, t in sorted(catalog.titles.items())}
                   if catalog.titles else None),
    }
    store.write_atomic(out / "dataset.json",
                       json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n")


def _load_dataset(out: Path):
    def parse(doc):
        log = InteractionLog.from_pairs(doc["n_users"], doc["n_items"],
                                        doc["pairs"])
        catalog = ItemCatalog(
            content={int(i): t for i, t in doc["content"].items()},
            titles=({int(i): t for i, t in doc["titles"].items()}
                    if doc.get("titles") else None))
        return log, catalog
    return store.load_json(_require(out / "dataset.json", "ingest"), parse)


def _load_split(out: Path) -> ColdWarmSplit:
    return ColdWarmSplit.load(_require(out / "split.json", "split"))


def _load_backbone(out: Path, log: InteractionLog) -> BackboneModel:
    _require(out / "backbone_user.cemb", "train-backbone")
    return BackboneModel.load(out, log.n_users, log.n_items)


def _content_provider(cfg):
    c = cfg["content"]
    if c["provider"] == "mock":
        return MockContentProvider(dim=c["dim"], hash_seed=c["hash_seed"])
    if c["provider"] == "file":
        if not c["endpoint"]:
            raise ValueError("file provider needs content.endpoint "
                             "(path to a vector table)")
        return FileContentProvider(c["endpoint"])
    if c["provider"] == "http":
        if not c["endpoint"]:
            raise ValueError("http provider needs content.endpoint")
        return HttpContentProvider(c["endpoint"], timeout=c["timeout"],
                                   retries=c["retries"])
    raise ValueError(f"unknown content provider {c['provider']!r}")


def _assemble_pipeline(out: Path, cfg, filters: str = "",
                       oracle: bool = False) -> pipeline.Pipeline:
    """Load a pipeline's artifacts; build the oracle only if ``oracle``.

    Each table must fit the dataset, the backbone and the content cache.
    Of the filters, the trained ones among ``filters`` ("B", "L") are read:
    a command names only those it uses, so that a retrain can replace its
    own stale output."""
    log, catalog = _load_dataset(out)
    split = _load_split(out)
    backbone = _load_backbone(out, log)
    cache = VectorCache.load(_require(out / "content_cache.cemb", "cache-content"))
    trained = {v: TwoTowerFilter.load(out / f"filter_{v}", backbone.dim,
                                      cache.dim)
               for v in filters if (out / f"filter_{v}" / "manifest.json").exists()}
    pipe = pipeline.Pipeline(log=log, catalog=catalog, split=split,
                             backbone=backbone,
                             content_matrix=cache.matrix(log.n_items),
                             filter_b=trained.get("B"),
                             filter_l=trained.get("L"))
    if oracle:
        pipe.oracle = pipeline.make_oracle(cfg, pipe.content_matrix)
    return pipe


def _save_simulations(out: Path, sims: dict[int, SimulationResult]) -> None:
    doc = {str(item): {"users": sim.users,
                       "fallback_used": bool(sim.fallback_used)}
           for item, sim in sorted(sims.items())}
    store.write_atomic(out / "simulated.json",
                       json.dumps(doc, sort_keys=True) + "\n")


def _load_simulations(out: Path, n_users: int,
                      cold_items) -> dict[int, SimulationResult]:
    """``simulated.json``, its items cold and its users ints in [0, n_users)."""
    path = _require(out / "simulated.json", "simulate")
    cold = {str(i) for i in cold_items}

    def parse(doc):
        for key, body in doc.items():
            bad = [u for u in body["users"]     # a bool is not a user id
                   if type(u) is not int or not 0 <= u < n_users]
            if key not in cold or bad:
                raise ValueError(f"{path}: item {key} " + (
                    "is not a cold item" if key not in cold else
                    f"has user {bad[0]!r}, not a user id in [0, {n_users})"))
        return {int(item): SimulationResult(
                    item=int(item), users=body["users"],
                    fallback_used=body["fallback_used"])
                for item, body in doc.items()}
    return store.load_json(path, parse)


# ---------------------------------------------------------------- commands


def cmd_default_config(args, cfg) -> int:
    text = json.dumps(config_mod.default_config(), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out:
        out = _workdir(args)
        out.mkdir(parents=True, exist_ok=True)
        store.write_atomic(out / "config.json", text)
    return 0


def cmd_ingest(args, cfg) -> int:
    out = _workdir(args)
    out.mkdir(parents=True, exist_ok=True)
    dataset = args.dataset or cfg["data"]["dataset"]
    path = args.path or cfg["data"]["path"]
    if not path:
        raise ValueError("ingest needs --path (or data.path in the config)")
    if dataset == "citeulike":
        log, catalog = load_citeulike(path, mapping_path=out / "idmap.json")
    elif dataset == "movielens":
        log, catalog = load_movielens(path, mapping_path=out / "idmap.json",
                                      min_rating=cfg["data"]["min_rating"])
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    _save_dataset(out, log, catalog)
    print(f"ingested {dataset}: {log.n_users} users, {log.n_items} items, "
          f"{len(log.pairs)} interactions")
    return 0


def cmd_split(args, cfg) -> int:
    out = _workdir(args)
    log, _ = _load_dataset(out)
    split = make_cold_split(log, cfg["data"]["cold_frac"], cfg["data"]["seed"])
    split.save(out / "split.json")
    print(f"split: {len(split.warm_items)} warm / {len(split.cold_items)} cold "
          f"items; warm-train {len(split.warm_train)} pairs")
    return 0


def cmd_train_backbone(args, cfg) -> int:
    out = _workdir(args)
    log, _ = _load_dataset(out)
    split = _load_split(out)
    model = pipeline.fit_backbone(split, log, cfg)
    model.save(out)
    meta = {"dim": model.dim, "trained_epochs": model.trained_epochs,
            "fingerprint": config_mod.fingerprint(cfg)}
    store.write_atomic(out / "backbone.json",
                       json.dumps(meta, sort_keys=True, indent=1) + "\n")
    store.export_tsv(out / "backbone_item.tsv", model.item_emb[:50])
    print(f"backbone trained: {model.trained_epochs} epochs, dim {model.dim}")
    return 0


def cmd_cache_content(args, cfg) -> int:
    out = _workdir(args)
    _, catalog = _load_dataset(out)
    provider = _content_provider(cfg)
    cache = warm_cache(provider, catalog, out / "content_cache.cemb",
                       max_inflight=cfg["content"]["max_inflight"])
    print(f"content cache: {len(cache)} vectors, dim {cache.dim}")
    return 0


def cmd_train_filter(args, cfg) -> int:
    out = _workdir(args)
    variant = args.variant
    pipe = _assemble_pipeline(out, cfg, filters="B" if variant == "L" else "",
                              oracle=variant == "L")
    filt, history = pipeline.train_filter(pipe, variant, cfg)
    filt.save(out / f"filter_{variant}",
              train_config={**cfg["filter"], "variant": variant})
    best = max((h["val_ndcg"] for h in history), default=0.0)
    print(f"filter {variant} trained: {len(history)} epochs, "
          f"best val NDCG {best:.4f}")
    return 0


def cmd_export_finetune(args, cfg) -> int:
    out = _workdir(args)
    _require(out / "filter_B" / "manifest.json", "train-filter --variant B")
    pipe = _assemble_pipeline(out, cfg, filters="B")
    records = prepare_finetune_data(
        pipe.split, pipe.catalog, pipe.filter_b, pipe.content_matrix,
        seed=cfg["data"]["seed"],
        n_positives=cfg["refiner"]["finetune_positives"],
        top_l=cfg["refiner"]["context_len"], out_path=out / "finetune.jsonl",
        n_users=pipe.log.n_users)
    n_yes = sum(1 for r in records if r.completion == "Yes")
    print(f"finetune export: {len(records)} records ({n_yes} Yes / "
          f"{len(records) - n_yes} No)")
    return 0


def cmd_simulate(args, cfg) -> int:
    out = _workdir(args)
    pipe = _assemble_pipeline(out, cfg, filters="BL", oracle=True)
    if pipe.filter_b is None and pipe.filter_l is None:
        raise ValueError("no trained filters found; run `train-filter` first")
    decision_log = DecisionLog()
    cache_path = out / "decisions.jsonl"
    if cache_path.exists():
        decision_log = DecisionLog.load(cache_path)
    try:
        sims = pipeline.simulate_all(pipe, cfg, decision_log=decision_log)
    finally:
        # the answers of a failed pass are kept for the rerun to reuse
        decision_log.save(cache_path)
    _save_simulations(out, sims)
    # this pass's answers: a rerun extends decisions.jsonl, and answers
    # served from it are part of the pass
    stats = AdoptionStats(
        filtered=sum(sim.decided for sim in sims.values()),
        accepted=sum(len(sim.users) for sim in sims.values()
                     if not sim.fallback_used))
    if not stats.filtered:
        print(f"simulated {len(sims)} cold items; no oracle decision was made")
        return 0
    print(f"simulated {len(sims)} cold items; adoption rate "
          f"{stats.rate:.2%} ({stats.accepted}/{stats.filtered})")
    return 0


def cmd_warmup(args, cfg) -> int:
    out = _workdir(args)
    pipe = _assemble_pipeline(out, cfg, filters="B")
    sims = _load_simulations(out, pipe.log.n_users, pipe.split.cold_items)
    model, report = pipeline.warm_with_report(pipe, sims, cfg)
    store.save_table(out / "warmed_item.cemb", model.item_emb)
    warmup.save_warmup_report(out / "warmup_report.json", report)
    n_done = sum(1 for r in report if "skipped" not in r)
    print(f"warmed {n_done} cold items ({len(report) - n_done} skipped)")
    return 0


def cmd_evaluate(args, cfg) -> int:
    out = _workdir(args)
    log, _ = _load_dataset(out)
    split = _load_split(out)
    model = _load_backbone(out, log)
    warmed = out / "warmed_item.cemb"
    if warmed.exists():     # warmup has run: evaluate the warmed items
        model.item_emb = store.load_table(
            warmed, model.item_emb.shape).astype(np.float64)
    e = cfg["eval"]
    report = evaluate(model, split, task=args.task, k=e["k"],
                      n_users=e["users"], seed=e["seed"],
                      fingerprint=config_mod.fingerprint(cfg))
    report.save(out / f"eval_{args.task}.json")
    text = format_report(report)
    store.write_atomic(out / f"eval_{args.task}.txt", text)
    sys.stdout.write(text)
    return 0


def cmd_ablate(args, cfg) -> int:
    out = _workdir(args)
    pipe = _assemble_pipeline(out, cfg, filters="BL", oracle=True)
    reports = pipeline.run_ablation(args.variant, pipe, cfg,
                                    tasks=("overall", "warm", "cold"))
    doc = {task: {"recall": r.recall, "ndcg": r.ndcg, "k": r.k,
                  "n_users": r.n_users}
           for task, r in reports.items()}
    store.write_atomic(out / f"ablation_{args.variant}.json",
                       json.dumps(doc, sort_keys=True, indent=1) + "\n")
    for task, r in reports.items():
        print(f"{args.variant} {task}: Recall@{r.k} {r.recall:.4f} "
              f"NDCG@{r.k} {r.ndcg:.4f}")
    return 0


def cmd_sweep(args, cfg) -> int:
    out = _workdir(args)
    pipe = _assemble_pipeline(out, cfg, filters="BL", oracle=True)
    try:
        values = [json.loads(v) for v in args.values.split(",") if v]
    except json.JSONDecodeError:
        raise ValueError(f"could not parse sweep values: {args.values!r}") from None
    rows = pipeline.sweep(args.param, values, pipe, cfg)
    path = out / f"sweep_{args.param}.csv"
    reports_to_csv(rows, path)
    print(f"swept {args.param} over {values}; wrote {path.name}")
    return 0


COMMANDS = {
    "default-config": cmd_default_config,
    "ingest": cmd_ingest,
    "split": cmd_split,
    "train-backbone": cmd_train_backbone,
    "cache-content": cmd_cache_content,
    "train-filter": cmd_train_filter,
    "export-finetune": cmd_export_finetune,
    "simulate": cmd_simulate,
    "warmup": cmd_warmup,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coldsim",
        description="Simulate interactions for cold items and warm their "
                    "embeddings.")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the global seed")
    parser.add_argument("--out", default=None,
                        help="working directory (default: runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("default-config", help="print the full default config")
    p = sub.add_parser("ingest", help="load a corpus into the working dir")
    p.add_argument("--dataset", choices=["citeulike", "movielens"], default=None)
    p.add_argument("--path", default=None, help="corpus directory")
    sub.add_parser("split", help="make the cold/warm split")
    sub.add_parser("train-backbone", help="train MF embeddings with BPR")
    sub.add_parser("cache-content", help="embed and cache item content")
    p = sub.add_parser("train-filter", help="train a two-tower filter")
    p.add_argument("--variant", choices=["B", "L"], required=True)
    sub.add_parser("export-finetune", help="write oracle fine-tuning JSONL")
    sub.add_parser("simulate", help="funnel-filter and refine all cold items")
    sub.add_parser("warmup", help="optimize cold item embeddings")
    p = sub.add_parser("evaluate", help="Recall/NDCG on a task")
    p.add_argument("--task", choices=list(TASKS), default="overall")
    p = sub.add_parser("ablate", help="run an ablation variant")
    p.add_argument("--variant", type=str.lower,
                   choices=list(pipeline.ABLATION_VARIANTS), required=True)
    p = sub.add_parser("sweep", help="sweep a parameter over values")
    p.add_argument("--param", choices=sorted(pipeline.SWEEP_PARAMS), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments; that is a validation failure here
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = config_mod.load_config(args.config)
        cfg = config_mod.resolve_seeds(cfg, args.seed)
        return COMMANDS[args.command](args, cfg)
    except (ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as exc:
        logger.error("%s", exc)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 2
        logger.error("runtime failure: %s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
