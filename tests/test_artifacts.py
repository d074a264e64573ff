"""Every artifact goes through ``store.write_atomic``: a failed save keeps the old file.

Each writer below first saves a good artifact, then a save whose
serialisation raises part-way (an object json cannot encode, or a CSV row
with an unknown column).  The old bytes must survive and no temp file may
be left in the directory.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from coldsim import cli, corpus, refiner, store
from coldsim.backbone import BackboneModel
from coldsim.corpus import ColdWarmSplit, InteractionLog, ItemCatalog
from coldsim.content import VectorCache
from coldsim.evaluation import EvalReport, reports_to_csv
from coldsim.filtering import TwoTowerFilter
from coldsim.refiner import DecisionLog, OracleDecision, SimulationResult
from coldsim.warmup import save_warmup_report

from conftest import tiny_cluster_setup

SRC = Path(__file__).resolve().parent.parent / "src" / "coldsim"


def save_split(path, seed):
    ColdWarmSplit(warm_items=[0], cold_items=[1], warm_train=[(0, 0)],
                  warm_val=[], warm_test=[], cold_val=[], cold_test=[(0, 1)],
                  seed=seed, cold_frac=0.5).save(path)


def save_decisions(path, raw):
    log = DecisionLog()
    log.record(0, 1, "planted", "ph0", OracleDecision(value=1, raw="Yes"))
    log.record(2, 1, "planted", "ph1", OracleDecision(value=1, raw=raw))
    log.save(path)


def save_manifest(path, lr):
    TwoTowerFilter.init("B", 2, 3, hidden=2, out=2).save(
        path.parent, train_config={"lr": lr})


def save_sidecar(path, hash_seed):
    cache = VectorCache(dim=2, provider_kind="mock", hash_seed=hash_seed)
    cache.put(0, np.ones(2))
    cache.save(path.with_suffix(".cemb"))


def save_eval(path, fingerprint):
    EvalReport(task="cold", k=5, recall=0.5, ndcg=0.25, n_users=3, seed=0,
               fingerprint=fingerprint).save(path)


def save_dataset(path, text):
    log = InteractionLog.from_pairs(1, 1, [(0, 0)])
    cli._save_dataset(path.parent, log, ItemCatalog(content={0: text}))


def save_simulations(path, user):
    cli._save_simulations(path.parent,
                          {3: SimulationResult(item=3, users=[0, user])})


def save_sweep_rows(path, extra_key):
    reports_to_csv([{"K": 4, "ndcg": 0.5}, {"K": 6, extra_key: 0.25}], path)


def save_finetune(path, prompt_of, monkeypatch):
    data, split = tiny_cluster_setup(seed=3)
    filt = TwoTowerFilter.init("B", 4, 6, hidden=6, out=5, seed=3)
    content = np.random.default_rng(3).normal(size=(data.log.n_items, 6))
    monkeypatch.setattr(refiner, "render_prompt", prompt_of)
    refiner.prepare_finetune_data(split, data.catalog, filt, content,
                                  mode="offline", seed=3, n_positives=4,
                                  out_path=path, n_users=data.log.n_users)


# (file name, writer, a value it saves, a value that makes its save raise)
WRITERS = [
    ("split.json", save_split, 0, object()),
    ("idmap.json",
     lambda path, raw: corpus._persist_idmap(path, [7, 8], [raw]), 5, object()),
    ("decisions.jsonl", save_decisions, "No", object()),
    ("manifest.json", save_manifest, 0.01, object()),
    ("c.json", save_sidecar, 0, object()),
    ("eval_cold.json", save_eval, "abc", object()),
    ("warmup_report.json",
     lambda path, loss: save_warmup_report(path, [{"item": 1, "loss": loss}]),
     0.5, object()),
    ("dataset.json", save_dataset, "café notes", object()),
    ("simulated.json", save_simulations, 1, object()),
    ("sweep_K.csv", save_sweep_rows, "ndcg", "recall"),
]


@pytest.mark.parametrize("name, save, good, bad", WRITERS,
                         ids=[w[0] for w in WRITERS])
def test_failed_save_keeps_previous_file(tmp_path, name, save, good, bad):
    path = tmp_path / name
    save(path, good)
    before = path.read_bytes()
    assert before
    with pytest.raises((TypeError, ValueError)):
        save(path, bad)
    assert path.read_bytes() == before
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]


def test_failed_finetune_export_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "finetune.jsonl"
    save_finetune(path, refiner.render_prompt, monkeypatch)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        save_finetune(path, lambda block, j: object(), monkeypatch)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["finetune.jsonl"]


def stale_cache(out):
    """A cache whose sidecar says width 4 over a 5-wide table."""
    cache = VectorCache(dim=4, provider_kind="mock")
    cache.put(0, np.ones(4))
    cache.save(out / "c.cemb")
    store.save_table(out / "c.cemb", np.ones((1, 5)))
    return out / "c.cemb", lambda: VectorCache.load(out / "c.cemb")


def stale_filter(out):
    """A filter whose manifest says out 5 over a 7-wide ``item_w2``."""
    TwoTowerFilter.init("B", 4, 6, hidden=3, out=5).save(out)
    store.save_table(out / "item_w2.cemb", np.ones((3, 7)))
    return out / "item_w2.cemb", lambda: TwoTowerFilter.load(out)


def stale_backbone(out):
    """A backbone whose item table is wider than its user table."""
    BackboneModel(user_emb=np.ones((3, 4)), item_emb=np.ones((5, 4))).save(out)
    store.save_table(out / "backbone_item.cemb", np.ones((5, 6)))
    return out / "backbone_item.cemb", lambda: BackboneModel.load(out)


def filter_for_another_backbone(out):
    """A filter built for a 4-wide backbone, read by a run whose is 5 wide."""
    TwoTowerFilter.init("B", 4, 6, hidden=3, out=5).save(out)
    TwoTowerFilter.load(out, backbone_dim=4, content_dim=6)
    return out / "user_w1.cemb", lambda: TwoTowerFilter.load(out, 5, 6)


def backbone_for_another_dataset(out):
    """A backbone of 3 users, read for a dataset of 4."""
    BackboneModel(user_emb=np.ones((3, 4)), item_emb=np.ones((5, 4))).save(out)
    BackboneModel.load(out, n_users=3, n_items=5)
    return out / "backbone_user.cemb", lambda: BackboneModel.load(out, 4, 5)


@pytest.mark.parametrize("make", [stale_cache, stale_filter, stale_backbone,
                                  filter_for_another_backbone,
                                  backbone_for_another_dataset])
def test_loader_rejects_table_shape_its_metadata_disagrees_with(tmp_path, make):
    path, load = make(tmp_path)
    with pytest.raises(ValueError, match=f"^{path}: "):
        load()


def _writes_a_file(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant)
                and not set(mode.value) & set("wax+"))


def test_only_write_atomic_opens_files_for_writing():
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        allowed = set()
        if module.name == "store.py":
            (writer,) = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "write_atomic"]
            allowed = {id(node) for node in ast.walk(writer)}
        offenders += [f"{module.name}:{node.lineno}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and _writes_a_file(node)
                      and id(node) not in allowed]
    assert offenders == []
