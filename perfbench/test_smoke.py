"""Smoke test of the benchmark at toy sizes; no timing is asserted.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import grouped_corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_grouped_corpus_has_citeulike_counts():
    grouped_corpus.self_check(seed=3)


def test_grouped_corpus_is_a_function_of_the_seed():
    a = grouped_corpus.make_grouped_corpus(5, scale=1 / 64)
    b = grouped_corpus.make_grouped_corpus(5, scale=1 / 64)
    c = grouped_corpus.make_grouped_corpus(6, scale=1 / 64)
    assert a.per_user == b.per_user and a.metadata == b.metadata
    assert a.per_user != c.per_user


@pytest.mark.parametrize("workload", run.NAMES)
def test_workload_reports_every_gated_metric(workload):
    done = run_bench("--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "0", "--size", "toy")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = "\n".join(lines[:-1])
    for name in ("setup_s", "run_s", "peak_rss_mb", "cold_ndcg20",
                 "oracle_calls_per_s", "fail_ratio"):
        assert name in report


def test_traced_run_reports_every_per_layer_metric():
    done = run_bench("--workload", "cu-simulate", "--seed", "2", "--seconds", "0",
                     "--trace", "1", "--size", "toy")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["trace.absent_layers"] == 0
    assert metrics["filtering.topk_calls"] > 0
    assert metrics["warmup.items"] > 0
    assert metrics["metrics.rank_calls"] > 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cu-train", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_restores_every_binding_and_reports_absent_layers():
    from coldsim import backbone, evaluation, filtering, metrics, refiner

    original = metrics.rank_by_score
    decide = refiner.ThresholdOracle.__dict__["decide"]
    load = refiner.DecisionLog.__dict__["load"]
    targets = spans.TARGETS + (spans.Target("gone", "coldsim.metrics", "no_such"),)
    tracer = spans.Tracer().install(targets)
    try:
        for mod in (metrics, backbone, filtering, evaluation):
            assert mod.rank_by_score is not original
        metrics.rank_by_score(np.array([1.0, 3.0, 2.0]))
        assert tracer.stats["metrics.rank"].calls == 1
    finally:
        tracer.restore()
    for mod in (metrics, backbone, filtering, evaluation):
        assert mod.rank_by_score is original
    assert refiner.ThresholdOracle.__dict__["decide"] is decide
    assert refiner.DecisionLog.__dict__["load"] is load
    assert tracer.absent == ["gone (coldsim.metrics.no_such)"]


def test_fail_ratio_counts_every_label_call_and_failure():
    def oracle_labeler():
        return lambda user, item: 1 // (user % 2)    # fails for even users

    module = types.SimpleNamespace(oracle_labeler=oracle_labeler)
    labels = run.LabelCalls()
    assert labels.install(module)
    label = module.oracle_labeler()
    for user in range(4):
        try:
            label(user, 0)
        except ZeroDivisionError:
            pass
    assert (labels.attempts, labels.failures) == (4, 2)
    # labels alone, as on cu-train
    assert run.fail_ratio([workloads.Outcome()], labels) == 2 / 4
    # labels plus simulation decisions over two repetitions
    outcomes = [workloads.Outcome(decisions=5, oracle_failures=1),
                workloads.Outcome(decisions=6)]
    assert run.fail_ratio(outcomes, labels) == 3 / 16
    assert not run.LabelCalls().install(types.SimpleNamespace())


def test_child_cover_is_the_union_of_overlapping_spans():
    # overlapping children come from the HTTP oracle's in-flight pool
    assert spans._covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.5, 5.5) == 3.0


def test_frozen_rows_check_catches_a_changed_warm_row():
    from coldsim.backbone import BackboneModel
    from coldsim.corpus import ColdWarmSplit

    model = BackboneModel(user_emb=np.ones((3, 2)), item_emb=np.ones((4, 2)))
    warmed = model.copy()
    warmed.item_emb[3] = 5.0          # the cold row may change
    split = ColdWarmSplit(warm_items=[0, 1, 2], cold_items=[3], warm_train=[],
                          warm_val=[], warm_test=[], cold_val=[], cold_test=[],
                          seed=0, cold_frac=0.25)
    out = workloads.Outcome()
    workloads.check_frozen(model, warmed, split, out)
    assert out.problems == []
    warmed.item_emb[1, 0] = np.nextafter(1.0, 2.0)
    workloads.check_frozen(model, warmed, split, out)
    assert out.problems == ["warmup changed warm item rows"]
