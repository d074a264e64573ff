import math
from dataclasses import replace

import numpy as np
import pytest

from coldsim.backbone import BackboneModel
from coldsim.corpus import ColdWarmSplit
from coldsim.evaluation import (adoption_rate, evaluate, format_report,
                                reports_to_csv)
from coldsim.metrics import ndcg_at_k, recall_at_k


def reference_recall(ranked, relevant, k):
    """Independent loop-based implementation."""
    if not relevant:
        return 0.0
    hits = 0
    for item in list(ranked)[:k]:
        if item in relevant:
            hits += 1
    return hits / len(relevant)


def reference_ndcg(ranked, relevant, k):
    if not relevant:
        return 0.0
    dcg = 0.0
    for rank, item in enumerate(list(ranked)[:k], start=1):
        if item in relevant:
            dcg += 1.0 / math.log2(rank + 1)
    idcg = 0.0
    for rank in range(1, min(len(relevant), k) + 1):
        idcg += 1.0 / math.log2(rank + 1)
    return dcg / idcg


class TestMetricClosedForms:
    def test_all_relevant_first(self):
        assert recall_at_k([3, 1, 2, 0], {3, 1}, 2) == 1.0
        assert ndcg_at_k([3, 1, 2, 0], {3, 1}, 4) == 1.0

    def test_nothing_relevant_in_topk(self):
        assert recall_at_k([5, 6, 7], {1}, 3) == 0.0
        assert ndcg_at_k([5, 6, 7], {1}, 3) == 0.0

    def test_half_recall(self):
        ranked = list(range(30))
        relevant = {0, 5, 25, 28}  # 2 of 4 inside the top 20
        assert recall_at_k(ranked, relevant, 20) == 0.5

    def test_single_relevant_rank3(self):
        assert ndcg_at_k([9, 8, 4, 7], {4}, 4) == pytest.approx(
            1.0 / math.log2(4), abs=1e-15)
        assert ndcg_at_k([9, 8, 4, 7], {4}, 4) == pytest.approx(0.5, abs=1e-15)

    def test_empty_relevant_convention(self):
        assert ndcg_at_k([1, 2], set(), 2) == 0.0
        assert recall_at_k([1, 2], set(), 2) == 0.0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1, 1], {1}, 2)

    def test_recall_monotonic_in_k(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ranked = rng.permutation(30).tolist()
            relevant = set(rng.choice(30, size=6, replace=False).tolist())
            values = [recall_at_k(ranked, relevant, k) for k in range(1, 31)]
            assert all(a <= b for a, b in zip(values, values[1:]))

    def test_ndcg_ignores_beyond_k(self):
        rng = np.random.default_rng(1)
        ranked = rng.permutation(25).tolist()
        relevant = {3, 7}
        base = ndcg_at_k(ranked[:10], relevant, 10)
        assert ndcg_at_k(ranked, relevant, 10) == base

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            ranked = rng.permutation(n).tolist()
            n_rel = int(rng.integers(0, min(11, n + 1)))
            relevant = set(rng.choice(n, size=n_rel, replace=False).tolist())
            k = int(rng.integers(1, 25))
            assert abs(recall_at_k(ranked, relevant, k)
                       - reference_recall(ranked, relevant, k)) < 1e-12
            assert abs(ndcg_at_k(ranked, relevant, k)
                       - reference_ndcg(ranked, relevant, k)) < 1e-12


def reference_relevant(split, task):
    """Per-user relevant items of a task, from the split's pair lists."""
    sources = {"overall": np.concatenate([split.warm_test, split.cold_test]),
               "warm": split.warm_test,
               "cold": split.cold_test}[task]
    rel = {}
    for u, i in sources.tolist():
        rel.setdefault(u, set()).add(i)
    return rel


def sets_by_row(pair_sets):
    """{row: set of columns} of a PairSets' non-empty rows."""
    ptr, cols = pair_sets.indptr, pair_sets.indices.tolist()
    return {u: set(cols[ptr[u]:ptr[u + 1]]) for u in range(len(ptr) - 1)
            if ptr[u + 1] > ptr[u]}


def hand_split():
    """10 users, items 0..5 warm and 6..9 cold, disjoint per-user positives."""
    warm_train = [(u, u % 3) for u in range(10)]
    warm_test = [(u, 3 + u % 3) for u in range(10)]
    cold_test = [(u, 6 + u % 4) for u in range(10)]
    return ColdWarmSplit(warm_items=list(range(6)), cold_items=[6, 7, 8, 9],
                         warm_train=warm_train, warm_val=[],
                         warm_test=warm_test, cold_val=[],
                         cold_test=cold_test, seed=0, cold_frac=0.4)


def adjacency_model(split, task="overall", n_users=10, n_items=10):
    """Scores equal to the task's ground-truth adjacency, as exact dot products."""
    user = np.zeros((n_users, n_items))
    for u, rel in reference_relevant(split, task).items():
        for i in rel:
            user[u, i] = 1.0
    return BackboneModel(user_emb=user, item_emb=np.eye(n_items))


class TestEvaluate:
    def test_oracle_model_perfect_on_every_task(self):
        split = hand_split()
        for task in ("overall", "warm", "cold"):
            model = adjacency_model(split, task)
            report = evaluate(model, split, task=task, k=4, n_users=10, seed=0)
            assert report.recall == 1.0, task
            assert report.ndcg == 1.0, task

    def test_deterministic_reports(self):
        split = hand_split()
        model = adjacency_model(split, task="overall")
        a = evaluate(model, split, task="cold", k=3, n_users=5, seed=42)
        b = evaluate(model, split, task="cold", k=3, n_users=5, seed=42)
        assert a == b

    def test_train_positives_excluded(self):
        split = hand_split()
        # score train positives massively high: they must not pollute top-K
        model = adjacency_model(split, task="overall")
        for u, i in split.warm_train:
            model.user_emb[u, i] = 100.0
        report = evaluate(model, split, task="overall", k=4, n_users=10, seed=0)
        assert report.recall == 1.0

    def test_no_eligible_users(self):
        split = replace(hand_split(), cold_test=[])
        model = adjacency_model(hand_split(), task="cold")
        with pytest.raises(ValueError, match="no eligible users"):
            evaluate(model, split, task="cold")

    def test_sample_bounded(self):
        split = hand_split()
        model = adjacency_model(split, task="overall")
        report = evaluate(model, split, task="warm", k=4, n_users=3, seed=1)
        assert report.n_users == 3

    def test_random_model_near_mc_expectation(self):
        # 200-user toy, random embeddings for cold items: observed cold NDCG
        # sits within 3 sigma of a Monte-Carlo estimate under random ranking
        rng = np.random.default_rng(7)
        n_users, n_items = 200, 40
        warm_items = list(range(30))
        cold_items = list(range(30, 40))
        warm_train = [(u, int(rng.integers(0, 30))) for u in range(n_users)]
        cold_test = [(u, 30 + u % 10) for u in range(n_users)]
        split = ColdWarmSplit(warm_items=warm_items, cold_items=cold_items,
                              warm_train=sorted(set(warm_train)), warm_val=[],
                              warm_test=[], cold_val=[],
                              cold_test=cold_test, seed=0, cold_frac=0.25)
        model = BackboneModel(user_emb=rng.normal(size=(n_users, 16)),
                              item_emb=rng.normal(size=(n_items, 16)))
        report = evaluate(model, split, task="cold", k=20, n_users=200, seed=0)

        # Monte-Carlo oracle over uniformly random rankings of each user's
        # actual candidate pool
        train_of = {}
        for u, i in split.warm_train:
            train_of.setdefault(u, []).append(i)
        mc = []
        mc_rng = np.random.default_rng(123)
        for _ in range(1000):
            vals = []
            for u in range(n_users):
                pool = [i for i in range(n_items) if i not in train_of.get(u, [])]
                ranked = mc_rng.permutation(pool).tolist()
                vals.append(ndcg_at_k(ranked[:20], {30 + u % 10}, 20))
            mc.append(np.mean(vals))
        mu, sigma = float(np.mean(mc)), float(np.std(mc))
        assert abs(report.ndcg - mu) <= 3 * sigma

    def test_relevant_sets_tasks(self):
        split = hand_split()
        index = split.index(10)
        overall, warm, cold = (sets_by_row(index.relevant(task))
                               for task in ("overall", "warm", "cold"))
        for task, got in (("overall", overall), ("warm", warm), ("cold", cold)):
            assert got == reference_relevant(split, task)
        for u in range(10):
            assert overall[u] == warm[u] | cold[u]
        with pytest.raises(ValueError):
            index.relevant("lukewarm")


class TestAdoption:
    def test_always_yes_is_full_rate(self):
        records = [{"z": 1} for _ in range(9)]
        stats = adoption_rate(records)
        assert stats.rate == 1.0

    def test_seven_of_twenty(self):
        records = [{"z": 1}] * 7 + [{"z": 0}] * 13
        stats = adoption_rate(records)
        assert stats.rate == pytest.approx(0.35)
        assert (stats.filtered, stats.accepted) == (20, 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            adoption_rate([])


class TestReportIO:
    def test_format_contains_metrics(self):
        split = hand_split()
        report = evaluate(adjacency_model(split, "warm"), split, task="warm", k=4,
                          n_users=10, seed=0)
        text = format_report(report)
        assert "Recall@4" in text and "NDCG@4" in text and "warm" in text

    def test_json_round_trip(self, tmp_path):
        import json

        split = hand_split()
        report = evaluate(adjacency_model(split, "cold"), split, task="cold", k=4,
                          n_users=10, seed=0)
        report.save(tmp_path / "r.json")
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["task"] == "cold" and doc["ndcg"] == 1.0

    def test_csv(self, tmp_path):
        rows = [{"param": "K", "value": 10, "cold_ndcg": 0.5},
                {"param": "K", "value": 20, "cold_ndcg": 0.6}]
        reports_to_csv(rows, tmp_path / "sweep.csv")
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "param,value,cold_ndcg"
        assert len(lines) == 3
