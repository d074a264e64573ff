"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The planted end-to-end checks build five full pipelines and
take about a minute; everything else is seconds.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from coldsim import evaluation, pipeline
from coldsim.backbone import (BackboneModel, bpr_loss, bpr_step,
                              init_embeddings)
from coldsim.cli import main
from coldsim.config import default_config, resolve_seeds
from coldsim.corpus import load_citeulike, make_cold_split
from coldsim.evaluation import adoption_rate, evaluate
from coldsim.filtering import (InnerProductIndex, TowerMlp, TwoTowerFilter,
                               behavior_bpr_batch, coupled_ce_batch,
                               funnel_filter, topk_candidates,
                               user_filter_vectors)
from coldsim.metrics import ndcg_at_k, recall_at_k
from coldsim.refiner import (DecisionLog, PlantedOracle, SimulationResult,
                             prepare_finetune_data, refine)
from coldsim.synthetic import (make_planted_split, make_two_cluster_dataset,
                               random_toy_log)
from coldsim.warmup import WarmupConfig, warm_all_cold, warmup_loss

from conftest import write_citeulike_fixture
from test_cli import fast_config, run_chain, write_corpus_from_planted
from test_evaluation import reference_ndcg, reference_recall
from test_filtering import (assert_grads_close, brute_force_topk, kink_free,
                            random_filter, tower_grad_fd)


@contextmanager
def criterion(number, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL "
              f"({time.time() - start:.1f}s)")
        raise
    print(f"\nACCEPTANCE {number} {name}: PASS ({time.time() - start:.1f}s)")


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence"):
        start = time.time()
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            ranked = rng.permutation(n).tolist()
            n_rel = int(rng.integers(0, min(11, n + 1)))
            relevant = set(rng.choice(n, size=n_rel, replace=False).tolist())
            k = int(rng.integers(1, 30))
            assert abs(recall_at_k(ranked, relevant, k)
                       - reference_recall(ranked, relevant, k)) <= 1e-12
            assert abs(ndcg_at_k(ranked, relevant, k)
                       - reference_ndcg(ranked, relevant, k)) <= 1e-12
        # closed form: single relevant item at rank 3
        assert ndcg_at_k([7, 8, 9, 10], {9}, 4) == 1.0 / math.log2(4) == 0.5
        assert time.time() - start < 10


def test_criterion_2_topk_equivalence():
    with criterion(2, "top-K retrieval equivalence"):
        start = time.time()
        rng = np.random.default_rng(202)

        eye = TowerMlp(w1=np.eye(64), b1=np.zeros(64),
                       w2=np.eye(64), b2=np.zeros(64))
        identity = TwoTowerFilter("B", user_tower=eye, item_tower=eye)
        for trial in range(1000):
            vectors = rng.normal(size=(100, 64))
            if trial % 5 == 0:
                vectors[::3] = vectors[0]  # tie-heavy instances
            q = rng.normal(size=64)
            k = int(rng.integers(1, 120))
            scores = vectors @ q
            expected = brute_force_topk(scores, min(k, 100))
            ids, _ = InnerProductIndex(vectors).query(q, k)
            assert ids.tolist() == expected
            if trial % 7 == 0:
                # the funnel's own scoring path on nonnegative queries,
                # where the identity towers pass the vector through
                cand = topk_candidates(identity, np.abs(q), vectors,
                                       min(k, 100))
                assert cand.users == brute_force_topk(vectors @ np.abs(q),
                                                      min(k, 100))
        assert time.time() - start < 10


def test_criterion_3_gradient_checks():
    with criterion(3, "gradient checks vs central finite differences"):
        start = time.time()
        h = 1e-5

        # backbone BPR: gradients on the three touched rows
        rng = np.random.default_rng(303)
        for trial in range(100):
            model = BackboneModel(user_emb=init_embeddings(3, 6, trial) * 50,
                                  item_emb=init_embeddings(3, 6, trial + 1) * 50)
            pos, neg = rng.choice(3, size=2, replace=False)
            triple = (0, int(pos), int(neg))
            ref_u, ref_i = model.user_emb.copy(), model.item_emb.copy()
            fd_u = _fd(lambda: bpr_loss(model, [triple]), model.user_emb, h)
            fd_i = _fd(lambda: bpr_loss(model, [triple]), model.item_emb, h)
            bpr_step(model, [triple], lr=1.0)
            _check(ref_u - model.user_emb, fd_u)
            _check(ref_i - model.item_emb, fd_i)

        # tower BPR and coupled cross-entropy
        rng = np.random.default_rng(304)
        for loss_kind in ("bpr", "ce"):
            checked = 0
            while checked < 100:
                filt = random_filter(rng, backbone_dim=3, content_dim=3,
                                     hidden=4, out=3)
                towers = {"user": filt.user_tower, "item": filt.item_tower}
                u = rng.normal(size=(2, 6))
                ri, rj = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
                z = rng.integers(0, 2, size=2).astype(float)
                batches = [(filt.user_tower, u), (filt.item_tower, ri)]
                if loss_kind == "bpr":
                    batches.append((filt.item_tower, rj))
                if not kink_free(filt, batches):
                    continue
                if loss_kind == "bpr":
                    loss_fn = lambda: behavior_bpr_batch(filt, u, ri, rj)[0]
                    _, analytic = behavior_bpr_batch(filt, u, ri, rj)
                else:
                    loss_fn = lambda: coupled_ce_batch(filt, u, ri, z)[0]
                    _, analytic = coupled_ce_batch(filt, u, ri, z)
                assert_grads_close(analytic, tower_grad_fd(loss_fn, towers, h))
                checked += 1

        # cold-item warmup gradient on the item vector
        rng = np.random.default_rng(305)
        for trial in range(100):
            users = init_embeddings(10, 6, trial) * 60
            pos, neg = rng.choice(10, size=2, replace=False)
            e = rng.normal(size=6)
            pos_emb, neg_emb = users[pos], users[[neg]]
            fd = _fd(lambda: warmup_loss(e, pos_emb, neg_emb), e, h)
            from scipy.special import expit
            margin = (pos_emb - neg_emb) @ e
            analytic = (-expit(-margin)[:, None] * (pos_emb - neg_emb)).sum(0)
            _check(analytic, fd)

        assert time.time() - start < 60


def _fd(loss_fn, arr, h):
    grad = np.zeros_like(arr)
    flat, gflat = arr.ravel(), grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        up = loss_fn()
        flat[idx] = orig - h
        down = loss_fn()
        flat[idx] = orig
        gflat[idx] = (up - down) / (2 * h)
    return grad


def _check(analytic, fd, rel_tol=1e-4, zero_tol=1e-8):
    a, f = np.asarray(analytic), np.asarray(fd)
    if max(np.linalg.norm(a), np.linalg.norm(f)) < zero_tol:
        return
    assert np.linalg.norm(a - f) / max(np.linalg.norm(a),
                                       np.linalg.norm(f)) < rel_tol


def test_criterion_4_funnel_invariants():
    with criterion(4, "funnel invariants over randomized pipelines"):
        rng = np.random.default_rng(404)
        violations = 0
        for case in range(1000):
            n_users = int(rng.integers(4, 24))
            dim = int(rng.integers(2, 6))
            filt_b = random_filter(rng, "B", backbone_dim=dim, content_dim=3,
                                   hidden=4, out=3)
            filt_l = random_filter(rng, "L", backbone_dim=dim, content_dim=3,
                                   hidden=4, out=3)
            user_emb = rng.normal(size=(n_users, dim))
            hist = rng.normal(size=(n_users, 3))
            users_b = user_filter_vectors(filt_b, user_emb, hist)
            users_l = user_filter_vectors(filt_l, user_emb, hist)
            raw = rng.normal(size=3)
            k = int(rng.integers(1, 30))
            cand = funnel_filter(raw, k, filter_b=filt_b, filter_l=filt_l,
                                 users_b=users_b, users_l=users_l, item=0)

            if len(cand.users) != min(k, n_users):
                violations += 1
            if len(set(cand.users)) != len(cand.users):
                violations += 1

            # refined subset, order preserved
            accept = {u for u in cand.users
                      if rng.random() < 0.5}
            kept = [u for u in cand.users if u in accept]
            content = rng.normal(size=(2, 3))
            got, _ = refine(cand, PlantedOracle({(u, 0) for u in accept}),
                            filt_b.item_tower.forward(np.vstack([raw, raw])),
                            [[] for _ in range(n_users)], ["x", "y"],
                            top_l=2) \
                if cand.users else ([], 0)
            if got != kept or not set(got) <= set(cand.users):
                violations += 1

            # frozen-warm bitwise equality after warm_all_cold
            model = BackboneModel(
                user_emb=rng.normal(size=(n_users, dim)),
                item_emb=rng.normal(size=(6, dim)))
            from coldsim.corpus import ColdWarmSplit
            split = ColdWarmSplit(
                warm_items=[0, 1, 2, 3], cold_items=[4, 5],
                warm_train=[(0, 0)], warm_val=[], warm_test=[],
                cold_val=[], cold_test=[(0, 4), (0, 5)],
                seed=0, cold_frac=0.3)
            sims = {i: SimulationResult(item=i, users=[int(rng.integers(n_users))])
                    for i in (4, 5)}
            before_user = model.user_emb.tobytes()
            before_warm = model.item_emb[:4].tobytes()
            warmed, _ = warm_all_cold(split, sims, model,
                                      WarmupConfig(lr=0.1, steps=5, seed=case))
            if warmed.user_emb.tobytes() != before_user:
                violations += 1
            if warmed.item_emb[:4].tobytes() != before_warm:
                violations += 1
        assert violations == 0


PLANTED_PATCH = {
    "backbone": {"dim": 16, "lr": 0.3, "max_epochs": 250, "patience": 250,
                 "batch_size": 256},
    "content": {"dim": 64},
    "filter": {"hidden": 32, "out": 16, "lr": 3e-3, "batch_size": 128,
               "max_epochs": 25, "patience": 8, "label_pairs": 800},
    "refiner": {"oracle": "planted", "k": 40},
    "warmup": {"lr": 0.1, "steps": 1500},
    "eval": {"k": 20, "users": 2000},
}


def planted_config(seed, k):
    cfg = default_config()
    for section, patch in PLANTED_PATCH.items():
        cfg[section].update(patch)
    cfg["refiner"]["k"] = k
    return resolve_seeds(cfg, seed)


@pytest.fixture(scope="module")
def planted_runs():
    """Five seeds of the planted two-cluster pipeline, trained once."""
    runs = []
    for seed in range(5):
        data = make_two_cluster_dataset(n_users=200, n_warm=100, n_cold=20,
                                        seed=seed)
        split = make_planted_split(data, seed=seed)
        cfg = planted_config(seed, k=40)
        pipe = pipeline.build_pipeline(data.log, data.catalog, split, cfg,
                                       oracle=PlantedOracle(data.truth))
        runs.append((seed, data, split, cfg, pipe))
    return runs


def test_criterion_5_planted_end_to_end(planted_runs):
    with criterion(5, "planted end-to-end: cold NDCG vs random and no-R"):
        start = time.time()
        for seed, data, split, cfg, pipe in planted_runs:
            sims = pipeline.simulate_all(pipe, cfg)
            warmed = pipeline.warm_from_simulations(pipe, sims, cfg)
            full = evaluate(warmed, split, task="cold", k=20, n_users=2000,
                            seed=seed)

            sims_nr = pipeline.simulate_all(pipe, cfg, skip_refine=True)
            warmed_nr = pipeline.warm_from_simulations(pipe, sims_nr, cfg)
            no_r = evaluate(warmed_nr, split, task="cold", k=20, n_users=2000,
                            seed=seed)

            # cold rows still at their random initialization
            random_baseline = evaluate(pipe.backbone, split, task="cold",
                                       k=20, n_users=2000, seed=seed)

            assert full.ndcg >= 5 * random_baseline.ndcg, (
                f"seed {seed}: {full.ndcg:.4f} < 5x {random_baseline.ndcg:.4f}")
            assert full.ndcg >= no_r.ndcg, (
                f"seed {seed}: full {full.ndcg:.4f} < no-R {no_r.ndcg:.4f}")
        assert time.time() - start < 300


def test_criterion_6_adoption_rate_directionality(planted_runs):
    with criterion(6, "adoption rate: funnel vs uniformly random candidates"):
        for seed, data, split, cfg, pipe in planted_runs:
            run_cfg = {**cfg, "refiner": {**cfg["refiner"], "k": 20}}
            decision_log = DecisionLog()
            pipeline.simulate_all(pipe, run_cfg, decision_log=decision_log)
            funnel_rate = adoption_rate(decision_log).rate

            rng = np.random.default_rng(seed)
            random_records = []
            for item in split.cold_items:
                for u in rng.choice(data.log.n_users, size=20, replace=False):
                    z = int((int(u), item) in data.truth)
                    random_records.append({"z": z})
            random_rate = adoption_rate(random_records).rate

            assert funnel_rate >= 4 * random_rate, (
                f"seed {seed}: {funnel_rate:.3f} < 4x {random_rate:.3f}")


def build_citeulike_scale_fixture(root):
    """Synthetic corpus with the benchmark's exact user/item/pair counts."""
    n_users, n_items, n_pairs = 5551, 16980, 204986
    rng = np.random.default_rng(777)
    pairs = {(int(rng.integers(n_users)), i) for i in range(n_items)}
    while len(pairs) < n_pairs:
        need = n_pairs - len(pairs)
        us = rng.integers(n_users, size=need + 1000)
        its = rng.integers(n_items, size=need + 1000)
        for u, i in zip(us, its):
            pairs.add((int(u), int(i)))
            if len(pairs) >= n_pairs:
                break
    per_user = [[] for _ in range(n_users)]
    for u, i in sorted(pairs):
        per_user[u].append(i)
    metadata = [(i, f"article {i}", f"abstract text {i}")
                for i in range(n_items)]
    return write_citeulike_fixture(root, per_user, metadata)


def test_criterion_7_protocol_constants(tmp_path, capsys):
    with criterion(7, "split and protocol constants"):
        root = build_citeulike_scale_fixture(tmp_path / "cu")
        log, catalog = load_citeulike(root)
        assert log.n_users == 5551
        assert log.n_items == 16980
        assert len(log.pairs) == 204986

        split = make_cold_split(log, cold_frac=0.2, seed=0)
        assert len(split.cold_items) == 3396

        # evaluation protocol defaults
        import inspect

        sig = inspect.signature(evaluate)
        assert sig.parameters["k"].default == 20
        assert sig.parameters["n_users"].default == 2000

        # default-config emits the filter training defaults
        assert main(["default-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["filter"]["lr"] == 1e-5
        assert doc["filter"]["batch_size"] == 128
        assert doc["eval"]["k"] == 20
        assert doc["eval"]["users"] == 2000


def test_criterion_8_finetune_export_balance():
    with criterion(8, "fine-tune export: exact 1:1 with template prompts"):
        rng = np.random.default_rng(808)
        checked = 0
        while checked < 100:
            log = random_toy_log(rng, max_users=8, max_items=8)
            split = make_cold_split(log, 0.0, seed=int(rng.integers(10_000)))
            if len(split.warm_train) == 0:
                continue
            from coldsim.corpus import ItemCatalog

            catalog = ItemCatalog(content={i: f"text {i}"
                                           for i in range(log.n_items)})
            filt = TwoTowerFilter.init("B", 4, 5, hidden=4, out=3,
                                       seed=checked)
            content = rng.normal(size=(log.n_items, 5))
            records = prepare_finetune_data(split, catalog, filt, content,
                                            mode="offline",
                                            seed=int(rng.integers(10_000)),
                                            n_users=log.n_users)
            yes = [r for r in records if r.completion == "Yes"]
            no = [r for r in records if r.completion == "No"]
            assert len(yes) == len(no)
            # every positive whose user has an unobserved warm item pairs up
            eligible = [(u, i) for u, i in split.warm_train
                        if any((u, j) not in split.warm_train_set
                               for j in split.warm_items)]
            assert len(yes) == len(eligible)
            for rec in records:
                assert "by answering Yes or No." in rec.prompt
                assert rec.prompt.startswith("Given the user interacted with [")
                assert rec.completion in ("Yes", "No")
            checked += 1


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI determinism: byte-identical artifacts"):
        corpus = write_corpus_from_planted(tmp_path / "corpus")
        config = fast_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_chain(corpus, out_a, config, seed="5")
        run_chain(corpus, out_b, config, seed="5")
        artifacts = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                           if p.is_file())
        assert len(artifacts) > 15
        for rel in artifacts:
            a, b = (out_a / rel).read_bytes(), (out_b / rel).read_bytes()
            assert a == b, f"artifact differs across reruns: {rel}"
