"""Block and one-pass paths against the paths they replace.

``simulate_all`` ranks every cold item's candidates with one funnel call
per filter, builds each item's contexts in one block and lets the oracle
decide every item's contexts in one call per pass; the L labeller builds
one block per item of the label pool and decides the whole pool in one
call; ``warm_all_cold`` draws each item's users in blocks.  The
references here are the per-item path: one 1-D ``funnel_filter`` call per
item, one context and one decision per (candidate, item) pair, and the
scalar warmup draws; and the per-item pass, one ``decide`` call per item,
for refinement and labelling.  The backbone and both filters train through
one epoch loop, ``backbone.fit_epochs``; their references are the two
loops it replaced.

The block products sum in another order than the per-pair ones, so CI
runs this module a second time with one BLAS thread.
"""

import dataclasses
import logging

import numpy as np
import pytest
from scipy.special import expit

from coldsim import backbone, filtering, pipeline, refiner
from coldsim.backbone import BackboneModel
from coldsim.config import default_config, resolve_seeds
from coldsim.filtering import TowerMlp, TwoTowerFilter, funnel_filter
from coldsim.refiner import (DecisionLog, OracleDecision, OracleError,
                             PlantedOracle, SimulateConfig, SimulationResult,
                             ThresholdOracle, UserContext, build_context,
                             render_prompt)
from coldsim.synthetic import make_planted_split, make_two_cluster_dataset
from coldsim.warmup import WarmupConfig, draw_step_users, warm_all_cold


# -- the per-item reference --------------------------------------------------

def reference_context(user, item, item_vectors, history, catalog, top_l):
    items = []
    if history:
        hist_ids = np.asarray(history)
        sims = item_vectors[hist_ids] @ item_vectors[item]
        items = hist_ids[np.lexsort((hist_ids, -sims))[:top_l]].tolist()
    return UserContext(user=user, item=item, item_text=catalog.title(item),
                       items=items, texts=[catalog.title(i) for i in items])


def reference_threshold(oracle, item, context):
    if not context.items:
        return OracleDecision(value=0, raw="No")
    item_vec = oracle.content_matrix[item]
    rows = oracle.content_matrix[context.items]
    ctx_mean = rows.sum(axis=0) / len(rows)
    denom = np.sqrt(item_vec.dot(item_vec)) * np.sqrt(ctx_mean.dot(ctx_mean))
    cos = float(item_vec @ ctx_mean / denom) if denom > 0 else 0.0
    yes = cos >= oracle.tau
    return OracleDecision(value=1 if yes else 0, raw="Yes" if yes else "No")


def reference_refine(candidates, oracle, item_vectors, train_items, catalog,
                     top_l, decision_log):
    """One context and one decision per (candidate, item) pair."""
    item = candidates.item
    decisions, failures = {}, 0
    for u in candidates.users:
        ctx = reference_context(u, item, item_vectors, train_items[u], catalog,
                                top_l)
        ph = None
        if decision_log is not None:
            ph = DecisionLog.prompt_hash(render_prompt(ctx))
            cached = decision_log.lookup(u, item, oracle.kind, ph)
            if cached is not None:
                decisions[u] = cached
                continue
        if isinstance(oracle, ThresholdOracle):
            decision = reference_threshold(oracle, item, ctx)
        else:
            [decision] = oracle.decide([ctx])
        if isinstance(decision, OracleError):
            failures += 1
            continue
        decisions[u] = decision
        if decision_log is not None:
            decision_log.record(u, item, oracle.kind, ph, decision)
    if not decisions:
        raise OracleError(f"every oracle call failed for item {item}")
    return [u for u in candidates.users
            if u in decisions and decisions[u].value == 1], failures


def per_item_refine(candidates, oracle, item_vectors, train_items, catalog,
                    top_l, decision_log):
    """The per-item pass: one ``decide`` call per item, for the contexts
    the log cannot answer, logged in candidate order."""
    item = candidates.item
    decisions, pending = {}, []
    for u in candidates.users:
        ctx = reference_context(u, item, item_vectors, train_items[u], catalog,
                                top_l)
        ph = None
        if decision_log is not None:
            ph = DecisionLog.prompt_hash(render_prompt(ctx))
            cached = decision_log.lookup(u, item, oracle.kind, ph)
            if cached is not None:
                decisions[u] = cached
                continue
        pending.append((ctx, ph))
    failures = 0
    outcomes = oracle.decide([ctx for ctx, _ in pending]) if pending else []
    for (ctx, ph), outcome in zip(pending, outcomes):
        if isinstance(outcome, OracleError):
            failures += 1
            continue
        decisions[ctx.user] = outcome
        if decision_log is not None:
            decision_log.record(ctx.user, item, oracle.kind, ph, outcome)
    if not decisions:
        raise OracleError(f"every oracle call failed for item {item}")
    return [u for u in candidates.users
            if u in decisions and decisions[u].value == 1], failures


def reference_simulate_all(pipe, cfg, use_b=True, use_l=True,
                           skip_refine=False, decision_log=None,
                           refine=reference_refine):
    sim_cfg = pipeline.section_config(SimulateConfig, cfg["refiner"])
    filt_b = pipe.filter_b if use_b else None
    filt_l = pipe.filter_l if use_l else None
    users_b = pipe.user_vectors(filt_b) if filt_b is not None else None
    users_l = pipe.user_vectors(filt_l) if filt_l is not None else None
    item_vectors = pipe.item_vectors(filt_l if filt_l is not None else filt_b)
    results = {}
    for item in sorted(pipe.split.cold_items):
        cand = funnel_filter(pipe.content_matrix[item], sim_cfg.k,
                             filter_b=filt_b, filter_l=filt_l, users_b=users_b,
                             users_l=users_l, item=item)
        if skip_refine:
            results[item] = SimulationResult(item=item, users=list(cand.users))
            continue
        kept, failures = refine(cand, pipe.oracle, item_vectors,
                                pipe.train_items, pipe.catalog,
                                sim_cfg.context_len, decision_log)
        if kept:
            results[item] = SimulationResult(item=item, users=kept,
                                             failures=failures)
        else:
            results[item] = SimulationResult(
                item=item, users=cand.users[:1] if sim_cfg.fallback_to_top1
                else [], fallback_used=True, failures=failures)
    return results


def scalar_draws(rng, users, n_users, steps, negatives):
    """One ``integers`` call per draw, rejecting simulated negatives."""
    user_set = set(users)
    pos, negs = [], []
    for _ in range(steps):
        pos.append(users[rng.integers(len(users))])
        while len(negs) < (len(pos)) * negatives:
            cand = int(rng.integers(n_users))
            if cand not in user_set:
                negs.append(cand)
    return (np.asarray(pos, dtype=np.int64),
            np.asarray(negs, dtype=np.int64).reshape(steps, negatives))


def reference_warm_all_cold(split, simulations, backbone, config):
    """Scalar draws, then the same (items x dim) BPR block."""
    model = backbone.copy()
    items, inits, pos_ids, neg_ids = [], [], [], []
    for item in sorted(split.cold_items):
        sim = simulations.get(item)
        if sim is None or not sim.users:
            continue
        users = sorted(int(u) for u in sim.users)
        rng = np.random.default_rng((config.seed, item))
        pos, negs = scalar_draws(rng, users, backbone.n_users, config.steps,
                                 config.negatives_per_positive)
        items.append(item)
        inits.append(backbone.user_emb[users].mean(axis=0))
        pos_ids.append(pos)
        neg_ids.append(negs)
    if not items:
        return model
    pos_ids, neg_ids = np.stack(pos_ids), np.stack(neg_ids)
    emb = np.stack(inits)
    for step in range(config.steps):
        diff = (backbone.user_emb[pos_ids[:, step]][:, None, :]
                - backbone.user_emb[neg_ids[:, step]])
        margin = np.einsum("cnd,cd->cn", diff, emb)
        coef = -expit(-margin) / config.negatives_per_positive
        emb -= config.lr * (coef[:, :, None] * diff).sum(axis=1)
    model.item_emb[items] = emb
    return model


# -- pipelines ---------------------------------------------------------------

def small_config(seed, **overrides):
    cfg = default_config()
    patch = {"backbone": {"dim": 8, "lr": 0.3, "max_epochs": 5, "patience": 5},
             "content": {"dim": 32},
             "filter": {"hidden": 12, "out": 8, "lr": 5e-3, "batch_size": 64,
                        "max_epochs": 2, "patience": 2, "label_pairs": 120},
             "refiner": {"oracle": "planted", "k": 24},
             "warmup": {"lr": 0.1, "steps": 60}}
    for section in patch.keys() | overrides.keys():
        cfg[section].update({**patch.get(section, {}),
                             **overrides.get(section, {})})
    return resolve_seeds(cfg, seed)


@pytest.fixture(scope="module")
def planted_pipe():
    data = make_two_cluster_dataset(n_users=60, n_warm=24, n_cold=8,
                                    groups_per_cluster=2, seed=5)
    split = make_planted_split(data, seed=5)
    cfg = small_config(seed=5)
    pipe = pipeline.build_pipeline(data.log, data.catalog, split, cfg,
                                   oracle=PlantedOracle(data.truth))
    return cfg, pipe


def integer_tower(rng, d_in, hidden, d_out):
    return TowerMlp(w1=rng.integers(-2, 3, size=(d_in, hidden)).astype(float),
                    b1=np.zeros(hidden),
                    w2=rng.integers(-2, 3, size=(hidden, d_out)).astype(float),
                    b2=np.zeros(d_out))


def small_integer_pipe(seed, content_rows, user_rows):
    """Small-integer content, embeddings and tower weights: every context
    similarity is an exact integer, and ``content_rows`` distinct content
    rows and ``user_rows`` distinct users give exact ties in the contexts
    and the funnel."""
    data = make_two_cluster_dataset(n_users=48, n_warm=24, n_cold=8,
                                    groups_per_cluster=2, seed=seed)
    split = make_planted_split(data, seed=seed)
    rng = np.random.default_rng(seed)
    n_users, n_items = data.log.n_users, data.log.n_items
    content = rng.integers(0, 3, size=(content_rows, 5)).astype(float)[
        rng.integers(content_rows, size=n_items)]
    user_emb = rng.integers(-1, 2, size=(user_rows, 4)).astype(float)[
        rng.integers(user_rows, size=n_users)]
    filters = [TwoTowerFilter(v, integer_tower(rng, 9, 6, 4),
                              integer_tower(rng, 5, 6, 4)) for v in "BL"]
    pipe = pipeline.Pipeline(
        log=data.log, catalog=data.catalog, split=split,
        backbone=BackboneModel(user_emb=user_emb,
                               item_emb=np.zeros((n_items, 4))),
        content_matrix=content, filter_b=filters[0], filter_l=filters[1],
        oracle=PlantedOracle(data.truth))
    cfg = small_config(seed=seed, refiner={"k": 12, "context_len": 3})
    return cfg, pipe


@pytest.fixture(scope="module")
def integer_pipe():
    return small_integer_pipe(9, content_rows=6, user_rows=8)


@pytest.fixture(scope="module")
def tie_pipe():
    """Two distinct content rows and two distinct users: nearly every
    context similarity and funnel score ties."""
    return small_integer_pipe(11, content_rows=2, user_rows=2)


class FlakyOracle(PlantedOracle):
    """The planted oracle, failing in place on every pair whose user and
    item sum to a multiple of three."""

    def decide(self, contexts):
        return [OracleError(f"no answer for ({ctx.user}, {ctx.item})")
                if (ctx.user + ctx.item) % 3 == 0 else answer
                for ctx, answer in zip(contexts, super().decide(contexts))]


def with_oracle(pipe, kind):
    if kind == "planted":
        return pipe
    if kind == "flaky":
        return dataclasses.replace(pipe, oracle=FlakyOracle(
            pipe.oracle.true_pairs))
    return dataclasses.replace(pipe, oracle=ThresholdOracle(pipe.content_matrix,
                                                            tau=0.6))


VARIANTS = [dict(), dict(use_l=False), dict(use_b=False),
            dict(skip_refine=True)]


def assert_same_simulation(got, want):
    assert list(got) == list(want)
    for item in want:
        g, w = got[item], want[item]
        assert (g.users, g.fallback_used, g.failures) == \
            (w.users, w.fallback_used, w.failures), item


# -- simulate ----------------------------------------------------------------

PIPES = ["planted_pipe", "integer_pipe", "tie_pipe"]


def saved_bytes(log, path):
    log.save(path)
    return path.read_bytes()


@pytest.mark.parametrize("pipe_name", PIPES)
@pytest.mark.parametrize("oracle", ["planted", "mock-threshold", "flaky"])
@pytest.mark.parametrize("variant", VARIANTS, ids=["full", "no-lsf", "no-bf",
                                                  "no-r"])
def test_simulate_all_equals_per_item_path(request, tmp_path, pipe_name,
                                           oracle, variant):
    cfg, pipe = request.getfixturevalue(pipe_name)
    pipe = with_oracle(pipe, oracle)
    got_log = DecisionLog()
    got = pipeline.simulate_all(pipe, cfg, decision_log=got_log, **variant)
    for refine in (reference_refine, per_item_refine):
        want_log = DecisionLog()
        want = reference_simulate_all(pipe, cfg, decision_log=want_log,
                                      refine=refine, **variant)
        assert_same_simulation(got, want)
        assert got_log.records == want_log.records
        assert saved_bytes(got_log, tmp_path / "got.jsonl") == \
            saved_bytes(want_log, tmp_path / "want.jsonl")
    if not variant:
        assert len(got_log) > 0
        assert {r["z"] for r in got_log.records} == {0, 1}
        failures = sum(sim.failures for sim in got.values())
        assert (failures > 0) == (oracle == "flaky")
    # a rerun is served from the log, decided nowhere else
    again = pipeline.simulate_all(pipe, cfg, decision_log=got_log, **variant)
    assert_same_simulation(again, want)
    assert got_log.records == want_log.records


class DeadItemOracle(PlantedOracle):
    """The planted oracle, failing every pair of one item."""

    def __init__(self, true_pairs, dead_item):
        super().__init__(true_pairs)
        self.dead_item = dead_item

    def decide(self, contexts):
        return [OracleError("dead") if ctx.item == self.dead_item else answer
                for ctx, answer in zip(contexts, super().decide(contexts))]


@pytest.mark.parametrize("pipe_name", PIPES)
def test_simulate_pass_raises_at_the_first_dead_item(request, pipe_name):
    cfg, pipe = request.getfixturevalue(pipe_name)
    dead = sorted(pipe.split.cold_items)[2]
    pipe = dataclasses.replace(pipe, oracle=DeadItemOracle(
        pipe.oracle.true_pairs, dead))
    got_log, want_log = DecisionLog(), DecisionLog()
    with pytest.raises(OracleError, match=f"every oracle call failed for "
                                          f"item {dead}$"):
        pipeline.simulate_all(pipe, cfg, decision_log=got_log)
    with pytest.raises(OracleError, match=f"item {dead}$"):
        reference_simulate_all(pipe, cfg, decision_log=want_log,
                               refine=per_item_refine)
    # every other item's answers are logged before the pass raises, in the
    # order a healthy pass logs them
    healthy_log = DecisionLog()
    reference_simulate_all(dataclasses.replace(pipe, oracle=PlantedOracle(
        pipe.oracle.true_pairs)), cfg, decision_log=healthy_log,
        refine=per_item_refine)
    assert got_log.records == [r for r in healthy_log.records
                               if r["item"] != dead]
    assert want_log.records == got_log.records[:len(want_log)]
    assert {r["item"] for r in got_log.records} == \
        set(pipe.split.cold_items) - {dead}


@pytest.mark.parametrize("oracle", ["planted", "mock-threshold", "flaky"])
def test_simulate_all_without_log_equals_per_item_path(request, oracle):
    for pipe_name in PIPES:
        cfg, pipe = request.getfixturevalue(pipe_name)
        pipe = with_oracle(pipe, oracle)
        got = pipeline.simulate_all(pipe, cfg)
        assert_same_simulation(got, reference_simulate_all(pipe, cfg))
        assert_same_simulation(got, reference_simulate_all(
            pipe, cfg, refine=per_item_refine))


def test_integer_pipeline_has_exact_ties(request):
    for pipe_name in ("integer_pipe", "tie_pipe"):
        cfg, pipe = request.getfixturevalue(pipe_name)
        vectors = pipe.item_vectors(pipe.filter_l)
        assert np.array_equal(vectors, np.round(vectors))
        ties = 0
        for history in pipe.train_items:
            sims = vectors[history] @ vectors[pipe.split.cold_items[0]]
            ties += len(sims) - len(np.unique(sims))
        assert ties > 0
        users = pipe.user_vectors(pipe.filter_b)
        assert len(np.unique(users, axis=0)) < len(users)


def test_block_contexts_equal_one_user_calls(request):
    for pipe_name in ("integer_pipe", "tie_pipe"):
        cfg, pipe = request.getfixturevalue(pipe_name)
        vectors = pipe.item_vectors(pipe.filter_b)
        users = list(range(pipe.log.n_users)) + [0, 3]
        # shuffled, so that only the id key can put tied items in
        # ascending order
        rng = np.random.default_rng(1)
        histories = [rng.permutation(pipe.train_items[u]).tolist()
                     for u in users]
        histories[1] = []
        for item in pipe.split.cold_items:
            for top_l in (1, 3, 50):
                got = build_context(users, item, vectors, histories,
                                    pipe.titles, top_l)
                want = [reference_context(u, item, vectors, h, pipe.catalog,
                                          top_l)
                        for u, h in zip(users, histories)]
                assert got == want


def test_threshold_block_equals_per_pair(planted_pipe, monkeypatch):
    cfg, pipe = planted_pipe
    oracle = ThresholdOracle(pipe.content_matrix, tau=0.5)
    rng = np.random.default_rng(3)
    # the contexts of every cold item, interleaved, in one pass
    contexts = [UserContext(user=u, item=item, item_text="x", items=rng.choice(
        pipe.log.n_items, size=int(rng.integers(0, 6)), replace=False).tolist(),
        texts=[]) for item in pipe.split.cold_items for u in range(30)]
    contexts = [contexts[j] for j in rng.permutation(len(contexts))]
    # one gather per context length, then gathers split into chunks
    for gather_floats in (refiner._GATHER_FLOATS, 1, 200):
        monkeypatch.setattr(refiner, "_GATHER_FLOATS", gather_floats)
        for tau in (0.0, 0.5, 1.0):
            oracle.tau = tau
            ref = [reference_threshold(oracle, ctx.item, ctx)
                   for ctx in contexts]
            assert oracle.decide(contexts) == ref
            assert [oracle.decide([c])[0] for c in contexts] == ref


# -- L labelling -------------------------------------------------------------

def reference_labeler(pipe, oracle, top_l):
    """One context and one one-context ``decide`` per (user, item) pair."""
    item_vectors = pipe.item_vectors(pipe.filter_b)

    def label(users, items):
        answers = []
        for u, i in zip(users, items):
            ctx = reference_context(u, i, item_vectors, pipe.train_items[u],
                                    pipe.catalog, top_l)
            answers.extend(oracle.decide([ctx]))
        return answers

    return label


def per_item_labeler(pipe, oracle, top_l):
    """The per-item pass: pairs grouped by item, stably, one ``decide`` call
    per item, answers scattered back to pair order."""
    item_vectors = pipe.item_vectors(pipe.filter_b)

    def label(users, items):
        rows_of = {}
        for j, item in enumerate(items):
            rows_of.setdefault(item, []).append(j)
        answers = [None] * len(items)
        for item, rows in rows_of.items():
            contexts = [reference_context(users[j], item, item_vectors,
                                          pipe.train_items[users[j]],
                                          pipe.catalog, top_l) for j in rows]
            for j, answer in zip(rows, oracle.decide(contexts)):
                answers[j] = answer
        return answers

    return label


def answer_summary(answers):
    return [f"error: {a}" if isinstance(a, OracleError) else (a.value, a.raw)
            for a in answers]


@pytest.mark.parametrize("pipe_name", PIPES)
@pytest.mark.parametrize("oracle", ["planted", "mock-threshold", "flaky"])
def test_oracle_labeler_equals_per_pair_labels(request, monkeypatch, caplog,
                                               pipe_name, oracle):
    cfg, pipe = request.getfixturevalue(pipe_name)
    pipe = with_oracle(pipe, oracle)
    top_l = cfg["refiner"]["context_len"]
    pool = filtering.sample_label_pairs(pipe.split, pipe.log.n_users, None, 3)
    users, items = [u for u, _ in pool], [i for _, i in pool]
    assert len(set(items)) < len(items)     # items recur, in no sorted order
    assert items != sorted(items)
    decided = []
    monkeypatch.setattr(pipe.oracle, "decide", lambda contexts, real=(
        pipe.oracle.decide): decided.append(len(contexts)) or real(contexts))
    got = pipeline.oracle_labeler(pipe, pipe.oracle, top_l)(users, items)
    assert decided == [len(pool)]           # one decide for the whole pool
    for make_reference in (reference_labeler, per_item_labeler):
        want = make_reference(pipe, pipe.oracle, top_l)(users, items)
        assert answer_summary(got) == answer_summary(want)
    values = {a.value for a in got if not isinstance(a, OracleError)}
    assert values == {0, 1}
    n_failed = sum(isinstance(a, OracleError) for a in got)
    assert (n_failed > 0) == (oracle == "flaky")

    # the trained coupled filter, and the skip count it logs, are the same
    def train():
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="coldsim.filtering"):
            filt, _ = pipeline.train_filter(pipe, "L", cfg)
        return filt, [r.getMessage() for r in caplog.records
                      if "oracle labeling failed" in r.getMessage()]

    got_filter, got_skips = train()
    for make_reference in (reference_labeler, per_item_labeler):
        monkeypatch.setattr(pipeline, "oracle_labeler", make_reference)
        want_filter, want_skips = train()
        assert got_skips == want_skips
        assert len(got_skips) == (oracle == "flaky")
        for tower in ("user_tower", "item_tower"):
            got_params = getattr(got_filter, tower).params()
            want_params = getattr(want_filter, tower).params()
            for name in want_params:
                assert got_params[name].tobytes() == \
                    want_params[name].tobytes()


# -- warmup ------------------------------------------------------------------

@pytest.mark.parametrize("negatives", [1, 2, 3])
@pytest.mark.parametrize("n_sim,steps", [(3, 100), (45, 40), (47, 30),
                                         (10, 0), (1, 1)])
def test_block_draws_equal_scalar_draws(negatives, n_sim, steps):
    n_users = 48
    for item in range(6):
        users = np.sort(np.random.default_rng(item).choice(
            n_users, size=n_sim, replace=False))
        got_rng = np.random.default_rng((7, item))
        want_rng = np.random.default_rng((7, item))
        got = draw_step_users(got_rng, users, n_users, steps, negatives)
        want = scalar_draws(want_rng, users.tolist(), n_users, steps, negatives)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[1].shape == (steps, negatives)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("negatives", [1, 2, 3])
@pytest.mark.parametrize("full,steps", [(False, 60), (True, 25),
                                        (False, 0)])
def test_warm_all_cold_equals_scalar_draws(planted_pipe, negatives, full,
                                           steps):
    cfg, pipe = planted_pipe
    sims = pipeline.simulate_all(pipe, cfg)
    if full:    # most negatives rejected
        n_users = pipe.log.n_users
        sims = {item: SimulationResult(item=item, users=[
            u for u in range(n_users) if u != item % n_users])
            for item in sims}
    config = WarmupConfig(lr=0.2, steps=steps,
                          negatives_per_positive=negatives, seed=3)
    got, _ = warm_all_cold(pipe.split, sims, pipe.backbone, config)
    want = reference_warm_all_cold(pipe.split, sims, pipe.backbone, config)
    assert got.item_emb.tobytes() == want.item_emb.tobytes()
    assert got.user_emb.tobytes() == pipe.backbone.user_emb.tobytes()


# -- training loops ----------------------------------------------------------

def reference_train_backbone(split, config, n_users, n_items):
    """The backbone's own epoch loop, as it was before ``fit_epochs``."""
    model = BackboneModel(
        user_emb=backbone.init_embeddings(n_users, config.dim, config.seed),
        item_emb=backbone.init_embeddings(n_items, config.dim,
                                          config.seed + 1))
    if config.max_epochs <= 0:
        return model
    rng = np.random.default_rng(config.seed + 2)
    val_users = backbone.ordered_subsample(rng, split.index(n_users).val_users,
                                           config.eval_users)
    lr = config.lr
    best = model.copy()
    best_ndcg, best_epoch, stale = -1.0, 0, 0
    for epoch in range(1, config.max_epochs + 1):
        triples = backbone._epoch_triples(rng, split, n_users)
        losses = []
        for start in range(0, len(triples), config.batch_size):
            batch = triples[start:start + config.batch_size]
            try:
                losses.append(backbone.bpr_step(model, batch, lr))
            except backbone.DivergenceError:
                lr /= 2
        epoch_loss = float(np.mean(losses)) if losses else 0.0
        val = backbone.validation_ndcg(model, split, val_users)
        model.history.append({"epoch": epoch, "loss": epoch_loss,
                              "val_ndcg": val})
        if val > best_ndcg:
            best_ndcg, best_epoch, stale = val, epoch, 0
            best = model.copy()
        else:
            stale += 1
            if stale >= config.patience:
                break
    best.trained_epochs = best_epoch
    best.history = model.history
    return best


def reference_filter_training(filt, backbone_model, content_matrix,
                              hist_means, split, config, batch_fn):
    """The filters' own epoch loop, as it was before ``fit_epochs``."""
    rng = np.random.default_rng(config.seed)
    user_inputs = np.concatenate([backbone_model.user_emb, hist_means], axis=1)
    towers = {"user": filt.user_tower, "item": filt.item_tower}
    opt = filtering._Adam(towers, config.lr)
    val_users = backbone.ordered_subsample(
        rng, split.index(backbone_model.n_users).val_users, config.eval_users)
    best = filt.copy()
    best_ndcg, stale = -1.0, 0
    history = []
    for epoch in range(1, config.max_epochs + 1):
        losses = []
        for loss, grads in batch_fn(rng, user_inputs):
            losses.append(loss)
            opt.step(towers, grads)
        val = filtering.filter_validation_ndcg(filt, backbone_model,
                                               content_matrix, hist_means,
                                               split, val_users)
        history.append({"epoch": epoch,
                        "loss": float(np.mean(losses)) if losses else 0.0,
                        "val_ndcg": val})
        if val > best_ndcg:
            best_ndcg, stale = val, 0
            best = filt.copy()
        else:
            stale += 1
            if stale >= config.patience:
                break
    filt.user_tower, filt.item_tower = best.user_tower, best.item_tower
    return filt, history


def with_rng_states(monkeypatch, train):
    """``train()``'s result and the final state of every generator it made."""
    made, real = [], np.random.default_rng
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng",
                      lambda *seed: made.append(real(*seed)) or made[-1])
        out = train()
    return out, [g.bit_generator.state for g in made]


def table_bytes(model):
    if isinstance(model, BackboneModel):
        return [model.user_emb.tobytes(), model.item_emb.tobytes()]
    return [arr.tobytes() for tower in (model.user_tower, model.item_tower)
            for arr in tower.params().values()]


TRAIN_CONFIGS = {
    "small": {},
    "early": {"backbone": {"max_epochs": 30, "patience": 1},
              "filter": {"max_epochs": 12, "patience": 1}},
    "zero": {"backbone": {"max_epochs": 0}, "filter": {"max_epochs": 0}},
}


@pytest.mark.parametrize("pipe_name", ["planted_pipe", "integer_pipe"])
@pytest.mark.parametrize("config_name", list(TRAIN_CONFIGS))
@pytest.mark.parametrize("component", ["backbone", "B", "L"])
def test_trainers_equal_their_own_loops(request, monkeypatch, pipe_name,
                                        config_name, component):
    # weights, histories and every generator's final state
    _, pipe = request.getfixturevalue(pipe_name)
    cfg = small_config(seed=pipe.split.seed, **TRAIN_CONFIGS[config_name])
    if component == "backbone":
        args = (pipe.split, pipeline.section_config(backbone.BackboneConfig,
                                                    cfg["backbone"]),
                pipe.log.n_users, pipe.log.n_items)
        got, got_rngs = with_rng_states(
            monkeypatch, lambda: backbone.train_backbone(*args))
        want, want_rngs = with_rng_states(
            monkeypatch, lambda: reference_train_backbone(*args))
        got_history, want_history = got.history, want.history
        assert got.trained_epochs == want.trained_epochs
    else:
        (got, got_history), got_rngs = with_rng_states(
            monkeypatch, lambda: pipeline.train_filter(pipe, component, cfg))
        monkeypatch.setattr(filtering, "_run_filter_training",
                            reference_filter_training)
        (want, want_history), want_rngs = with_rng_states(
            monkeypatch, lambda: pipeline.train_filter(pipe, component, cfg))
    assert table_bytes(got) == table_bytes(want)
    assert repr(got_history) == repr(want_history)
    assert got_rngs == want_rngs and len(got_rngs) >= 2
    max_epochs = cfg["backbone" if component == "backbone" else "filter"][
        "max_epochs"]
    if config_name == "early":      # the early config does stop early
        assert 0 < len(got_history) < max_epochs
    else:
        assert len(got_history) == max_epochs
