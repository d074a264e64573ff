"""Block and one-pass paths against the paths they replace.

``simulate_all`` ranks every cold item's candidates with one funnel call
per filter, builds the whole pass's contexts as one ``ContextBlock`` and
lets the oracle decide it in one call; the L labeller builds and decides
its label pool the same way; ``warm_all_cold`` draws each item's users in
blocks.  The references here are the per-item path: per filter one
item-tower forward and one matvec against all users per item, ranked and
interleaved L first; one context and one decision per (candidate, item)
pair; and the scalar warmup draws; and the per-item pass, one ``decide``
call per item, for refinement and labelling.  The funnel's block product
sums in another order than the matvecs, so it gives their ids except
where scores equal in exact arithmetic, from different user vectors,
round apart in one and together in the other.  The contexts' reference is the list-of-contexts path the block replaced: one
``build_context`` call per item giving one context object per user, and
the threshold oracle's per-context gather.  The backbone and both
filters train through one epoch loop, ``backbone.fit_epochs``; their
references are the two loops it replaced.

The block products sum in another order than the per-pair ones, so CI
runs this module a second time with one BLAS thread.
"""

import dataclasses
import itertools
import logging
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from coldsim import backbone, filtering, metrics, pipeline
from coldsim.backbone import BackboneModel
from coldsim.config import default_config, resolve_seeds
from coldsim.filtering import (CandidateSet, TowerMlp, TwoTowerFilter,
                               funnel_filter, map_item, topk_candidates)
from coldsim.metrics import rank_by_score
from coldsim.refiner import (PROMPT_TEMPLATE, DecisionLog, OracleDecision,
                             OracleError, PlantedOracle, SimulateConfig, SimulationResult,
                             ThresholdOracle, build_context, render_prompt)
from coldsim.synthetic import make_planted_split, make_two_cluster_dataset
from coldsim.warmup import WarmupConfig, draw_step_users, warm_all_cold
from conftest import context_block
from test_filtering import lexsort_rank


# -- the list-of-contexts reference ------------------------------------------

class Context(NamedTuple):
    """One (user, query item) pair's context items, most similar first."""

    user: int
    item: int
    items: list


def list_build_context(users, item, item_vectors, histories, top_l):
    """One item's contexts, one per user: one gather of the histories, one
    product with the item's vector, one ``lexsort`` on (user, -similarity,
    item id)."""
    lens = np.fromiter(map(len, histories), dtype=np.int64,
                       count=len(histories))
    hist_ids = np.fromiter(itertools.chain.from_iterable(histories),
                           dtype=np.int64, count=int(lens.sum()))
    sims = item_vectors[hist_ids] @ np.asarray(item_vectors[item],
                                               dtype=np.float64)
    owner = np.repeat(np.arange(len(lens)), lens)
    order = np.lexsort((hist_ids, -sims, owner))
    rank = np.arange(len(order)) - np.repeat(np.cumsum(lens) - lens, lens)
    kept = hist_ids[order[rank < top_l]].tolist()
    contexts, start = [], 0
    for u, end in zip(users, np.cumsum(np.minimum(lens, top_l)).tolist()):
        contexts.append(Context(u, item, kept[start:end]))
        start = end
    return contexts


def list_pass_contexts(users, items, item_vectors, train_items, top_l):
    """A pass's contexts in pair order: the pairs grouped by item, stably,
    and one :func:`list_build_context` call per item."""
    rows_of = {}
    for j, item in enumerate(items):
        rows_of.setdefault(item, []).append(j)
    contexts = [None] * len(items)
    for item, rows in rows_of.items():
        group = [users[j] for j in rows]
        for j, ctx in zip(rows, list_build_context(
                group, item, item_vectors, [train_items[u] for u in group],
                top_l)):
            contexts[j] = ctx
    return contexts


def list_threshold_decide(oracle, contexts, gather_floats=1 << 16):
    """The threshold oracle's per-context path: contexts of one length share
    a gather, split into chunks of at most ``gather_floats`` floats."""
    return [OracleDecision(value=1, raw="Yes")
            if cos is not None and cos >= oracle.tau
            else OracleDecision(value=0, raw="No")
            for cos in list_threshold_cosines(oracle, contexts, gather_floats)]


def list_threshold_cosines(oracle, contexts, gather_floats=1 << 16):
    """Each context's cosine on :func:`list_threshold_decide`'s path; None
    for an empty context."""
    vectors = oracle.content_matrix
    cosines = [None] * len(contexts)
    lens = [len(ctx.items) for ctx in contexts]
    for n in set(lens) - {0}:
        rows = [j for j, size in enumerate(lens) if size == n]
        step = max(1, gather_floats // (n * vectors.shape[1]))
        for start in range(0, len(rows), step):
            chunk = rows[start:start + step]
            means = vectors[np.array([contexts[j].items
                                      for j in chunk])].sum(axis=1) / n
            for j, ctx_mean in zip(chunk, means):
                item_vec = vectors[contexts[j].item]
                denom = np.sqrt(item_vec.dot(item_vec)) * \
                    np.sqrt(ctx_mean.dot(ctx_mean))
                cosines[j] = float(item_vec @ ctx_mean / denom) \
                    if denom > 0 else 0.0
    return cosines


def list_render_prompt(ctx, titles):
    """The prompt of one context, rendered from its titles."""
    history = ", ".join(f'"{titles[i]}"' for i in ctx.items)
    return PROMPT_TEMPLATE.format(history=history, item=titles[ctx.item])


def as_block(contexts, titles):
    return context_block([(c.user, c.item, c.items) for c in contexts], titles)


def block_contexts(block):
    return [Context(u, i, block.history(j)) for j, (u, i) in enumerate(
        zip(block.users.tolist(), block.items.tolist()))]


# -- the per-item reference --------------------------------------------------

def per_row_topk(filt, raw, user_vectors, k):
    """One item's top-K users: one item-tower forward and one matvec."""
    return rank_by_score(user_vectors @ map_item(filt, raw), k=k).tolist()


def reference_funnel(raw, k, filters):
    """The per-row rankings of ``filters``, (filter, user vectors) pairs
    with L first, interleaved."""
    return reference_interleave(
        [per_row_topk(filt, raw, users, k) for filt, users in filters], k)


def reference_interleave(rankings, k):
    """Rankings merged rank by rank without repeats, cut to K."""
    merged = []
    for pos in range(max(map(len, rankings))):
        for ranking in rankings:
            if pos < len(ranking) and ranking[pos] not in merged:
                merged.append(ranking[pos])
    return merged[:k]


def reference_context(user, item, item_vectors, history, top_l):
    items = []
    if history:
        hist_ids = np.asarray(history)
        sims = item_vectors[hist_ids] @ item_vectors[item]
        items = hist_ids[np.lexsort((hist_ids, -sims))[:top_l]].tolist()
    return Context(user, item, items)


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


def reference_refine(candidates, oracle, item_vectors, train_items, titles,
                     top_l, decision_log):
    """One context and one decision per (candidate, item) pair."""
    item = candidates.item
    decisions, failures = {}, 0
    for u in candidates.users:
        ctx = reference_context(u, item, item_vectors, train_items[u], top_l)
        ph = None
        if decision_log is not None:
            ph = DecisionLog.prompt_hash(list_render_prompt(ctx, titles))
            cached = decision_log.lookup(u, item, oracle.kind, ph)
            if cached is not None:
                decisions[u] = cached
                continue
        if isinstance(oracle, ThresholdOracle):
            decision = reference_threshold(oracle, item, ctx)
        else:
            [decision] = oracle.decide(as_block([ctx], titles))
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


def per_item_refine(candidates, oracle, item_vectors, train_items, titles,
                    top_l, decision_log):
    """The per-item pass: one ``decide`` call per item, for the contexts
    the log cannot answer, logged in candidate order."""
    item = candidates.item
    decisions, pending = {}, []
    for u in candidates.users:
        ctx = reference_context(u, item, item_vectors, train_items[u], top_l)
        ph = None
        if decision_log is not None:
            ph = DecisionLog.prompt_hash(list_render_prompt(ctx, titles))
            cached = decision_log.lookup(u, item, oracle.kind, ph)
            if cached is not None:
                decisions[u] = cached
                continue
        pending.append((ctx, ph))
    failures = 0
    outcomes = oracle.decide(as_block([ctx for ctx, _ in pending], titles)) \
        if pending else []
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
    filters = [(filt, pipe.user_vectors(filt)) for filt in (filt_l, filt_b)
               if filt is not None]
    item_vectors = pipe.item_vectors(filt_l if filt_l is not None else filt_b)
    results = {}
    for item in sorted(pipe.split.cold_items):
        cand = CandidateSet(item=item, users=reference_funnel(
            pipe.content_matrix[item], sim_cfg.k, filters))
        if skip_refine:
            results[item] = SimulationResult(item=item, users=list(cand.users))
            continue
        kept, failures = refine(cand, pipe.oracle, item_vectors,
                                pipe.train_items, pipe.titles,
                                sim_cfg.context_len, decision_log)
        decided = len(cand.users) - failures
        if kept:
            results[item] = SimulationResult(item=item, users=kept,
                                             failures=failures, decided=decided)
        else:
            results[item] = SimulationResult(
                item=item, users=cand.users[:1] if sim_cfg.fallback_to_top1
                else [], fallback_used=True, failures=failures,
                decided=decided)
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


def integer_tower(rng, d_in, hidden, d_out, integer=True):
    def weights(shape):
        if integer:
            return rng.integers(-2, 3, size=shape).astype(float)
        return rng.normal(size=shape)
    return TowerMlp(w1=weights((d_in, hidden)), b1=np.zeros(hidden),
                    w2=weights((hidden, d_out)), b2=np.zeros(d_out))


def small_integer_pipe(seed, content_rows, user_rows, integer=True, out=4):
    """Small-integer content, embeddings and tower weights: every context
    similarity is an exact integer, and ``content_rows`` distinct content
    rows and ``user_rows`` distinct users give exact ties in the contexts
    and the funnel.  With ``integer=False`` the rows and weights are
    random floats instead: items with equal content still have equal
    filter vectors, but whether their similarities tie to the bit may
    depend on their positions in a BLAS product."""
    data = make_two_cluster_dataset(n_users=48, n_warm=24, n_cold=8,
                                    groups_per_cluster=2, seed=seed)
    split = make_planted_split(data, seed=seed)
    rng = np.random.default_rng(seed)
    n_users, n_items = data.log.n_users, data.log.n_items
    draw = (lambda low, high, shape: rng.integers(low, high, size=shape)
            .astype(float)) if integer else \
        (lambda low, high, shape: rng.normal(size=shape))
    content = draw(0, 3, (content_rows, 5))[
        rng.integers(content_rows, size=n_items)]
    user_emb = draw(-1, 2, (user_rows, 4))[rng.integers(user_rows,
                                                        size=n_users)]
    filters = [TwoTowerFilter(v, integer_tower(rng, 9, 6, out, integer),
                              integer_tower(rng, 5, 6, out, integer))
               for v in "BL"]
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


@pytest.fixture(scope="module")
def float_dup_pipe():
    """Three distinct random content rows: duplicate-content items whose
    similarities tie, or not, as their product positions decide."""
    return small_integer_pipe(13, content_rows=3, user_rows=48,
                              integer=False, out=8)


class FlakyOracle(PlantedOracle):
    """The planted oracle, failing in place on every pair whose user and
    item sum to a multiple of three."""

    def decide(self, block):
        return [OracleError(f"no answer for ({user}, {item})")
                if (user + item) % 3 == 0 else answer
                for user, item, answer in zip(block.users.tolist(),
                                              block.items.tolist(),
                                              super().decide(block))]


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
        assert (g.users, g.fallback_used, g.failures, g.decided) == \
            (w.users, w.fallback_used, w.failures, w.decided), item


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

    def decide(self, block):
        return [OracleError("dead") if item == self.dead_item else answer
                for item, answer in zip(block.items.tolist(),
                                        super().decide(block))]


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


# -- the funnel --------------------------------------------------------------

def chunk_constants(n_users):
    """(RANK_CHUNK_SCORES, RANK_CHUNK_MIN_ROWS) pairs: the defaults, one
    item per chunk, and three items per chunk."""
    return [(metrics.RANK_CHUNK_SCORES, metrics.RANK_CHUNK_MIN_ROWS), (1, 1),
            (3 * n_users, 3)]


@pytest.mark.parametrize("pipe_name", PIPES + ["float_dup_pipe"])
def test_funnel_equals_per_row_reference(request, monkeypatch, pipe_name):
    cfg, pipe = request.getfixturevalue(pipe_name)
    items = sorted(pipe.split.cold_items)
    raw = pipe.content_matrix[items]
    filters = [(filt, pipe.user_vectors(filt))
               for filt in (pipe.filter_l, pipe.filter_b)]
    (filt_l, users_l), (filt_b, users_b) = filters
    n_users = pipe.log.n_users
    for k in (1, 5, cfg["refiner"]["k"], n_users + 2):
        per_row = [[per_row_topk(filt, row, users, k) for row in raw]
                   for filt, users in filters]
        for scores, min_rows in chunk_constants(n_users):
            monkeypatch.setattr(metrics, "RANK_CHUNK_SCORES", scores)
            monkeypatch.setattr(metrics, "RANK_CHUNK_MIN_ROWS", min_rows)
            block = []
            for (filt, users), want in zip(filters, per_row):
                got = topk_candidates(filt, raw, users, k, item=items)
                assert [c.item for c in got] == items
                block.append([c.users for c in got])
                for row, g, w in zip(raw, block[-1], want):
                    if g != w:
                        # different vectors whose scores are equal in exact
                        # arithmetic can round apart in one product and
                        # together in the other
                        ref = users @ map_item(filt, row)
                        np.testing.assert_allclose(ref[g], ref[w], rtol=1e-13)
            got = funnel_filter(raw, k, filter_b=filt_b, filter_l=filt_l,
                                users_b=users_b, users_l=users_l, item=items)
            assert [(c.item, c.users) for c in got] == list(zip(
                items, [reference_interleave(r, k) for r in zip(*block)]))
        # a 1-D item is a one-row block
        one = funnel_filter(raw[-1], k, filter_b=filt_b, filter_l=filt_l,
                            users_b=users_b, users_l=users_l, item=items[-1])
        assert one.item == items[-1]
        assert one.users == reference_interleave(
            [topk_candidates(filt, raw[-1:], users, k)[0].users
             for filt, users in filters], k)


SMALL_INTS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), n_items=st.integers(0, 8), n_users=st.integers(1, 24),
       out=st.integers(1, 3))
def test_topk_on_integer_vectors_equals_per_row_reference(data, n_items,
                                                          n_users, out):
    """Small-integer weights and vectors make every score an exact integer
    and ties common; any chunking of the block gives the per-row ids, and
    those are a full sort of the scores by (-score, id)."""
    def ints(*shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=SMALL_INTS))

    tower = TowerMlp(w1=ints(3, 4), b1=ints(4), w2=ints(4, out), b2=ints(out))
    filt = TwoTowerFilter("B", user_tower=tower, item_tower=tower)
    raw, users = ints(n_items, 3), ints(n_users, out)
    k = data.draw(st.integers(1, n_users + 2))
    want = [per_row_topk(filt, row, users, k) for row in raw]
    assert want == [lexsort_rank(row, k=k).tolist()
                    for row in map_item(filt, raw) @ users.T]
    scores, min_rows = data.draw(st.sampled_from(chunk_constants(n_users)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "RANK_CHUNK_SCORES", scores)
        patch.setattr(metrics, "RANK_CHUNK_MIN_ROWS", min_rows)
        got = topk_candidates(filt, raw, users, k, item=range(10, 10 + n_items))
    assert [(c.item, c.users) for c in got] == \
        list(zip(range(10, 10 + n_items), want))
    if n_items:
        assert topk_candidates(filt, raw[0], users, k).users == want[0]


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
        # ascending order; rows index the histories
        rng = np.random.default_rng(1)
        histories = [rng.permutation(pipe.train_items[u]).tolist()
                     for u in users]
        histories[1] = []
        rows = list(range(len(users)))
        for item in pipe.split.cold_items:
            for top_l in (1, 3, 50):
                got = build_context(rows, [item] * len(rows), vectors,
                                    histories, pipe.titles, top_l)
                want = [reference_context(j, item, vectors, h, top_l)
                        for j, h in enumerate(histories)]
                assert block_contexts(got) == want
                assert got.hist.shape == (len(rows), top_l)


def test_block_ranks_exact_ties_and_signed_zeros_by_id():
    # small integer vectors, so every similarity is exact in any kernel
    vectors = np.array([
        [9, 9, 9, 9],           # 0: the other query item
        [0, 0, 0, 1],           # 1: similarity 1
        [0.0, 0.0, 0.0, 0.0],   # 2: similarity +0.0
        [1, 1, 5, 0],           # 3: similarity 3
        [0, 0, 3, 0],           # 4: similarity 0
        [-0.0, -0.0, -0.0, -0.0],   # 5: every product -0.0
        [-1, 0, 0, 0],          # 6: similarity -1
        [1, 1, 5, 0],           # 7: item 3's vector, similarity 3
        [2, 1, 0, 0],           # 8: similarity 4
        [1, 2, 0, 1],           # 9: the query item
    ])
    assert np.signbit(vectors[5]).all() and not np.signbit(vectors[2]).any()
    ranked = [8, 3, 7, 1, 2, 4, 5, 6]
    rng = np.random.default_rng(4)
    # the tie row at several positions of the query item's product, among
    # rows of the other item, each time with its history shuffled
    users = list(range(12))
    items = [9, 0, 9, 9, 0, 9, 9, 9, 0, 9, 9, 0]
    histories = [rng.permutation(ranked).tolist() for _ in users]
    titles = [f"t{i}" for i in range(len(vectors))]
    for top_l in (1, 3, 5, 8, 10):
        got = build_context(users, items, vectors, histories, titles, top_l)
        assert block_contexts(got) == list_pass_contexts(
            users, items, vectors, histories, top_l)
        for j, item in enumerate(items):
            if item == 9:
                assert got.history(j) == ranked[:top_l]


@st.composite
def integer_pass(draw):
    """A pass over small-integer item vectors, whose similarities are exact
    and tie often: shuffled histories of any length from 0 to every item,
    and pairs that repeat users and items in any order."""
    n_items, width = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    vectors = draw(hnp.arrays(np.float64, (n_items, width),
                              elements=SMALL_INTS))
    histories = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(range(n_items)))
        histories.append(order[:draw(st.integers(0, n_items))])
    n_rows = draw(st.integers(0, 40))
    users = draw(st.lists(st.integers(0, len(histories) - 1),
                          min_size=n_rows, max_size=n_rows))
    items = draw(st.lists(st.integers(0, n_items - 1), min_size=n_rows,
                          max_size=n_rows))
    return vectors, histories, users, items


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=integer_pass(), top_l=st.integers(1, 6))
def test_block_contexts_on_integer_vectors_equal_list_path(case, top_l):
    vectors, histories, users, items = case
    titles = [f"t{i}" for i in range(len(vectors))]
    got = build_context(users, items, vectors, histories, titles, top_l)
    assert got.hist.shape == (len(users), top_l)
    assert block_contexts(got) == list_pass_contexts(users, items, vectors,
                                                     histories, top_l)


def label_pool(pipe):
    pool = filtering.sample_label_pairs(pipe.split, pipe.log.n_users, None, 3)
    return [u for u, _ in pool], [i for _, i in pool]


def short_histories(pipe):
    """The pipe's histories, every fifth emptied and every fifth cut to one
    item."""
    return [[] if u % 5 == 0 else h[:1] if u % 5 == 1 else h
            for u, h in enumerate(pipe.train_items)]


@pytest.mark.parametrize("pipe_name", PIPES + ["float_dup_pipe"])
@pytest.mark.parametrize("top_l", [1, 3, 10])
def test_block_equals_list_path(request, pipe_name, top_l):
    # the integer and tie pipes hold duplicate-content items that tie exactly
    _, pipe = request.getfixturevalue(pipe_name)
    vectors = pipe.item_vectors(pipe.filter_b)
    users, items = label_pool(pipe)
    # one item recurs at rows that are not adjacent
    assert any(np.diff(np.flatnonzero(np.array(items) == i)).max(initial=1)
               > 1 for i in set(items))
    for short in (False, True):
        train_items = short_histories(pipe) if short else pipe.train_items
        got = build_context(users, items, vectors, train_items, pipe.titles,
                            top_l)
        want = list_pass_contexts(users, items, vectors, train_items, top_l)
        assert block_contexts(got) == want
        assert got.titles is pipe.titles
        assert [render_prompt(got, j) for j in range(len(got))] == \
            [list_render_prompt(ctx, pipe.titles) for ctx in want]
        if short:   # empty contexts, and contexts shorter than top_l
            lens = {len(ctx.items) for ctx in want}
            assert 0 in lens and (top_l == 1 or min(lens - {0}) < top_l)
        # a take of mixed rows: repeated, out of order, across items
        rows = np.random.default_rng(top_l).integers(len(got), size=40)
        assert block_contexts(got.take(rows)) == [want[j] for j in rows]
        assert [render_prompt(got.take(rows), k) for k in range(len(rows))] \
            == [list_render_prompt(want[j], pipe.titles) for j in rows]


def test_threshold_block_equals_per_pair(planted_pipe, monkeypatch):
    cfg, pipe = planted_pipe
    oracle = ThresholdOracle(pipe.content_matrix, tau=0.5)
    rng = np.random.default_rng(3)
    # the contexts of every cold item, interleaved, in one pass
    contexts = [Context(u, item, rng.choice(
        pipe.log.n_items, size=int(rng.integers(0, 6)), replace=False).tolist())
        for item in pipe.split.cold_items for u in range(30)]
    # contexts whose mean is the item's own vector: their cosine is 1.0 up
    # to an ulp, and at tau 1.0 one ulp flips the answer
    contexts += [Context(u, item, [item]) for item in pipe.split.cold_items
                 for u in (30, 31)]
    contexts = [contexts[j] for j in rng.permutation(len(contexts))]
    block = as_block(contexts, pipe.titles)
    rows = rng.integers(len(contexts), size=50)
    # one gather per context length, then gathers split into row chunks
    for scores, min_rows in ((metrics.RANK_CHUNK_SCORES,
                              metrics.RANK_CHUNK_MIN_ROWS),
                             (1, metrics.RANK_CHUNK_MIN_ROWS), (1, 1),
                             (200, 1)):
        monkeypatch.setattr(metrics, "RANK_CHUNK_SCORES", scores)
        monkeypatch.setattr(metrics, "RANK_CHUNK_MIN_ROWS", min_rows)
        for tau in (0.0, 0.5, 1.0):
            oracle.tau = tau
            ref = [reference_threshold(oracle, ctx.item, ctx)
                   for ctx in contexts]
            assert list_threshold_decide(oracle, contexts) == ref
            assert oracle.decide(block) == ref
            assert [oracle.decide(block.take([j]))[0]
                    for j in range(len(block))] == ref
            assert oracle.decide(block.take(rows)) == [ref[j] for j in rows]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), width=st.integers(1, 5),
       chunking=st.sampled_from([(1, 1), (1, 3), (64, 1), (1 << 16, 16)]))
def test_threshold_decide_equals_list_path(data, width, chunking):
    """Random normal vectors at widths above 1, whose sums round; at width 1
    numpy sums a context's column pairwise, so there the vectors are small
    integers, whose sums are exact.  Chunks of one row and of many rows.
    Each tau is a row's cosine or the float just above it, so a cosine one
    ulp off the list path's flips that row's answer."""
    n_items = data.draw(st.integers(1, 10))
    if width == 1:
        vectors = data.draw(hnp.arrays(np.float64, (n_items, 1),
                                       elements=SMALL_INTS))
    else:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        vectors = rng.standard_normal((n_items, width))
    contexts = [Context(j, data.draw(st.integers(0, n_items - 1)), data.draw(
        st.lists(st.integers(0, n_items - 1), max_size=12)))
        for j in range(data.draw(st.integers(0, 30)))]
    block = as_block(contexts, [""] * n_items)
    oracle = ThresholdOracle(vectors)
    cosines = sorted({c for c in list_threshold_cosines(oracle, contexts)
                      if c is not None})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "RANK_CHUNK_SCORES", chunking[0])
        patch.setattr(metrics, "RANK_CHUNK_MIN_ROWS", chunking[1])
        for cos in [0.3] + cosines[:4] + cosines[-4:]:
            for oracle.tau in (cos, np.nextafter(cos, np.inf)):
                assert oracle.decide(block) == \
                    list_threshold_decide(oracle, contexts)


# -- L labelling -------------------------------------------------------------

def reference_labeler(pipe, oracle, top_l):
    """One context and one one-context ``decide`` per (user, item) pair."""
    item_vectors = pipe.item_vectors(pipe.filter_b)

    def label(users, items):
        answers = []
        for u, i in zip(users, items):
            ctx = reference_context(u, i, item_vectors, pipe.train_items[u],
                                    top_l)
            answers.extend(oracle.decide(as_block([ctx], pipe.titles)))
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
                                          pipe.train_items[users[j]], top_l)
                        for j in rows]
            for j, answer in zip(rows, oracle.decide(as_block(contexts,
                                                              pipe.titles))):
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
    users, items = label_pool(pipe)
    assert len(set(items)) < len(items)     # items recur, in no sorted order
    assert items != sorted(items)
    decided = []
    monkeypatch.setattr(pipe.oracle, "decide", lambda block, real=(
        pipe.oracle.decide): decided.append(len(block)) or real(block))
    got = pipeline.oracle_labeler(pipe, pipe.oracle, top_l)(users, items)
    assert decided == [len(users)]          # one decide for the whole pool
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
