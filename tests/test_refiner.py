import dataclasses
import hashlib
import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler

import gc
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from coldsim import pipeline
from coldsim.backbone import BackboneModel
from coldsim.corpus import InteractionLog, ItemCatalog
from coldsim.filtering import CandidateSet, TwoTowerFilter, map_item
from coldsim.refiner import (DecisionLog, HttpOracle, OracleDecision,
                             OracleError, OracleParseError, PlantedOracle, SimulateConfig,
                             ThresholdOracle, build_context,
                             parse_yes_no, prepare_finetune_data,
                             refine, refine_all, render_prompt)
from conftest import (context_block, http_server, pair_split,
                      tiny_cluster_setup)


def make_filter(seed=0, content_dim=6, out=5):
    return TwoTowerFilter.init("B", 4, content_dim, hidden=6, out=out, seed=seed)


def reference_context(item, filt, content_matrix, history, top_l):
    """The per-call path: forward the user's history through the item tower;
    the context items, most similar first."""
    hist_vecs = filt.item_tower.forward(content_matrix[history])
    sims = hist_vecs @ map_item(filt, content_matrix[item])
    hist_ids = np.asarray(history)
    return hist_ids[np.lexsort((hist_ids, -sims))[:top_l]].tolist()


def one_context(item, item_vectors, history, titles, top_l):
    """One user's context through :func:`build_context`: a one-row block."""
    return build_context([0], [item], item_vectors, [history], titles, top_l)


class TestBuildContext:
    def test_small_history_keeps_everything(self):
        rng = np.random.default_rng(0)
        filt = make_filter()
        content = rng.normal(size=(10, 6))
        titles = [f"t{i}" for i in range(10)]
        vectors = filt.item_tower.forward(content)
        fvec = vectors[9]
        block = one_context(9, vectors, [2, 5, 7], titles, top_l=10)
        assert block.items.tolist() == [9] and block.titles[9] == "t9"
        assert sorted(block.history(0)) == [2, 5, 7]
        assert block.hist.shape == (1, 10) and (block.hist[0, 3:] == -1).all()
        sims = [filt.item_tower.forward(content[i]) @ fvec
                for i in block.history(0)]
        assert sims == sorted(sims, reverse=True)

    def test_empty_history(self):
        filt = make_filter()
        block = one_context(0, filt.item_tower.forward(np.zeros((1, 6))), [],
                            ["t0"], top_l=4)
        assert block.history(0) == [] and block.hist.tolist() == [[-1] * 4]

    def test_zero_pairs_give_an_empty_block(self):
        vectors = np.ones((3, 2))
        block = build_context([], [], vectors, [[1], [2]], ["a", "b", "c"],
                              top_l=4)
        assert len(block) == 0 and block.hist.shape == (0, 4)
        for oracle in (PlantedOracle({(0, 1)}), ThresholdOracle(vectors)):
            assert oracle.decide(block) == []

    @pytest.mark.parametrize("top_l", [0, -1])
    def test_top_l_below_one_rejected(self, top_l):
        with pytest.raises(ValueError,
                           match=f"^top_l must be >= 1, got {top_l}$"):
            build_context([0], [1], np.ones((2, 2)), [[0]], ["a", "b"], top_l)

    def test_all_empty_histories_give_rows_of_minus_one(self):
        vectors = np.random.default_rng(0).normal(size=(4, 3))
        block = build_context([0, 1, 0], [2, 3, 3], vectors, [[], []],
                              ["a", "b", "c", "d"], top_l=3)
        assert block.hist.tolist() == [[-1] * 3] * 3
        oracle = ThresholdOracle(vectors)
        for tau in (-1.0, 0.0, 0.3):
            oracle.tau = tau
            assert [a.raw for a in oracle.decide(block)] == ["No"] * 3

    def test_matches_brute_force_argsort(self):
        rng = np.random.default_rng(1)
        filt = make_filter(seed=2)
        content = rng.normal(size=(40, 6))
        titles = [f"t{i}" for i in range(40)]
        history = list(rng.choice(40, size=30, replace=False))
        vectors = filt.item_tower.forward(content)
        fvec = vectors[0]
        block = one_context(0, vectors, history, titles, top_l=10)
        sims = {i: filt.item_tower.forward(content[i]) @ fvec for i in history}
        expected = sorted(history, key=lambda i: (-sims[i], i))[:10]
        assert block.history(0) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_precomputed_vectors_match_per_call_forward(self, seed):
        # duplicated content rows give exact similarity ties, which must
        # break by ascending item id on both paths
        rng = np.random.default_rng(seed)
        filt = make_filter(seed=seed)
        content = rng.normal(size=(60, 6))
        content[30:] = content[rng.integers(30, size=30)]
        titles = [f"t{i}" for i in range(60)]
        vectors = filt.item_tower.forward(content)
        n_ties = 0
        for user in range(40):
            size = int(rng.integers(1, 40))
            history = [int(i) for i in rng.choice(60, size=size, replace=False)]
            item = int(rng.integers(60))
            top_l = int(rng.integers(1, 12))
            got = one_context(item, vectors, history, titles, top_l)
            want = reference_context(item, filt, content, history, top_l)
            assert got.history(0) == want
            sims = vectors[history] @ vectors[item]
            n_ties += len(sims) - len(np.unique(sims))
        assert n_ties > 0

    def test_texts_use_titles(self):
        filt = make_filter()
        content = np.ones((3, 6))
        catalog = ItemCatalog(content={i: f"body{i}" for i in range(3)},
                              titles={i: f"Title {i}" for i in range(3)})
        # the pipeline's title list prefers a title to the content text
        pipe = pipeline.Pipeline(
            log=InteractionLog.from_pairs(2, 3, [(0, 1), (1, 2)]),
            catalog=catalog, split=pair_split([(0, 1), (1, 2)], [1, 2]),
            backbone=BackboneModel(user_emb=np.zeros((2, 4)),
                                   item_emb=np.zeros((3, 4))),
            content_matrix=content)
        assert pipe.titles == ["Title 0", "Title 1", "Title 2"]
        block = one_context(2, filt.item_tower.forward(content), [1],
                            pipe.titles, top_l=2)
        assert render_prompt(block, 0).startswith(
            'Given the user interacted with ["Title 1"], determine whether '
            "the user will interacted the [Title 2]")


class TestRenderPrompt:
    def test_byte_exact_template(self):
        block = context_block([(0, 3, [1, 2])], ["", "A", "B", "C"])
        assert render_prompt(block, 0) == (
            'Given the user interacted with ["A", "B"], determine whether '
            "the user will interacted the [C] by answering Yes or No.")

    def test_empty_context_brackets(self):
        prompt = render_prompt(context_block([(0, 1, [])], ["", "Item"]), 0)
        assert "interacted with []," in prompt

    def test_contains_fixed_fragment(self):
        block = context_block([(0, 1, [])], ["", "X"])
        assert "by answering Yes or No" in render_prompt(block, 0)

    def test_item_content_required(self):
        with pytest.raises(ValueError):
            render_prompt(context_block([(0, 1, [])], ["t0", ""]), 0)

    def test_injective_on_plain_titles(self):
        # distinct (context titles, item) inputs give distinct prompts as
        # long as titles carry no quote characters themselves
        seen = {}
        titles = ["alpha", "beta", "gamma", "delta"]
        for a in titles:
            for b in titles:
                for item in ("x", "y"):
                    key = ((a, b), item)
                    prompt = render_prompt(
                        context_block([(0, 2, [0, 1])], [a, b, item]), 0)
                    assert prompt not in seen or seen[prompt] == key
                    seen[prompt] = key
        assert len(seen) == len(titles) ** 2 * 2


class TestParseYesNo:
    @pytest.mark.parametrize("text,expected", [
        ("Yes", 1), ("yes", 1), ("YES!", 1), ("  Yes, certainly", 1),
        ("No", 0), ("no", 0), ("No, because the topics differ", 0),
        ("\nno\n", 0),
    ])
    def test_recognized(self, text, expected):
        assert parse_yes_no(text) == expected

    @pytest.mark.parametrize("text", ["maybe", "", "42", "yeah", "nope sort of"])
    def test_unrecognized_raises(self, text):
        with pytest.raises(OracleParseError):
            parse_yes_no(text)


def reference_threshold_cosine(content_matrix, item, context_items):
    """The former ``ThresholdOracle.decide`` body, up to the cosine."""
    item_vec = content_matrix[item]
    ctx_mean = content_matrix[context_items].mean(axis=0)
    denom = np.linalg.norm(item_vec) * np.linalg.norm(ctx_mean)
    return float(item_vec @ ctx_mean / denom) if denom > 0 else 0.0


class TestOracles:
    def test_planted_membership(self):
        oracle = PlantedOracle({(1, 5), (2, 6)})
        block = context_block([(1, i, []) for i in (5, 6, 5)], ["x"] * 7)
        assert [a.value for a in oracle.decide(block)] == [1, 0, 1]

    def test_threshold_self_similarity(self):
        content = np.zeros((2, 4))
        content[0] = content[1] = [1.0, 0, 0, 0]  # identical texts
        oracle = ThresholdOracle(content, tau=0.9)
        block = context_block([(0, 0, [1])], ["same", "same"])
        assert oracle.decide(block)[0].value == 1

    def test_threshold_empty_context_is_no(self):
        oracle = ThresholdOracle(np.ones((2, 4)), tau=0.0)
        block = context_block([(0, 0, [])], ["x", "y"])
        assert oracle.decide(block)[0].value == 0

    def test_threshold_zero_item_vector_answers_as_cosine_zero(self):
        # a non-empty context, but the cosine's denominator is 0
        content = np.zeros((3, 4))
        content[1:] = [[1.0, 2, 0, 0], [0, 1, 1, 0]]
        oracle = ThresholdOracle(content)
        block = context_block([(0, 0, [1, 2]), (1, 0, [2])], ["x"] * 3)
        for tau, raw in ((0.0, "Yes"), (0.3, "No")):
            oracle.tau = tau
            assert [a.raw for a in oracle.decide(block)] == [raw, raw]

    def test_threshold_equals_reference_cosine(self):
        # the cosine is bit-identical: tau at the reference cosine is a yes,
        # the next float up a no
        rng = np.random.default_rng(11)
        content_matrix = rng.normal(size=(40, 16))
        content_matrix[0] = 0.0  # zero-norm item
        oracle = ThresholdOracle(content_matrix)
        for trial in range(200):
            items = rng.choice(40, size=int(rng.integers(1, 9)),
                               replace=False).tolist()
            item = 0 if trial % 20 == 0 else int(rng.integers(40))
            block = context_block([(0, item, items)], ["x"] * 40)
            cos = reference_threshold_cosine(content_matrix, item, items)
            if item == 0:
                assert cos == 0.0
                oracle.tau = 0.3
                assert oracle.decide(block)[0].raw == "No"
                continue
            for tau, value in ((cos, 1), (np.nextafter(cos, np.inf), 0)):
                oracle.tau = tau
                assert oracle.decide(block)[0].value == value

    def test_threshold_deterministic(self):
        rng = np.random.default_rng(2)
        content = rng.normal(size=(6, 8))
        oracle = ThresholdOracle(content, tau=0.3)
        block = context_block([(0, i, [1, 4]) for i in range(6)], ["x"] * 6)
        first = [oracle.decide(block.take([j]))[0].value for j in range(6)]
        second = [a.value for a in oracle.decide(block)]
        assert first == second


class _OracleHandler(BaseHTTPRequestHandler):
    fail_first = 0
    answer = "Yes"

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(503)
            self.end_headers()
            return
        if "messages" in body:
            doc = {"messages": [{"role": "assistant", "content": cls.answer}]}
        else:
            assert "prompt" in body
            doc = {"answer": cls.answer}
        payload = json.dumps(doc).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def oracle_server():
    _OracleHandler.fail_first = 0
    _OracleHandler.answer = "Yes"
    with http_server(_OracleHandler) as server:
        yield f"{server.base_url}/simulate"


class _SlowCountingHandler(BaseHTTPRequestHandler):
    """Answers Yes after a delay, tracking how many requests overlap."""

    lock = threading.Lock()
    in_flight = 0
    peak = 0

    def do_POST(self):
        cls = type(self)
        self.rfile.read(int(self.headers["Content-Length"]))
        with cls.lock:
            cls.in_flight += 1
            cls.peak = max(cls.peak, cls.in_flight)
        time.sleep(0.05)
        with cls.lock:
            cls.in_flight -= 1
        payload = json.dumps({"answer": "Yes"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def slow_server():
    _SlowCountingHandler.in_flight = _SlowCountingHandler.peak = 0
    with http_server(_SlowCountingHandler) as server:
        yield f"{server.base_url}/simulate"


class TestHttpOracle:
    def test_refine_never_exceeds_max_inflight(self, slow_server):
        vectors, titles, train_items = refine_setup(seed=8)
        cand = CandidateSet(item=1, users=[9, 2, 11, 0, 6, 4, 8, 3, 10])
        log = DecisionLog()
        oracle = HttpOracle(slow_server, timeout=5, max_inflight=3)
        kept, failures = refine(cand, oracle, vectors, train_items, titles,
                                decision_log=log)
        assert 1 < _SlowCountingHandler.peak <= 3
        assert kept == cand.users and failures == 0
        assert [r["user"] for r in log.records] == cand.users

    def test_labelling_never_exceeds_max_inflight(self, slow_server):
        data, pipe = label_pipe(seed=8)
        oracle = HttpOracle(slow_server, timeout=5, max_inflight=3)
        label = pipeline.oracle_labeler(pipe, oracle, 3)
        items = [data.cold_items[u % 2] for u in range(12)]
        answers = label(list(range(12)), items)
        assert 1 < _SlowCountingHandler.peak <= 3
        assert [a.value for a in answers] == [1] * 12

    def test_labelling_window_spans_items(self, slow_server):
        # every pair its own item: the pass still keeps max_inflight
        # requests in flight
        data, pipe = label_pipe(seed=8)
        oracle = HttpOracle(slow_server, timeout=5, max_inflight=3)
        label = pipeline.oracle_labeler(pipe, oracle, 3)
        items = list(range(9))
        answers = label([(7 * i) % data.log.n_users for i in items], items)
        assert _SlowCountingHandler.peak == 3
        assert [a.value for a in answers] == [1] * 9

    def test_simulate_pass_never_exceeds_max_inflight(self, slow_server):
        data, pipe = label_pipe(seed=8)
        pipe.oracle = HttpOracle(slow_server, timeout=5, max_inflight=3)
        # one candidate per item, so only the pass can overlap requests
        results = pipeline.simulate_all(pipe, simulate_cfg(k=1))
        assert len(results) == len(data.cold_items)
        assert 1 < _SlowCountingHandler.peak <= 3
        assert all(len(r.users) == 1 and not r.fallback_used
                   for r in results.values())

    def test_programming_error_in_pool_reaches_caller(self, monkeypatch):
        def post(session, data):
            if b"bad" in data:
                raise RuntimeError("adapter bug")
            return 200, json.dumps({"answer": "Yes"}).encode()

        monkeypatch.setattr("coldsim.content.HttpSession.post", post)
        oracle = HttpOracle("http://oracle.invalid/simulate", max_inflight=2)
        block = context_block([(u, 3, [u]) for u in range(3)],
                              ["good", "bad", "good", "anything"])
        with pytest.raises(RuntimeError, match="adapter bug"):
            oracle.decide(block)

    def test_pool_threads_exit_with_the_oracle(self, oracle_server):
        before = set(threading.enumerate())
        oracle = HttpOracle(oracle_server, timeout=5, max_inflight=3)
        block = context_block([(u, 0, []) for u in range(6)], ["x"])
        assert [a.value for a in oracle.decide(block)] == [1] * 6
        workers = [t for t in set(threading.enumerate()) - before
                   if t.name.startswith("coldsim-oracle")]
        assert 1 <= len(workers) <= 3
        del oracle
        gc.collect()
        for thread in workers:
            thread.join(timeout=5)
            assert not thread.is_alive()

    def test_yes_round_trip(self, oracle_server):
        oracle = HttpOracle(oracle_server, timeout=5)
        block = context_block([(0, 0, [])], ["anything"])
        decision = oracle.decide(block)[0]
        assert decision.value == 1
        assert decision.latency > 0

    def test_verbose_no_parses(self, oracle_server):
        _OracleHandler.answer = "No, the user ignores this topic."
        oracle = HttpOracle(oracle_server, timeout=5)
        block = context_block([(0, 0, [])], ["anything"])
        assert oracle.decide(block)[0].value == 0

    def test_parse_error_distinct_from_transport(self, oracle_server):
        _OracleHandler.answer = "perhaps"
        oracle = HttpOracle(oracle_server, timeout=5)
        block = context_block([(0, 0, [])], ["anything"])
        assert isinstance(oracle.decide(block)[0],
                          OracleParseError)

    def test_retry_then_success(self, oracle_server):
        _OracleHandler.fail_first = 2
        oracle = HttpOracle(oracle_server, timeout=5, retries=3, backoff=0.01)
        block = context_block([(0, 0, [])], ["anything"])
        assert oracle.decide(block)[0].value == 1

    def test_transport_error_surfaced(self):
        oracle = HttpOracle("http://127.0.0.1:1/simulate", timeout=0.2,
                            retries=2, backoff=0.01)
        block = context_block([(0, 0, [])], ["anything"])
        [error] = oracle.decide(block)
        assert isinstance(error, OracleError)
        assert "after 2 attempts" in str(error)

    def test_chat_adapter(self, oracle_server):
        oracle = HttpOracle(oracle_server, timeout=5, chat=True)
        block = context_block([(0, 0, [])], ["anything"])
        assert oracle.decide(block)[0].value == 1


class _FaultyHandler(BaseHTTPRequestHandler):
    """Answers garbage to the prompts in ``garbage`` and stalls once on
    ``stall``, counting requests per prompt and the peak of overlapping
    requests.  The stalled request outlives the client's timeout, so it is
    left out of the overlap count."""

    lock = threading.Lock()
    garbage: set = set()
    stall = None
    stall_s = 0.0
    requests: dict = {}
    in_flight = 0
    peak = 0

    def do_POST(self):
        cls = type(self)
        length = int(self.headers["Content-Length"])
        prompt = json.loads(self.rfile.read(length))["prompt"]
        with cls.lock:
            cls.requests[prompt] = cls.requests.get(prompt, 0) + 1
            stall = prompt == cls.stall
            if stall:
                cls.stall = None
            else:
                cls.in_flight += 1
                cls.peak = max(cls.peak, cls.in_flight)
        time.sleep(cls.stall_s if stall else 0.01)
        with cls.lock:
            cls.in_flight -= not stall
        answer = "perhaps" if prompt in cls.garbage else "Yes"
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(json.dumps({"answer": answer}).encode())
        except OSError:     # the client gave up on the stalled call
            pass

    def log_message(self, *args):
        pass


class TestHttpFaults:
    """Garbage answers and a stalled call on the block ``refine`` path."""

    def test_failed_pairs_dropped_and_rerun_queries_only_them(self, tmp_path):
        n_items = 12
        titles = [f"thing {i}" for i in range(n_items)]
        vectors = make_filter(seed=4).item_tower.forward(
            np.random.default_rng(4).normal(size=(n_items, 6)))
        train_items = [[u, u + 1, u + 2] for u in range(n_items - 2)]
        cand = CandidateSet(item=n_items - 1, users=[7, 2, 9, 0, 5, 3, 8, 1, 6])
        block = build_context(cand.users, [cand.item] * len(cand.users),
                              vectors, train_items, titles)
        prompts = [render_prompt(block, j) for j in range(len(block))]
        assert len(set(prompts)) == len(prompts)
        handler = _FaultyHandler
        handler.garbage = set(prompts[2::3])            # every third prompt
        handler.stall, handler.stall_s = prompts[0], 0.6
        handler.requests = {}
        handler.in_flight = handler.peak = 0
        with http_server(handler) as server:
            oracle = HttpOracle(f"{server.base_url}/d", timeout=0.2,
                                retries=2, backoff=0.01, max_inflight=3)
            log = DecisionLog()
            kept, failures = refine(cand, oracle, vectors, train_items, titles,
                                    decision_log=log)
            answered = [u for u, p in zip(cand.users, prompts)
                        if p not in handler.garbage]
            assert kept == answered and failures == 3
            assert [r["user"] for r in log.records] == answered
            assert handler.requests[prompts[0]] == 2     # stalled, then retried
            assert 1 < handler.peak <= 3

            log.save(tmp_path / "decisions.jsonl")
            handler.requests = {}
            rerun = DecisionLog.load(tmp_path / "decisions.jsonl")
            again = refine(cand, oracle, vectors, train_items, titles,
                           decision_log=rerun)
            assert again == (kept, failures)
            assert handler.requests == {p: 1 for p in prompts[2::3]}


def label_pipe(seed):
    """A planted toy with a behavior filter: enough to build contexts and
    to simulate."""
    data, split = tiny_cluster_setup(seed=seed)
    n_users, n_items = data.log.n_users, data.log.n_items
    pipe = pipeline.Pipeline(
        log=data.log, catalog=data.catalog, split=split,
        backbone=BackboneModel(user_emb=np.zeros((n_users, 4)),
                               item_emb=np.zeros((n_items, 4))),
        content_matrix=np.random.default_rng(seed).normal(size=(n_items, 6)),
        filter_b=make_filter(seed=seed))
    return data, pipe


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers 503 to every prompt while ``server.dead``, and to prompts
    that mention "fail"; garbage to prompts that mention "junk"; Yes to the
    rest.  Counts requests in ``server.requests``."""

    def do_POST(self):
        srv = self.server
        prompt = json.loads(self.rfile.read(
            int(self.headers["Content-Length"])))["prompt"]
        with srv.lock:
            srv.requests += 1
        if srv.dead or "fail" in prompt:
            self.send_response(503)
            self.end_headers()
            return
        payload = json.dumps({"answer": "perhaps" if "junk" in prompt
                              else "Yes"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def scripted_server():
    with http_server(_ScriptedHandler) as server:
        server.lock, server.requests, server.dead = threading.Lock(), 0, False
        server.url = f"{server.base_url}/decide"
        yield server


class TestFailFast:
    """A pass stops sending once ``max_inflight`` answers in a row, in
    context order, have failed every retry."""

    MAX_INFLIGHT, RETRIES = 2, 2

    def oracle(self, server):
        # the backoff gives the caller time to see the streak end before
        # the requests in flight finish
        return HttpOracle(server.url, timeout=5, retries=self.RETRIES,
                          backoff=0.05, max_inflight=self.MAX_INFLIGHT)

    def test_dead_endpoint_stops_a_labelling_pass(self, scripted_server):
        scripted_server.dead = True
        data, pipe = label_pipe(seed=8)
        label = pipeline.oracle_labeler(pipe, self.oracle(scripted_server), 3)
        items = list(range(12))
        answers = label([(7 * i) % data.log.n_users for i in items], items)
        assert all(isinstance(a, OracleError) for a in answers)
        assert "after 2 attempts" in str(answers[0])
        assert "not sent" in str(answers[-1])
        assert scripted_server.requests <= \
            2 * self.MAX_INFLIGHT * self.RETRIES

    def test_dead_endpoint_stops_a_simulate_pass(self, scripted_server):
        scripted_server.dead = True
        data, pipe = label_pipe(seed=8)
        pipe.oracle = self.oracle(scripted_server)
        with pytest.raises(OracleError, match=f"every oracle call failed for "
                                              f"item {min(data.cold_items)}$"):
            pipeline.simulate_all(pipe, simulate_cfg(k=5))
        assert scripted_server.requests <= \
            2 * self.MAX_INFLIGHT * self.RETRIES

    def test_shorter_streaks_do_not_stop_the_pass(self, scripted_server):
        # streaks of MAX_INFLIGHT - 1 failures, ended by an answer or by a
        # parse error, which counts as an answer here
        texts = ["fail", "ok", "fail", "junk", "fail", "junk", "junk", "junk",
                 "ok", "fail", "ok"]
        block = context_block([(u, len(texts), [u]) for u in range(len(texts))],
                              texts + ["x"])
        answers = self.oracle(scripted_server).decide(block)
        for text, answer in zip(texts, answers):
            if text == "fail":
                assert "after 2 attempts" in str(answer)
            elif text == "junk":
                assert isinstance(answer, OracleParseError)
            else:
                assert answer.value == 1
        assert scripted_server.requests == \
            len(texts) + texts.count("fail") * (self.RETRIES - 1)

    def test_a_full_streak_cancels_what_has_not_started(self,
                                                       scripted_server):
        texts = ["fail"] * self.MAX_INFLIGHT + ["ok"] * 40
        block = context_block([(u, len(texts), [u]) for u in range(len(texts))],
                              texts + ["x"])
        answers = self.oracle(scripted_server).decide(block)
        assert len(answers) == len(texts)
        not_sent = [a for a in answers if "not sent" in str(a)]
        # the requests in flight when the streak ended still finish
        answered = [a for a in answers if isinstance(a, OracleDecision)]
        assert not_sent
        assert len(not_sent) == len(texts) - self.MAX_INFLIGHT - len(answered)
        assert scripted_server.requests == \
            self.MAX_INFLIGHT * self.RETRIES + len(answered)


class TestPostWithRetries:
    def patch_post(self, monkeypatch, outcome):
        calls = []

        def post(session, data):
            calls.append(json.loads(data))
            if isinstance(outcome, Exception):
                raise outcome
            return 200, json.dumps(outcome).encode()

        monkeypatch.setattr("coldsim.content.HttpSession.post", post)
        return calls

    def test_programming_error_propagates_at_once(self, monkeypatch):
        calls = self.patch_post(monkeypatch, RuntimeError("adapter bug"))
        oracle = HttpOracle("http://oracle.invalid/simulate", retries=3,
                            backoff=0.0)
        block = context_block([(0, 0, [])], ["anything"])
        with pytest.raises(RuntimeError, match="adapter bug") as info:
            oracle.decide(block)[0]
        assert info.type is RuntimeError
        assert len(calls) == 1

    @pytest.mark.parametrize("doc,chat", [({}, False),
                                          ({"messages": []}, True),
                                          ({"choices": [None]}, True),
                                          ({"other": 1}, True)])
    def test_malformed_body_retried(self, monkeypatch, doc, chat):
        calls = self.patch_post(monkeypatch, doc)
        oracle = HttpOracle("http://oracle.invalid/simulate", retries=2,
                            backoff=0.0, chat=chat)
        block = context_block([(0, 0, [])], ["anything"])
        [error] = oracle.decide(block)
        assert isinstance(error, OracleError)
        assert "after 2 attempts" in str(error)
        assert len(calls) == 2


def refine_setup(seed=0, n_users=12, n_items=8):
    rng = np.random.default_rng(seed)
    filt = make_filter(seed=seed)
    content = rng.normal(size=(n_items, 6))
    titles = [f"thing {i}" for i in range(n_items)]
    train_items = [[int(x) for x in rng.choice(n_items, size=2, replace=False)]
                   for _ in range(n_users)]
    return filt.item_tower.forward(content), titles, train_items


class TestRefine:
    def test_always_no_empties(self):
        vectors, titles, train_items = refine_setup()
        cand = CandidateSet(item=3, users=[0, 1, 2])
        kept, failures = refine(cand, PlantedOracle(set()), vectors,
                                train_items, titles)
        assert kept == [] and failures == 0

    def test_always_yes_keeps_all(self):
        vectors, titles, train_items = refine_setup()
        truth = {(u, 3) for u in range(12)}
        cand = CandidateSet(item=3, users=[5, 1, 9])
        kept, _ = refine(cand, PlantedOracle(truth), vectors,
                         train_items, titles)
        assert kept == [5, 1, 9]

    def test_subset_and_order_preserved(self):
        vectors, titles, train_items = refine_setup(seed=3)
        truth = {(1, 4), (7, 4), (2, 4)}
        cand = CandidateSet(item=4, users=[7, 3, 1, 2, 8])
        kept, _ = refine(cand, PlantedOracle(truth), vectors,
                         train_items, titles)
        assert kept == [7, 1, 2]

    def test_empty_candidates_rejected(self):
        vectors, titles, train_items = refine_setup()
        with pytest.raises(ValueError):
            refine(CandidateSet(item=0, users=[]), PlantedOracle(set()),
                   vectors, train_items, titles)

    def test_planted_clusters_keep_same_cluster_users(self):
        data, split = tiny_cluster_setup(seed=8)
        rng = np.random.default_rng(8)
        filt = make_filter(seed=8)
        content = rng.normal(size=(data.log.n_items, 6))
        train_items = split.index(data.log.n_users).train_items
        item = data.cold_items[0]
        candidates = CandidateSet(item=item, users=list(range(data.log.n_users)))
        kept, _ = refine(candidates, PlantedOracle(data.truth),
                         filt.item_tower.forward(content), train_items,
                         [data.catalog.title(i)
                          for i in range(data.log.n_items)])
        own = {u for u in range(data.log.n_users)
               if data.user_group[u] == data.item_group[item]}
        assert set(kept) == own

    def test_decision_log_and_cache(self):
        vectors, titles, train_items = refine_setup(seed=4)
        truth = {(0, 2)}
        log = DecisionLog()
        cand = CandidateSet(item=2, users=[0, 1])

        calls = {"n": 0}

        class CountingPlanted(PlantedOracle):
            def decide(self, block):
                calls["n"] += len(block)
                return super().decide(block)

        oracle = CountingPlanted(truth)
        refine(cand, oracle, vectors, train_items, titles,
               decision_log=log)
        assert calls["n"] == 2
        assert [r["z"] for r in log.records] == [1, 0]
        # rerun is served from the cache
        refine(cand, oracle, vectors, train_items, titles,
               decision_log=log)
        assert calls["n"] == 2

    def test_log_round_trip(self, tmp_path):
        vectors, titles, train_items = refine_setup(seed=5)
        log = DecisionLog()
        cand = CandidateSet(item=1, users=[0, 2, 4])
        refine(cand, PlantedOracle({(2, 1)}), vectors, train_items,
               titles, decision_log=log)
        log.save(tmp_path / "decisions.jsonl")
        loaded = DecisionLog.load(tmp_path / "decisions.jsonl")
        assert loaded.records == log.records
        first = json.loads((tmp_path / "decisions.jsonl")
                           .read_text().splitlines()[0])
        assert {"user", "item", "z", "raw", "oracle"} <= set(first)

    def test_prompt_hashed_once_per_decision(self, tmp_path, monkeypatch):
        vectors, titles, train_items = refine_setup(seed=6)
        cand = CandidateSet(item=3, users=[4, 0, 7])
        hashed = []
        real_hash = DecisionLog.prompt_hash
        monkeypatch.setattr(DecisionLog, "prompt_hash", staticmethod(
            lambda prompt: hashed.append(prompt) or real_hash(prompt)))
        log = DecisionLog()
        refine(cand, PlantedOracle({(0, 3)}), vectors, train_items, titles,
               decision_log=log)
        assert len(hashed) == len(cand.users)
        # the persisted line layout: sorted keys, ph = sha1 of the prompt
        log.save(tmp_path / "decisions.jsonl")
        expected = []
        for u, prompt in zip(cand.users, hashed):
            ph = hashlib.sha1(prompt.encode("utf-8")).hexdigest()[:16]
            z = int(u == 0)
            expected.append(json.dumps(
                {"user": u, "item": 3, "z": z, "raw": "Yes" if z else "No",
                 "oracle": "planted", "ph": ph},
                sort_keys=True, ensure_ascii=False) + "\n")
        assert (tmp_path / "decisions.jsonl").read_text() == "".join(expected)

    @pytest.mark.parametrize("make_oracle", [
        lambda: PlantedOracle({(1, 2)}),
        lambda: ThresholdOracle(np.random.default_rng(0).normal(size=(8, 6))),
    ])
    def test_in_process_oracle_runs_on_calling_thread(self, make_oracle):
        vectors, titles, train_items = refine_setup(seed=7)
        oracle = make_oracle()
        threads = []
        real_decide = oracle.decide

        def decide(*args, **kwargs):
            threads.append(threading.current_thread())
            return real_decide(*args, **kwargs)

        oracle.decide = decide
        cand = CandidateSet(item=2, users=[1, 5, 3, 0])
        refine(cand, oracle, vectors, train_items, titles)
        # every oracle takes the item's candidates in one call
        assert threads == [threading.current_thread()]

    def test_one_decide_call_per_pass(self):
        vectors, titles, train_items = refine_setup(seed=7)
        calls = []

        class Counting(PlantedOracle):
            def decide(self, block):
                calls.append(list(zip(block.users.tolist(),
                                      block.items.tolist())))
                return super().decide(block)

        sets = [CandidateSet(item=5, users=[1, 3]),
                CandidateSet(item=2, users=[0, 4, 1]),
                CandidateSet(item=7, users=[6])]
        log = DecisionLog()
        results = refine_all(sets, Counting({(3, 5), (4, 2), (6, 7)}),
                             vectors, train_items, titles, decision_log=log)
        assert results == [([3], 0), ([4], 0), ([6], 0)]
        assert calls == [[(1, 5), (3, 5), (0, 2), (4, 2), (1, 2), (6, 7)]]
        assert [(r["user"], r["item"]) for r in log.records] == calls[0]

    def test_dead_middle_item_raises_after_logging_the_rest(self):
        vectors, titles, train_items = refine_setup(seed=7)

        class FailsItem2(PlantedOracle):
            def decide(self, block):
                return [OracleError("down") if item == 2 else answer
                        for item, answer in zip(block.items.tolist(),
                                                super().decide(block))]

        sets = [CandidateSet(item=5, users=[1, 3]),
                CandidateSet(item=2, users=[0, 4, 1]),
                CandidateSet(item=7, users=[6, 0])]
        log = DecisionLog()
        with pytest.raises(OracleError,
                           match=r"^every oracle call failed for item 2$"):
            refine_all(sets, FailsItem2({(3, 5), (6, 7)}), vectors,
                       train_items, titles, decision_log=log)
        # the answers paid for survive, in item order, then candidate order
        assert [(r["user"], r["item"], r["z"]) for r in log.records] == \
            [(1, 5, 0), (3, 5, 1), (6, 7, 1), (0, 7, 0)]

    def test_item_twice_in_one_pass_rejected(self):
        vectors, titles, train_items = refine_setup()
        sets = [CandidateSet(item=3, users=[0]), CandidateSet(item=4, users=[1]),
                CandidateSet(item=3, users=[2])]
        with pytest.raises(ValueError, match=r"items \[3\] more than once"):
            refine_all(sets, PlantedOracle(set()), vectors, train_items,
                       titles)

    def test_partial_failure_counted_over_contexts_asked(self, caplog):
        vectors, titles, train_items = refine_setup(seed=4)
        log = DecisionLog()
        refine(CandidateSet(item=2, users=[0, 1]), PlantedOracle({(0, 2)}),
               vectors, train_items, titles, decision_log=log)

        class FailsUser3(PlantedOracle):
            def decide(self, block):
                return [OracleError("down") if user == 3 else answer
                        for user, answer in zip(block.users.tolist(),
                                                super().decide(block))]

        # users 0 and 1 come from the log: two of four candidates are asked
        caplog.clear()
        with caplog.at_level("WARNING", logger="coldsim.refiner"):
            kept, failures = refine(
                CandidateSet(item=2, users=[0, 3, 1, 5]),
                FailsUser3({(0, 2), (5, 2)}), vectors, train_items, titles,
                decision_log=log)
        assert (kept, failures) == ([0, 5], 1)
        assert "item 2: 1 of 2 oracle calls failed" in caplog.text


class TestDecisionLogLoad:
    def write(self, tmp_path, *records, tail=""):
        path = tmp_path / "decisions.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records) + tail,
                        encoding="utf-8")
        return path

    RECORD = {"user": 1, "item": 2, "z": 1, "raw": "Yes", "oracle": "planted",
              "ph": "0123456789abcdef"}

    def test_truncated_last_line_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path, self.RECORD,
                          tail=json.dumps(self.RECORD)[:26])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}, line 2: not a decision record")):
            DecisionLog.load(path)

    @pytest.mark.parametrize("field", ["user", "item", "z", "raw", "oracle"])
    def test_missing_field_names_file_and_line(self, tmp_path, field):
        broken = {k: v for k, v in self.RECORD.items() if k != field}
        path = self.write(tmp_path, self.RECORD, self.RECORD, broken)
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")
                           + f".*'{field}'"):
            DecisionLog.load(path)

    def test_not_an_object(self, tmp_path):
        path = self.write(tmp_path, [1, 2, 3])
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 1: ")):
            DecisionLog.load(path)

    def test_blank_lines_skipped(self, tmp_path):
        other = {**self.RECORD, "user": 4, "z": 0, "raw": "No"}
        path = tmp_path / "decisions.jsonl"
        path.write_text("\n" + json.dumps(self.RECORD) + "\n  \n\n"
                        + json.dumps(other) + "\n\n", encoding="utf-8")
        log = DecisionLog.load(path)
        assert log.records == [self.RECORD, other]
        assert log.lookup(4, 2, "planted", "0123456789abcdef").value == 0


@settings(max_examples=40, deadline=None)
@given(accept=st.sets(st.integers(0, 11)),
       users=st.lists(st.integers(0, 11), min_size=1, max_size=12,
                      unique=True))
def test_refine_subset_property(accept, users):
    vectors, titles, train_items = refine_setup(seed=9)
    truth = {(u, 6) for u in accept}
    cand = CandidateSet(item=6, users=users)
    kept, _ = refine(cand, PlantedOracle(truth), vectors, train_items,
                     titles)
    assert set(kept) <= set(users)
    assert kept == [u for u in users if u in accept]


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(answers=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                                  st.booleans(), st.text(), st.text()),
                        max_size=8))
@example(answers=[(1, 2, True, "Ja, natürlich \u2028 はい", "«prompt»"),
                  (1, 2, False, "Nein\r\n", "«prompt»")])
def test_decision_log_round_trip_keeps_any_answer(tmp_path, answers):
    # answers and prompts in any script, with line and paragraph separators;
    # a repeated key answers as its last record, before and after the trip
    log = DecisionLog()
    for user, item, yes, raw, prompt in answers:
        log.record(user, item, "http", DecisionLog.prompt_hash(prompt),
                   OracleDecision(value=int(yes), raw=raw))
    log.save(tmp_path / "decisions.jsonl")
    loaded = DecisionLog.load(tmp_path / "decisions.jsonl")
    assert loaded.records == log.records
    for rec in log.records:
        key = (rec["user"], rec["item"], "http", rec["ph"])
        got, want = loaded.lookup(*key), log.lookup(*key)
        assert (got.value, got.raw) == (want.value, want.raw)


def simulate_cfg(**fields):
    """A config whose refiner section holds :class:`SimulateConfig`'s fields."""
    return {"refiner": dataclasses.asdict(SimulateConfig(**fields))}


class TestSimulateForItem:
    """One cold item's simulation out of :func:`pipeline.simulate_all`."""

    def simulate(self, seed, item_index, oracle, **fields):
        data, pipe = label_pipe(seed)
        item = data.cold_items[item_index]
        pipe.oracle = oracle(data, item)
        return pipe, item, pipeline.simulate_all(pipe, simulate_cfg(**fields))[item]

    def test_always_yes_keeps_topk(self):
        _, _, result = self.simulate(
            0, 0, lambda data, item: PlantedOracle(
                {(u, item) for u in range(data.log.n_users)}), k=7)
        assert len(result.users) == 7
        assert not result.fallback_used

    def test_always_no_falls_back_to_top1(self):
        pipe, item, result = self.simulate(
            0, 1, lambda data, item: PlantedOracle(set()), k=5)
        from coldsim.filtering import topk_candidates
        top = topk_candidates(pipe.filter_b, pipe.content_matrix[item],
                              pipe.user_vectors(pipe.filter_b), k=5).users
        assert result.users == top[:1]
        assert result.fallback_used

    def test_fallback_disabled_leaves_cold(self):
        _, _, result = self.simulate(
            0, 0, lambda data, item: PlantedOracle(set()), k=5,
            fallback_to_top1=False)
        assert result.users == []

    def test_size_bounded_by_k(self):
        _, _, result = self.simulate(
            1, 2, lambda data, item: PlantedOracle(
                {(u, item) for u in range(0, data.log.n_users, 2)}), k=20)
        assert len(result.users) <= 20


class TestFinetuneExport:
    def setup_split(self, seed=0):
        data, split = tiny_cluster_setup(seed=seed)
        rng = np.random.default_rng(seed)
        filt = TwoTowerFilter.init("B", 4, 6, hidden=6, out=5, seed=seed)
        content = rng.normal(size=(data.log.n_items, 6))
        return data, split, filt, content

    def test_offline_counts_one_to_one(self):
        data, split, filt, content = self.setup_split()
        records = prepare_finetune_data(split, data.catalog, filt, content,
                                        mode="offline", seed=0, n_positives=10,
                                        n_users=data.log.n_users)
        assert len(records) == 20
        assert sum(1 for r in records if r.completion == "Yes") == 10
        assert sum(1 for r in records if r.completion == "No") == 10

    def test_no_positives_error(self):
        data, split, filt, content = self.setup_split()
        split = dataclasses.replace(split, warm_train=[])
        with pytest.raises(ValueError, match="no positives"):
            prepare_finetune_data(split, data.catalog, filt, content,
                                  n_users=data.log.n_users)

    def test_prompts_carry_fixed_fragment(self):
        data, split, filt, content = self.setup_split(seed=2)
        records = prepare_finetune_data(split, data.catalog, filt, content,
                                        mode="offline", seed=2, n_positives=5,
                                        n_users=data.log.n_users)
        assert all("by answering Yes or No." in r.prompt for r in records)

    def test_jsonl_output(self, tmp_path):
        data, split, filt, content = self.setup_split(seed=3)
        out = tmp_path / "ft.jsonl"
        records = prepare_finetune_data(split, data.catalog, filt, content,
                                        mode="offline", seed=3, n_positives=4,
                                        out_path=out, n_users=data.log.n_users)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == len(records)
        assert lines[0].keys() == {"prompt", "completion"}
        assert [l["completion"] for l in lines] == \
            [r.completion for r in records]

    def test_online_mode_needs_negatives(self):
        data, split, filt, content = self.setup_split()
        with pytest.raises(ValueError, match="negatives"):
            prepare_finetune_data(split, data.catalog, filt, content,
                                  mode="online", n_users=data.log.n_users)

    def test_online_mode_balanced(self):
        data, split, filt, content = self.setup_split(seed=4)
        users = sorted({u for u, _ in split.warm_train})[:5]
        explicit = {(u, split.warm_items[0]) for u in users}
        records = prepare_finetune_data(split, data.catalog, filt, content,
                                        mode="online", seed=4, n_positives=8,
                                        negatives=explicit,
                                        n_users=data.log.n_users)
        n_yes = sum(1 for r in records if r.completion == "Yes")
        assert n_yes == len(records) - n_yes
