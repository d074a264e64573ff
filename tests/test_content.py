import json
import re
import threading
from http.server import BaseHTTPRequestHandler

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coldsim import pipeline
from coldsim.config import default_config, resolve_seeds
from coldsim.content import (FileContentProvider, HttpContentProvider,
                             MockContentProvider, ProviderError, VectorCache,
                             fnv1a64, mock_embed, mock_embed_block, warm_cache)
from coldsim.corpus import ItemCatalog
from coldsim.refiner import PlantedOracle
from coldsim.synthetic import make_planted_split, make_two_cluster_dataset
from conftest import http_server


class TestMockEmbed:
    def test_single_token_unit_one_hot(self):
        vec = mock_embed("hello", dim=32)
        bucket = fnv1a64(b"hello") % 32
        expected = np.zeros(32)
        expected[bucket] = 1.0
        assert np.array_equal(vec, expected)

    def test_repeated_token_weights(self):
        vec = mock_embed("a a b", dim=64)
        ba, bb = fnv1a64(b"a") % 64, fnv1a64(b"b") % 64
        raw = np.zeros(64)
        raw[ba] += 2 / 3
        raw[bb] += 1 / 3
        assert np.allclose(vec, raw / np.linalg.norm(raw))

    def test_two_token_mean(self):
        # construction check: mean of the two one-hots, then normalized
        vec = mock_embed("deep learning", dim=64)
        b1, b2 = fnv1a64(b"deep") % 64, fnv1a64(b"learning") % 64
        raw = np.zeros(64)
        raw[b1] += 0.5
        raw[b2] += 0.5
        assert np.allclose(vec, raw / np.linalg.norm(raw))

    def test_order_invariant(self):
        assert np.array_equal(mock_embed("alpha beta gamma", dim=128),
                              mock_embed("gamma alpha beta", dim=128))

    def test_no_tokens(self):
        with pytest.raises(ValueError, match="no tokens"):
            mock_embed("!!!", dim=16)

    @pytest.mark.parametrize("hash_seed", [0, 7])
    @pytest.mark.parametrize("dim", [16, 256])
    def test_memoised_buckets_equal_uncached_hashing(self, hash_seed, dim):
        texts = ["graph graph neural nets", "neural graph recommender",
                 "Graph-Neural graph", "nets nets nets"]
        for _ in range(2):  # the second pass is served from the cache
            for text in texts:
                tokens = re.findall(r"[a-z0-9]+", text.lower())
                raw = np.zeros(dim)
                for tok in tokens:
                    raw[fnv1a64(tok.encode("utf-8"), hash_seed) % dim] += 1 / len(tokens)
                assert np.array_equal(mock_embed(text, dim, hash_seed),
                                      raw / np.linalg.norm(raw))

    def test_hash_seed_changes_buckets(self):
        assert not np.array_equal(mock_embed("word", 256, hash_seed=0),
                                  mock_embed("word", 256, hash_seed=1))

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=500),
                   min_size=1))
    def test_unit_norm_property(self, text):
        try:
            vec = mock_embed(text, dim=64)
        except ValueError:
            return  # texts with no alphanumeric runs are rejected
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)


def loop_embed(text, dim, hash_seed):
    """The one-text loop the block replaced: each token's weight added in
    token order, then a division by ``np.linalg.norm``."""
    tokens = re.findall(r"[a-z0-9]+", text.lower())
    vec = np.zeros(dim)
    for tok in tokens:
        vec[fnv1a64(tok.encode("utf-8"), hash_seed) % dim] += 1.0 / len(tokens)
    return vec / np.linalg.norm(vec)


BLOCK_TEXTS = [
    "graph graph graph neural",         # a repeated token
    "solo",                             # one token
    "Caf\u00e9 na\u00efve \u00fcber \u6771\u4eac 2024",  # non-ASCII splits tokens
    "a b c d e f g h i j k l m n o p q r s t u v w x y z 0 1 2 3",
    "solo",                             # a text given twice
    "Deep-Learning, deep learning; DEEP learning!",
]


class TestMockEmbedBlock:
    @pytest.mark.parametrize("hash_seed", [0, 7, 2**64 + 3])
    @pytest.mark.parametrize("dim", [1, 3, 16, 256])
    def test_rows_equal_one_text_calls_and_the_loop(self, dim, hash_seed):
        block = mock_embed_block(BLOCK_TEXTS, dim, hash_seed)
        assert block.shape == (len(BLOCK_TEXTS), dim)
        for text, row in zip(BLOCK_TEXTS, block):
            assert row.tobytes() == mock_embed(text, dim, hash_seed).tobytes()
            assert row.tobytes() == loop_embed(text, dim, hash_seed).tobytes()
        # a row's bits do not depend on the other texts of its block
        assert mock_embed_block(BLOCK_TEXTS[::-1], dim, hash_seed)[::-1] \
            .tobytes() == block.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(texts=st.lists(st.text(alphabet="ab c\u00e9D1-", min_size=1)
                          .filter(lambda t: re.search(r"[a-z0-9]", t.lower())),
                          max_size=8),
           dim=st.sampled_from([1, 2, 5, 64]), hash_seed=st.integers(0, 3))
    def test_block_equals_loop_property(self, texts, dim, hash_seed):
        block = mock_embed_block(texts, dim, hash_seed)
        assert block.shape == (len(texts), dim)
        for text, row in zip(texts, block):
            assert row.tobytes() == loop_embed(text, dim, hash_seed).tobytes()

    def test_kept_errors(self):
        with pytest.raises(ValueError, match="^cannot embed empty text$"):
            mock_embed("")
        with pytest.raises(ValueError, match="^cannot embed empty text$"):
            MockContentProvider(dim=8).embed("")
        with pytest.raises(ValueError, match="^cannot embed empty text$"):
            mock_embed_block(["fine", ""], 8)
        with pytest.raises(ValueError, match="^no tokens after splitting: '!!!'$"):
            mock_embed_block(["fine", "!!!"], 8)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            mock_embed_block(["fine"], 0)


def tiny_pipeline_inputs():
    data = make_two_cluster_dataset(n_users=20, n_warm=8, n_cold=2,
                                    groups_per_cluster=1, seed=4)
    cfg = default_config()
    cfg["backbone"].update({"dim": 4, "max_epochs": 1, "eval_users": 10})
    cfg["content"].update({"dim": 8})
    cfg["filter"].update({"hidden": 4, "out": 4, "max_epochs": 1,
                          "label_pairs": 10, "eval_users": 10})
    cfg["refiner"].update({"oracle": "planted"})
    return data, make_planted_split(data, seed=4), resolve_seeds(cfg, 4)


class TestBuildPipelineContent:
    def test_content_matrix_is_the_float32_cache_of_each_text(self):
        data, split, cfg = tiny_pipeline_inputs()
        pipe = pipeline.build_pipeline(data.log, data.catalog, split, cfg,
                                       oracle=PlantedOracle(data.truth))
        provider = MockContentProvider(dim=8, hash_seed=cfg["content"]["hash_seed"])
        want = np.stack([provider.embed(data.catalog.content[i]).astype(np.float32)
                         for i in range(data.log.n_items)]).astype(np.float64)
        assert pipe.content_matrix.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text,error", [
        ("", "^cannot embed empty text$"),
        ("?!", "^no tokens after splitting: '\\?!'$")])
    def test_unembeddable_item_text_is_rejected(self, text, error):
        data, split, cfg = tiny_pipeline_inputs()
        catalog = ItemCatalog(content={**data.catalog.content, 3: text})
        with pytest.raises(ValueError, match=error):
            pipeline.build_pipeline(data.log, catalog, split, cfg,
                                    oracle=PlantedOracle(data.truth))

    def test_catalog_with_ids_not_dense_is_rejected(self):
        data, split, cfg = tiny_pipeline_inputs()
        content = dict(data.catalog.content)
        content[data.log.n_items] = content.pop(1)
        with pytest.raises(ValueError, match="lacks item 1 .*another catalog"):
            pipeline.build_pipeline(data.log, ItemCatalog(content=content),
                                    split, cfg, oracle=PlantedOracle(data.truth))


class TestEmbedContent:
    def test_mock_deterministic(self):
        provider = MockContentProvider(dim=64)
        a = provider.embed("deep learning")
        b = provider.embed("deep learning")
        assert np.array_equal(a, b)

    def test_empty_text(self):
        with pytest.raises(ValueError):
            MockContentProvider(dim=8).embed("")

    def test_file_provider_round_trip(self, tmp_path):
        cache = VectorCache(dim=16, provider_kind="mock", hash_seed=0)
        cache.put(3, mock_embed("three", 16))
        cache.save(tmp_path / "vecs.cemb")
        provider = FileContentProvider(tmp_path / "vecs.cemb")
        got = provider.embed("ignored text", key=3)
        assert np.array_equal(got.astype(np.float32), cache.vectors[3])

    def test_file_provider_refuses_empty_text(self, tmp_path):
        cache = VectorCache(dim=16, provider_kind="mock", hash_seed=0)
        cache.put(3, mock_embed("three", 16))
        cache.save(tmp_path / "vecs.cemb")
        provider = FileContentProvider(tmp_path / "vecs.cemb")
        with pytest.raises(ValueError, match="^cannot embed empty text$"):
            provider.embed("", key=3)

    def test_http_provider_refuses_empty_text_before_any_request(
            self, monkeypatch):
        provider = HttpContentProvider("http://127.0.0.1:9/embed", timeout=1)
        sent = []
        monkeypatch.setattr(provider._session, "post", sent.append)
        with pytest.raises(ValueError, match="^cannot embed empty text$"):
            provider.embed("")
        assert sent == []

    def test_file_provider_unknown_key(self, tmp_path):
        cache = VectorCache(dim=4, provider_kind="mock")
        cache.put(0, np.ones(4))
        cache.save(tmp_path / "vecs.cemb")
        provider = FileContentProvider(tmp_path / "vecs.cemb")
        with pytest.raises(KeyError, match="unknown item key"):
            provider.embed("text", key=99)


class _EmbedHandler(BaseHTTPRequestHandler):
    fail_first = 0

    def do_POST(self):
        cls = type(self)
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.fail_first > 0:
            cls.fail_first -= 1
            self.send_response(500)
            self.end_headers()
            return
        text = body["text"]
        vec = mock_embed(text, dim=8).tolist()
        payload = json.dumps({"vector": vec}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_server():
    with http_server(_EmbedHandler) as server:
        yield f"{server.base_url}/embed"


class TestHttpProvider:
    def test_round_trip(self, embed_server):
        provider = HttpContentProvider(embed_server, timeout=5)
        vec = provider.embed("deep learning")
        assert np.allclose(vec, mock_embed("deep learning", dim=8))
        assert provider.dim == 8

    def test_retry_then_success(self, embed_server):
        _EmbedHandler.fail_first = 2
        provider = HttpContentProvider(embed_server, timeout=5, retries=3,
                                       backoff=0.01)
        vec = provider.embed("retry me")
        assert vec.shape == (8,)

    def test_surfaced_after_retries(self, embed_server):
        _EmbedHandler.fail_first = 10
        provider = HttpContentProvider(embed_server, timeout=5, retries=3,
                                       backoff=0.01)
        with pytest.raises(ProviderError, match="after 3 attempts"):
            provider.embed("always failing")
        _EmbedHandler.fail_first = 0

    def test_unreachable(self):
        provider = HttpContentProvider("http://127.0.0.1:1/embed", timeout=0.2,
                                       retries=2, backoff=0.01)
        with pytest.raises(ProviderError):
            provider.embed("x")


class TestProviderPostErrors:
    def test_programming_error_propagates_at_once(self, monkeypatch):
        calls = []

        def post(session, data):
            calls.append(json.loads(data))
            raise RuntimeError("adapter bug")

        monkeypatch.setattr("coldsim.content.HttpSession.post", post)
        provider = HttpContentProvider("http://embed.invalid/embed",
                                       retries=3, backoff=0.0)
        with pytest.raises(RuntimeError, match="adapter bug") as info:
            provider.embed("x")
        assert info.type is RuntimeError
        assert calls == [{"text": "x"}]


def replying_provider(monkeypatch, vectors):
    """An HTTP provider, one attempt per call, whose service answers
    ``{"vector": v}`` for each of ``vectors`` in turn."""
    replies = iter(vectors)
    monkeypatch.setattr("coldsim.content.HttpSession.post", lambda session, data: (
        200, json.dumps({"vector": next(replies)}).encode()))
    return HttpContentProvider("http://embed.invalid/embed", retries=1,
                               backoff=0.0)


class TestProviderAnswers:
    @pytest.mark.parametrize("vector", [[], [[1.0, 2.0]], 3.0])
    def test_non_vector_named(self, monkeypatch, vector):
        provider = replying_provider(monkeypatch, [vector])
        with pytest.raises(ProviderError,
                           match="embed service returned a non-vector$"):
            provider.embed("x")
        assert provider.dim is None

    def test_changed_width_named(self, monkeypatch):
        provider = replying_provider(monkeypatch, [[1.0, 2.0], [1.0, 2.0, 3.0]])
        assert provider.embed("x").tolist() == [1.0, 2.0]
        with pytest.raises(ProviderError,
                           match=r"vector width changed: 3 != 2$"):
            provider.embed("y")


class CountingProvider(MockContentProvider):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def embed(self, text, key=None):
        self.calls += 1
        return super().embed(text, key=key)


class KeyRecordingProvider:
    """A width-agnostic provider (16-wide mock vectors) recording each key."""

    kind, dim = "http", None

    def __init__(self):
        self.keys = []

    def embed(self, text, key=None):
        self.keys.append(key)
        return mock_embed(text, 16)


class TestWarmCache:
    def make_catalog(self, n=10):
        return ItemCatalog(content={i: f"item number {i}" for i in range(n)})

    def test_empty_catalog(self, tmp_path):
        provider = MockContentProvider(dim=8)
        cache = warm_cache(provider, ItemCatalog(content={}),
                           tmp_path / "c.cemb")
        assert len(cache) == 0
        assert (tmp_path / "c.cemb").exists()

    def test_empty_catalog_cannot_size_a_width_agnostic_cache(self, tmp_path):
        provider = KeyRecordingProvider()
        with pytest.raises(ValueError, match="^cannot size a cache from an "
                                             "empty catalog"):
            warm_cache(provider, ItemCatalog(content={}), tmp_path / "c.cemb")
        assert provider.keys == [] and not (tmp_path / "c.cemb").exists()

    def test_failed_call_saves_the_vectors_before_it(self, tmp_path):
        # one call at a time: the items before the failing one are cached,
        # and the resume embeds only the rest; the one worker may start
        # item 6 before the failure cancels it, and its vector is kept too
        catalog = self.make_catalog(8)

        class FailingProvider(KeyRecordingProvider):
            kind, dim, hash_seed = "mock", 16, 0     # CountingProvider's

            def embed(self, text, key=None):
                if key == 5:
                    raise ProviderError("embed service failed after 3 attempts")
                return super().embed(text, key=key)

        failing = FailingProvider()
        with pytest.raises(ProviderError, match="after 3 attempts"):
            warm_cache(failing, catalog, tmp_path / "c.cemb", max_inflight=1)
        saved = sorted(VectorCache.load(tmp_path / "c.cemb").vectors)
        assert saved == sorted(failing.keys) and saved[:5] == [0, 1, 2, 3, 4]
        provider = CountingProvider(dim=16)
        cache = warm_cache(provider, catalog, tmp_path / "c.cemb")
        assert provider.calls == 8 - len(saved) and len(cache) == 8

    def test_failed_call_keeps_every_vector_that_came_back(self, tmp_path):
        # item 5 fails only once items 6 and 7 have returned: their vectors
        # were paid for, so they are saved, and the resume skips them
        catalog = self.make_catalog(40)
        later = {6: threading.Event(), 7: threading.Event()}

        class LateFailingProvider(KeyRecordingProvider):
            kind, dim = "mock", 16

            def embed(self, text, key=None):
                if key == 5:
                    assert all(e.wait(10) for e in later.values())
                    raise ProviderError("embed service failed after 3 attempts")
                vec = super().embed(text, key=key)
                if key in later:
                    later[key].set()
                return vec

        failing = LateFailingProvider()
        with pytest.raises(ProviderError, match="after 3 attempts"):
            warm_cache(failing, catalog, tmp_path / "c.cemb", max_inflight=8)
        saved = VectorCache.load(tmp_path / "c.cemb").vectors
        assert sorted(saved) == sorted(failing.keys)
        assert {0, 1, 2, 3, 4, 6, 7} <= set(saved) and 5 not in saved
        for item, vec in saved.items():
            assert np.array_equal(vec, mock_embed(catalog.content[item], 16)
                                  .astype(np.float32))
        resumed = KeyRecordingProvider()
        resumed.kind, resumed.dim = "mock", 16
        cache = warm_cache(resumed, catalog, tmp_path / "c.cemb")
        assert sorted(resumed.keys) == sorted(set(range(40)) - set(saved))
        assert len(cache) == 40

    def test_first_failure_in_item_order_is_raised(self, tmp_path):
        # item 9 fails first in time, item 3 after it: item 3's error is raised
        nine_failed = threading.Event()

        class TwoFailures(KeyRecordingProvider):
            kind, dim = "mock", 16

            def embed(self, text, key=None):
                if key == 3:
                    assert nine_failed.wait(10)
                    raise ProviderError("item 3 failed")
                if key == 9:
                    nine_failed.set()
                    raise ProviderError("item 9 failed")
                return super().embed(text, key=key)

        provider = TwoFailures()
        with pytest.raises(ProviderError, match="^item 3 failed$"):
            warm_cache(provider, self.make_catalog(12), tmp_path / "c.cemb",
                       max_inflight=12)
        assert sorted(VectorCache.load(tmp_path / "c.cemb").vectors) == \
            sorted(provider.keys)

    def test_matches_direct_calls(self, tmp_path):
        provider = MockContentProvider(dim=32)
        catalog = self.make_catalog(10)
        cache = warm_cache(provider, catalog, tmp_path / "c.cemb")
        assert len(cache) == 10
        for i, text in catalog.content.items():
            direct = mock_embed(text, 32).astype(np.float32)
            assert np.array_equal(cache.vectors[i], direct)

    def test_rerun_hits_cache(self, tmp_path):
        catalog = self.make_catalog(6)
        provider = CountingProvider(dim=16)
        warm_cache(provider, catalog, tmp_path / "c.cemb")
        assert provider.calls == 6
        provider.calls = 0
        warm_cache(provider, catalog, tmp_path / "c.cemb")
        assert provider.calls == 0

    def test_partial_cache_resumes(self, tmp_path):
        catalog = self.make_catalog(8)
        provider = CountingProvider(dim=16)
        partial = VectorCache(dim=16, provider_kind="mock", hash_seed=0)
        for i in range(3):
            partial.put(i, mock_embed(catalog.content[i], 16))
        partial.save(tmp_path / "c.cemb")
        warm_cache(provider, catalog, tmp_path / "c.cemb")
        assert provider.calls == 5
        assert len(VectorCache.load(tmp_path / "c.cemb")) == 8

    def test_provider_mismatch_rejected(self, tmp_path):
        catalog = self.make_catalog(2)
        warm_cache(MockContentProvider(dim=8), catalog, tmp_path / "c.cemb")
        with pytest.raises(ValueError, match="provider"):
            warm_cache(HttpContentProvider("http://x/embed", dim=8), catalog,
                       tmp_path / "c.cemb")

    def test_other_hash_seed_rejected_before_any_call(self, tmp_path):
        catalog = self.make_catalog(4)
        path = tmp_path / "c.cemb"
        warm_cache(MockContentProvider(dim=8, hash_seed=0), catalog, path)
        before = path.read_bytes()
        provider = CountingProvider(dim=8, hash_seed=1)
        with pytest.raises(ValueError,
                           match=re.escape(f"{path} was built with hash seed 0, not 1")):
            warm_cache(provider, catalog, path)
        assert provider.calls == 0
        assert path.read_bytes() == before

    def test_larger_catalog_cache_rejected_before_any_call(self, tmp_path):
        path = tmp_path / "c.cemb"
        warm_cache(MockContentProvider(dim=8), self.make_catalog(5), path)
        provider = CountingProvider(dim=8)
        with pytest.raises(ValueError, match=re.escape(f"{path} holds item 3,")):
            warm_cache(provider, self.make_catalog(3), path)
        assert provider.calls == 0
        assert len(VectorCache.load(path)) == 5

    def test_width_agnostic_provider_embeds_each_item_once(self, tmp_path):
        # the vector that sizes the cache is kept, not fetched again
        provider = KeyRecordingProvider()
        cache = warm_cache(provider, self.make_catalog(3), tmp_path / "c.cemb",
                           max_inflight=1)
        assert provider.keys == [0, 1, 2]
        assert cache.dim == 16
        for i, text in self.make_catalog(3).content.items():
            assert np.array_equal(cache.vectors[i],
                                  mock_embed(text, 16).astype(np.float32))

    def test_cache_of_another_width_is_rebuilt(self, tmp_path):
        # no vector of another width can be kept, so a rerun after a
        # change of width embeds every item again
        catalog = self.make_catalog(4)
        path = tmp_path / "c.cemb"
        warm_cache(MockContentProvider(dim=8), catalog, path)
        provider = CountingProvider(dim=16)
        warm_cache(provider, catalog, path)
        assert provider.calls == 4
        assert VectorCache.load(path).dim == 16
        fresh = tmp_path / "fresh.cemb"
        warm_cache(MockContentProvider(dim=16), catalog, fresh)
        assert path.read_bytes() == fresh.read_bytes()

    def test_sidecar_records_provenance(self, tmp_path):
        provider = MockContentProvider(dim=24, hash_seed=5)
        warm_cache(provider, self.make_catalog(3), tmp_path / "c.cemb")
        sidecar = json.loads((tmp_path / "c.json").read_text())
        assert sidecar == {"kind": "mock", "dim": 24, "hash_seed": 5,
                           "items": [0, 1, 2]}


class TestVectorCache:
    def test_bit_identical_hit(self, tmp_path):
        cache = VectorCache(dim=8, provider_kind="mock")
        vec = mock_embed("stable bits", 8).astype(np.float32)
        cache.put(4, vec)
        cache.save(tmp_path / "c.cemb")
        loaded = VectorCache.load(tmp_path / "c.cemb")
        assert loaded.vectors[4].tobytes() == vec.tobytes()

    def test_width_enforced(self):
        cache = VectorCache(dim=8, provider_kind="mock")
        with pytest.raises(ValueError, match="width"):
            cache.put(0, np.ones(9))

    def test_matrix_rejects_stale_cache(self):
        # a cache lacking a catalog item, or holding one past its end, was
        # built for another catalog
        cache = VectorCache(dim=4, provider_kind="mock")
        for i in (0, 2, 3):
            cache.put(i, np.full(4, float(i)))
        with pytest.raises(ValueError, match="lacks item 1 "):
            cache.matrix(4)
        cache.put(1, np.ones(4))
        with pytest.raises(ValueError, match="out-of-range item 2 "):
            cache.matrix(2)
        mat = cache.matrix(4)
        assert [row[0] for row in mat] == [0.0, 1.0, 2.0, 3.0]
