"""Raw content vectors for items, served by interchangeable providers.

Three provider kinds:

* ``mock``: deterministic hashed bag-of-tokens vectors, no external service.
* ``file``: precomputed vectors keyed by item id, read from a vector cache.
* ``http``: POST ``{"text": ...}`` to an embedding endpoint and read back
  ``{"vector": [...]}``.

Vectors are cached on disk in the binary table format plus a JSON sidecar
recording provider kind, width, and hash seed.
"""

from __future__ import annotations

import base64
import functools
import json
import logging
import re
import socket
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection, HTTPException, HTTPSConnection
from pathlib import Path
from urllib.parse import unquote, urlsplit
from urllib.request import getproxies, proxy_bypass

import numpy as np

from . import store
from .metrics import row_dots

logger = logging.getLogger(__name__)

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Linux only; without it every connection is closed after its response
_QUICKACK = getattr(socket, "TCP_QUICKACK", None)
# what a reused connection raises when the server closed it while idle
# (http.client.RemoteDisconnected is a ConnectionResetError)
_STALE = (ConnectionResetError, BrokenPipeError, ConnectionAbortedError)


class ProviderError(RuntimeError):
    """Transport failure or malformed response from an embedding service."""


def fnv1a64(data: bytes, seed: int = 0) -> int:
    """Seeded 64-bit FNV-1a; the seed is xor-folded into the offset basis."""
    h = (FNV_OFFSET ^ (seed & _MASK64)) & _MASK64
    for b in data:
        h ^= b
        h = (h * FNV_PRIME) & _MASK64
    return h


@functools.lru_cache(maxsize=1 << 15)
def _bucket(token: str, hash_seed: int, dim: int) -> int:
    # titles share most of their tokens, so each distinct one is hashed once
    return fnv1a64(token.encode("utf-8"), hash_seed) % dim


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def mock_embed(text: str, dim: int = 256, hash_seed: int = 0) -> np.ndarray:
    """Hashed bag-of-tokens vector: mean of token one-hots, L2-normalized.

    Tokens are lowercased alphanumeric runs; each token lands in bucket
    ``fnv1a64(token) % dim``.  The one-row call of :func:`mock_embed_block`.
    """
    return mock_embed_block([text], dim, hash_seed)[0]


def mock_embed_block(texts, dim: int = 256, hash_seed: int = 0) -> np.ndarray:
    """:func:`mock_embed` of each text, one row each: one ``np.add.at`` adds
    every weight in token order, and each row is divided by the square root
    of its BLAS dot, which is ``np.linalg.norm`` of the row bit for bit."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    tokens = [tokenize(text) for text in texts]
    for text, toks in zip(texts, tokens):
        if not toks:
            raise ValueError(f"no tokens after splitting: {text!r}" if text
                             else "cannot embed empty text")
    counts = np.array([len(toks) for toks in tokens], dtype=np.int64)
    flat = [tok for toks in tokens for tok in toks]
    bucket = {tok: _bucket(tok, hash_seed, dim) for tok in set(flat)}
    cols = np.fromiter(map(bucket.__getitem__, flat), dtype=np.int64,
                       count=len(flat))
    vecs = np.zeros((len(texts), dim))
    np.add.at(vecs.reshape(-1), np.repeat(np.arange(len(texts)) * dim, counts)
              + cols, np.repeat(1.0 / counts, counts))
    vecs /= np.sqrt(row_dots(vecs, vecs))[:, None]
    return vecs


class MockContentProvider:
    """In-process provider backed by :func:`mock_embed`."""

    kind = "mock"

    def __init__(self, dim: int = 256, hash_seed: int = 0):
        self.dim = dim
        self.hash_seed = hash_seed

    def embed(self, text: str, key: int | None = None) -> np.ndarray:
        return mock_embed(text, self.dim, self.hash_seed)


class FileContentProvider:
    """Provider serving precomputed vectors keyed by item id."""

    kind = "file"

    def __init__(self, path: str | Path):
        cache = VectorCache.load(path)
        self.dim = cache.dim
        self.hash_seed = cache.hash_seed
        self._vectors = cache.vectors

    def embed(self, text: str, key: int | None = None) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        if key is None or key not in self._vectors:
            raise KeyError(f"unknown item key {key!r} in file provider")
        return self._vectors[key].astype(np.float64)


class HttpContentProvider:
    """Provider that POSTs text to an embedding service.

    Request body is ``{"text": string}``; the response must be 200 with
    body ``{"vector": [floats]}``.  Transport errors and malformed
    responses are retried with exponential backoff, then surfaced as
    :class:`ProviderError`.
    """

    kind = "http"

    def __init__(self, url: str, dim: int | None = None, timeout: float = 30.0,
                 retries: int = 3, backoff: float = 0.5):
        self.dim = dim
        self.hash_seed = None
        self.retries = retries
        self.backoff = backoff
        self._session = HttpSession(url, timeout)

    def _vector(self, doc: dict) -> np.ndarray:
        vec = np.asarray(doc["vector"], dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ProviderError("embed service returned a non-vector")
        if self.dim is None:
            self.dim = vec.size
        elif vec.size != self.dim:
            raise ProviderError(f"vector width changed: {vec.size} != {self.dim}")
        return vec

    def embed(self, text: str, key: int | None = None) -> np.ndarray:
        if not text:
            raise ValueError("cannot embed empty text")
        return post_with_retries(self._session, {"text": text}, self._vector,
                                 ProviderError, "embed service",
                                 retries=self.retries, backoff=self.backoff)


def _close_all(connections: dict) -> None:
    for conn in list(connections.values()):
        conn.close()


class HttpSession:
    """Kept-alive HTTP/1.1 connections to one URL, one per calling thread.

    A pool of N threads so holds at most N connections.  Opening one closes
    those of threads that have ended; the rest are closed when the session
    is collected or the interpreter exits.

    ``TCP_QUICKACK`` is set right after each request is sent: a server that
    writes headers and body in separate packets otherwise holds the body
    (Nagle) until the client's delayed ACK of the headers, 20-40 ms later.
    Without it (not Linux) each connection is closed after its response.
    ``http.client`` itself sets ``TCP_NODELAY`` when it connects.

    Proxies are resolved once, here, with urllib's ``getproxies()`` and
    ``proxy_bypass(netloc)``: an http URL goes to the proxy in absolute
    form, an https URL through a ``CONNECT`` tunnel, and credentials in the
    proxy URL become a Basic ``Proxy-Authorization``.
    """

    def __init__(self, url: str, timeout: float):
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"not an http or https URL: {url!r}")
        self._headers = {"Content-Type": "application/json"}
        self._target = (parts.path or "/") + (f"?{parts.query}"
                                              if parts.query else "")
        scheme, hostport, tunnel = parts.scheme, parts.netloc, None
        proxy = getproxies().get(parts.scheme)
        if proxy and not proxy_bypass(parts.netloc):
            via = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if via.username and via.password:
                creds = f"{unquote(via.username)}:{unquote(via.password)}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    creds.encode()).decode("ascii")
            if scheme == "https":
                tunnel = (hostport, auth)
            else:
                scheme, self._target = via.scheme, url.partition("#")[0]
                self._headers.update(auth)
            hostport = unquote(via.netloc.rpartition("@")[2])
        self._connect = functools.partial(
            HTTPSConnection if scheme == "https" else HTTPConnection,
            hostport, timeout=timeout)
        self._tunnel = tunnel
        self._lock = threading.Lock()
        self._connections: dict[threading.Thread, HTTPConnection] = {}
        weakref.finalize(self, _close_all, self._connections)

    def _connection(self) -> HTTPConnection:
        thread = threading.current_thread()
        conn = self._connections.get(thread)
        if conn is None:
            conn = self._connect()
            if self._tunnel is not None:
                conn.set_tunnel(self._tunnel[0], headers=self._tunnel[1])
            with self._lock:
                for ended in [t for t in self._connections if not t.is_alive()]:
                    self._connections.pop(ended).close()
                self._connections[thread] = conn
        return conn

    def _send(self, conn: HTTPConnection, data: bytes):
        conn.request("POST", self._target, data, self._headers)
        if _QUICKACK is not None:
            conn.sock.setsockopt(socket.IPPROTO_TCP, _QUICKACK, 1)
        return conn.getresponse()

    def post(self, data: bytes) -> tuple[int, bytes]:
        """POST ``data`` as JSON on this thread's connection: (status, body).

        The body is read in full whatever the status, so the connection
        stays reusable.  A reused connection that fails before any answer
        arrives with one of ``_STALE`` was closed by the server while idle:
        the request is sent once more, at once, on a fresh connection.  Any
        other exception closes the connection and propagates.
        """
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                resp = self._send(conn, data)
            except _STALE:
                if not reused:
                    raise
                conn.close()
                resp = self._send(conn, data)
            with resp:
                body = resp.read()
        except BaseException:
            conn.close()
            raise
        if _QUICKACK is None:
            conn.close()
        return resp.status, body

    def reset(self) -> None:
        """Close this thread's connection; its next post connects afresh."""
        conn = self._connections.get(threading.current_thread())
        if conn is not None:
            conn.close()


def post_with_retries(session: HttpSession, body: dict, parse,
                      error: type[Exception], service: str, *, retries: int,
                      backoff: float):
    """POST ``body`` as JSON through ``session``; return ``parse`` of the answer.

    The body is ``json.dumps(body, allow_nan=False)`` encoded as UTF-8.
    Each attempt is one :meth:`HttpSession.post` on the calling thread's
    kept-alive connection; the resend that replaces a stale connection is
    part of that attempt, not another one.

    Transport errors (OSError, which covers timeouts, and HTTPException),
    non-200 answers and malformed bodies (``parse`` or the decoding
    raising ``error``, ValueError, KeyError, IndexError or TypeError) are
    retried up to ``retries`` attempts with exponential backoff, each on a
    fresh connection, then raised as ``error``.  Any other exception
    propagates at once.
    """
    last = None
    for attempt in range(retries):
        try:
            data = json.dumps(body, allow_nan=False).encode("utf-8")
            status, payload = session.post(data)
            if status != 200:
                raise error(f"{service} returned {status}")
            return parse(json.loads(payload))
        except (error, OSError, HTTPException, ValueError, KeyError,
                IndexError, TypeError) as exc:
            last = exc
            session.reset()
        if attempt + 1 < retries:
            time.sleep(backoff * 2 ** attempt)
    raise error(f"{service} failed after {retries} attempts: {last}")


class VectorCache:
    """Item-id keyed float32 vectors with binary-table persistence.

    On disk: the table at ``path`` holds one row per cached item in
    ascending id order; the sidecar ``path.with_suffix('.json')`` records
    provider kind, width, hash seed, and the row-to-item mapping.
    """

    def __init__(self, dim: int, provider_kind: str, hash_seed: int | None = None):
        self.dim = dim
        self.provider_kind = provider_kind
        self.hash_seed = hash_seed
        self.vectors: dict[int, np.ndarray] = {}

    def __contains__(self, item: int) -> bool:
        return item in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def put(self, item: int, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise ValueError(f"vector for item {item} has shape {vec.shape}, "
                             f"cache width is {self.dim}")
        self.vectors[int(item)] = vec

    def matrix(self, n_items: int) -> np.ndarray:
        """Dense (n_items, dim) float64 matrix, one row per item id.

        A cache lacking an item below ``n_items``, or holding one at or
        above it, was built for another catalog: ``ValueError`` names the
        lowest such id.
        """
        stale = sorted(set(range(n_items)).symmetric_difference(self.vectors))
        if stale:
            what = "lacks" if stale[0] < n_items else "holds out-of-range"
            raise ValueError(f"content cache {what} item {stale[0]} for a "
                             f"{n_items}-item catalog; it was built for "
                             f"another catalog")
        mat = np.zeros((n_items, self.dim))
        for i, v in self.vectors.items():
            mat[i] = v
        return mat

    def save(self, path: str | Path) -> None:
        path = Path(path)
        items = sorted(self.vectors)
        table = (np.stack([self.vectors[i] for i in items])
                 if items else np.zeros((0, self.dim), dtype=np.float32))
        store.save_table(path, table)
        sidecar = {"kind": self.provider_kind, "dim": self.dim,
                   "hash_seed": self.hash_seed, "items": items}
        store.write_atomic(path.with_suffix(".json"),
                           json.dumps(sidecar, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "VectorCache":
        path = Path(path)
        with open(path.with_suffix(".json"), encoding="utf-8") as fh:
            sidecar = json.load(fh)
        cache = cls(dim=int(sidecar["dim"]), provider_kind=sidecar["kind"],
                    hash_seed=sidecar["hash_seed"])
        items = sidecar["items"]
        table = store.load_table(path, (len(items), cache.dim))
        for row, item in zip(table, items):
            cache.vectors[int(item)] = row
        return cache


def warm_cache(provider, catalog, cache_path: str | Path,
               max_inflight: int = 8) -> VectorCache:
    """Ensure every catalog item has a cached vector; resumes partial caches.

    Already-cached items are not re-fetched, so a rerun over a complete
    cache issues zero provider calls.  Fetches run on up to ``max_inflight``
    threads; rows are written back in ascending item id order regardless of
    completion order.  A cache of another width than the provider's holds
    no vector to keep, so it is rebuilt.  Any other cache built by another
    provider kind or hash seed, or holding an item the catalog lacks,
    raises ValueError naming the cache before any provider call.
    """
    cache_path = Path(cache_path)
    cache = VectorCache.load(cache_path) if cache_path.exists() else None
    if cache is not None and provider.dim not in (None, cache.dim):
        logger.info("rebuilding %s at width %d", cache_path, provider.dim)
        cache = None
    if cache is not None:
        if cache.provider_kind != provider.kind:
            raise ValueError(f"cache at {cache_path} was built by provider "
                             f"{cache.provider_kind!r}, not {provider.kind!r}")
        seed = getattr(provider, "hash_seed", None)
        if cache.hash_seed != seed:
            raise ValueError(f"cache at {cache_path} was built with hash seed "
                             f"{cache.hash_seed}, not {seed}")
        foreign = sorted(set(cache.vectors).difference(catalog.content))
        if foreign:
            raise ValueError(f"cache at {cache_path} holds item {foreign[0]}, "
                             f"which the catalog lacks; it was built for "
                             f"another catalog")
    else:
        cache = VectorCache(dim=provider.dim, provider_kind=provider.kind,
                            hash_seed=getattr(provider, "hash_seed", None))
        if cache.dim is None:
            if not catalog.content:
                raise ValueError("cannot size a cache from an empty catalog "
                                 "and a width-agnostic provider")
            first = min(catalog.content)   # its vector sizes the cache
            probe = provider.embed(catalog.content[first], key=first)
            cache.dim = probe.size
            cache.put(first, probe)

    missing = sorted(i for i in catalog.content if i not in cache)
    if missing:
        def fetch(item):
            return item, provider.embed(catalog.content[item], key=item)

        try:
            with ThreadPoolExecutor(max_workers=max(1, max_inflight)) as pool:
                for item, vec in pool.map(fetch, missing):
                    cache.put(item, vec)
        except Exception:
            cache.save(cache_path)  # keep partial progress for the next resume
            raise
        logger.info("cached %d new content vectors (%d total)",
                    len(missing), len(cache))
    cache.save(cache_path)
    return cache
