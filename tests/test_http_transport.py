"""``content.post_with_retries`` against a real local HTTP server.

The server records what arrives on the wire and answers with a scripted
status, so the request bytes and the retry contract are checked end to
end, through both clients of the helper.
"""

import ast
import base64
import json
import os
import socket
import statistics
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import coldsim
from coldsim.content import HttpContentProvider, HttpSession, warm_cache
from coldsim.corpus import ItemCatalog
from coldsim.refiner import HttpOracle, OracleError, render_prompt
from conftest import context_block, http_server

SRC = Path(coldsim.__file__).resolve().parent
_NETWORK_MODULES = {"http.client", "socket", "urllib.request"}


def wire_bytes(body):
    return json.dumps(body, allow_nan=False).encode("utf-8")


class _RecordingHandler(BaseHTTPRequestHandler):
    """Records each request; answers ``server.status`` with ``server.doc``.

    A ``server.status`` of None closes the connection without answering.
    """

    def do_POST(self):
        data = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.command,
                                 self.headers["Content-Type"], data))
        if self.server.status is None:
            return
        payload = json.dumps(self.server.doc).encode()
        self.send_response(self.server.status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    with http_server(_RecordingHandler) as srv:
        srv.seen, srv.status, srv.doc = [], 200, {}
        srv.url = f"{srv.base_url}/endpoint"
        yield srv


def ask(oracle, item_text="a paper title"):
    block = context_block([(0, 1, [3])], ["", item_text, "", "an old title"])
    return block, oracle.decide(block)[0]


class TestWireBytes:
    @pytest.mark.parametrize("title", ["a paper title", "Über α-Zerfall"])
    def test_oracle_plain(self, server, title):
        server.doc = {"answer": "Yes"}
        block, decision = ask(HttpOracle(server.url, timeout=5), title)
        assert decision.value == 1
        body = {"prompt": render_prompt(block, 0)}
        assert server.seen == [("POST", "application/json", wire_bytes(body))]

    def test_oracle_chat(self, server):
        server.doc = {"messages": [{"role": "assistant", "content": "No"}]}
        block, decision = ask(HttpOracle(server.url, timeout=5, chat=True))
        assert decision.value == 0
        body = {"messages": [{"role": "user",
                              "content": render_prompt(block, 0)}]}
        assert server.seen == [("POST", "application/json", wire_bytes(body))]

    def test_provider(self, server):
        server.doc = {"vector": [0.5, -1.0, 2.0]}
        vec = HttpContentProvider(server.url, timeout=5).embed("deep nets")
        assert vec.tolist() == [0.5, -1.0, 2.0]
        assert server.seen == [("POST", "application/json",
                                wire_bytes({"text": "deep nets"}))]


class TestRetries:
    @pytest.mark.parametrize("status", [202, 500])
    def test_non_200_retried_then_raised(self, server, status):
        server.status, server.doc = status, {"answer": "Yes"}
        oracle = HttpOracle(server.url, timeout=5, retries=3, backoff=0.0)
        _, error = ask(oracle)
        assert isinstance(error, OracleError)
        assert f"after 3 attempts: oracle returned {status}" in str(error)
        assert len(server.seen) == 3

    def test_closed_without_answer_is_transport_error(self, server):
        server.status = None
        oracle = HttpOracle(server.url, timeout=5, retries=3, backoff=0.0)
        # http.client.RemoteDisconnected: an HTTPException and an OSError
        _, error = ask(oracle)
        assert isinstance(error, OracleError)
        assert ("after 3 attempts: Remote end closed connection without "
                "response") in str(error)
        assert len(server.seen) == 3


class _ProxyHandler(BaseHTTPRequestHandler):
    """Records each request line and its ``Proxy-Authorization`` header.

    A POST is answered Yes, as the origin would; a CONNECT is refused with
    502, so an https request ends at the tunnel.
    """

    def _record(self):
        self.server.seen.append((self.requestline,
                                 self.headers["Proxy-Authorization"]))

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._record()
        payload = json.dumps({"answer": "Yes"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):
        self._record()
        self.send_response(502)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def proxy():
    with http_server(_ProxyHandler) as srv:
        srv.seen = []
        srv.netloc = f"127.0.0.1:{srv.server_address[1]}"
        yield srv


# proxy settings are read from the environment a process starts with, so
# each case asks one question from a fresh interpreter
_ASK_ONCE = """
import sys
import numpy as np
from coldsim.refiner import ContextBlock, HttpOracle
block = ContextBlock(users=np.array([0]), items=np.array([1]),
                     hist=np.full((1, 1), -1), titles=["", "a title"])
print(HttpOracle(sys.argv[1], timeout=5, retries=1).decide(block)[0])
"""


def ask_in_fresh_process(url, **proxy_env):
    env = {k: v for k, v in os.environ.items()
           if not k.lower().endswith("_proxy")}
    env.update(proxy_env)
    src = str(Path(coldsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _ASK_ONCE, url], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestProxies:
    def test_http_goes_to_the_proxy_in_absolute_form(self, server, proxy):
        answer = ask_in_fresh_process(
            server.url, http_proxy=f"http://alice:s%20cret@{proxy.netloc}")
        assert "value=1" in answer
        creds = base64.b64encode(b"alice:s cret").decode("ascii")
        assert proxy.seen == [(f"POST {server.url} HTTP/1.1",
                               f"Basic {creds}")]
        assert server.seen == []

    def test_no_proxy_covers_the_host(self, server, proxy):
        server.doc = {"answer": "Yes"}
        answer = ask_in_fresh_process(server.url,
                                      http_proxy=f"http://{proxy.netloc}",
                                      no_proxy="127.0.0.1")
        assert "value=1" in answer
        assert len(server.seen) == 1
        assert proxy.seen == []

    def test_https_tunnels_through_the_proxy(self, server, proxy):
        target = server.url.replace("http://", "https://")
        answer = ask_in_fresh_process(
            target, https_proxy=f"http://alice:s%20cret@{proxy.netloc}")
        # the proxy refuses the tunnel, so the one attempt fails
        assert "after 1 attempts" in answer and "502" in answer
        creds = base64.b64encode(b"alice:s cret").decode("ascii")
        netloc = target.split("/")[2]
        [(line, auth)] = proxy.seen
        assert line.startswith(f"CONNECT {netloc} HTTP/")
        assert auth == f"Basic {creds}"
        assert server.seen == []


class _KeepAliveServer(ThreadingHTTPServer):
    """Counts accepted connections, and notes when it closes one."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self.lock = threading.Lock()
        self.connections, self.seen = 0, []
        self.closed = threading.Event()
        self.close_idle = False     # drop each connection after one answer
        self.answered = None        # answer only this many requests at once
        self.stall_s = 0.0          # and the rest after this delay
        self.status = 200
        self.doc = {"answer": "Yes", "vector": [1.0]}

    def process_request(self, request, client_address):
        with self.lock:
            self.connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.closed.set()


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 with keep-alive.  The headers and the body go out in
    separate sends, as the benchmark's oracle stub writes them."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        srv = self.server
        data = self.rfile.read(int(self.headers["Content-Length"]))
        with srv.lock:
            srv.seen.append(data)
            late = srv.answered is not None and len(srv.seen) > srv.answered
        if late:
            time.sleep(srv.stall_s)
        payload = json.dumps(srv.doc).encode()
        try:
            self.send_response(srv.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except OSError:     # the client gave up on a late answer
            return
        # closing without a "Connection: close" leaves the client a stale one
        self.close_connection = srv.close_idle

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive():
    with http_server(_KeepAliveHandler, _KeepAliveServer) as srv:
        srv.url = f"{srv.base_url}/decide"
        yield srv


def contexts(n):
    """A block of ``n`` rows of query item ``n``, each with its own context."""
    return context_block([(u, n, [u]) for u in range(n)],
                         [f"old title {u}" for u in range(n)]
                         + ["a paper title"])


class TestKeptAlive:
    def test_one_connection_per_pool_thread(self, keepalive):
        oracle = HttpOracle(keepalive.url, timeout=5, max_inflight=2)
        answers = oracle.decide(contexts(50))
        assert [a.value for a in answers] == [1] * 50
        assert len(keepalive.seen) == 50
        assert 1 <= keepalive.connections <= 2

    def test_split_header_and_body_do_not_stall(self, keepalive):
        provider = HttpContentProvider(keepalive.url, timeout=5)
        took = []
        for _ in range(20):
            start = time.perf_counter()
            provider.embed("deep nets")
            took.append(time.perf_counter() - start)
        assert keepalive.connections == 1
        # a delayed ACK would hold each body for 20 ms or more
        assert statistics.median(took) < 0.010

    def test_nagle_is_off(self, keepalive):
        session = HttpSession(keepalive.url, timeout=5)
        assert session.post(b"{}")[0] == 200
        [conn] = session._connections.values()
        assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_without_quickack_each_response_closes(self, keepalive,
                                                   monkeypatch):
        monkeypatch.setattr("coldsim.content._QUICKACK", None)
        provider = HttpContentProvider(keepalive.url, timeout=5)
        for _ in range(3):
            provider.embed("deep nets")
        assert keepalive.connections == 3

    def test_stale_connection_resent_at_once(self, keepalive, monkeypatch):
        keepalive.close_idle = True
        sleeps = []
        monkeypatch.setattr("coldsim.content.time.sleep", sleeps.append)
        oracle = HttpOracle(keepalive.url, timeout=5, retries=1,
                            max_inflight=1)
        block = contexts(2)
        first, second = block.take([0]), block.take([1])
        assert oracle.decide(first)[0].value == 1
        assert keepalive.closed.wait(5)
        # one attempt allowed: the resend on a fresh connection is not one
        assert oracle.decide(second)[0].value == 1
        assert sleeps == []
        assert len(keepalive.seen) == 2
        assert keepalive.connections == 2

    def test_timeout_on_a_reused_connection_is_an_attempt(self, keepalive):
        keepalive.answered, keepalive.stall_s = 1, 0.5
        oracle = HttpOracle(keepalive.url, timeout=0.2, retries=2,
                            backoff=0.0, max_inflight=1)
        block = contexts(2)
        first, second = block.take([0]), block.take([1])
        assert oracle.decide(first)[0].value == 1
        [error] = oracle.decide(second)
        assert isinstance(error, OracleError)
        assert "after 2 attempts: timed out" in str(error)
        # one request per attempt, and the retry on a fresh connection
        assert len(keepalive.seen) == 3
        assert keepalive.connections == 2

    @pytest.mark.parametrize("status,doc", [(503, {"answer": "Yes"}),
                                            (200, {"other": 1})])
    def test_failed_attempt_reconnects(self, keepalive, status, doc):
        keepalive.status, keepalive.doc = status, doc
        oracle = HttpOracle(keepalive.url, timeout=5, retries=3,
                            backoff=0.0, max_inflight=1)
        [error] = oracle.decide(contexts(1))
        assert isinstance(error, OracleError)
        assert len(keepalive.seen) == 3
        assert keepalive.connections == 3

    def test_threads_never_share_a_connection(self, keepalive):
        # more threads than cores, switching as often as the interpreter
        # allows: a connection two threads shared would garble answers
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            oracle = HttpOracle(keepalive.url, timeout=5, retries=1,
                                max_inflight=8)
            answers = oracle.decide(contexts(200))
        finally:
            sys.setswitchinterval(interval)
        assert [getattr(a, "value", a) for a in answers] == [1] * 200
        assert len(keepalive.seen) == 200
        assert keepalive.connections == \
            len(oracle._session._connections) <= 8

    def test_ended_threads_connections_closed(self, keepalive, tmp_path):
        # a known width: no probe from this thread
        provider = HttpContentProvider(keepalive.url, dim=1, timeout=5)
        catalog = ItemCatalog(content={i: f"item {i}" for i in range(6)})

        def run(path):
            warm_cache(provider, catalog, path, max_inflight=3)
            return [c for c in provider._session._connections.values()
                    if c.sock is not None]

        first = run(tmp_path / "a.cemb")
        second = run(tmp_path / "b.cemb")
        assert 1 <= len(first) <= 3 and 1 <= len(second) <= 3
        # the first pool's threads have ended: their sockets are closed
        assert all(c.sock is None for c in first)


@pytest.mark.parametrize("url", ["ftp://host/path", "localhost:8080/x",
                                 "http:///no-host"])
def test_non_http_url_rejected_at_construction(url):
    with pytest.raises(ValueError, match="not an http or https URL"):
        HttpOracle(url)


def test_one_module_speaks_http():
    # HttpSession is the one HTTP path: no other module opens a socket
    offenders = []
    for module in sorted(SRC.glob("*.py")):
        if module.name == "content.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [f"{module.name}:{node.lineno} {name}"
                          for name in names if name in _NETWORK_MODULES]
    assert offenders == []
