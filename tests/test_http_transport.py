"""``content.post_with_retries`` against a real local HTTP server.

The server records what arrives on the wire and answers with a scripted
status, so the request bytes and the retry contract are checked end to
end, through both clients of the helper.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from coldsim.content import HttpContentProvider
from coldsim.refiner import (HttpOracle, OracleError, UserContext,
                             render_prompt)


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
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _RecordingHandler)
    srv.seen, srv.status, srv.doc = [], 200, {}
    srv.url = f"http://127.0.0.1:{srv.server_address[1]}/endpoint"
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def ask(oracle, item_text="a paper title"):
    ctx = UserContext(user=0, item=1, item_text=item_text, items=[3],
                      texts=["an old title"])
    return ctx, oracle.decide([ctx])[0]


class TestWireBytes:
    @pytest.mark.parametrize("title", ["a paper title", "Über α-Zerfall"])
    def test_oracle_plain(self, server, title):
        server.doc = {"answer": "Yes"}
        ctx, decision = ask(HttpOracle(server.url, timeout=5), title)
        assert decision.value == 1
        body = {"prompt": render_prompt(ctx)}
        assert server.seen == [("POST", "application/json", wire_bytes(body))]

    def test_oracle_chat(self, server):
        server.doc = {"messages": [{"role": "assistant", "content": "No"}]}
        ctx, decision = ask(HttpOracle(server.url, timeout=5, chat=True))
        assert decision.value == 0
        body = {"messages": [{"role": "user",
                              "content": render_prompt(ctx)}]}
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
