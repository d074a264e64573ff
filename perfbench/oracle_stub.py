"""Deterministic yes/no oracle served over HTTP on localhost.

``POST /decide`` with ``{"prompt": ...}`` sleeps ``--delay-ms`` (the service
delay) and answers ``{"answer": "Yes"}`` when at least half of the history
titles in the prompt share a word with the item title, else ``"No"``.  The
answer depends only on the prompt text, never on arrival order.
``GET /count`` returns ``{"requests": n}``, the number of decisions served.

Prints the bound port on the first line of standard output, then serves
until standard input closes.

    python3 perfbench/oracle_stub.py --delay-ms 2
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_PROMPT_RE = re.compile(r"interacted with \[(.*)\], determine .* the \[(.*)\] by "
                        r"answering", re.S)
_TITLE_RE = re.compile(r'"([^"]*)"')


def decide(prompt: str) -> str:
    m = _PROMPT_RE.search(prompt)
    if m is None:
        return "No"
    titles = _TITLE_RE.findall(m.group(1))
    item_words = set(m.group(2).split())
    shared = sum(1 for t in titles if item_words & set(t.split()))
    return "Yes" if titles and 2 * shared >= len(titles) else "No"


def make_handler(delay_s: float):
    lock = threading.Lock()
    served = [0]

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _reply(self, doc: dict) -> None:
            payload = json.dumps(doc).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if delay_s:
                time.sleep(delay_s)
            answer = decide(body.get("prompt", ""))
            with lock:
                served[0] += 1
            self._reply({"answer": answer})

        def do_GET(self):
            with lock:
                count = served[0]
            self._reply({"requests": count})

        def log_message(self, *args):
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--delay-ms", type=float, default=2.0)
    args = parser.parse_args()
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(args.delay_ms / 1e3))
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    sys.stdin.read()          # returns when the parent closes the pipe or exits
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    return 0


if __name__ == "__main__":
    sys.exit(main())
