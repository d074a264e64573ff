"""Serving a yes/no oracle over HTTP, plus the CLI driving a full run.

Starts a toy oracle service in-process (POST /simulate with a prompt,
answer Yes/No), points the refiner at it, then replays the same experiment
through the command-line interface with a mock oracle.
"""

import json
import subprocess
import sys
import tempfile
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np

from coldsim import ContextBlock, HttpOracle
from coldsim.synthetic import make_two_cluster_dataset


# --- a tiny oracle service: says Yes when prompt and context share a token
class ToyOracle(BaseHTTPRequestHandler):
    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        prompt = body["prompt"]
        history = prompt.split("], determine")[0]
        item = prompt.split("the [")[-1].split("] by answering")[0]
        shared = set(item.split()) & set(history.split())
        answer = "Yes" if shared else "No"
        payload = json.dumps({"answer": answer}).encode()
        self.send_response(200)
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


server = ThreadingHTTPServer(("127.0.0.1", 0), ToyOracle)
# a short poll interval lets shutdown() return at once
thread = threading.Thread(target=server.serve_forever,
                          kwargs={"poll_interval": 0.01}, daemon=True)
thread.start()
url = f"http://127.0.0.1:{server.server_address[1]}/simulate"
print(f"toy oracle listening at {url}")

# one decide call for a block of contexts of two items; its prompts go out
# on the oracle's own pool, max_inflight at a time across the item
# boundary, and the answers come back in row order.  Each row names a user,
# a query item and the user's context items, padded with -1; titles are
# indexed by item id.
oracle = HttpOracle(url, timeout=5, max_inflight=2)
titles = [f"notes{i}" for i in range(41)]
for i in (1, 2, 9):
    titles[i] = f"astro astro notes{i}"
for i in (7, 40):
    titles[i] = f"fjord fjord notes{i}"
block = ContextBlock(users=np.array([0, 1, 0, 1]), items=np.array([9, 9, 40, 40]),
                     hist=np.array([[1, 2], [7, -1], [1, 2], [7, -1]]),
                     titles=titles)
for user, item, decision in zip(block.users, block.items, oracle.decide(block)):
    print(f"  user {user}, {titles[item]!r} -> {decision.raw} "
          f"({decision.latency * 1e3:.1f} ms)")
server.shutdown()
server.server_close()
thread.join()

# --- the same pipeline, driven end to end by the CLI with a mock oracle
# removed at the end, or at exit if the demo fails first
tmp = tempfile.TemporaryDirectory()
workdir = Path(tmp.name)
corpus = workdir / "corpus"
corpus.mkdir()
data = make_two_cluster_dataset(n_users=60, n_warm=24, n_cold=0,
                                groups_per_cluster=2, seed=2)
with open(corpus / "users.dat", "w") as fh:
    # each user's history is an int64 array of item ids, in log order
    for history in data.log.user_items:
        fh.write(" ".join(map(str, history.tolist())) + "\n")
with open(corpus / "items.tsv", "w") as fh:
    for i in range(data.log.n_items):
        fh.write(f"{i}\t{data.catalog.titles[i]}\tnotes {i}\n")

config = {
    "backbone": {"dim": 8, "lr": 0.3, "max_epochs": 20, "eval_users": 50},
    "content": {"dim": 32},
    "filter": {"hidden": 12, "out": 8, "lr": 3e-3, "batch_size": 32,
               "max_epochs": 4, "eval_users": 50},
    "refiner": {"oracle": "mock-threshold", "tau": 0.15, "k": 8,
                "context_len": 4},
    "warmup": {"steps": 50, "lr": 0.1},
    "eval": {"k": 8, "users": 50},
}
(workdir / "config.json").write_text(json.dumps(config))

base = [sys.executable, "-m", "coldsim.cli", "--config",
        str(workdir / "config.json"), "--seed", "2", "--out",
        str(workdir / "run")]
steps = [["ingest", "--dataset", "citeulike", "--path", str(corpus)],
         ["split"], ["train-backbone"], ["cache-content"],
         ["train-filter", "--variant", "B"], ["train-filter", "--variant", "L"],
         ["simulate"], ["warmup"], ["evaluate", "--task", "cold"]]
for step in steps:
    out = subprocess.run(base + step, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    print(f"$ coldsim {' '.join(step)}")
    for line in out.stdout.strip().splitlines():
        print(f"  {line}")

# the split the CLI saved reloads with its pair sets as (n, 2) int64 arrays
from coldsim import ColdWarmSplit

split = ColdWarmSplit.load(workdir / "run" / "split.json")
print(f"split.json: warm_train {split.warm_train.shape} {split.warm_train.dtype}, "
      f"first rows {split.warm_train[:2].tolist()}")
tmp.cleanup()
