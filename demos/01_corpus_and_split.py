"""Load a corpus and carve out the cold/warm experimental split.

Builds a small synthetic corpus in the CiteULike input format (one line of
item indices per user, tab-separated item metadata), loads it back, and
splits 20% of the items off as cold.  Cold items' interactions land in
cold-val/cold-test (1:1), warm interactions split 8:1:1.  The log's pairs
and the split's five pair sets are (n, 2) int64 arrays of (user, item)
rows.
"""

import tempfile
from pathlib import Path

from coldsim import load_citeulike, make_cold_split
from coldsim.synthetic import make_two_cluster_dataset

# removed at the end, or at exit if the demo fails first
tmp = tempfile.TemporaryDirectory()
root = Path(tmp.name) / "corpus"
root.mkdir(parents=True)

# render a planted dataset in the on-disk format
data = make_two_cluster_dataset(n_users=60, n_warm=30, n_cold=0, seed=1)
with open(root / "users.dat", "w") as fh:
    for history in data.log.user_items:
        fh.write(" ".join(map(str, history.tolist())) + "\n")
with open(root / "items.tsv", "w") as fh:
    for i in range(data.log.n_items):
        fh.write(f"{i}\t{data.catalog.titles[i]}\tnotes about item {i}\n")

log, catalog = load_citeulike(root, mapping_path=root / "idmap.json")
print(f"loaded: {log.n_users} users, {log.n_items} items, "
      f"{len(log.pairs)} interactions")
print(f"first pairs: {log.pairs[:3].tolist()}")
print(f"user 0 history: {log.user_items[0].tolist()}")
print(f"item 0 audience: {log.item_users[0].tolist()}")
print(f"item 0 content: {catalog.text(0)!r}")

split = make_cold_split(log, cold_frac=0.2, seed=7)
print(f"\ncold items ({len(split.cold_items)}): {split.cold_items}")
print(f"warm train/val/test: {len(split.warm_train)}/{len(split.warm_val)}"
      f"/{len(split.warm_test)}")
print(f"cold val/test: {len(split.cold_val)}/{len(split.cold_test)}")
print(f"cold test pairs, sorted by user then item: {split.cold_test[:4].tolist()}")

# splits persist as a single JSON document and round-trip exactly: the
# reloaded split saves to the same bytes
split.save(root / "split.json")
from coldsim import ColdWarmSplit

ColdWarmSplit.load(root / "split.json").save(root / "split_again.json")
assert (root / "split.json").read_bytes() == (root / "split_again.json").read_bytes()
print(f"\nsplit persisted and reloaded from {root / 'split.json'}")
tmp.cleanup()
