"""Content vectors, the two-tower behavior filter, and top-K candidates.

Item text is embedded by the deterministic mock provider (hashed
bag-of-tokens), cached to disk, and fed to a two-tower filter trained with
BPR.  The filter then retrieves candidate users for a cold item it has
never seen interactions for.
"""

import tempfile
from pathlib import Path

import numpy as np

from coldsim import (BackboneConfig, FilterTrainConfig, MockContentProvider,
                     TwoTowerFilter, history_content_means, mock_embed,
                     topk_candidates, train_backbone, train_behavior_filter,
                     user_filter_vectors, warm_cache)
from coldsim.synthetic import make_planted_split, make_two_cluster_dataset

# --- the mock embedding is pure arithmetic on token hashes
vec = mock_embed("graph neural recommender", dim=16)
print(f"mock vector (dim 16, unit norm {np.linalg.norm(vec):.1f}):")
print(np.round(vec, 3))

data = make_two_cluster_dataset(n_users=120, n_warm=60, n_cold=8,
                                groups_per_cluster=2, seed=5)
split = make_planted_split(data, seed=5)

# --- cache every item's content vector once; reruns are pure cache hits
# removed at the end, or at exit if the demo fails first
tmp = tempfile.TemporaryDirectory()
workdir = Path(tmp.name)
provider = MockContentProvider(dim=64)
cache = warm_cache(provider, data.catalog, workdir / "content.cemb")
print(f"\ncached {len(cache)} content vectors -> {workdir / 'content.cemb'}")
content = cache.matrix(data.log.n_items)

# --- backbone first, then the filter on top of frozen embeddings
backbone = train_backbone(split, BackboneConfig(dim=16, lr=0.3,
                                                max_epochs=100, patience=100,
                                                batch_size=256, seed=5),
                          n_users=data.log.n_users, n_items=data.log.n_items)
filt = TwoTowerFilter.init("B", backbone.dim, content.shape[1],
                           hidden=32, out=16, seed=5)
# each user's mean history content: the user tower's second input
hist_means = history_content_means(split.index(data.log.n_users).train_items,
                                   content)
filt, history = train_behavior_filter(
    filt, backbone, content, hist_means, split,
    FilterTrainConfig(lr=3e-3, batch_size=128, max_epochs=20, patience=8,
                      seed=5))
print(f"filter trained {len(history)} epochs, "
      f"val ndcg {max(h['val_ndcg'] for h in history):.3f}")

# --- retrieve top-K users for a cold item from its content alone
user_vecs = user_filter_vectors(filt, backbone.user_emb, hist_means)
item = data.cold_items[0]
cand = topk_candidates(filt, content[item], user_vecs, k=15, item=item)
own_group = sum(data.user_group[u] == data.item_group[item]
                for u in cand.users)
print(f"\ncold item {item} (group {data.item_group[item]}): "
      f"top-15 candidates {cand.users}")
print(f"{own_group}/15 candidates come from the item's own interest group")
tmp.cleanup()
