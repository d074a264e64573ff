"""Train the MF backbone with BPR and watch the within-group structure form.

The planted dataset has users and items partitioned into interest groups;
after pairwise training, within-group dot products dominate cross-group
ones even though the model never sees the group labels.
"""

import numpy as np

from coldsim import BackboneConfig, train_backbone
from coldsim.synthetic import make_planted_split, make_two_cluster_dataset

data = make_two_cluster_dataset(n_users=120, n_warm=60, n_cold=8,
                                groups_per_cluster=2, seed=3)
split = make_planted_split(data, seed=3)

# batch-mean BPR scales per-triple steps by 1/batch, so a small batch and a
# generous epoch budget are what let the tiny-norm init grow
config = BackboneConfig(dim=16, lr=0.3, max_epochs=300, patience=300,
                        batch_size=64, seed=3)
model = train_backbone(split, config, n_users=data.log.n_users,
                       n_items=data.log.n_items)

print(f"trained {model.trained_epochs} epochs")
for h in model.history[::50]:
    print(f"  epoch {h['epoch']:>3}  bpr loss {h['loss']:.4f}  "
          f"val ndcg {h['val_ndcg']:.3f}")

# within-group vs cross-group mean score over warm items
warm = np.array(split.warm_items)
same, cross = [], []
for u in range(data.log.n_users):
    for i in warm:
        value = model.user_emb[u] @ model.item_emb[i]
        if data.user_group[u] == data.item_group[i]:
            same.append(value)
        else:
            cross.append(value)
print(f"\nmean within-group score: {np.mean(same):+.3f}")
print(f"mean cross-group score:  {np.mean(cross):+.3f}")

# cold rows are untouched by training: still at their tiny random init
cold_norms = np.linalg.norm(model.item_emb[split.cold_items], axis=1)
warm_norms = np.linalg.norm(model.item_emb[split.warm_items], axis=1)
print(f"\nmean warm item norm: {warm_norms.mean():.3f}")
print(f"mean cold item norm: {cold_norms.mean():.3f}  (untrained)")
