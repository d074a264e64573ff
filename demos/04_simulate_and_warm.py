"""The full funnel: filter candidates, refine with an oracle, warm embeddings.

Uses the planted ground-truth oracle so the refinement step is exact, then
optimizes each cold item's embedding against its simulated users while
every warm row stays frozen.
"""

import numpy as np

from coldsim import adoption_rate, render_prompt
from coldsim.config import default_config, resolve_seeds
from coldsim.pipeline import (build_pipeline, simulate_all,
                              warm_from_simulations)
from coldsim.refiner import DecisionLog, PlantedOracle
from coldsim.synthetic import make_planted_split, make_two_cluster_dataset

data = make_two_cluster_dataset(seed=0)   # 200 users, 100 warm + 20 cold
split = make_planted_split(data, seed=0)

cfg = default_config()
cfg["backbone"].update({"dim": 16, "lr": 0.3, "max_epochs": 150,
                        "patience": 150, "batch_size": 256})
cfg["content"].update({"dim": 64})
cfg["filter"].update({"hidden": 32, "out": 16, "lr": 3e-3, "batch_size": 128,
                      "max_epochs": 15, "patience": 8, "label_pairs": 500})
cfg["refiner"].update({"oracle": "planted", "k": 30})
cfg["warmup"].update({"lr": 0.1, "steps": 800})
cfg = resolve_seeds(cfg, 0)

pipe = build_pipeline(data.log, data.catalog, split, cfg,
                      oracle=PlantedOracle(data.truth))
print("backbone, behavior filter, and coupled filter trained")

# one simulated item end to end, with the rendered prompt for flavor
log = DecisionLog()
sims = simulate_all(pipe, cfg, decision_log=log)
item = split.cold_items[0]
print(f"\ncold item {item}: simulated users {sims[item].users[:10]}...")
print(f"adoption rate across all cold items: {adoption_rate(log).rate:.1%}")

from coldsim.refiner import build_context

# every item's coupled-filter vector, computed once; contexts index into it.
# One call builds the contexts of three simulated users and three users the
# planted truth does not pair with the item.
item_vectors = pipe.item_vectors(pipe.filter_l)
users = sims[item].users[:3] + [u for u in range(data.log.n_users)
                                if (u, item) not in data.truth][:3]
block = build_context(users, [item] * len(users), item_vectors,
                      pipe.train_items, pipe.titles, top_l=3)
print(f"\nprompt sent to the oracle for user {users[0]}:")
print(" ", render_prompt(block, 0))
# each row of a block names its item, so one decide call answers rows of
# any items, in order: simulate_all asks every cold item's in one call
answers = pipe.oracle.decide(block)
print(f"oracle answers for users {users}: {[a.raw for a in answers]}")

# warm the cold rows and check the frozen-warm contract
warmed = warm_from_simulations(pipe, sims, cfg)
assert np.array_equal(warmed.user_emb, pipe.backbone.user_emb)
assert np.array_equal(warmed.item_emb[split.warm_items],
                      pipe.backbone.item_emb[split.warm_items])
moved = np.linalg.norm(warmed.item_emb[split.cold_items]
                       - pipe.backbone.item_emb[split.cold_items], axis=1)
print(f"\nwarm rows bit-identical; cold rows moved by "
      f"{moved.min():.2f}..{moved.max():.2f}")
