"""Cold-start interaction simulation with a coupled filter-then-refine funnel.

Pipeline stages: ingest a corpus, split items cold/warm, train MF behavior
embeddings on warm interactions, cache item content vectors, train two
two-tower filters (behavior BPR and oracle-coupled), funnel-filter top-K
candidate users per cold item, refine them with a pluggable yes/no oracle,
optimize each cold item's embedding against its simulated users, and
evaluate overall/warm/cold ranking quality.

The top level re-exports the names the README and the demos use; every
other name is imported from its submodule (``coldsim.pipeline``,
``coldsim.refiner``, ...).
"""

from .backbone import BackboneConfig, train_backbone
from .content import MockContentProvider, mock_embed, warm_cache
from .corpus import ColdWarmSplit, load_citeulike, make_cold_split
from .evaluation import adoption_rate, evaluate, format_report
from .filtering import (FilterTrainConfig, TwoTowerFilter,
                        history_content_means, topk_candidates,
                        train_behavior_filter, user_filter_vectors)
from .refiner import ContextBlock, HttpOracle, render_prompt

__all__ = [
    "BackboneConfig", "ColdWarmSplit", "ContextBlock", "FilterTrainConfig",
    "HttpOracle", "MockContentProvider", "TwoTowerFilter", "adoption_rate",
    "evaluate", "format_report", "history_content_means", "load_citeulike",
    "make_cold_split", "mock_embed", "render_prompt", "topk_candidates",
    "train_backbone", "train_behavior_filter", "user_filter_vectors",
    "warm_cache",
]

__version__ = "0.1.0"
