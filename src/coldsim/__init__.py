"""Cold-start interaction simulation with a coupled filter-then-refine funnel.

Pipeline stages: ingest a corpus, split items cold/warm, train MF behavior
embeddings on warm interactions, cache item content vectors, train two
two-tower filters (behavior BPR and oracle-coupled), funnel-filter top-K
candidate users per cold item, refine them with a pluggable yes/no oracle,
optimize each cold item's embedding against its simulated users, and
evaluate overall/warm/cold ranking quality.
"""

from .backbone import (BackboneConfig, BackboneModel, DivergenceError,
                       bpr_loss, bpr_step, init_embeddings, score,
                       train_backbone)
from .config import default_config, fingerprint, load_config, resolve_seeds
from .content import (FileContentProvider, HttpContentProvider,
                      MockContentProvider, ProviderError, VectorCache,
                      mock_embed, warm_cache)
from .corpus import (ColdWarmSplit, InteractionLog, ItemCatalog,
                     load_citeulike, load_movielens, make_cold_split)
from .evaluation import (AdoptionStats, EvalReport, adoption_rate, evaluate,
                         format_report)
from .filtering import (CandidateSet, FilterTrainConfig, InnerProductIndex,
                        TowerMlp, TwoTowerFilter, funnel_filter,
                        history_content_means, map_item, map_user,
                        topk_candidates, train_behavior_filter,
                        train_coupled_filter, user_filter_vectors)
from .metrics import ndcg_at_k, rank_by_score, recall_at_k
from .pipeline import (ABLATION_VARIANTS, Pipeline, build_pipeline,
                       run_ablation, simulate_all, sweep,
                       warm_from_simulations)
from .refiner import (DecisionLog, FinetuneRecord, HttpOracle, OracleDecision,
                      OracleError, OracleParseError, PlantedOracle,
                      SimulateConfig, SimulationResult, ThresholdOracle,
                      UserContext, build_context, parse_yes_no,
                      prepare_finetune_data, refine, render_prompt,
                      simulate_for_item)
from .warmup import (ColdEmbeddingResult, WarmupConfig, init_cold_embedding,
                     optimize_cold_embedding, warm_all_cold)

__version__ = "0.1.0"
