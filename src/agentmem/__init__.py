"""agentmem: tiered agent memory with scoped lexical retrieval, outcome
attribution, consolidation, weight training, and a deterministic QA harness."""

from .attribution import (
    AttributionConfig,
    AttributionOutcome,
    apply_attribution,
    compute_attribution,
    jaccard_attribution,
)
from .config import EngineConfig, TrainConfig
from .consolidation import (
    ConsolidationDaemon,
    ConsolidationReport,
    Extractor,
    FactDraft,
    HeuristicExtractor,
    extract_facts_heuristic,
    run_consolidation_pass,
    schedule,
)
from .errors import (
    AgentMemError,
    NotFoundError,
    ServiceError,
    StorageError,
    ValidationError,
)
from .evaluation import (
    BenchmarkQuestion,
    EchoReader,
    EvalReport,
    OracleReader,
    Reader,
    Session,
    Turn,
    load_dataset,
    ndcg_at_k,
    normalize_answer,
    recall_at_k,
    run_ablation,
    run_benchmark,
    soft_em,
    token_f1,
    wilson_ci,
)
from .learning import (
    TrainingEpisode,
    WeightPolicy,
    ppo_update,
    sample_weights,
    task_reward,
    train,
)
from .lexical import Bm25Index, bm25_score, build_index, tokenize
from .retrieval import (
    Embedder,
    HashedBowEmbedder,
    RetrievalConfig,
    RetrievalPipeline,
    RetrievalResult,
    oracle_context,
    pack_context,
    rrf_fuse,
    stage1_scope,
    stage2_retrieve,
)
from .scoring import (
    BypassReason,
    Candidate,
    DecayConfig,
    ScoreBreakdown,
    TierConfig,
    Variant,
    WeightVector,
    composite_score,
    cw_signal,
    decay_signal,
    evaluate_bypass,
    normalise_scores,
    score_pool,
)
from .store import (
    CwLedgerRecord,
    EpisodicEntry,
    MemoryStore,
    SemanticFact,
)

__version__ = "0.1.0"
