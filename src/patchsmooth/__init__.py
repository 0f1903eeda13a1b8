"""Training-free k-NN smoothing of per-patch codebook score distributions
for visual in-context learning: retrieve in-context pairs, pool per-patch
assignment scores across prompts, blend each patch with its
divergence-weighted nearest pool entries, then decode and evaluate.
"""

__version__ = "0.1.0"

from .divergence import (
    CodebookSpec,
    pairwise_divergence,
)
from .errors import (
    ConfigError,
    DimensionError,
    FormatError,
    MissingItemError,
    PatchSmoothError,
    ValidationError,
)
from .metrics import (
    EvalReport,
    decode_argmax,
    iou,
    mse,
    pixel_accuracy,
)
from .pipeline import PipelineReport, load_config, run_pipeline
from .pool import (
    FileScorerBackend,
    PoolMode,
    PromptPool,
    PromptSpec,
    ScoreGrid,
    ScorerBackend,
    build_pool,
    load_grid,
    load_pool,
    save_grid,
    save_pool,
    score_prompt,
)
from .retrieval import (
    FeatureVector,
    RetrievalIndex,
    RetrievedSet,
    top_m,
)
from .smoothing import (
    Aggregation,
    DivergenceKind,
    NeighborKey,
    PoolScope,
    SmoothedGrid,
    SmoothingConfig,
    aggregate_sequences,
    smooth_features,
    smooth_grid,
    softmax_weights,
)
from .synthbench import (
    BiasedScorerParams,
    SyntheticScorerBackend,
    SyntheticWorld,
    generate_world,
    run_bias_experiment,
    run_seed_sweep,
    synthetic_score,
)
from .tensorfile import read_tensor, write_tensor

__all__ = [
    "Aggregation",
    "BiasedScorerParams",
    "CodebookSpec",
    "ConfigError",
    "DimensionError",
    "DivergenceKind",
    "EvalReport",
    "FeatureVector",
    "FileScorerBackend",
    "FormatError",
    "MissingItemError",
    "NeighborKey",
    "PatchSmoothError",
    "PipelineReport",
    "PoolMode",
    "PoolScope",
    "PromptPool",
    "PromptSpec",
    "RetrievalIndex",
    "RetrievedSet",
    "ScoreGrid",
    "ScorerBackend",
    "SmoothedGrid",
    "SmoothingConfig",
    "SyntheticScorerBackend",
    "SyntheticWorld",
    "ValidationError",
    "aggregate_sequences",
    "build_pool",
    "decode_argmax",
    "generate_world",
    "iou",
    "load_config",
    "load_grid",
    "load_pool",
    "mse",
    "pairwise_divergence",
    "pixel_accuracy",
    "read_tensor",
    "run_bias_experiment",
    "run_pipeline",
    "run_seed_sweep",
    "save_grid",
    "save_pool",
    "score_prompt",
    "smooth_features",
    "smooth_grid",
    "softmax_weights",
    "synthetic_score",
    "top_m",
    "write_tensor",
]
