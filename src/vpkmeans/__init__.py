"""Privacy-preserving k-means over vertically partitioned data.

A simulated CKKS-style SIMD slot engine, packed homomorphic argmin,
differentially private centroid release, and two/N-party Lloyd iteration
with exact communication accounting.
"""

from .dp_accounting import (
    NoiseScales,
    PrivacyBudget,
    RoundBudget,
    gaussian_sigma,
    per_round_budget,
    perturb_aggregates,
)
from .packed_matrix import (
    COLUMN,
    ROW,
    PackedLayout,
    axis_sum,
    batch_extract_replicate,
    reduce_blocks,
    repl_no_padding,
    replication_schedule,
)
from .protocol import (
    CentroidSet,
    DataPartition,
    Message,
    RunResult,
    Transcript,
    estimate_transcript,
    init_centroids,
    plan_transcript,
    release_depths,
    required_depth,
    run,
    run_multiparty,
    split_features,
    update_centroids,
)
from .secure_argmin import (
    SignApproxConfig,
    argmin_packed,
    argmin_two,
    cmp_series,
    compare,
    indicator_phi,
    rank,
)
from .slot_engine import (
    CIPHERTEXT,
    PLAINTEXT,
    DepthBudgetError,
    DomainError,
    EngineConfig,
    EngineError,
    SizeModel,
    SlotEngine,
    SlotVector,
    ciphertext_size_bytes,
)

__version__ = "0.1.0"
