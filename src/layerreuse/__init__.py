"""Layer-wise top-k attention reuse on a deterministic synthetic decoder.

The pipeline has four stages. Profile a full-attention decode to measure how
much top-k selections agree between layers. Plan which layers may reuse a
lower layer's selection instead of scoring their whole cache, minimizing the
number of full layers under an overlap threshold. Decode in hybrid mode under
that policy while measuring fidelity against the full baseline. Price the KV
traffic either way with an analytic cost model, including the case where
reused layers' caches are offloaded across a slow link.
"""

from .attention import (
    BlockSet,
    LayerKvCache,
    TopKSet,
    block_max_of_logits,
    full_attention,
    topk_blocks,
    topk_of_logits,
)
from .engine import (
    CostModelReport,
    DecodeRunResult,
    FidelityReport,
    FidelityTable,
    cost_model,
    fidelity_report,
    hybrid_decode,
    hybrid_decode_blocks,
)
from .errors import (
    ConfigurationError,
    InvalidInputError,
    InvalidSelectionError,
    LayerReuseError,
    NumericInputError,
)
from .formats import (
    read_json,
    read_policy,
    read_run_result,
    read_sensitivity_report,
    read_similarity_matrix,
    read_trace,
    write_policy,
    write_run_result,
    write_sensitivity_report,
    write_similarity_matrix,
    write_trace,
)
from .policy import (
    Action,
    LayerPolicy,
    brute_force_policy,
    dp_optimize,
    static_jump_policy,
    validate_policy,
)
from .profiling import (
    SensitivityReport,
    SimilarityMatrix,
    build_similarity_matrix,
    relative_l2_error,
    sensitivity_profile,
    sensitivity_table,
)
from .synthetic import (
    DecodeTrace,
    SynthModelConfig,
    SyntheticModel,
    generate_model,
    run_full_trace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BlockSet",
    "LayerKvCache",
    "TopKSet",
    "full_attention",
    "topk_of_logits",
    "block_max_of_logits",
    "topk_blocks",
    "SynthModelConfig",
    "SyntheticModel",
    "DecodeTrace",
    "generate_model",
    "run_full_trace",
    "SimilarityMatrix",
    "SensitivityReport",
    "build_similarity_matrix",
    "relative_l2_error",
    "sensitivity_profile",
    "sensitivity_table",
    "Action",
    "LayerPolicy",
    "dp_optimize",
    "brute_force_policy",
    "validate_policy",
    "static_jump_policy",
    "FidelityTable",
    "FidelityReport",
    "DecodeRunResult",
    "CostModelReport",
    "hybrid_decode",
    "hybrid_decode_blocks",
    "cost_model",
    "fidelity_report",
    "write_trace",
    "read_trace",
    "write_similarity_matrix",
    "read_similarity_matrix",
    "write_sensitivity_report",
    "read_sensitivity_report",
    "write_policy",
    "read_policy",
    "write_run_result",
    "read_run_result",
    "read_json",
    "LayerReuseError",
    "ConfigurationError",
    "NumericInputError",
    "InvalidSelectionError",
    "InvalidInputError",
]
