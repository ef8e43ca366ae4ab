"""ranksmooth: exact and sigmoid-smoothed average precision for retrieval.

Exact AP / mAP / Recall@K evaluation, a differentiable AP relaxation with
hand-derived gradients, triplet and contrastive baselines, a linear
encoder with Adam, synthetic cluster data, and a deterministic training
and ablation harness with a CLI front end.
"""

from .baselines import TripletConfig, contrastive_loss, triplet_loss, violating_terms
from .data import (
    CsvFormatError,
    Dataset,
    DuplicateIdError,
    FieldFormatError,
    RaggedRowError,
    SamplerConfig,
    SamplerError,
    SamplerState,
    SyntheticSpec,
    gen_synthetic_clusters,
    load_features_csv,
    next_batch,
    save_features_csv,
    split_by_class,
)
from .encoder import (
    AdamState,
    CheckpointFormatError,
    EncoderParams,
    TwoLayerParams,
    adam_step,
    encode,
    encode_backward,
    init_encoder,
    load_encoder,
    save_encoder,
)
from .experiments import (
    CsvSpec,
    ExperimentRecord,
    GradCheckReport,
    TrainConfig,
    TrainResult,
    ablate,
    approx_error_sweep,
    grad_check,
    operating_region_sweep,
    train,
)
from .linalg import NormalizationError
from .ranking import (
    DegenerateLabelsError,
    DegenerateQueryError,
    EmbeddingBatch,
    ScoredSet,
    exact_ap,
    map_and_recall,
    mean_ap,
    recall_at_k,
)
from .smoothap import (
    LossOutput,
    SmoothApConfig,
    ap_approx_error,
    batch_ap_error,
    batch_operating_region,
    operating_region_halfwidth,
    sigmoid,
    sigmoid_grad,
    smooth_ap_loss,
    smooth_ap_query,
)

__version__ = "0.1.0"
