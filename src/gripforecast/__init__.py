"""Grip-force forecasting for human-robot handovers.

Pipeline: load or synthesize 120 Hz handover recordings (interaction wrench
plus giver/taker grip forces), align each handover at the grip crossing,
sample wrench windows with fixed-horizon grip targets, train a 2-layer LSTM
forecaster with exact BPTT gradients, and serve 70-step (583.33 ms) grip
forecasts from recorded or streaming wrench input.
"""

from .dataset import (
    HORIZON,
    HORIZON_MS,
    PERIOD_MS,
    RATE_HZ,
    HandoverRecord,
    NormStats,
    SamplingPolicy,
    TrainingSample,
    align_handover,
    apply_norm,
    extract_samples,
    fit_norm_stats,
    load_recordings,
    save_recordings,
    split_by_pair,
)
from .errors import (
    AlignmentError,
    ContractViolation,
    DataError,
    GenerationError,
    LoadError,
    StatsError,
)
from .model import (
    GATE_ORDER,
    LstmLayerParams,
    ModelParams,
    backward_batch,
    forward_batch,
    init_params,
    predict_grip,
)
from .numerics import Rng, derive_seed
from .optim import (
    AdamState,
    EvalMetrics,
    LossHistory,
    TrainConfig,
    adam_step,
    evaluate,
    train,
)
from .synthgen import SynthParams, crossing_time_ms, generate_dataset, generate_handover

__version__ = "0.1.0"

__all__ = [
    "HORIZON",
    "HORIZON_MS",
    "PERIOD_MS",
    "RATE_HZ",
    "GATE_ORDER",
    "AdamState",
    "AlignmentError",
    "ContractViolation",
    "DataError",
    "EvalMetrics",
    "GenerationError",
    "HandoverRecord",
    "LoadError",
    "LossHistory",
    "LstmLayerParams",
    "ModelParams",
    "NormStats",
    "Rng",
    "SamplingPolicy",
    "StatsError",
    "SynthParams",
    "TrainConfig",
    "TrainingSample",
    "adam_step",
    "align_handover",
    "apply_norm",
    "backward_batch",
    "crossing_time_ms",
    "derive_seed",
    "evaluate",
    "extract_samples",
    "fit_norm_stats",
    "forward_batch",
    "generate_dataset",
    "generate_handover",
    "init_params",
    "load_recordings",
    "predict_grip",
    "save_recordings",
    "split_by_pair",
    "train",
]
