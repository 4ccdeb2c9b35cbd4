"""Two-modality fake-vs-real classification with attention and gating.

The package trains a small classifier over paired text/image feature
vectors. Both modalities are projected into a shared space, exchanged
through bi-directional cross-attention with residuals, reweighted by a
learned per-record gate, and classified by a two-layer head. Everything --
reverse-mode differentiation, the optimizer, file formats -- is built on
plain numpy and is deterministic given seeds.
"""

from .autodiff import Node, Tape
from .config import (
    EvalSettings,
    RunConfig,
    apply_master_seed,
    default_config,
    load_config,
    parse_config,
    render_config,
)
from .data import (
    Dataset,
    Provenance,
    SyntheticSpec,
    generate_synthetic,
    load,
    save,
    split,
)
from .errors import (
    BadMagicError,
    DimensionError,
    FileFormatError,
    InconsistentDimsError,
    InputError,
    MMFuseError,
    NumericsError,
    TruncatedFileError,
    UsageError,
    VariantMismatchError,
    VersionMismatchError,
    WidthMismatchError,
)
from .evaluation import (
    GateStatsReport,
    MetricsReport,
    PerturbationKind,
    PerturbationScenario,
    compute_metrics,
    evaluate,
    gate_stats,
    perturb_dataset,
)
from .experiments import default_scenarios, run_ablation, run_perturbation_suite
from .model import (
    HyperConfig,
    ModelParams,
    Variant,
    VARIANT_ORDER,
    forward_batch,
    init_params,
    predict_labels,
)
from .training import (
    Checkpoint,
    PRESETS,
    TrainConfig,
    apply_preset,
    batch_loss,
    load_checkpoint,
    save_checkpoint,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BadMagicError",
    "Checkpoint",
    "Dataset",
    "DimensionError",
    "EvalSettings",
    "FileFormatError",
    "GateStatsReport",
    "HyperConfig",
    "InconsistentDimsError",
    "InputError",
    "MMFuseError",
    "MetricsReport",
    "ModelParams",
    "Node",
    "NumericsError",
    "PRESETS",
    "PerturbationKind",
    "PerturbationScenario",
    "Provenance",
    "RunConfig",
    "SyntheticSpec",
    "Tape",
    "TrainConfig",
    "TruncatedFileError",
    "UsageError",
    "VARIANT_ORDER",
    "Variant",
    "VariantMismatchError",
    "VersionMismatchError",
    "WidthMismatchError",
    "apply_master_seed",
    "apply_preset",
    "batch_loss",
    "compute_metrics",
    "default_config",
    "default_scenarios",
    "evaluate",
    "forward_batch",
    "gate_stats",
    "generate_synthetic",
    "init_params",
    "load",
    "load_checkpoint",
    "load_config",
    "parse_config",
    "perturb_dataset",
    "predict_labels",
    "render_config",
    "run_ablation",
    "run_perturbation_suite",
    "save",
    "save_checkpoint",
    "split",
    "train",
]
