"""Unsupervised video-anomaly scoring by diffusion reconstruction.

A denoiser is trained on unlabeled per-segment feature vectors; at
scoring time each segment is partially noised, reconstructed through the
reverse ODE, and flagged when its reconstruction error exceeds the
batch-local threshold mu_p + k * sigma_p.  Frame-level ROC-AUC closes the
loop for labeled evaluation sets.
"""

from types import ModuleType as _Module

from .data import (
    DataError,
    FeatureSet,
    SynthConfig,
    VideoRecord,
    estimate_sigma_data,
    load_features,
    load_manifest,
    save_features,
    synth_generate,
    validate,
    validate_manifest,
)
from .evaluation import (
    EvalReport,
    evaluate,
    join_scores,
    roc_auc,
    write_report_json,
)
from .network import (
    CheckpointError,
    DenoiserParams,
    NetworkConfig,
    Preconditioner,
    as_denoiser,
    denoise,
    film,
    forward_raw,
    fourier_embed,
    init_params,
    load_checkpoint,
    param_count,
    save_checkpoint,
    scalings,
)
from .rng import Rng
from .sampling import (
    ScheduleConfig,
    TrainNoiseConfig,
    karras_schedule,
    lms_sample,
    multistep_coeff,
    noise_bounds,
)
from .scoring import (
    DatasetScores,
    ScoringConfig,
    batch_threshold,
    read_scores_csv,
    score_dataset,
    write_scores_csv,
)
from .training import (
    EpochLog,
    OptimizerState,
    TrainConfig,
    dsm_loss,
    fit,
    inverse_lr,
    loss_weight,
    sample_train_sigma,
)

__version__ = "0.1.0"

# the names imported above, and the version; not the submodules
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _Module)] + ["__version__"]
