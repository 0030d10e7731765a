"""Self-supervised disturbance mapping from dual-pol SAR backscatter series.

A forecasting model (spatiotemporal transformer or GRU baseline) is trained on
undisturbed image sequences to predict the next frame as a per-pixel Gaussian
in logit space. At inference the forecast is compared against the acquired
frame; large deviations in units of predicted standard deviation mark
disturbance. A classical temporal log-ratio detector is included as the
baseline for comparison.
"""

__version__ = "0.1.0"

from .errors import (FormatError, NumericError, SardistError, ShapeError,
                     StorageError, ValidationError)
from .raster import (BinaryDelineation, DistributionEstimate, DisturbanceMap,
                     RasterStack, read_stack, write_stack)
from .synth import SynthConfig, generate_scene, generate_training_corpus
from .preprocess import PreprocessConfig, clip_unit, despeckle_stack, logit, to_logit
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .training import TrainConfig, gradient_check, nll_loss, train
from .inference import SweepConfig, forecast, sweep_estimate
from .disturbance import log_ratio_map, mahalanobis_map, threshold_map
from .evaluation import build_labeled_set, pr_curve, two_image_scores

__all__ = [
    "__version__",
    "SardistError", "ValidationError", "ShapeError",
    "FormatError", "NumericError", "StorageError",
    "RasterStack", "DistributionEstimate", "DisturbanceMap",
    "BinaryDelineation", "read_stack", "write_stack",
    "SynthConfig", "generate_scene", "generate_training_corpus",
    "PreprocessConfig", "clip_unit", "despeckle_stack", "logit", "to_logit",
    "Model", "ModelConfig", "load_checkpoint", "save_checkpoint",
    "TrainConfig", "train", "nll_loss", "gradient_check",
    "SweepConfig", "sweep_estimate", "forecast",
    "mahalanobis_map", "log_ratio_map", "threshold_map",
    "build_labeled_set", "pr_curve", "two_image_scores",
]
