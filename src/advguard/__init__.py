"""Adversarial image example detection via entropy-adaptive noise reduction.

The pipeline: compute an image's 2-D entropy, pick a quantization /
smoothing strategy from it, denoise, and flag the image as adversarial
when the classifier's label changes between the raw and denoised
versions. Includes a small trainable classifier and FGSM attack crafting
so the whole detection experiment runs at desk scale.
"""

from .attack import (
    AdversarialExample,
    AttackConfig,
    CorpusError,
    CorpusSummary,
    build_attack_corpus,
    craft,
)
from .classifier import (
    ClassifierModel,
    ExternalClassifier,
    ExternalClassifierError,
    ModelClassifier,
    PredictionVector,
    TrainConfig,
    accuracy,
    forward,
    input_gradient,
    load_model,
    loss,
    parameter_gradients,
    save_model,
    train,
)
from .denoise import (
    DenoiseStrategy,
    FilteredTriple,
    adaptive_filter,
    combine,
    cross_mask,
    quantize,
    select_strategy,
    smooth,
)
from .detector import (
    DetectionError,
    DetectionStats,
    EvaluationResult,
    Verdict,
    detect,
    detect_batch,
    evaluate,
    write_report,
)
from .entropy import (
    EntropyProfile,
    entropy_2d,
    neighborhood_average,
)
from .image import (
    FormatError,
    Image,
    read_idx_images,
    read_idx_labels,
    read_pgm_ppm,
    write_pgm_ppm,
)

__version__ = "0.1.0"
