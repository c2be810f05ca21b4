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
    external_classify,
    forward,
    input_gradient,
    load_model,
    loss,
    parameter_gradients,
    save_model,
    train,
)
from .denoise import (
    FilteredTriple,
    FilterMask,
    Quantizer,
    adaptive_filter,
    averaging_mask,
    combine,
    cross_mask,
    make_quantizer,
    quantize,
    smooth,
)
from .detector import (
    CorpusError,
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
    DenoiseStrategy,
    EntropyProfile,
    JointHistogram,
    entropy_2d,
    joint_histogram,
    neighborhood_average,
    select_strategy,
)
from .image import (
    FloatImage,
    FormatError,
    Image,
    read_idx_images,
    read_idx_labels,
    read_pgm_ppm,
    to_bytes,
    to_float,
    write_pgm_ppm,
)

__version__ = "0.1.0"
