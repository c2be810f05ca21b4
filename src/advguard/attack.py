"""Fast-gradient-sign adversarial example crafting and corpus persistence.

Attacks run in the [0, 1] float domain and the result is committed to
8-bit before anything downstream sees it, so effectuality is always
judged on the image as it would be stored. The perturbation direction is
the sign of the loss gradient with respect to the input; sign(0) is 0.
"""

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .classifier import _check_class, _forward, _hidden_gradient, forward
from .image import FloatImage, Image, to_bytes, to_float, write_pgm_ppm

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = ("id", "original_label", "adversarial_label")


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation amplitude, variant, and (for top-k) the pixel budget."""

    epsilon: float = 0.10
    variant: str = "full"  # "full" | "topk"
    k: Optional[int] = None
    target: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if self.variant not in ("full", "topk"):
            raise ValueError(f"unknown attack variant {self.variant!r}")
        if self.variant == "topk" and (self.k is None or self.k < 1):
            raise ValueError("top-k attack needs k >= 1")


@dataclass(eq=False)
class AdversarialExample:
    original: Image
    adversarial: Image
    perturbation: np.ndarray  # signed per-pixel byte delta
    original_label: int
    adversarial_label: int
    effectual: bool


def craft(model, x, config):
    """FGSM on one image; config.variant and config.k choose which pixels move.

    Full FGSM moves every pixel by epsilon along its gradient sign; top-k
    moves only the k pixels with the largest gradient magnitude. The label
    and the loss gradient come from one pass through the network.
    """
    xf = to_float(x)
    z1, _, p = _forward(model, xf.pixels.reshape(1, -1))
    original_label = int(np.argmax(p[0]))
    c = config.target if config.target is not None else original_label
    _check_class(model, c)
    # cross-entropy against class c, back through the hidden layer to the pixels
    g1 = _hidden_gradient(model, z1, p - np.eye(model.n_classes)[c])
    grad = (g1 @ model.w1.T).reshape(xf.pixels.shape)
    delta = config.epsilon * np.sign(grad)
    if config.variant == "topk":
        if config.k > grad.size:
            raise ValueError(f"k={config.k} exceeds pixel count {grad.size}")
        # largest |gradient| first; stable sort resolves ties by pixel index
        order = np.argsort(-np.abs(grad).ravel(), kind="stable")
        mask = np.zeros(grad.size, dtype=bool)
        mask[order[:config.k]] = True
        delta = delta * mask.reshape(grad.shape)
    adv = to_bytes(FloatImage(np.clip(xf.pixels + delta, 0.0, 1.0)))
    adversarial_label = forward(model, to_float(adv)).label()
    return AdversarialExample(
        original=x,
        adversarial=adv,
        perturbation=adv.pixels.astype(np.int16) - x.pixels.astype(np.int16),
        original_label=original_label,
        adversarial_label=adversarial_label,
        effectual=adversarial_label != original_label,
    )


@dataclass(eq=False)
class CorpusSummary:
    """What an attack run produced: counts plus the manifest rows."""

    directory: Path
    attacked: int
    skipped: int
    manifest: list  # (id, original_label, adversarial_label) per effectual pair

    @property
    def effectual(self):
        return len(self.manifest)


def build_attack_corpus(model, images, labels, config, out_dir):
    """Attack every image and persist the effectual (original, adversarial) pairs.

    When dataset labels are given, images the model already misclassifies
    are skipped rather than attacked. Each effectual example is written as
    `<id>_orig.pgm` / `<id>_adv.pgm` (ppm for RGB) with one manifest line;
    ids are zero-padded input indices, written in input order.
    """
    if labels is not None and len(labels) != len(images):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    attacked = skipped = 0
    for i, img in enumerate(images):
        ex = craft(model, img, config)
        if labels is not None and ex.original_label != int(labels[i]):
            skipped += 1
            continue
        attacked += 1
        if not ex.effectual:
            continue
        sample_id = f"{i:05d}"
        ext = "pgm" if img.planes == 1 else "ppm"
        (out / f"{sample_id}_orig.{ext}").write_bytes(write_pgm_ppm(ex.original))
        (out / f"{sample_id}_adv.{ext}").write_bytes(write_pgm_ppm(ex.adversarial))
        rows.append((sample_id, ex.original_label, ex.adversarial_label))
    with open(out / MANIFEST_NAME, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return CorpusSummary(out, attacked, skipped, rows)
