"""Fast-gradient-sign adversarial example crafting and corpus persistence.

Attacks run in the [0, 1] float domain and the result is committed to
8-bit before anything downstream sees it, so effectuality is always
judged on the image as it would be stored. The perturbation direction is
the sign of the loss gradient with respect to the input; sign(0) is 0.
"""

import csv
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Optional

import numpy as np

from .classifier import _bytes, _check_class, _floats, _forward, _hidden_gradient, _rows
from .image import Image, _chunks, write_pgm_ppm

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
        for name in ("k", "target"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, Integral) or isinstance(value, bool)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
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


def _check(model, images, config):
    """Raise ValueError if the model cannot attack every image under config."""
    for img in images:
        if img.pixels.size != model.input_size:
            raise ValueError(f"dimension mismatch: input has {img.pixels.size} values, "
                             f"model expects {model.input_size}")
    if config.target is not None:
        _check_class(model, config.target)
    if config.variant == "topk" and config.k > model.input_size:
        raise ValueError(f"k={config.k} exceeds pixel count {model.input_size}")


def _fgsm(model, images, config):
    """FGSM on a checked batch: original labels, adversarial (n, d) byte rows, adversarial labels.

    One forward pass gives every label and softmax row; the loss gradient
    of each row goes back through the hidden layer to the pixels at once.
    Top-k ranks each row by |gradient| with a stable sort, so ties go to
    the lower pixel index. A model that overflows on a row gives it a NaN
    step, which raises ValueError instead of being committed as bytes.
    """
    X = _floats(_rows(images))
    z1, _, p = _forward(model, X)
    original = p.argmax(axis=1)
    c = original if config.target is None else np.full(len(X), config.target)
    # cross-entropy against class c, back through the hidden layer to the pixels
    grad = _hidden_gradient(model, z1, p - np.eye(model.n_classes)[c]) @ model.w1.T
    delta = config.epsilon * np.sign(grad)
    if config.variant == "topk":
        order = np.argsort(-np.abs(grad), axis=1, kind="stable")
        mask = np.zeros(grad.shape, dtype=bool)
        np.put_along_axis(mask, order[:, :config.k], True, axis=1)
        delta = delta * mask
    stepped = np.clip(X + delta, 0.0, 1.0)
    if np.isnan(stepped).any():  # sign() bounds every step but a NaN one
        raise ValueError("non-finite FGSM step: the model overflows on this input")
    adv = _bytes(stepped)
    return original.tolist(), adv, _forward(model, _floats(adv))[2].argmax(axis=1).tolist()


def craft(model, x, config):
    """FGSM on one image; config.variant and config.k choose which pixels move.

    Full FGSM moves every pixel by epsilon along its gradient sign; top-k
    moves only the k pixels with the largest gradient magnitude. A batch of
    one through the same code as build_attack_corpus.
    """
    _check(model, [x], config)
    (original_label,), rows, (adversarial_label,) = _fgsm(model, [x], config)
    adv = Image(rows.reshape(x.pixels.shape))
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

    Images are crafted in bounded batches, and a config or image size the
    model cannot attack raises ValueError before any file is written. When
    dataset labels are given, images the model already misclassifies
    are skipped rather than attacked. Each effectual example is written as
    `<id>_orig.pgm` / `<id>_adv.pgm` (ppm for RGB) with one manifest line;
    ids are zero-padded input indices, written in input order.
    """
    images = list(images)
    if labels is not None and len(labels) != len(images):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    _check(model, images, config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    attacked = skipped = 0
    for chunk in _chunks(range(len(images)), lambda i: images[i].pixels.size):
        crafted = _fgsm(model, [images[i] for i in chunk], config)
        for i, original_label, adv, adversarial_label in zip(chunk, *crafted):
            if labels is not None and original_label != int(labels[i]):
                skipped += 1
                continue
            attacked += 1
            if adversarial_label == original_label:
                continue
            img, sample_id = images[i], f"{i:05d}"
            ext = "pgm" if img.planes == 1 else "ppm"
            (out / f"{sample_id}_orig.{ext}").write_bytes(write_pgm_ppm(img))
            (out / f"{sample_id}_adv.{ext}").write_bytes(write_pgm_ppm(Image(adv.reshape(img.pixels.shape))))
            rows.append((sample_id, original_label, adversarial_label))
    with open(out / MANIFEST_NAME, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)
    return CorpusSummary(out, attacked, skipped, rows)
