"""Label-change detection and recall/precision evaluation over a corpus.

A sample is flagged adversarial when the classifier's top-1 label changes
after adaptive denoising. Evaluation treats the persisted adversarial
files as positives and their originals as benign negatives.
"""

import csv
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .denoise import _filter
from .entropy import DenoiseStrategy, _profiles, select_strategy
from .image import FormatError, Image, read_pgm_ppm

REPORT_HEADER = ("id", "kind", "original_label", "denoised_label", "flagged", "h2d", "intervals", "smoothed")
SUMMARY_HEADER = ("tp", "fn", "fp", "tn", "recall", "precision")
# A batch ends at 512 images or 1 MiB of pixels, whichever comes first (512
# digits, or 6 images of 224x224x3), so its float rows stay below 15 MB.
_BATCH_IMAGES, _BATCH_BYTES = 512, 2**20


class CorpusError(RuntimeError):
    """The corpus directory is missing, empty, or unreadable."""


class DetectionError(RuntimeError):
    """The classifier failed while detecting a sample."""


@dataclass(eq=False)
class Verdict:
    sample_id: str
    original_label: int
    denoised_label: int
    adversarial: bool
    h2d: float
    strategy: DenoiseStrategy


@dataclass(frozen=True)
class DetectionStats:
    tp: int
    fn: int
    fp: int
    tn: int
    recall: float
    precision: float

    @classmethod
    def from_counts(cls, tp, fn, fp, tn):
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        return cls(tp, fn, fp, tn, recall, precision)


@dataclass(eq=False)
class EvaluationResult:
    stats: DetectionStats
    verdicts: list  # (kind, Verdict), kind in {"original", "adversarial"}
    corpus_errors: list
    classifier_errors: list

    @property
    def ok(self):
        return not self.corpus_errors and not self.classifier_errors


def _chunks(items, nbytes):
    """Consecutive runs of items within _BATCH_IMAGES items and _BATCH_BYTES bytes; a larger item runs alone."""
    chunk, total = [], 0
    for item in items:
        size = nbytes(item)
        if chunk and (len(chunk) == _BATCH_IMAGES or total + size > _BATCH_BYTES):
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += size
    if chunk:
        yield chunk


def _denoise(images):
    """Entropy profile, strategy and denoised Image of each same-shape image, filtered as stacks."""
    planes = images[0].planes
    stack = np.concatenate([img.pixels for img in images], axis=2)
    profiles = _profiles(stack, planes)
    strategies = [select_strategy(p) for p in profiles]
    denoised = [None] * len(images)
    for strategy in dict.fromkeys(strategies):
        members = [i for i, s in enumerate(strategies) if s == strategy]
        group = stack if len(members) == len(images) else stack[:, :, [
            i * planes + k for i in members for k in range(planes)]]
        combined = _filter(group, strategy)[2]
        for j, i in enumerate(members):
            denoised[i] = Image(combined[:, :, j * planes:(j + 1) * planes])
    return zip(profiles, strategies, denoised)


def _label_pairs(classify, raw, denoised):
    """(raw label, denoised label) per image, or the exception that classifying it raised."""
    batch = getattr(classify, "batch", None)
    if batch is None:
        pairs = []
        for pair in zip(raw, denoised):
            try:
                pairs.append(tuple(classify(img).label() for img in pair))
            except Exception as e:
                pairs.append(e)
        return pairs
    try:
        labels = [p.label() for p in batch(raw + denoised)]
        if len(labels) != 2 * len(raw):
            raise ValueError(f"batch returned {len(labels)} predictions for {2 * len(raw)} images")
    except Exception as e:
        return [e] * len(raw)
    return list(zip(labels[:len(raw)], labels[len(raw):]))


def detect_batch(classify, images, sample_ids=None):
    """Detect many images; each result, in order, is a Verdict or a DetectionError.

    Same-shape images are filtered as stacks, a bounded number at a time.
    When `classify` has a `batch(images) -> [PredictionVector]` method, as
    ModelClassifier does, each same-shape group is classified by one call
    over its raw and denoised images, and if that call fails, every sample
    of the group gets the error. Any other callable is called image by
    image, raw then denoised, in the order of `images`.
    """
    images = list(images)
    sample_ids = [""] * len(images) if sample_ids is None else list(sample_ids)
    if len(sample_ids) != len(images):
        raise ValueError("images and sample ids are not aligned")
    results = [None] * len(images)
    for chunk in _chunks(range(len(images)), lambda i: images[i].pixels.size):
        groups, found = {}, {}  # shape -> indices; index -> (profile, strategy, denoised)
        for i in chunk:
            groups.setdefault(images[i].pixels.shape, []).append(i)
        for members in groups.values():
            found.update(zip(members, _denoise([images[i] for i in members])))
        for run in groups.values() if hasattr(classify, "batch") else [chunk]:
            pairs = _label_pairs(classify, [images[i] for i in run], [found[i][2] for i in run])
            for i, labels in zip(run, pairs):
                results[i] = _verdict(sample_ids[i], *found[i][:2], labels)
    return results


def _verdict(sample_id, profile, strategy, labels):
    if isinstance(labels, Exception):
        error = DetectionError(f"sample {sample_id or '<unnamed>'}: {labels}")
        error.__cause__ = labels
        return error
    original_label, denoised_label = labels
    return Verdict(sample_id, original_label, denoised_label, original_label != denoised_label,
                   profile.h2d, strategy)


def detect(classify, img, sample_id=""):
    """Classify an image and its denoised version; flag on label change.

    `classify` is any callable mapping an Image to a PredictionVector.
    This is detect_batch on one image, so a `batch` method is used when
    the classifier has one. Classifier failures raise DetectionError with
    the sample id attached.
    """
    (result,) = detect_batch(classify, [img], [sample_id])
    if isinstance(result, DetectionError):
        raise result
    return result


def _read_manifest(corpus_dir):
    path = Path(corpus_dir) / "manifest.csv"
    if not path.is_file():
        raise CorpusError(f"empty corpus: no manifest.csv in {corpus_dir}")
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as e:  # bytes that are not UTF-8, or a field over csv's limit
        raise CorpusError(f"malformed manifest in {corpus_dir}: {e}") from None
    if not rows or tuple(rows[0]) != ("id", "original_label", "adversarial_label"):
        raise CorpusError(f"malformed manifest in {corpus_dir}")
    if len(rows) == 1:
        raise CorpusError(f"empty corpus: manifest in {corpus_dir} has no samples")
    for line, row in enumerate(rows[1:], start=2):
        # ids name files through _find_sample, so each must be a plain file-name stem
        if len(row) != 3 or row[0] in ("", ".", "..") or any(c in row[0] for c in "/\\\0"):
            raise CorpusError(f"malformed manifest in {corpus_dir}: line {line} is {row!r}")
    return [row[0] for row in rows[1:]]


def _find_sample(corpus_dir, sample_id, suffix):
    for ext in ("pgm", "ppm"):
        path = Path(corpus_dir) / f"{sample_id}_{suffix}.{ext}"
        if path.is_file():
            return path
    raise FileNotFoundError(f"{sample_id}_{suffix}.pgm")


def _read_samples(corpus_dir, ids, errors):
    """(kind, sample id, Image) per readable corpus file in manifest order; read failures go to `errors`."""
    for sample_id in ids:
        for kind, suffix in (("original", "orig"), ("adversarial", "adv")):
            try:
                img = read_pgm_ppm(_find_sample(corpus_dir, sample_id, suffix).read_bytes())
            except (OSError, FormatError) as e:
                errors.append(f"{sample_id} ({kind}): {e}")
                continue
            yield kind, sample_id, img


def evaluate(classify, corpus_dir):
    """Detect every corpus file and tally recall/precision.

    Files are read in manifest order and detected in bounded batches.
    Missing or corrupt files and classifier failures are collected and the
    run continues; they are reported in the returned EvaluationResult.
    """
    ids = _read_manifest(corpus_dir)
    verdicts, corpus_errors, classifier_errors = [], [], []
    for chunk in _chunks(_read_samples(corpus_dir, ids, corpus_errors), lambda s: s[2].pixels.size):
        kinds, sample_ids, images = zip(*chunk)
        for kind, result in zip(kinds, detect_batch(classify, images, sample_ids)):
            if isinstance(result, DetectionError):
                classifier_errors.append(str(result))
            else:
                verdicts.append((kind, result))
    n = Counter((kind, v.adversarial) for kind, v in verdicts)
    stats = DetectionStats.from_counts(n["adversarial", True], n["adversarial", False],
                                       n["original", True], n["original", False])
    return EvaluationResult(stats, verdicts, corpus_errors, classifier_errors)


def write_report(stats, verdicts, path):
    """Write the per-sample CSV plus the trailing tp/fn/fp/tn summary block."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(REPORT_HEADER)
        for kind, v in verdicts:
            writer.writerow([
                v.sample_id,
                kind,
                v.original_label,
                v.denoised_label,
                "true" if v.adversarial else "false",
                f"{v.h2d:.4f}",
                v.strategy.intervals,
                "true" if v.strategy.smooth else "false",
            ])
        writer.writerow(SUMMARY_HEADER)
        writer.writerow([stats.tp, stats.fn, stats.fp, stats.tn, f"{stats.recall:.4f}", f"{stats.precision:.4f}"])
