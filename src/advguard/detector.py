"""The label-change rule, its classifier batching, and recall/precision evaluation over a corpus.

A sample is flagged adversarial when the classifier's top-1 label changes
after adaptive denoising. Evaluation treats the persisted adversarial
files as positives and their originals as benign negatives.
"""

import csv
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .attack import _read_manifest, _read_samples
from .denoise import DenoiseStrategy, _denoise
from .image import _chunks

REPORT_HEADER = ("id", "kind", "original_label", "denoised_label", "flagged", "h2d", "intervals", "smoothed")
SUMMARY_HEADER = ("tp", "fn", "fp", "tn", "recall", "precision")


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


def _label_pairs(batch, raw, denoised):
    """(raw label, denoised label) per image, lowest index on ties; if classifying fails, its exception for each."""
    n = 2 * len(raw)
    try:
        P = np.asarray(batch(raw + denoised))  # (2n, k) confidence rows, checked by the classifier that made them
        if P.ndim != 2 or P.shape[1] == 0:
            raise ValueError(f"batch returned an array of shape {P.shape}, expected ({n}, k) confidence rows")
        if len(P) != n:
            raise ValueError(f"batch returned {len(P)} predictions for {n} images")
        labels = np.argmax(P, axis=1).tolist()
    except Exception as e:
        return [e] * len(raw)
    return list(zip(labels[:len(raw)], labels[len(raw):]))


def detect_batch(classify, images, sample_ids=None):
    """Detect many images; each result, in order, is a Verdict or a DetectionError.

    Images go a bounded number at a time, each classifier call's run in one
    pass. When `classify` has a `batch(images)` method returning (n, k)
    confidence rows, as ModelClassifier does, a run is a same-shape group:
    it is filtered as one stack and classified by one call over its raw and
    denoised images. Any other callable is a run of one image, read by its
    `.confidences`: the image is filtered alone, then the callable is called
    on it and on its denoised version, in the order of `images`. If a call
    fails, or its rows differ in length, every sample of that run gets the error.
    """
    images = list(images)
    sample_ids = [""] * len(images) if sample_ids is None else list(sample_ids)
    if len(sample_ids) != len(images):
        raise ValueError("images and sample ids are not aligned")
    batch = getattr(classify, "batch", None)
    key = (lambda i: i) if batch is None else (lambda i: images[i].pixels.shape)  # one classifier call per key
    if batch is None:
        batch = lambda pair: [classify(img).confidences for img in pair]
    results = [None] * len(images)
    for chunk in _chunks(range(len(images)), lambda i: images[i].pixels.size):
        runs = {}  # key -> indices of its images, in order
        for i in chunk:
            runs.setdefault(key(i), []).append(i)
        for run in runs.values():
            raw = [images[i] for i in run]
            profiles, strategies, denoised = _denoise(raw)
            for i, profile, strategy, labels in zip(run, profiles, strategies, _label_pairs(batch, raw, denoised)):
                if isinstance(labels, Exception):
                    results[i] = DetectionError(f"sample {sample_ids[i] or '<unnamed>'}: {labels}")
                    results[i].__cause__ = labels
                else:
                    results[i] = Verdict(sample_ids[i], *labels, labels[0] != labels[1], profile.h2d, strategy)
    return results


def detect(classify, img, sample_id=""):
    """Classify an image and its denoised version; flag on label change.

    `classify` is any callable mapping an Image to a PredictionVector (or
    any result with `.confidences`). This is detect_batch on one image, so
    a `batch` method of (n, k) rows is used when the classifier has one.
    Classifier failures raise DetectionError with the sample id attached.
    """
    (result,) = detect_batch(classify, [img], [sample_id])
    if isinstance(result, DetectionError):
        raise result
    return result


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
