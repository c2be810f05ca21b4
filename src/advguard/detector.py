"""Label-change detection and recall/precision evaluation over a corpus.

A sample is flagged adversarial when the classifier's top-1 label changes
after adaptive denoising. Evaluation treats the persisted adversarial
files as positives and their originals as benign negatives.
"""

import csv
import errno
import os
import stat
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .attack import MANIFEST_HEADER, MANIFEST_NAME
from .denoise import DenoiseStrategy, _filter, select_strategy
from .entropy import _profiles
from .image import FormatError, Image, _chunks, read_pgm_ppm

REPORT_HEADER = ("id", "kind", "original_label", "denoised_label", "flagged", "h2d", "intervals", "smoothed")
SUMMARY_HEADER = ("tp", "fn", "fp", "tn", "recall", "precision")


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


def _denoise(images):
    """Entropy profile, strategy and denoised Image of each same-shape image, filtered as stacks."""
    planes = images[0].planes
    stack = np.concatenate([img.pixels for img in images], axis=2)
    profiles = _profiles(stack, planes)
    strategies = [select_strategy(p) for p in profiles]
    groups = {}  # strategy -> indices of its images, in order
    for i, strategy in enumerate(strategies):
        groups.setdefault(strategy, []).append(i)
    denoised = [None] * len(images)
    for strategy, members in groups.items():
        group = stack if len(members) == len(images) else stack[:, :, [
            i * planes + k for i in members for k in range(planes)]]
        combined = _filter(group, strategy)[2]
        for j, i in enumerate(members):
            denoised[i] = Image(combined[:, :, j * planes:(j + 1) * planes])
    return zip(profiles, strategies, denoised)


def _label_pairs(batch, raw, denoised):
    """(raw label, denoised label) per image, lowest index on ties; if classifying fails, its exception for each."""
    try:
        predictions = list(batch(raw + denoised))
        if len(predictions) != 2 * len(raw):
            raise ValueError(f"batch returned {len(predictions)} predictions for {2 * len(raw)} images")
        labels = np.argmax(np.array([p.confidences for p in predictions]), axis=1).tolist()
    except Exception as e:
        return [e] * len(raw)
    return list(zip(labels[:len(raw)], labels[len(raw):]))


def detect_batch(classify, images, sample_ids=None):
    """Detect many images; each result, in order, is a Verdict or a DetectionError.

    Same-shape images are filtered as stacks, a bounded number at a time.
    When `classify` has a `batch(images) -> [PredictionVector]` method, as
    ModelClassifier does, each same-shape group is classified by one call
    over its raw and denoised images. Any other callable is a batch of one
    image: it is called on the raw image, then on the denoised one, in the
    order of `images`. If a call fails, or its predictions differ in length,
    every sample of that batch gets the error.
    """
    images = list(images)
    sample_ids = [""] * len(images) if sample_ids is None else list(sample_ids)
    if len(sample_ids) != len(images):
        raise ValueError("images and sample ids are not aligned")
    batch = getattr(classify, "batch", None)
    single = batch is None
    if single:
        batch = lambda pair: [classify(img) for img in pair]
    results = [None] * len(images)
    for chunk in _chunks(range(len(images)), lambda i: images[i].pixels.size):
        groups, found = {}, {}  # shape -> indices; index -> (profile, strategy, denoised)
        for i in chunk:
            groups.setdefault(images[i].pixels.shape, []).append(i)
        for members in groups.values():
            found.update(zip(members, _denoise([images[i] for i in members])))
        for run in ([i] for i in chunk) if single else groups.values():
            pairs = _label_pairs(batch, [images[i] for i in run], [found[i][2] for i in run])
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

    `classify` is any callable mapping an Image to a PredictionVector (or
    any result with `.confidences`). This is detect_batch on one image, so
    a `batch` method is used when the classifier has one. Classifier
    failures raise DetectionError with the sample id attached.
    """
    (result,) = detect_batch(classify, [img], [sample_id])
    if isinstance(result, DetectionError):
        raise result
    return result


def _read_manifest(corpus_dir):
    path = Path(corpus_dir) / MANIFEST_NAME
    if not path.is_file():
        raise CorpusError(f"empty corpus: no {MANIFEST_NAME} in {corpus_dir}")
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as e:  # bytes that are not UTF-8, or a field over csv's limit
        raise CorpusError(f"malformed manifest in {corpus_dir}: {e}") from None
    if not rows or tuple(rows[0]) != MANIFEST_HEADER:
        raise CorpusError(f"malformed manifest in {corpus_dir}")
    if len(rows) == 1:
        raise CorpusError(f"empty corpus: manifest in {corpus_dir} has no samples")
    ids = {}  # id: its line, in manifest order
    for line, row in enumerate(rows[1:], start=2):
        # ids name files through _read_sample, so each must be a plain file-name stem
        if len(row) != 3 or row[0] in ("", ".", "..") or any(c in row[0] for c in "/\\\0"):
            raise CorpusError(f"malformed manifest in {corpus_dir}: line {line} is {row!r}")
        if ids.setdefault(row[0], line) != line:  # a repeated id would read and count one pair twice
            raise CorpusError(f"malformed manifest in {corpus_dir}: line {line} repeats id {row[0]!r}")
    return list(ids)


# open errors on names that Path.is_file() calls no file: missing, under a non-directory, a link loop, a socket
_NOT_A_FILE = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP, errno.ENXIO)
# O_NONBLOCK exists only on POSIX, O_BINARY (no newline translation) only on Windows
_OPEN_FLAGS = os.O_RDONLY | getattr(os, "O_NONBLOCK", 0) | getattr(os, "O_BINARY", 0)


def _read_sample(corpus_dir, sample_id, suffix):
    """The bytes of <id>_<suffix>.pgm, else of the .ppm; FileNotFoundError naming the .pgm if neither is a file.

    One open and one fstat per name. O_NONBLOCK lets a FIFO open without a
    writer, so it is passed over like a directory instead of waiting forever.
    """
    for ext in ("pgm", "ppm"):
        try:
            fd = os.open(os.path.join(corpus_dir, f"{sample_id}_{suffix}.{ext}"), _OPEN_FLAGS)
        except OSError as e:
            if e.errno in _NOT_A_FILE:
                continue
            raise
        try:
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                parts, left = [], info.st_size
                while left and (part := os.read(fd, left)):  # one read unless the file is over 2 GiB
                    parts.append(part)
                    left -= len(part)
                return b"".join(parts)
        finally:
            os.close(fd)
    raise FileNotFoundError(f"{sample_id}_{suffix}.pgm")


def _read_samples(corpus_dir, ids, errors):
    """(kind, sample id, Image) per readable corpus file in manifest order; read failures go to `errors`."""
    corpus_dir = str(Path(corpus_dir))  # an OSError names the file as pathlib spells it
    for sample_id in ids:
        for kind, suffix in (("original", "orig"), ("adversarial", "adv")):
            try:
                img = read_pgm_ppm(_read_sample(corpus_dir, sample_id, suffix))
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
