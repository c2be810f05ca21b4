"""Label-change detection and recall/precision evaluation over a corpus.

A sample is flagged adversarial when the classifier's top-1 label changes
after adaptive denoising. Evaluation treats the persisted adversarial
files as positives and their originals as benign negatives.
"""

import csv
from dataclasses import dataclass
from pathlib import Path

from .denoise import adaptive_filter
from .entropy import DenoiseStrategy, entropy_2d, select_strategy
from .image import FormatError, read_pgm_ppm

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


def detect(classify, img, sample_id=""):
    """Classify an image and its denoised version; flag on label change.

    `classify` is any callable mapping an Image to a PredictionVector.
    Classifier failures are reported with the sample id attached.
    """
    profile = entropy_2d(img)
    strategy = select_strategy(profile)
    denoised = adaptive_filter(img, strategy=strategy).combined
    try:
        original_label = classify(img).label()
        denoised_label = classify(denoised).label()
    except Exception as e:
        raise DetectionError(f"sample {sample_id or '<unnamed>'}: {e}") from e
    return Verdict(
        sample_id=sample_id,
        original_label=original_label,
        denoised_label=denoised_label,
        adversarial=original_label != denoised_label,
        h2d=profile.h2d,
        strategy=strategy,
    )


def _read_manifest(corpus_dir):
    path = Path(corpus_dir) / "manifest.csv"
    if not path.is_file():
        raise CorpusError(f"empty corpus: no manifest.csv in {corpus_dir}")
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
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


def evaluate(classify, corpus_dir):
    """Detect every corpus file and tally recall/precision.

    Missing or corrupt files and classifier failures are collected and the
    run continues; they are reported in the returned EvaluationResult.
    """
    ids = _read_manifest(corpus_dir)
    tp = fn = fp = tn = 0
    verdicts, corpus_errors, classifier_errors = [], [], []
    for sample_id in ids:
        for kind, suffix in (("original", "orig"), ("adversarial", "adv")):
            try:
                path = _find_sample(corpus_dir, sample_id, suffix)
                img = read_pgm_ppm(path.read_bytes())
            except (OSError, FormatError) as e:
                corpus_errors.append(f"{sample_id} ({kind}): {e}")
                continue
            try:
                verdict = detect(classify, img, sample_id=sample_id)
            except DetectionError as e:
                classifier_errors.append(str(e))
                continue
            verdicts.append((kind, verdict))
            if kind == "adversarial":
                tp, fn = (tp + 1, fn) if verdict.adversarial else (tp, fn + 1)
            else:
                fp, tn = (fp + 1, tn) if verdict.adversarial else (fp, tn + 1)
    stats = DetectionStats.from_counts(tp, fn, fp, tn)
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
