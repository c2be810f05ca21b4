"""Fast-gradient-sign adversarial example crafting, and the corpus format: its writer and its readers.

Attacks run in the [0, 1] float domain and the result is committed to
8-bit before anything downstream sees it, so effectuality is always
judged on the image as it would be stored. The perturbation direction is
the sign of the loss gradient with respect to the input; sign(0) is 0.
"""

import csv
import errno
import os
import stat
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .classifier import _bytes, _check_integer, _dataset, _floats, _forward, _is_real, _pixel_gradient, _rows, _softmax
from .image import FormatError, Image, _chunks, read_pgm_ppm, write_pgm_ppm

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = ("id", "original_label", "adversarial_label")


class CorpusError(RuntimeError):
    """The corpus directory is missing, empty, or unreadable."""


@dataclass(frozen=True)
class AttackConfig:
    """Perturbation amplitude, variant, and (for top-k) the pixel budget."""

    epsilon: float = 0.10
    variant: str = "full"  # "full" | "topk"
    k: Optional[int] = None

    def __post_init__(self):
        if self.k is not None:
            _check_integer(self.k, "k")
        if not (_is_real(self.epsilon) and 0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must be a real number in (0, 1], got {self.epsilon!r}")
        if self.variant not in ("full", "topk"):
            raise ValueError(f"unknown attack variant {self.variant!r}")
        if self.variant == "topk" and (self.k is None or self.k < 1):
            raise ValueError("top-k attack needs k >= 1")
        if self.variant != "topk" and self.k is not None:
            raise ValueError("k applies only to the top-k variant")


@dataclass(eq=False)
class AdversarialExample:
    original: Image
    adversarial: Image
    perturbation: np.ndarray  # signed per-pixel byte delta
    original_label: int
    adversarial_label: int
    effectual: bool


def _fgsm(model, X, config):
    """FGSM on (n, d) byte rows from _rows: original labels, adversarial byte rows, adversarial labels.

    One forward pass gives every label and softmax row; the loss gradient
    of each row goes back through the hidden layer to the pixels at once.
    Top-k ranks each row by |gradient| with a stable sort, so ties go to
    the lower pixel index. A k above the input size is a ValueError, as is
    a row that makes the model overflow: its NaN step is never committed.
    """
    if X.dtype != np.uint8:  # _rows gives bytes only when every input is an Image, which the corpus stores
        raise ValueError("attacked images must all be Images, not arrays")
    if config.variant == "topk" and config.k > model.input_size:
        raise ValueError(f"k={config.k} exceeds pixel count {model.input_size}")
    X = _floats(X)
    z1, _, p = _forward(model, X)
    original = p.argmax(axis=1)
    with np.errstate(over="ignore"):  # only the sign is used, and sign(+-inf) is +-1
        grad = _pixel_gradient(model, z1, p, original)  # cross-entropy against the original label
    if config.variant == "topk":
        order = np.argsort(-np.abs(grad), axis=1, kind="stable")
        mask = np.zeros(grad.shape, dtype=bool)
        np.put_along_axis(mask, order[:, :config.k], True, axis=1)
    # grad is the scratch buffer from here on: the step, the stepped rows and their rounding are made
    # in place in it, so a chunk allocates no further row-sized float64 temporaries
    step = np.sign(grad, out=grad)
    step *= config.epsilon
    if config.variant == "topk":
        step *= mask
    stepped = np.clip(np.add(X, step, out=step), 0.0, 1.0, out=step)
    if np.isnan(stepped).any():  # sign() bounds every step but a NaN one
        raise ValueError("non-finite FGSM step: the model overflows on this input")
    adv = _bytes(stepped)
    return original.tolist(), adv, _softmax(model, adv).argmax(axis=1).tolist()


def craft(model, x, config):
    """FGSM on one image; config.variant and config.k choose which pixels move.

    Full FGSM moves every pixel by epsilon along its gradient sign; top-k
    moves only the k pixels with the largest gradient magnitude. A batch of
    one through the same code as build_attack_corpus.
    """
    (original_label,), rows, (adversarial_label,) = _fgsm(model, _rows([x]), config)
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

    Labels, when given, are checked as train checks them, and images the
    model already misclassifies are skipped rather than attacked. Every
    image is crafted, in bounded batches, before the directory is made, so
    an error leaves no output. Each effectual example is written as
    `<id>_orig.pgm` / `<id>_adv.pgm` (ppm for RGB) with one manifest line;
    ids are zero-padded input indices, written in input order.
    """
    images = list(images)
    X, y = (_rows(images), None) if labels is None else _dataset(images, labels, model.n_classes)
    crafted = [row for chunk in _chunks(range(len(X)), lambda i: X.shape[1])
               for row in zip(*_fgsm(model, X[chunk], config))]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    attacked = skipped = 0
    for i, (original_label, adv, adversarial_label) in enumerate(crafted):
        if y is not None and original_label != y[i]:
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
