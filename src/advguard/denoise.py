"""Scalar quantization, cross-mask smoothing, and the combined denoising filter.

The adaptive filter quantizes every input; images above the high-entropy
threshold are additionally smoothed, and the final output keeps, per pixel,
whichever candidate (quantized or smoothed-quantized) stays closer to the
original intensity. Ties keep the quantized value.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral
from typing import Optional

import numpy as np

from .entropy import _stencil, entropy_2d, select_strategy
from .image import Image


@dataclass(frozen=True)
class Quantizer:
    """Interval partition of 0..255, each interval replaced by its codeword.

    The intervals run in order, without gaps or overlaps, over exactly
    0..255. ``table``, the 256-entry codeword of every byte, is built here.
    """

    intervals: int
    codebook: tuple  # (lower, upper, codeword) per interval
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.intervals != len(self.codebook):
            raise ValueError(f"{self.intervals} intervals but {len(self.codebook)} codebook entries")
        table = np.empty(256, dtype=np.uint8)
        start = 0
        for entry in self.codebook:
            lo, hi, code = entry
            if not all(isinstance(v, Integral) for v in entry):
                raise ValueError(f"codebook entry {entry!r} must hold three integers")
            if lo != start or hi < lo:
                raise ValueError(f"interval {lo}..{hi} must be non-empty and start at {start}: "
                                 "intervals run in order over 0..255 without gaps or overlaps")
            if not 0 <= code <= 255:
                raise ValueError(f"codeword {code} out of range 0..255")
            table[lo:hi + 1] = code
            start = hi + 1
        if start != 256:
            raise ValueError(f"intervals must cover 0..255, got 0..{start - 1}")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)  # the dataclass is frozen


@dataclass(eq=False)
class FilterMask:
    """5x5 integer filter mask; weights indexed by [s + 2, t + 2]."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.shape != (5, 5):
            raise ValueError(f"filter mask must be 5x5, got shape {w.shape}")
        if not np.issubdtype(w.dtype, np.integer):
            raise ValueError(f"filter mask weights must be integer, got {w.dtype}")
        if w.sum() == 0:
            raise ValueError("filter mask weights need a nonzero sum")
        if w.min() < 0:  # a signed sum can leave 0..255 and would wrap as a byte
            raise ValueError(f"filter mask weights must be nonnegative, got {w.min()}")
        self.weights = w

    @property
    def normalizer(self):
        return int(self.weights.sum())


@dataclass(eq=False)
class FilteredTriple:
    """Quantized, optionally smoothed-quantized, and combined output images."""

    quantized: Image
    smoothed_quantized: Optional[Image]
    combined: Image


@lru_cache(maxsize=None)
def make_quantizer(intervals):
    """Build the uniform left-value quantizer with 2, 4, or 6 intervals.

    Steps are 128, 64, and 50; with 6 intervals the last interval is the
    short [250, 255] one.
    """
    steps = {2: 128, 4: 64, 6: 50}
    if intervals not in steps:
        raise ValueError(f"unsupported interval count: {intervals}")
    step = steps[intervals]
    codebook = tuple(
        (lo, min(lo + step - 1, 255), lo) for lo in range(0, 256, step)
    )
    return Quantizer(intervals, codebook)


def quantize(img, q):
    """Replace every pixel with its interval's codeword via a 256-entry table."""
    return Image(q.table.take(img.pixels))


_CROSS = np.zeros((5, 5), dtype=np.int64)
_CROSS[2, :] = _CROSS[:, 2] = 1


def cross_mask():
    """The 5x5 mask weighting the center pixel and its axis neighbors by 1."""
    return FilterMask(_CROSS.copy())


def averaging_mask():
    """The plain 5x5 averaging mask (all weights 1)."""
    return FilterMask(np.ones((5, 5), dtype=np.int64))


def smooth(img, mask=None):
    """Normalized mask convolution of each plane (default: cross mask)."""
    if mask is None:
        mask = cross_mask()
    return Image(_stencil(img.pixels, mask.weights))


def combine(original, quantized, smoothed_quantized):
    """Per pixel, keep whichever candidate is closer to the original.

    Ties go to the quantized value.
    """
    if not (original.pixels.shape == quantized.pixels.shape == smoothed_quantized.pixels.shape):
        raise ValueError("shape mismatch between original and filtered images")
    return Image(_combine(original.pixels, quantized.pixels, smoothed_quantized.pixels))


def _combine(original, quantized, smoothed):
    """combine on uint8 arrays of one shape."""
    f, q, s = (a.astype(np.int16) for a in (original, quantized, smoothed))
    return np.where(np.abs(q - f) <= np.abs(s - f), q, s).astype(np.uint8)


def _filter(pixels, strategy):
    """adaptive_filter on an (H, W, K) uint8 array: quantized, smoothed-quantized or None, combined.

    Every stage works per plane or per pixel, so K may hold the planes of
    many images side by side.
    """
    quantized = make_quantizer(strategy.intervals).table.take(pixels)
    if not strategy.smooth:
        return quantized, None, quantized
    smoothed = _stencil(quantized, _CROSS)
    return quantized, smoothed, _combine(pixels, quantized, smoothed)


def adaptive_filter(img, strategy=None):
    """Denoise an image according to its 2-D entropy.

    When `strategy` is omitted it is selected from the image's entropy.
    Smoothing (6-interval strategy only) operates on the quantized image,
    and the combined output applies the per-pixel closest-candidate rule;
    otherwise the combined output is simply the quantized image.
    """
    if strategy is None:
        strategy = select_strategy(entropy_2d(img))
    quantized, smoothed, combined = _filter(img.pixels, strategy)
    quantized = Image(quantized)
    if smoothed is None:
        return FilteredTriple(quantized, None, quantized)
    return FilteredTriple(quantized, Image(smoothed), Image(combined))
