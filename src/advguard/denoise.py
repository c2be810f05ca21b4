"""Scalar quantization, cross-mask smoothing, and the combined denoising filter.

The adaptive filter quantizes every input; images above the high-entropy
threshold are additionally smoothed, and the final output keeps, per pixel,
whichever candidate (quantized or smoothed-quantized) stays closer to the
original intensity. Ties keep the quantized value.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .entropy import _tap_mean, entropy_2d, select_strategy
from .image import Image


@dataclass(frozen=True)
class Quantizer:
    """One of the three uniform quantizers that make_quantizer builds; ``table`` maps each byte to its codeword."""

    intervals: int
    codebook: tuple  # (lower, upper, codeword) per interval
    table: np.ndarray = field(repr=False, compare=False)


@dataclass(eq=False)
class FilteredTriple:
    """Quantized, optionally smoothed-quantized, and combined output images."""

    quantized: Image
    smoothed_quantized: Optional[Image]
    combined: Image


@lru_cache(maxsize=None)
def make_quantizer(intervals):
    """The uniform left-value quantizer with 2, 4, or 6 intervals, built once per count.

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
    table = (np.arange(256) // step * step).astype(np.uint8)
    table.flags.writeable = False
    return Quantizer(intervals, codebook, table)


def quantize(img, q):
    """Replace every pixel with its interval's codeword via a 256-entry table."""
    return Image(q.table.take(img.pixels))


_CROSS = np.zeros((5, 5), dtype=np.int64)
_CROSS[2, :] = _CROSS[:, 2] = 1
_CROSS_TAPS = np.argwhere(_CROSS[::-1, ::-1]).tolist()


def cross_mask():
    """The 5x5 mask weighting the center pixel and its axis neighbors by 1, as a fresh array."""
    return _CROSS.copy()


def smooth(img, mask=None):
    """Rounded mean of each plane over the 1s of `mask`, a 5x5 integer array of 0s and 1s (default: the cross)."""
    weights = _CROSS if mask is None else np.asarray(mask)
    if weights.shape != (5, 5) or weights.dtype.kind not in "iu" or weights.min() < 0 or weights.max() != 1:
        raise ValueError(f"filter mask must be a 5x5 integer array of 0/1 weights with at least one 1, "
                         f"got {weights.dtype} of shape {weights.shape}")
    return Image(_tap_mean(img.pixels, np.argwhere(weights[::-1, ::-1]).tolist()))


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
    smoothed = _tap_mean(quantized, _CROSS_TAPS)
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
