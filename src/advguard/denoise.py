"""The filter's three settings, scalar quantization, cross-mask smoothing, and the combined denoising filter.

select_strategy maps an image's 2-D entropy to 2, 4 or 6 quantizer
intervals. The adaptive filter quantizes every input, one image or many
same-shape images as one stack; the 6-interval setting additionally
smooths, and the final output keeps, per pixel, whichever candidate
(quantized or smoothed-quantized) stays closer to the original intensity.
Ties keep the quantized value.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classifier import _is_real
from .entropy import EntropyProfile, _profiles, _tap_mean, entropy_2d
from .image import Image

# the uniform left-value quantizer's step per interval count; with 6 intervals the last one is the short [250, 255]
_STEPS = {2: 128, 4: 64, 6: 50}


@dataclass(frozen=True)
class DenoiseStrategy:
    """The uniform left-value quantizer with 2, 4 or 6 intervals; its image is also smoothed exactly when it is 6.

    ``codebook`` lists (lower, upper, codeword) per interval.
    """

    intervals: int

    def __post_init__(self):
        if not isinstance(self.intervals, numbers.Integral) or self.intervals not in _STEPS:  # True is 1: refused
            raise ValueError(f"interval count must be 2, 4, or 6, got {self.intervals}")
        object.__setattr__(self, "intervals", int(self.intervals))

    @property
    def smooth(self):
        return self.intervals == 6

    @property
    def codebook(self):
        step = _STEPS[self.intervals]
        return tuple((lo, min(lo + step - 1, 255), lo) for lo in range(0, 256, step))

    def _codewords(self, pixels):  # quantize on a uint8 array, in uint8: no codeword exceeds 250, so nothing wraps
        return pixels // _STEPS[self.intervals] * _STEPS[self.intervals]


# the three settings, built once: the type is frozen, so every caller can share them
_STRATEGIES = {n: DenoiseStrategy(n) for n in _STEPS}


def select_strategy(profile):
    """Pick the denoising strategy for a 2-D entropy value.

    Above 9.50 bits: 6 intervals with smoothing; 8.50 through 9.50
    inclusive: 4 intervals; below 8.50: 2 intervals. Accepts an
    EntropyProfile or a bare entropy value, which must be a finite real
    number that is not a bool: a str such as "9.6" is refused, not parsed.
    """
    h = profile.h2d if isinstance(profile, EntropyProfile) else profile
    if not _is_real(h):
        raise ValueError(f"entropy must be a real number, got {h!r}")
    if not -math.inf < h < math.inf:  # an int too large for a float compares exactly
        raise ValueError(f"entropy must be finite, got {h}")
    return _STRATEGIES[6 if h > 9.50 else 4 if h >= 8.50 else 2]


@dataclass(eq=False)
class FilteredTriple:
    """Quantized, optionally smoothed-quantized, and combined output images."""

    quantized: Image
    smoothed_quantized: Optional[Image]
    combined: Image


def _check_strategy(strategy):
    """Refuse a strategy that is not a DenoiseStrategy, such as a bare interval count."""
    if not isinstance(strategy, DenoiseStrategy):
        raise ValueError(f"strategy must be a DenoiseStrategy, got {strategy!r}")


def quantize(img, strategy):
    """Replace every pixel with its interval's codeword, v // step * step."""
    _check_strategy(strategy)
    return Image(strategy._codewords(img.pixels))


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
    """Per pixel, keep whichever candidate is closer to the original; ties go to the quantized value."""
    if not (original.pixels.shape == quantized.pixels.shape == smoothed_quantized.pixels.shape):
        raise ValueError("shape mismatch between original and filtered images")
    return Image(_combine(original.pixels, quantized.pixels, smoothed_quantized.pixels))


def _combine(f, q, s):
    """combine on uint8 arrays of one shape, without a branch: uint8 differences wrap, so s + (q - s) is exactly q."""
    keep = np.maximum(q, f) - np.minimum(q, f) <= np.maximum(s, f) - np.minimum(s, f)
    return s + (q - s) * keep


def _filter(pixels, strategy):
    """adaptive_filter on an (H, W, K) uint8 array: quantized, smoothed-quantized or None, combined.

    Every stage works per plane or per pixel, so K may hold the planes of
    many images side by side.
    """
    quantized = strategy._codewords(pixels)
    if not strategy.smooth:
        return quantized, None, quantized
    smoothed = _tap_mean(quantized, _CROSS_TAPS)
    return quantized, smoothed, _combine(pixels, quantized, smoothed)


def _denoise(images):
    """The entropy profiles, strategies and denoised Images of same-shape images, as three lists; filtered as stacks."""
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
    return profiles, strategies, denoised


def adaptive_filter(img, strategy=None):
    """Denoise an image according to its 2-D entropy.

    When `strategy` is omitted it is selected from the image's entropy.
    Smoothing (6-interval strategy only) operates on the quantized image,
    and the combined output applies the per-pixel closest-candidate rule;
    otherwise the combined output is simply the quantized image.
    """
    if strategy is None:
        strategy = select_strategy(entropy_2d(img))
    _check_strategy(strategy)
    quantized, smoothed, combined = _filter(img.pixels, strategy)
    quantized = Image(quantized)
    if smoothed is None:
        return FilteredTriple(quantized, None, quantized)
    return FilteredTriple(quantized, Image(smoothed), Image(combined))
