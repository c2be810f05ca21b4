"""Two-dimensional image entropy and denoising-strategy selection.

The 2-D entropy is the Shannon entropy of the joint distribution of
(pixel value, rounded 5x5 neighborhood average). It drives how hard an
image is denoised: high-entropy images get a fine quantizer plus
smoothing, low-entropy ones an aggressive two-interval quantizer.
"""

import math
from dataclasses import dataclass

import numpy as np

from .image import Image


@dataclass(frozen=True)
class DenoiseStrategy:
    """Interval count plus whether the quantized image is also smoothed."""

    intervals: int
    smooth: bool

    def __post_init__(self):
        if self.intervals not in (2, 4, 6):
            raise ValueError(f"interval count must be 2, 4, or 6, got {self.intervals}")
        if self.smooth != (self.intervals == 6):
            raise ValueError("smoothing is applied exactly when intervals == 6")


@dataclass(frozen=True)
class EntropyProfile:
    """2-D entropy in bits; for RGB, h2d averages the three plane entropies."""

    h2d: float
    per_plane: tuple


def _plane_array(plane):
    """The (H, W) uint8 array of a single-plane Image, or of a 2-D array that Image accepts."""
    if not isinstance(plane, Image):
        if np.ndim(plane) != 2:
            raise ValueError("expected a 2-D plane")
        plane = Image(plane)
    if plane.planes != 1:
        raise ValueError("expected a single-plane image")
    return plane.pixels[:, :, 0]


_BOX = np.ones((5, 5), dtype=np.int64)


def _add_across(acc, rows, weight_row):
    """acc += the taps of one 0/1 weight row applied across `rows` (a stack of padded rows)."""
    width = acc.shape[1]
    for j, wt in enumerate(weight_row):
        if wt:
            acc += rows[:, 4 - j:4 - j + width]


def _stencil(pixels, weights):
    """Normalized 5x5 0/1 stencil over every plane of an (H, W, P) uint8 array.

    out[x, y] = round(sum_{s,t} w[s + 2, t + 2] f(x - s, y - t) / n), with
    every weight 0 or 1 and n = sum(w) >= 1 taps, replicate-padded, in exact
    integer arithmetic. Halves round up, which is away from zero for these
    nonnegative sums.

    The sums run in int16: at most 25 taps of 255 keep every partial sum
    and the rounding numerator 2 * acc + n below 2**15. A weight row that
    occurs more than once is summed across the padded image once and added
    down at each of its offsets; a row that occurs once is added tap by tap.
    """
    h, w, planes = pixels.shape
    # replicate padding by hand: np.pad's fixed overhead is a third of the whole
    # stencil on a 28x28 plane. uint8 keeps the padded copy small enough for cache.
    padded = np.empty((h + 4, w + 4, planes), dtype=np.uint8)
    padded[2:-2, 2:-2] = pixels
    padded[:2, 2:-2], padded[-2:, 2:-2] = pixels[:1], pixels[-1:]
    padded[:, :2], padded[:, -2:] = padded[:, 2:3], padded[:, -3:-2]
    rows = weights.tolist()
    n = sum(map(sum, rows))
    acc = np.zeros(pixels.shape, dtype=np.int16)
    across = {}
    for i, row in enumerate(rows):
        if rows.count(row) == 1:
            _add_across(acc, padded[4 - i:4 - i + h], row)
        elif any(row):
            key = tuple(row)
            if key not in across:
                if sum(row) == 1:  # one tap: a view, no sum
                    j = row.index(1)
                    across[key] = padded[:, 4 - j:4 - j + w]
                else:
                    across[key] = np.zeros((h + 4, w, planes), dtype=np.int16)
                    _add_across(across[key], padded, row)
            acc += across[key][4 - i:4 - i + h]
    return ((2 * acc + n) // (2 * n)).astype(np.uint8)


def neighborhood_average(plane):
    """Rounded mean over each pixel's 5x5 neighborhood, replicate-padded.

    Accepts a single-plane Image or a 2-D uint8 array and returns the same
    kind. Rounding is half away from zero, done in exact integer arithmetic.
    """
    arr = _plane_array(plane)
    avg = _stencil(arr[:, :, None], _BOX)[:, :, 0]
    return Image(avg) if isinstance(plane, Image) else avg


def _profiles(stack, planes):
    """Entropy profiles of the images laid side by side in an (H, W, N * planes) uint8 stack.

    Each pixel becomes the 16-bit code value << 8 | neighborhood average.
    The codes are laid out plane-major, one row of H * W per plane, and
    each row is sorted, so each run of equal codes is one nonzero cell of
    that plane's joint histogram and the runs come in ascending (value,
    average) order. Summation-order contract: a plane's entropy is
    -(sum of p * log2(p) over its cells) + 0.0, summed one term at a time
    from 0.0 in that ascending cell order, with p = count / (H * W) in
    float64; +0.0 turns -0.0 into 0.0.
    """
    h, w, depth = stack.shape
    codes = np.left_shift(stack, 8, dtype=np.uint16)
    codes |= _stencil(stack, _BOX)
    codes = np.ascontiguousarray(codes.reshape(h * w, depth).T)
    codes.sort(axis=1)
    codes = codes.ravel()
    edges = np.empty(codes.size + 1, dtype=bool)  # run boundaries, both ends included
    edges[0] = edges[-1] = True
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    edges[::h * w] = True  # a plane's last run ends at its row's end
    bounds = np.flatnonzero(edges)
    counts = bounds[1:] - bounds[:-1]
    # p * log2(p) for each count up to the largest: per run, the same float64 operations on the same value
    p = np.arange(1, counts.max() + 1) / (h * w)
    terms = (p * np.log2(p)).take(counts - 1)
    # np.bincount adds each plane's weights one by one in input order, which is ascending cell order
    per = -np.bincount(bounds[:-1] // (h * w), weights=terms, minlength=depth) + 0.0
    per = per.reshape(-1, planes)
    # a row of at most 3 floats sums in order, as np.mean over one image's planes does
    return [EntropyProfile(h2d, tuple(row)) for h2d, row in zip(per.mean(axis=1).tolist(), per.tolist())]


def entropy_2d(img):
    """2-D entropy of an image, per plane and averaged across planes."""
    return _profiles(img.pixels, img.planes)[0]


def select_strategy(profile):
    """Pick the denoising strategy for a 2-D entropy value.

    Above 9.50 bits: 6 intervals with smoothing; 8.50 through 9.50
    inclusive: 4 intervals; below 8.50: 2 intervals. Accepts an
    EntropyProfile or a bare entropy value, which must be finite.
    """
    h = profile.h2d if isinstance(profile, EntropyProfile) else float(profile)
    if not math.isfinite(h):
        raise ValueError(f"entropy must be finite, got {h}")
    if h > 9.50:
        return DenoiseStrategy(6, True)
    if h >= 8.50:
        return DenoiseStrategy(4, False)
    return DenoiseStrategy(2, False)
