"""Two-dimensional image entropy and denoising-strategy selection.

The 2-D entropy is the Shannon entropy of the joint distribution of
(pixel value, rounded 5x5 neighborhood average). It drives how hard an
image is denoised: high-entropy images get a fine quantizer plus
smoothing, low-entropy ones an aggressive two-interval quantizer.
"""

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


@dataclass(eq=False)
class JointHistogram:
    """256x256 counts indexed by (pixel value, rounded neighborhood average)."""

    counts: np.ndarray
    total: int


@dataclass(frozen=True)
class EntropyProfile:
    """2-D entropy in bits; for RGB, h2d averages the three plane entropies."""

    h2d: float
    per_plane: tuple


def _plane_array(plane):
    if isinstance(plane, Image):
        if plane.planes != 1:
            raise ValueError("expected a single-plane image")
        return plane.pixels[:, :, 0]
    arr = np.asarray(plane)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D plane")
    if arr.dtype != np.uint8:
        if not np.issubdtype(arr.dtype, np.integer) or arr.min() < 0 or arr.max() > 255:
            raise ValueError("plane values must be integers in [0, 255]")
        arr = arr.astype(np.uint8)
    return arr


_BOX = np.ones((5, 5), dtype=np.int64)


def _add_across(acc, rows, weight_row):
    """acc += one weight row applied across `rows` (a stack of padded rows)."""
    width = acc.shape[1]
    for j, wt in enumerate(weight_row):
        if wt:
            window = rows[:, 4 - j:4 - j + width]
            acc += window if wt == 1 else wt * window.astype(acc.dtype)


def _stencil(pixels, weights):
    """Normalized 5x5 integer stencil over every plane of an (H, W, P) uint8 array.

    out[x, y] = round(sum_{s,t} w[s + 2, t + 2] f(x - s, y - t) / sum(w)),
    replicate-padded, in exact integer arithmetic. Halves round up, which is
    away from zero for the nonnegative sums of nonnegative weights.

    The sums run in the narrowest exact type: int16 when
    511 * sum(w) < 2**15, which bounds every partial sum and the rounding
    numerator 2 * acc + sum(w), and int64 otherwise. A weight row
    that occurs more than once is summed across the padded image once and
    added down at each of its offsets; a row that occurs once is added tap
    by tap.
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
    acc = np.zeros(pixels.shape, dtype=np.int16 if 511 * n < 2**15 else np.int64)
    across = {}
    for i, row in enumerate(rows):
        if rows.count(row) == 1:
            _add_across(acc, padded[4 - i:4 - i + h], row)
        elif any(row):
            key = tuple(row)
            if key not in across:
                if [wt for wt in row if wt] == [1]:  # one weight-1 tap: a view, no sum
                    j = row.index(1)
                    across[key] = padded[:, 4 - j:4 - j + w]
                else:
                    across[key] = np.zeros((h + 4, w, planes), dtype=acc.dtype)
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


def _pair_codes(pixels):
    """(plane * 256 + value) * 256 + neighborhood average, per pixel of an (H, W, K) uint8 array."""
    planes = np.arange(pixels.shape[2], dtype=np.uint32)
    return (planes * 256 + pixels) * 256 + _stencil(pixels, _BOX)


def joint_histogram(plane):
    """Count (pixel value, neighborhood average) pairs over one plane."""
    arr = _plane_array(plane)
    counts = np.bincount(_pair_codes(arr[:, :, None]).ravel(), minlength=65536)
    return JointHistogram(counts.reshape(256, 256), int(arr.size))


def _profiles(stack, planes):
    """Entropy profiles of the images laid side by side in an (H, W, N * planes) uint8 stack.

    Each run of equal sorted pair codes is one nonzero cell of a plane's
    joint histogram, and the runs come in ascending cell order, so every
    plane's p * log2(p) terms are summed in the same order as over its
    histogram's nonzero cells.
    """
    h, w, depth = stack.shape
    codes = np.sort(_pair_codes(stack), axis=None)
    edges = np.empty(codes.size + 1, dtype=bool)  # run boundaries, both ends included
    edges[0] = edges[-1] = True
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    bounds = np.flatnonzero(edges)
    p = (bounds[1:] - bounds[:-1]) / (h * w)
    # plane k owns codes [k * 65536, (k + 1) * 65536); +0.0 normalizes -0.0
    per = -np.bincount(codes[bounds[:-1]] >> 16, weights=p * np.log2(p), minlength=depth) + 0.0
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
    EntropyProfile or a bare entropy value.
    """
    h = profile.h2d if isinstance(profile, EntropyProfile) else float(profile)
    if h > 9.50:
        return DenoiseStrategy(6, True)
    if h >= 8.50:
        return DenoiseStrategy(4, False)
    return DenoiseStrategy(2, False)
