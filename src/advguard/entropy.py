"""Two-dimensional image entropy and the 5x5 window sums behind it.

The 2-D entropy is the Shannon entropy of the joint distribution of
(pixel value, rounded 5x5 neighborhood average). denoise.select_strategy
turns it into a filter setting; the same window sums also give the
filter's smoothing.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .image import Image


@dataclass(frozen=True)
class EntropyProfile:
    """2-D entropy in bits; for RGB, h2d averages the three plane entropies."""

    h2d: float
    per_plane: tuple


def _pad(pixels):
    """An (H, W, P) uint8 array replicate-padded by 2 on every side."""
    h, w, planes = pixels.shape
    # replicate padding by hand: np.pad's fixed overhead is a third of the whole
    # stencil on a 28x28 plane. uint8 keeps the padded copy small enough for cache.
    padded = np.empty((h + 4, w + 4, planes), dtype=np.uint8)
    padded[2:-2, 2:-2] = pixels
    padded[:2, 2:-2], padded[-2:, 2:-2] = pixels[:1], pixels[-1:]
    padded[:, :2], padded[:, -2:] = padded[:, 2:3], padded[:, -3:-2]
    return padded


def _window_sum(a, offsets, h, w):
    """The int16 sum of the (h, w) windows of `a` that start at each (row, column) offset."""
    (i, j), *rest = offsets
    # at most 25 taps of 255 keep every partial sum and the rounding numerator acc + n // 2 below 2**15
    acc = a[i:i + h, j:j + w].astype(np.int16)
    for i, j in rest:
        acc += a[i:i + h, j:j + w]
    return acc


def _rounded_mean(acc, n):
    """acc / n as uint8, halves rounded up: acc + n // 2 floors like acc + n / 2, as no multiple of n lies between."""
    return ((acc + n // 2) // n).astype(np.uint8)


def _box_mean(pixels):
    """Rounded 5x5 box mean of each plane of an (H, W, P) uint8 array: 5 taps across each padded row, then 5 down."""
    h, w, _ = pixels.shape
    across = _window_sum(_pad(pixels), [(0, j) for j in range(5)], h + 4, w)
    return _rounded_mean(_window_sum(across, [(i, 0) for i in range(5)], h, w), 25)


def _tap_mean(pixels, taps):
    """Rounded mean of each plane of an (H, W, P) uint8 array over the n >= 1 ones of a 5x5 mask w, replicate-padded.

    out[x, y] = round(sum_{s,t} w[s + 2, t + 2] f(x - s, y - t) / n); taps = np.argwhere(w[::-1, ::-1]).
    """
    h, w, _ = pixels.shape
    return _rounded_mean(_window_sum(_pad(pixels), taps, h, w), len(taps))


def neighborhood_average(plane):
    """Rounded mean over each pixel's 5x5 neighborhood, replicate-padded, half away from zero.

    Takes a 2-D array of pixel values, checked as Image checks pixels, and returns a 2-D uint8 array.
    """
    if np.ndim(plane) != 2:  # an Image, too, is not a 2-D array
        raise ValueError("expected a 2-D plane")
    return _box_mean(Image(plane).pixels)[:, :, 0]


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
    codes |= _box_mean(stack)
    codes = np.ascontiguousarray(codes.reshape(h * w, depth).T)
    codes.sort(axis=1)
    codes = codes.ravel()
    edges = np.empty(codes.size + 1, dtype=bool)  # run boundaries, both ends included
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    edges[::h * w] = True  # a plane's last run ends at its row's end; this sets both ends too
    bounds = np.flatnonzero(edges)
    counts = bounds[1:] - bounds[:-1]
    # the table's length is the least power of two >= the largest count, capped at H * W, so it holds
    # only the counts this stack can need and a few lengths cover every stack of one size
    bound = min(1 << (int(counts.max()) - 1).bit_length(), h * w)
    plogp = _plogp if bound <= _CACHED_COUNTS else _plogp.__wrapped__  # a longer table is built, used and freed
    terms = plogp(h * w, bound).take(counts - 1)
    # np.bincount adds each plane's weights one by one in input order, which is ascending cell order
    per = 0.0 - np.bincount(bounds[:-1] // (h * w), weights=terms, minlength=depth)  # 0.0 - x is -x + 0.0
    per = per.reshape(-1, planes)
    # a row of at most 3 floats sums in order; sum then divide are the two ufuncs np.mean runs
    return [EntropyProfile(h2d, tuple(row)) for h2d, row in zip((per.sum(axis=1) / planes).tolist(), per.tolist())]


# the longest table kept between calls, 512 KB: every count of a 224x224 plane; so the cache holds at most 32 MB
_CACHED_COUNTS = 2**16


@lru_cache(maxsize=64)
def _plogp(n, bound):
    """Read-only p * log2(p) for p = c / n, c = 1..bound: per count, the same float64 operations on the same value."""
    p = np.arange(1, bound + 1) / n
    terms = p * np.log2(p)
    terms.flags.writeable = False
    return terms


def entropy_2d(img):
    """2-D entropy of an image, per plane and averaged across planes."""
    return _profiles(img.pixels, img.planes)[0]

