"""Seeded input generators owned by the benchmark.

They live here, not in demos/ or tests/, so that edits to those files
cannot move a workload. Every generator is a pure function of its seed.
"""

import numpy as np

# Band of each 224x224x3 image set: 6 intervals (h2d > 9.50), 4 intervals
# (8.50..9.50) and 2 intervals (< 8.50). The band-6 majority puts both the
# p50 and the p90 of detect latency inside the band-6 cluster: the fast
# band-2/4 images fill the lowest 25% of the sorted latencies.
RGB_PLAN = {6: 75, 4: 15, 2: 10}
RGB_SIZE = 224
HIDDEN, CLASSES, INIT_RANGE = 16, 10, 0.05  # the untrained rgb224 model


def synthetic_digits(ag, n, seed):
    """28x28x1 digits from demo 03: one shared base plus a class offset.

    The classes differ by small offsets, so margins are tight enough for
    FGSM at eps 0.10 to matter. `seed` is anything numpy's default_rng
    takes; the templates are fixed.
    """
    template_rng = np.random.default_rng(1234)
    base = template_rng.integers(60, 196, size=(28, 28))
    templates = base + template_rng.normal(0, 30, size=(10, 28, 28))
    rng = np.random.default_rng(seed)
    labels = [int(y) for y in rng.integers(0, 10, size=n)]
    images = [
        ag.Image(np.clip(templates[y] + rng.normal(0, 18, (28, 28)), 0, 255).astype(np.uint8))
        for y in labels
    ]
    return images, labels


def _to_pixels(values):
    return np.clip(np.floor(values + 0.5), 0, 255).astype(np.uint8)


def _smooth_field(rng):
    """Bilinear upsampling of a random 8x8x3 field in [0, 1] to RGB_SIZE x RGB_SIZE."""
    coarse = rng.uniform(0.0, 1.0, size=(8, 8, 3))
    x = np.linspace(0, 7, RGB_SIZE)
    i0 = np.floor(x).astype(int)
    i1 = np.minimum(i0 + 1, 7)
    f = x - i0
    rows = coarse[i0] * (1 - f)[:, None, None] + coarse[i1] * f[:, None, None]
    return rows[:, i0] * (1 - f)[None, :, None] + rows[:, i1] * f[None, :, None]


def _ramp(rng):
    """One linear ramp per plane over 160 grey levels, axis and direction seeded."""
    t = (np.arange(RGB_SIZE) + 0.5) / RGB_SIZE
    planes = []
    for _ in range(3):
        lo = rng.uniform(10, 245 - 160)
        r = lo + 160 * (t if rng.integers(2) else t[::-1])
        planes.append(np.broadcast_to(r[:, None] if rng.integers(2) else r[None, :], (RGB_SIZE, RGB_SIZE)))
    return np.stack(planes, axis=2)


def band_pixels(rng, band):
    """The uint8 pixels of one RGB image whose 2-D entropy falls well inside `band`.

    Band 6 is real texture (a smooth field under strong uniform noise,
    h2d about 13-14), so quantize sees noise-like input. Bands 4 and 2 are
    ramps whose value histogram is flat whatever the seed; light noise puts
    band 4 at h2d ~9.0 and band 2 at ~7.8, half a bit or more from the edges.
    """
    if band == 6:
        amp = rng.uniform(64.0, 128.0)
        field = 255.0 * _smooth_field(rng)
        return _to_pixels(field + rng.uniform(-amp, amp, field.shape))
    sigma = {4: 0.7, 2: 0.15}[band]
    base = _ramp(rng)
    return _to_pixels(base + rng.normal(0.0, sigma, base.shape))


def band_images(seed):
    """The 224x224x3 detection set: uint8 pixels and the band each was built for."""
    rng = np.random.default_rng([seed, 4])
    plan = [band for band, count in RGB_PLAN.items() for _ in range(count)]
    plan = [plan[i] for i in rng.permutation(len(plan))]
    return [band_pixels(rng, band) for band in plan], plan


def random_weights(seed):
    """(w1, b1, w2, b2) of a seeded, untrained 150528-16-10 network."""
    rng = np.random.default_rng([seed, 5])
    w1 = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(RGB_SIZE * RGB_SIZE * 3, HIDDEN))
    w2 = rng.uniform(-INIT_RANGE, INIT_RANGE, size=(HIDDEN, CLASSES))
    return w1, np.zeros(HIDDEN), w2, np.zeros(CLASSES)
