"""The denoising filter, stage by stage: quantize, smooth, combine.

A high-entropy image goes through the 6-interval quantizer, then the
cross-mask smoothing filter, and finally the per-pixel combination that
keeps whichever candidate stays closer to the original. The demo writes
each stage to out/ as PGM/PPM so they can be inspected with any viewer.
"""

from pathlib import Path

import numpy as np

import advguard as ag

out = Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# textured image plus low-amplitude "perturbation" noise
rng = np.random.default_rng(42)
base = np.add.outer(np.arange(96) * 2, np.arange(96)).astype(np.int64) % 200
texture = base + rng.integers(0, 56, size=(96, 96))
noise = rng.integers(-8, 9, size=(96, 96))
img = ag.Image(np.clip(texture + noise, 0, 255).astype(np.uint8))

profile = ag.entropy_2d(img)
strategy = ag.select_strategy(profile)
print(f"input: 96x96 gray, h2d={profile.h2d:.4f} -> "
      f"{strategy.intervals} intervals, smoothing {'on' if strategy.smooth else 'off'}")

triple = ag.adaptive_filter(img, strategy=strategy)

(out / "input.pgm").write_bytes(ag.write_pgm_ppm(img))
(out / "quantized.pgm").write_bytes(ag.write_pgm_ppm(triple.quantized))
if triple.smoothed_quantized is not None:
    (out / "smoothed_quantized.pgm").write_bytes(ag.write_pgm_ppm(triple.smoothed_quantized))
(out / "combined.pgm").write_bytes(ag.write_pgm_ppm(triple.combined))

def mean_abs_diff(a, b):
    return float(np.abs(a.pixels.astype(int) - b.pixels.astype(int)).mean())

print(f"mean |quantized - input|:  {mean_abs_diff(triple.quantized, img):6.2f}")
if triple.smoothed_quantized is not None:
    print(f"mean |smoothed  - input|:  {mean_abs_diff(triple.smoothed_quantized, img):6.2f}")
print(f"mean |combined  - input|:  {mean_abs_diff(triple.combined, img):6.2f}")
print("the combined image is never farther from the input than either candidate")
print(f"stages written to {out}/")

# the quantizer itself, on every possible intensity
q6 = ag.DenoiseStrategy(6)
levels = ag.Image(np.arange(256, dtype=np.uint8).reshape(1, 256))
quantized_levels = ag.quantize(levels, q6).pixels.ravel()
print("\n6-interval codebook:")
for lo, hi, code in q6.codebook:
    assert all(quantized_levels[v] == code for v in range(lo, hi + 1))
    print(f"  [{lo:3d}, {hi:3d}] -> {code}")
