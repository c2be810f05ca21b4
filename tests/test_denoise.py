import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
import oracles
from advguard.denoise import _combine, _denoise
from test_entropy import MIRRORS

SIX_INTERVAL_CODEBOOK = (
    (0, 49, 0),
    (50, 99, 50),
    (100, 149, 100),
    (150, 199, 150),
    (200, 249, 200),
    (250, 255, 250),
)

# each byte's codeword per interval count, written out run by run
CODEWORD_TABLES = {
    2: [0] * 128 + [128] * 128,
    4: [0] * 64 + [64] * 64 + [128] * 64 + [192] * 64,
    6: [0] * 50 + [50] * 50 + [100] * 50 + [150] * 50 + [200] * 50 + [250] * 6,
}


def image_from(values):
    return ag.Image(np.array(values, dtype=np.uint8))


class TestSelectStrategy:
    def test_photo_like_entropy_gets_smoothing(self):
        strategy = ag.select_strategy(13.13)
        assert strategy == ag.DenoiseStrategy(6)

    def test_band_boundaries(self):
        assert ag.select_strategy(9.50).intervals == 4
        assert ag.select_strategy(8.50).intervals == 4
        assert not ag.select_strategy(9.50).smooth

    def test_constant_image_gets_two_intervals(self):
        assert ag.select_strategy(0.0) == ag.DenoiseStrategy(2)

    @pytest.mark.parametrize("n, entropies", [(2, (0.0, 8.49)), (4, (8.5, 9.0, 9.5)), (6, (9.51, 16.0))])
    def test_shared_instances_equal_and_hash_like_fresh_ones(self, n, entropies):
        shared = ag.select_strategy(entropies[0])
        for h in entropies:
            assert ag.select_strategy(h) is shared
            assert ag.select_strategy(ag.EntropyProfile(h, (h,))) is shared
        fresh = ag.DenoiseStrategy(n)
        assert shared is not fresh and shared == fresh and hash(shared) == hash(fresh)
        assert ag.select_strategy(np.float64(entropies[0])) is shared
        assert {fresh: n}[shared] == n

    @pytest.mark.parametrize("h", ["9.6", b"9.6", True, None], ids=["str", "bytes", "bool", "None"])
    def test_non_number_entropy_rejected(self, h):
        message = f"^entropy must be a real number, got {re.escape(repr(h))}$"
        with pytest.raises(ValueError, match=message):
            ag.select_strategy(h)
        with pytest.raises(ValueError, match=message):
            ag.select_strategy(ag.EntropyProfile(h, (h,)))

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_non_finite_entropy_rejected(self, h):
        with pytest.raises(ValueError, match="entropy must be finite"):
            ag.select_strategy(h)
        with pytest.raises(ValueError, match="entropy must be finite"):
            ag.select_strategy(ag.EntropyProfile(h, (h,)))

    def test_strategy_invariant_enforced(self):
        for n in (2, 4, 6):
            assert ag.DenoiseStrategy(n).smooth is (n == 6)
        with pytest.raises(AttributeError):
            ag.DenoiseStrategy(6).smooth = False

    @pytest.mark.parametrize("count", [6.0, np.float64(4), True, "6"], ids=["float", "numpy-float", "bool", "str"])
    def test_non_integer_interval_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"^interval count must be 2, 4, or 6, got {re.escape(str(count))}$"):
            ag.DenoiseStrategy(count)

    def test_numpy_integer_count_reads_back_as_int(self):
        strategy = ag.DenoiseStrategy(np.int64(4))
        assert repr(strategy) == "DenoiseStrategy(intervals=4)" and type(strategy.intervals) is int
        assert strategy == ag.DenoiseStrategy(4) and hash(strategy) == hash(ag.DenoiseStrategy(4))


class TestQuantizer:
    def test_six_interval_codebook(self):
        assert ag.DenoiseStrategy(6).codebook == SIX_INTERVAL_CODEBOOK

    def test_six_interval_boundaries(self):
        q = ag.DenoiseStrategy(6)
        img = image_from([[49, 50, 255, 250]])
        assert ag.quantize(img, q).pixels.ravel().tolist() == [0, 50, 250, 250]

    def test_two_interval_split(self):
        q = ag.DenoiseStrategy(2)
        img = image_from([[127, 128, 0, 255]])
        assert ag.quantize(img, q).pixels.ravel().tolist() == [0, 128, 0, 128]

    def test_four_interval_matches_integer_division(self):
        q = ag.DenoiseStrategy(4)
        rng = np.random.default_rng(3)
        every_value = np.arange(256, dtype=np.uint8).reshape(1, 256)
        for px in (rng.integers(0, 256, size=(6, 9)).astype(np.uint8), every_value):
            img = ag.Image(px)
            expected = (img.pixels.astype(int) // 64) * 64
            assert np.array_equal(ag.quantize(img, q).pixels, expected)

    def test_unsupported_interval_count(self):
        with pytest.raises(ValueError, match="^interval count must be 2, 4, or 6, got 3$"):
            ag.DenoiseStrategy(3)

    @pytest.mark.parametrize("q", [pytest.param(ag.DenoiseStrategy(n), id=str(n)) for n in (2, 4, 6)] +
                             [pytest.param(ag.select_strategy(h), id=f"h2d={h}") for h in (8.49, 9.0, 9.51)])
    def test_codebook_agrees_with_table(self, q):
        # the table is written apart from the codebook: each interval runs on from the last and maps to its codeword
        table = CODEWORD_TABLES[q.intervals]
        assert q.intervals == len(q.codebook)
        start = 0
        for lo, hi, code in q.codebook:
            assert lo == start <= hi and code == lo
            assert table[lo:hi + 1] == [code] * (hi - lo + 1)
            start = hi + 1
        assert start == 256

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_arithmetic_matches_table_on_every_byte(self, n):
        every_byte = np.arange(256, dtype=np.uint8)
        got = ag.DenoiseStrategy(n)._codewords(every_byte)
        assert got.dtype == np.uint8 and got.tolist() == CODEWORD_TABLES[n]

    def test_codeword_constant_unchanged(self):
        img = ag.Image(np.full((4, 4), 200, dtype=np.uint8))
        assert ag.quantize(img, ag.DenoiseStrategy(6)) == img

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 4, 6]), st.integers(0, 2**32 - 1))
    def test_idempotent_and_monotone(self, intervals, seed):
        q = ag.DenoiseStrategy(intervals)
        rng = np.random.default_rng(seed)
        img = ag.Image(rng.integers(0, 256, size=(5, 5)).astype(np.uint8))
        once = ag.quantize(img, q)
        assert ag.quantize(once, q) == once
        assert np.all(once.pixels <= img.pixels)
        width = {2: 128, 4: 64, 6: 50}[intervals]
        assert np.all(img.pixels.astype(int) - once.pixels.astype(int) <= width - 1)


class TestMasks:
    def test_cross_mask_support(self):
        mask = ag.cross_mask()
        assert mask.tolist() == oracles.CROSS_WEIGHTS
        mask[0, 0] = 1  # a fresh array each call
        assert ag.cross_mask().tolist() == oracles.CROSS_WEIGHTS

    @pytest.mark.parametrize("weights", [
        np.ones((3, 3), dtype=np.int64),
        np.ones((7, 7), dtype=np.int64),
        np.ones((5, 5)),
        np.ones((5, 5), dtype=bool),
        np.zeros((5, 5), dtype=np.int64),
        np.array([[1, -1, 0, 0, 0]] * 5),
        np.pad([[1]], 2, constant_values=-1),  # a signed sum can leave 0..255
        np.pad([[2]], 2),
        np.pad([[2**60]], 2),  # an int64 sum would overflow
        np.pad(np.array([[2**63]], dtype=np.uint64), 2),  # the normalizer would wrap
    ], ids=["3x3", "7x7", "float", "bool", "zero", "zero-sum", "signed", "two", "2**60", "uint64-2**63"])
    def test_invalid_mask_rejected(self, weights):
        img = ag.Image(np.full((6, 7, 3), 255, dtype=np.uint8))
        with pytest.raises(ValueError, match="^filter mask must be a 5x5 integer array of 0/1 weights"):
            ag.smooth(img, weights)


class TestSmooth:
    def test_constant_image_unchanged(self):
        img = ag.Image(np.full((7, 7), 31, dtype=np.uint8))
        assert ag.smooth(img) == img

    def test_bright_pixel_spreads_along_cross(self):
        px = np.zeros((9, 9), dtype=np.uint8)
        px[4, 4] = 9
        out = ag.smooth(ag.Image(px)).pixels[:, :, 0]
        expected = np.zeros((9, 9), dtype=np.uint8)
        expected[4, 2:7] = 1  # 9/9 distributed over the cross support
        expected[2:7, 4] = 1
        assert np.array_equal(out, expected)

    def test_matches_convolution_oracle(self):
        rng = np.random.default_rng(17)
        for weights in (oracles.CROSS_WEIGHTS, oracles.BOX_WEIGHTS):
            mask = np.array(weights)
            for _ in range(8):
                h, w = rng.integers(1, 10, size=2)
                plane = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
                got = ag.smooth(ag.Image(plane), mask).pixels[:, :, 0]
                assert got.tolist() == oracles.convolve(plane.tolist(), weights, sum(map(sum, weights)))
            for _ in range(4):
                h, w = rng.integers(1, 10, size=2)
                px = rng.integers(0, 256, size=(h, w, 3)).astype(np.uint8)
                got = ag.smooth(ag.Image(px), mask).pixels
                for k in range(3):
                    expected = oracles.convolve(px[:, :, k].tolist(), weights, sum(map(sum, weights)))
                    assert got[:, :, k].tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]))
    def test_random_masks_match_convolution_oracle(self, seed, planes):
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, 2, size=(5, 5))
        weights[2, 2] |= weights.sum() == 0
        h, w = rng.integers(1, 10, size=2)
        px = rng.integers(0, 256, size=(h, w, planes)).astype(np.uint8)
        got = ag.smooth(ag.Image(px), weights).pixels
        for k in range(planes):
            expected = oracles.convolve(px[:, :, k].tolist(), weights.tolist(), int(weights.sum()))
            assert got[:, :, k].tolist() == expected

    @pytest.mark.parametrize("planes", [1, 3])
    def test_box_mask_is_neighborhood_average(self, planes):
        box = np.ones((5, 5), dtype=int)
        rng = np.random.default_rng(planes)
        # below 5x5 both passes of the box sum read padding
        for shape in [(9, 11), (1, 1), (1, 7), (7, 1), (2, 2)]:
            px = rng.integers(0, 256, size=shape + (planes,)).astype(np.uint8)
            got = ag.smooth(ag.Image(px), box).pixels
            for k in range(planes):
                assert np.array_equal(got[:, :, k], ag.neighborhood_average(px[:, :, k]))
        # 25 taps at full scale: the largest int16 sum the stencil meets
        full = ag.Image(np.full((7, 8, planes), 255, dtype=np.uint8))
        assert np.all(ag.smooth(full, box).pixels == 255)

    def test_single_tap_orientation(self):
        mask = np.zeros((5, 5), dtype=int)
        mask[0, 4] = 1  # w[s + 2, t + 2] with s = -2, t = 2: out[x, y] = f(x + 2, y - 2)
        plane = np.zeros((9, 9), dtype=np.uint8)
        plane[4, 4] = 200
        got = ag.smooth(ag.Image(plane), mask).pixels[:, :, 0]
        assert got.tolist() == oracles.convolve(plane.tolist(), mask.tolist(), 1)
        assert list(zip(*np.nonzero(got))) == [(2, 6)]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_output_stays_in_input_range(self, seed):
        rng = np.random.default_rng(seed)
        plane = rng.integers(0, 256, size=(6, 6)).astype(np.uint8)
        out = ag.smooth(ag.Image(plane)).pixels
        assert out.min() >= plane.min() and out.max() <= plane.max()


class TestCombine:
    def test_quantized_wins_ties(self):
        f = image_from([[100]])
        assert ag.combine(f, image_from([[100]]), image_from([[90]])).pixels.ravel()[0] == 100
        # equal distance: |90-100| == |110-100| keeps the quantized side
        assert ag.combine(f, image_from([[90]]), image_from([[110]])).pixels.ravel()[0] == 90

    def test_closer_smoothed_wins(self):
        out = ag.combine(image_from([[100]]), image_from([[50]]), image_from([[90]]))
        assert out.pixels.ravel()[0] == 90

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            ag.combine(image_from([[1]]), image_from([[1, 2]]), image_from([[1]]))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_picks_minimum_distance_everywhere(self, seed):
        rng = np.random.default_rng(seed)
        f, q, s = (rng.integers(0, 256, size=(4, 5)).astype(np.uint8) for _ in range(3))
        out = ag.combine(ag.Image(f), ag.Image(q), ag.Image(s)).pixels[:, :, 0].astype(int)
        df = np.abs(out - f.astype(int))
        best = np.minimum(np.abs(q.astype(int) - f.astype(int)), np.abs(s.astype(int) - f.astype(int)))
        assert np.array_equal(df, best)
        ties = np.abs(q.astype(int) - f.astype(int)) == np.abs(s.astype(int) - f.astype(int))
        assert np.array_equal(out[ties], q.astype(int)[ties])


    def test_branch_free_form_matches_int16_where_on_every_triple(self):
        q, s = (a.astype(np.uint8) for a in np.meshgrid(np.arange(256), np.arange(256), indexing="ij"))
        for v in range(256):
            f = np.full_like(q, v)
            wf, wq, ws = (a.astype(np.int16) for a in (f, q, s))
            expected = np.where(np.abs(wq - wf) <= np.abs(ws - wf), wq, ws).astype(np.uint8)
            got = _combine(f, q, s)
            assert got.dtype == np.uint8 and np.array_equal(got, expected), v


def band_image(band):
    """A seeded 224x224x3 image whose 2-D entropy selects `band`: uniform noise for 6, lightly noisy ramps for 4 and 2."""
    rng = np.random.default_rng([224, band])
    if band == 6:
        return ag.Image(rng.integers(0, 256, size=(224, 224, 3), dtype=np.uint8))
    ramp = np.broadcast_to(40 + 160 * (np.arange(224) + 0.5) / 224, (224, 224))
    base = np.stack([ramp.T, ramp, ramp.T[::-1]], axis=2)
    noisy = base + rng.normal(0.0, {4: 0.7, 2: 0.15}[band], base.shape)
    return ag.Image(np.clip(np.floor(noisy + 0.5), 0, 255).astype(np.uint8))


# sha256 of the quantized, smoothed-quantized and combined pixels of band_image(band)
STAGE_DIGESTS = {
    2: ("378795aa756baaa2e58646f266bff88900a1cee7781ae4bd908499cea0eb40cc", None,
        "378795aa756baaa2e58646f266bff88900a1cee7781ae4bd908499cea0eb40cc"),
    4: ("fb008ad76dfc0da1f6f7987a35d245c5ab793641e76bdbe22b62da457fb46fba", None,
        "fb008ad76dfc0da1f6f7987a35d245c5ab793641e76bdbe22b62da457fb46fba"),
    6: ("d47131e342070c0025ea81352e61f3b44dc3577287f87c9fd1a578a7a3d36141",
        "6d1d5c56ea7d4636d3cdf494641b35ae1e2ba2793f271d39b9b4e37e9330c6aa",
        "2ebc8d508e345ccbd5af2edc2f92f5764e6442b9df96597234e5a56ad7be40d4"),
}


def test_band_images_as_one_stack():
    # the one mixed-setting 224x224x3 stack through the grouped filter: each image keeps its pinned combined
    # digest, its band and entropy_2d's h2d bits, and a mirrored stack gives the same bits and bands and the
    # mirrored pixels
    bands = (2, 4, 6)
    images = [band_image(band) for band in bands]
    stacked = list(zip(*_denoise(images)))
    for (profile, strategy, denoised), band, img in zip(stacked, bands, images):
        assert profile.h2d.hex() == ag.entropy_2d(img).h2d.hex()
        assert strategy.intervals == band
        assert hashlib.sha256(denoised.pixels.tobytes()).hexdigest() == STAGE_DIGESTS[band][2]
    for name, flip in MIRRORS.items():
        mirrored = zip(*_denoise([ag.Image(flip(img.pixels)) for img in images]))
        for (profile, strategy, denoised), (base, base_strategy, base_denoised) in zip(mirrored, stacked):
            assert (profile.h2d.hex(), strategy) == (base.h2d.hex(), base_strategy), name
            assert denoised.pixels.tobytes() == flip(base_denoised.pixels).tobytes(), name


class TestAdaptiveFilter:
    @pytest.mark.parametrize("band", [2, 4, 6])
    def test_stage_bytes_pinned_per_band(self, band):
        img = band_image(band)
        assert ag.select_strategy(ag.entropy_2d(img)).intervals == band
        triple = ag.adaptive_filter(img)
        stages = (triple.quantized, triple.smoothed_quantized, triple.combined)
        got = tuple(None if stage is None else hashlib.sha256(stage.pixels.tobytes()).hexdigest() for stage in stages)
        assert got == STAGE_DIGESTS[band]

    def test_constant_image(self):
        triple = ag.adaptive_filter(ag.Image(np.full((8, 8), 200, dtype=np.uint8)))
        assert triple.smoothed_quantized is None
        assert triple.combined == triple.quantized
        assert np.all(triple.combined.pixels == 128)  # 200 maps to the upper half codeword

    def test_low_entropy_digit_like_image_quantized_only(self):
        # mostly dark with one bright stroke, like a handwritten digit
        px = np.zeros((28, 28), dtype=np.uint8)
        px[6:22, 12:16] = 250
        px[6:10, 8:16] = 180
        img = ag.Image(px)
        assert ag.entropy_2d(img).h2d < 8.50  # premise for the 2-interval path
        triple = ag.adaptive_filter(img)
        assert triple.smoothed_quantized is None
        assert set(np.unique(triple.combined.pixels)) <= {0, 128}

    def test_high_entropy_noise_image_smoothed(self):
        rng = np.random.default_rng(5)
        img = ag.Image(rng.integers(0, 256, size=(64, 64, 3)).astype(np.uint8))
        assert ag.entropy_2d(img).h2d > 9.50  # premise for the smoothing path
        triple = ag.adaptive_filter(img)
        assert triple.smoothed_quantized is not None
        f = img.pixels.astype(int)
        q = triple.quantized.pixels.astype(int)
        s = triple.smoothed_quantized.pixels.astype(int)
        c = triple.combined.pixels.astype(int)
        assert np.array_equal(np.abs(c - f), np.minimum(np.abs(q - f), np.abs(s - f)))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        img = ag.Image(rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8))
        a = ag.adaptive_filter(img)
        b = ag.adaptive_filter(img)
        assert a.combined == b.combined and a.quantized == b.quantized

    def test_explicit_strategy_override(self):
        img = ag.Image(np.full((4, 4), 60, dtype=np.uint8))
        triple = ag.adaptive_filter(img, strategy=ag.DenoiseStrategy(6))
        assert triple.smoothed_quantized is not None
        assert np.all(triple.quantized.pixels == 50)

    def test_none_strategy_selected_from_entropy(self):
        img = band_image(6)
        assert ag.adaptive_filter(img, None).combined == ag.adaptive_filter(img, ag.DenoiseStrategy(6)).combined

    # an interval count is not a strategy: named, not an AttributeError on a private name
    @pytest.mark.parametrize("stage", [ag.quantize, ag.adaptive_filter], ids=["quantize", "adaptive_filter"])
    @pytest.mark.parametrize("strategy", [6, 6.0, "6"], ids=["int", "float", "str"])
    def test_non_strategy_rejected(self, stage, strategy):
        with pytest.raises(ValueError, match=f"^strategy must be a DenoiseStrategy, got {re.escape(repr(strategy))}$"):
            stage(band_image(6), strategy)
