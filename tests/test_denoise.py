import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
import oracles
from advguard import denoise

SIX_INTERVAL_CODEBOOK = (
    (0, 49, 0),
    (50, 99, 50),
    (100, 149, 100),
    (150, 199, 150),
    (200, 249, 200),
    (250, 255, 250),
)


def image_from(values):
    return ag.Image(np.array(values, dtype=np.uint8))


class TestQuantizer:
    def test_six_interval_codebook(self):
        assert ag.make_quantizer(6).codebook == SIX_INTERVAL_CODEBOOK

    def test_six_interval_boundaries(self):
        q = ag.make_quantizer(6)
        img = image_from([[49, 50, 255, 250]])
        assert ag.quantize(img, q).pixels.ravel().tolist() == [0, 50, 250, 250]

    def test_two_interval_split(self):
        q = ag.make_quantizer(2)
        img = image_from([[127, 128, 0, 255]])
        assert ag.quantize(img, q).pixels.ravel().tolist() == [0, 128, 0, 128]

    def test_four_interval_matches_integer_division(self):
        q = ag.make_quantizer(4)
        rng = np.random.default_rng(3)
        every_value = np.arange(256, dtype=np.uint8).reshape(1, 256)
        for px in (rng.integers(0, 256, size=(6, 9)).astype(np.uint8), every_value):
            img = ag.Image(px)
            expected = (img.pixels.astype(int) // 64) * 64
            assert np.array_equal(ag.quantize(img, q).pixels, expected)

    def test_unsupported_interval_count(self):
        with pytest.raises(ValueError, match="unsupported"):
            ag.make_quantizer(3)

    def test_table_built_once_per_quantizer(self):
        q = ag.make_quantizer(4)
        assert ag.make_quantizer(4) is q
        assert denoise._table(q) is denoise._table(ag.Quantizer(4, q.codebook))
        assert not denoise._table(q).flags.writeable

    def test_codeword_constant_unchanged(self):
        img = ag.Image(np.full((4, 4), 200, dtype=np.uint8))
        assert ag.quantize(img, ag.make_quantizer(6)) == img

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([2, 4, 6]), st.integers(0, 2**32 - 1))
    def test_idempotent_and_monotone(self, intervals, seed):
        q = ag.make_quantizer(intervals)
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
        assert mask.normalizer == 9
        assert mask.weights.tolist() == oracles.CROSS_WEIGHTS

    def test_averaging_mask(self):
        mask = ag.averaging_mask()
        assert mask.normalizer == 25
        assert np.all(mask.weights == 1)

    @pytest.mark.parametrize("weights, match", [
        (np.ones((3, 3), dtype=np.int64), "5x5"),
        (np.ones((7, 7), dtype=np.int64), "5x5"),
        (np.ones((5, 5)), "integer"),
        (np.ones((5, 5), dtype=bool), "integer"),
        (np.zeros((5, 5), dtype=np.int64), "nonzero sum"),
        (np.array([[1, -1, 0, 0, 0]] * 5), "nonzero sum"),
        (np.pad([[30]], 2, constant_values=-1), "nonnegative"),  # wrapped 1000 to 232 as a byte
    ], ids=["3x3", "7x7", "float", "bool", "zero", "zero-sum", "signed"])
    def test_invalid_mask_rejected(self, weights, match):
        with pytest.raises(ValueError, match=match):
            ag.FilterMask(weights)


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
            mask = ag.FilterMask(np.array(weights))
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
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5]), st.sampled_from([1, 3]))
    def test_random_masks_match_convolution_oracle(self, seed, top, planes):
        # top 5 puts sum(w) on both sides of 64, the largest int16-exact total
        rng = np.random.default_rng(seed)
        weights = rng.integers(0, top + 1, size=(5, 5))
        weights[2, 2] += weights.sum() == 0
        h, w = rng.integers(1, 10, size=2)
        px = rng.integers(0, 256, size=(h, w, planes)).astype(np.uint8)
        got = ag.smooth(ag.Image(px), ag.FilterMask(weights)).pixels
        for k in range(planes):
            expected = oracles.convolve(px[:, :, k].tolist(), weights.tolist(), int(weights.sum()))
            assert got[:, :, k].tolist() == expected

    @pytest.mark.parametrize("total", [64, 65])
    @pytest.mark.parametrize("pattern", ["full", "checkerboard"])
    def test_weight_totals_at_the_int16_limit(self, total, pattern):
        # 510 * 64 + 64 < 2**15 <= 510 * 65 + 65: int16 sums hold up to 64, not 65
        weights = np.ones((5, 5), dtype=np.int64)
        weights[2, 2] += total - 25
        if pattern == "full":
            px = np.full((7, 8, 3), 255, dtype=np.uint8)
        else:
            px = (np.indices((7, 8, 3)).sum(axis=0) % 2 * 255).astype(np.uint8)
        got = ag.smooth(ag.Image(px), ag.FilterMask(weights)).pixels
        for k in range(3):
            assert got[:, :, k].tolist() == oracles.convolve(px[:, :, k].tolist(), weights.tolist(), total)
        if pattern == "full":
            assert np.all(got == 255)

    def test_single_large_weight(self):
        weights = np.zeros((5, 5), dtype=np.int64)
        weights[0, 1] = 3000
        px = np.random.default_rng(5).integers(0, 256, size=(6, 7, 3)).astype(np.uint8)
        got = ag.smooth(ag.Image(px), ag.FilterMask(weights)).pixels
        for k in range(3):
            assert got[:, :, k].tolist() == oracles.convolve(px[:, :, k].tolist(), weights.tolist(), 3000)

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


class TestAdaptiveFilter:
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
        triple = ag.adaptive_filter(img, strategy=ag.DenoiseStrategy(6, True))
        assert triple.smoothed_quantized is not None
        assert np.all(triple.quantized.pixels == 50)
