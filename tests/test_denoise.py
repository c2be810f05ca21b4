import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
import oracles

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
        with pytest.raises(ValueError, match="^interval count must be 2, 4, or 6, got 3$"):
            ag.make_quantizer(3)

    def test_table_built_once_per_quantizer(self):
        q = ag.make_quantizer(4)
        assert q == ag.DenoiseStrategy(4)
        assert ag.DenoiseStrategy(4).table is ag.DenoiseStrategy(4).table
        assert q.table.tolist() == [v // 64 * 64 for v in range(256)]
        assert not q.table.flags.writeable

    @pytest.mark.parametrize("q", [pytest.param(ag.make_quantizer(n), id=str(n)) for n in (2, 4, 6)] +
                             [pytest.param(ag.select_strategy(h), id=f"h2d={h}") for h in (8.49, 9.0, 9.51)])
    def test_codebook_agrees_with_table(self, q):
        # the table is built apart from the codebook: each interval runs on from the last and maps to its codeword
        assert q.intervals == len(q.codebook)
        start = 0
        for lo, hi, code in q.codebook:
            assert lo == start <= hi and code == lo
            assert q.table[lo:hi + 1].tolist() == [code] * (hi - lo + 1)
            start = hi + 1
        assert start == 256

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
        triple = ag.adaptive_filter(img, strategy=ag.DenoiseStrategy(6))
        assert triple.smoothed_quantized is not None
        assert np.all(triple.quantized.pixels == 50)
