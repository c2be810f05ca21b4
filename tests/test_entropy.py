import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
import oracles


def random_plane(rng, max_side=16):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    return rng.integers(0, 256, size=(h, w)).astype(np.uint8)


class TestNeighborhoodAverage:
    def test_constant_plane_unchanged(self):
        plane = np.full((6, 4), 77, dtype=np.uint8)
        assert np.array_equal(ag.neighborhood_average(plane), plane)

    def test_single_bright_center(self):
        plane = np.zeros((5, 5), dtype=np.uint8)
        plane[2, 2] = 25
        assert ag.neighborhood_average(plane)[2, 2] == 1  # 25 / 25

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            plane = random_plane(rng, max_side=7)
            got = ag.neighborhood_average(plane)
            assert got.tolist() == oracles.box_average(plane.tolist())

    def test_full_scale_plane(self):
        plane = np.full((9, 6), 255, dtype=np.uint8)
        assert np.array_equal(ag.neighborhood_average(plane), plane)
        board = (np.indices((9, 6)).sum(axis=0) % 2 * 255).astype(np.uint8)
        assert ag.neighborhood_average(board).tolist() == oracles.box_average(board.tolist())

    def test_accepts_and_returns_image(self):
        img = ag.Image(np.full((3, 3), 9, dtype=np.uint8))
        out = ag.neighborhood_average(img)
        assert isinstance(out, ag.Image) and out == img

    def test_rejects_multi_plane_image(self):
        with pytest.raises(ValueError, match="single-plane"):
            ag.neighborhood_average(ag.Image(np.zeros((2, 2, 3), dtype=np.uint8)))


class TestJointHistogram:
    def test_constant_plane(self):
        hist = ag.joint_histogram(np.full((3, 5), 42, dtype=np.uint8))
        assert hist.total == 15
        assert hist.counts[42, 42] == 15
        assert hist.counts.sum() == 15

    def test_single_pixel_pairs_with_itself(self):
        hist = ag.joint_histogram(np.array([[200]], dtype=np.uint8))
        assert hist.counts[200, 200] == 1 and hist.total == 1

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            plane = random_plane(rng, max_side=8)
            hist = ag.joint_histogram(plane)
            expected = oracles.pair_counts(plane.tolist())
            assert hist.total == plane.size
            nonzero = {(int(i), int(j)): int(hist.counts[i, j]) for i, j in zip(*np.nonzero(hist.counts))}
            assert nonzero == expected


class TestEntropy2d:
    def test_constant_image_zero_entropy(self):
        for shape in [(1, 1), (4, 7), (3, 3, 3)]:
            img = ag.Image(np.full(shape, 128, dtype=np.uint8))
            assert ag.entropy_2d(img).h2d == 0.0

    def test_checkerboard_matches_pmf_oracle(self):
        img = ag.Image(np.array([[0, 255], [255, 0]], dtype=np.uint8))
        expected = oracles.plane_entropy(img.pixels[:, :, 0].tolist())
        assert ag.entropy_2d(img).h2d == pytest.approx(expected, abs=1e-12)

    def test_random_images_match_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(15):
            plane = random_plane(rng, max_side=10)
            got = ag.entropy_2d(ag.Image(plane)).h2d
            assert got == pytest.approx(oracles.plane_entropy(plane.tolist()), abs=1e-9)

    def test_rgb_averages_plane_entropies(self):
        rng = np.random.default_rng(41)
        noise = rng.integers(0, 256, size=(6, 6, 3)).astype(np.uint8)
        # values at both ends of 0..255 fill the first and last histogram cells of every plane
        extremes = rng.choice(np.array([0, 1, 254, 255], dtype=np.uint8), size=(6, 6, 3))
        for px in (noise, extremes):
            profile = ag.entropy_2d(ag.Image(px))
            assert len(profile.per_plane) == 3
            assert profile.h2d == pytest.approx(sum(profile.per_plane) / 3, abs=1e-12)
            for k in range(3):
                assert profile.per_plane[k] == ag.entropy_2d(ag.Image(px[:, :, k])).h2d
                assert profile.per_plane[k] == pytest.approx(oracles.plane_entropy(px[:, :, k].tolist()), abs=1e-9)

    def test_identical_planes_collapse_to_one(self):
        rng = np.random.default_rng(43)
        plane = rng.integers(0, 256, size=(5, 8)).astype(np.uint8)
        rgb = ag.Image(np.repeat(plane[:, :, None], 3, axis=2))
        gray_h = ag.entropy_2d(ag.Image(plane)).h2d
        assert ag.entropy_2d(rgb).h2d == pytest.approx(gray_h, abs=1e-12)

    def test_mirror_invariance(self):
        rng = np.random.default_rng(47)
        plane = rng.integers(0, 256, size=(9, 6)).astype(np.uint8)
        base = ag.entropy_2d(ag.Image(plane)).h2d
        assert ag.entropy_2d(ag.Image(plane[:, ::-1])).h2d == base
        assert ag.entropy_2d(ag.Image(plane[::-1, :])).h2d == base

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_bounds_hold(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = ag.Image(rng.integers(0, 256, size=(h, w)).astype(np.uint8))
        value = ag.entropy_2d(img).h2d
        assert 0.0 <= value <= 16.0
        assert math.isfinite(value)


class TestSelectStrategy:
    def test_photo_like_entropy_gets_smoothing(self):
        strategy = ag.select_strategy(13.13)
        assert strategy == ag.DenoiseStrategy(6, True)

    def test_band_boundaries(self):
        assert ag.select_strategy(9.50).intervals == 4
        assert ag.select_strategy(8.50).intervals == 4
        assert not ag.select_strategy(9.50).smooth

    def test_constant_image_gets_two_intervals(self):
        assert ag.select_strategy(0.0) == ag.DenoiseStrategy(2, False)

    def test_accepts_profile(self):
        profile = ag.entropy_2d(ag.Image(np.zeros((4, 4), dtype=np.uint8)))
        assert ag.select_strategy(profile).intervals == 2

    def test_strategy_invariant_enforced(self):
        with pytest.raises(ValueError, match="smoothing"):
            ag.DenoiseStrategy(4, True)
        with pytest.raises(ValueError, match="interval count"):
            ag.DenoiseStrategy(3, False)
