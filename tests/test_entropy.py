import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
import oracles
from advguard.denoise import _filter
from advguard.entropy import EntropyProfile, _box_mean, _plogp, _profiles, _rounded_mean


MIRRORS = {"row flip": lambda a: a[::-1], "column flip": lambda a: a[:, ::-1], "transpose": lambda a: a.transpose(1, 0, 2)}


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

    def test_rejects_multi_plane_image(self):
        for plane in (ag.Image(np.zeros((2, 2), dtype=np.uint8)), ag.Image(np.zeros((2, 2, 3), dtype=np.uint8)),
                      np.zeros((2, 2, 3), dtype=np.uint8)):
            with pytest.raises(ValueError, match="^expected a 2-D plane$"):
                ag.neighborhood_average(plane)

    @pytest.mark.parametrize("plane, message", [
        (np.zeros(3, dtype=np.uint8), "2-D plane"),
        (np.zeros((0, 3), dtype=np.uint8), "at least 1x1"),
        (np.full((2, 2), 300), r"\[0, 255\]"),
        (np.zeros((2, 2)), "integer"),
    ])
    def test_plane_arrays_checked_as_images(self, plane, message):
        with pytest.raises(ValueError, match=message):
            ag.neighborhood_average(plane)


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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 39), st.integers(1, 39), st.sampled_from([1, 3]), st.sampled_from([2, 16, 256]),
           st.integers(0, 2**32 - 1))
    def test_mirror_invariance(self, h, w, planes, levels, seed):
        # the 5x5 window, the cross mask and replicate padding are all symmetric under the dihedral flips, so
        # a flipped image has the same joint histogram cells, summed in the same order, and flipped filter stages
        rng = np.random.default_rng(seed)
        px = rng.integers(0, levels, size=(h, w, planes), dtype=np.uint8)
        base = ag.entropy_2d(ag.Image(px))
        for name, flip in MIRRORS.items():
            assert bits([ag.entropy_2d(ag.Image(flip(px)))]) == bits([base]), name
            for n in (2, 4, 6):
                strategy = ag.DenoiseStrategy(n)
                for got, expected in zip(_filter(flip(px), strategy), _filter(px, strategy)):
                    assert (got is None and expected is None) or (got.tobytes() == flip(expected).tobytes()), (name, n)
        order = rng.permutation(planes)
        permuted = ag.entropy_2d(ag.Image(px[:, :, order])).per_plane
        assert [x.hex() for x in permuted] == [base.per_plane[k].hex() for k in order]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_bounds_hold(self, h, w, seed):
        rng = np.random.default_rng(seed)
        img = ag.Image(rng.integers(0, 256, size=(h, w)).astype(np.uint8))
        value = ag.entropy_2d(img).h2d
        assert 0.0 <= value <= 16.0
        assert math.isfinite(value)


def ordered_entropy(plane):
    """A plane's entropy summed as _profiles promises: the oracle's pair cells in ascending order, term by term."""
    counts = oracles.pair_counts(plane.tolist())
    assert sum(counts.values()) == plane.size
    p = np.array([counts[cell] for cell in sorted(counts)]) / plane.size
    total = 0.0
    for term in (p * np.log2(p)).tolist():
        total += term
    return -total + 0.0


def order_cases():
    rng = np.random.default_rng(53)

    def noise(*shape):
        return rng.integers(0, 256, size=shape, dtype=np.uint8)

    two_valued = rng.choice(np.array([3, 250], dtype=np.uint8), size=(9, 7, 3))
    images = [noise(5, 6, 3), np.full((5, 6, 3), 9, dtype=np.uint8), two_valued[:5, :6]]
    yield pytest.param(noise(7, 9, 1), 1, id="1-plane")
    yield pytest.param(noise(6, 5, 3), 3, id="3-plane")
    yield pytest.param(np.array([[[200]]], dtype=np.uint8), 1, id="1x1")
    yield pytest.param(np.array([[[0, 128, 255]]], dtype=np.uint8), 3, id="1x1-rgb")
    yield pytest.param(np.full((3, 5, 1), 42, dtype=np.uint8), 1, id="constant")
    yield pytest.param(two_valued, 3, id="two-valued")
    yield pytest.param(np.concatenate(images, axis=2), 3, id="multi-rgb")
    yield pytest.param(np.concatenate([img[:, :, :1] for img in images], axis=2), 1, id="multi-gray")
    plane_rng = np.random.default_rng(23)
    for k in range(10):
        yield pytest.param(random_plane(plane_rng, max_side=8)[:, :, None], 1, id=f"random-{k}")
    yield pytest.param(noise(224, 224, 3), 3, id="noise-224x224x3")


class TestProfileSummationOrder:
    @pytest.mark.parametrize("stack, planes", order_cases())
    def test_per_plane_bits(self, stack, planes):
        profiles = _profiles(stack, planes)
        assert len(profiles) == stack.shape[2] // planes
        got = [x.hex() for profile in profiles for x in profile.per_plane]
        assert got == [ordered_entropy(stack[:, :, k]).hex() for k in range(stack.shape[2])]


def profiles_per_call(stack, planes):
    """_profiles as it was before its p * log2(p) table was cached: the reference for the cached form."""
    h, w, depth = stack.shape
    codes = np.left_shift(stack, 8, dtype=np.uint16)
    codes |= _box_mean(stack)
    codes = np.ascontiguousarray(codes.reshape(h * w, depth).T)
    codes.sort(axis=1)
    codes = codes.ravel()
    edges = np.empty(codes.size + 1, dtype=bool)
    edges[0] = edges[-1] = True
    np.not_equal(codes[1:], codes[:-1], out=edges[1:-1])
    edges[::h * w] = True
    bounds = np.flatnonzero(edges)
    counts = bounds[1:] - bounds[:-1]
    p = np.arange(1, counts.max() + 1) / (h * w)
    terms = (p * np.log2(p)).take(counts - 1)
    per = -np.bincount(bounds[:-1] // (h * w), weights=terms, minlength=depth) + 0.0
    per = per.reshape(-1, planes)
    return [EntropyProfile(h2d, tuple(row)) for h2d, row in zip(per.mean(axis=1).tolist(), per.tolist())]


def bits(profiles):
    return [(p.h2d.hex(), [x.hex() for x in p.per_plane]) for p in profiles]


class TestCachedTable:
    @pytest.mark.parametrize("n", [1, 2, 784, 50176])
    def test_entries_equal_the_per_call_terms_bit_for_bit(self, n):
        table = _plogp(n, n)
        assert not table.flags.writeable and table.shape == (n,)

        def per_call(length):  # the table _profiles built on every call, for a largest count of `length`
            p = np.arange(1, length + 1) / n
            return p * np.log2(p)

        # full length and short prefixes take numpy's vector log2 path, single counts its scalar path;
        # a shorter table, as _profiles asks for, is the same prefix
        assert table.tobytes() == per_call(n).tobytes()
        for length in sorted({*range(1, min(n, 40) + 1), 64, 1024, 32768, n // 3 + 1, n - 1} & {*range(1, n + 1)}):
            assert table[:length].tobytes() == _plogp(n, length).tobytes() == per_call(length).tobytes(), length
        one = np.empty(1)
        for c in range(1, n + 1):
            one[0] = c / n
            assert (one * np.log2(one))[0] == table[c - 1]
        scalars = [float(np.float64(c / n) * np.log2(np.float64(c / n))) for c in range(1, min(n, 300) + 1)]
        assert scalars == table[:len(scalars)].tolist()


def profile_cases():
    rng = np.random.default_rng(71)
    for planes in (1, 3):
        for images in range(1, 6):
            depth = planes * images
            h, w = (int(x) for x in rng.integers(1, 30, size=2))
            yield pytest.param(np.full((h, w, depth), int(rng.integers(0, 256)), dtype=np.uint8), planes,
                               id=f"constant-{planes}x{images}")
            levels = rng.choice(np.array([0, 255], dtype=np.uint8), size=(h, w, depth))
            yield pytest.param(levels, planes, id=f"two-level-{planes}x{images}")
            yield pytest.param(rng.integers(0, 256, size=(h, w, depth), dtype=np.uint8), planes,
                               id=f"random-{planes}x{images}")
    yield pytest.param(rng.integers(0, 256, size=(28, 28, 5), dtype=np.uint8), 1, id="digits-28x28x5")


class TestProfilesAgainstPerCallTable:
    @pytest.mark.parametrize("stack, planes", profile_cases())
    def test_same_bits(self, stack, planes):
        assert bits(_profiles(stack, planes)) == bits(profiles_per_call(stack, planes))

    @pytest.mark.parametrize("shape", [(1, 1, 1), (28, 28, 1), (7, 5, 3), (224, 224, 3), (257, 256, 1)])
    def test_constant_plane_is_positive_zero(self, shape):
        (profile,) = _profiles(np.full(shape, 200, dtype=np.uint8), shape[2])
        assert profile.h2d == 0.0 and math.copysign(1.0, profile.h2d) == 1.0
        assert all(math.copysign(1.0, x) == 1.0 for x in profile.per_plane)

    def test_tables_past_the_cached_length_are_not_kept(self):
        # a near-constant large plane needs a table as long as the plane: it is built for the call only
        stack = np.full((257, 256, 1), 9, dtype=np.uint8)
        stack[0, 0] = 10
        _plogp.cache_clear()
        assert bits(_profiles(stack, 1)) == bits(profiles_per_call(stack, 1))
        assert _plogp.cache_info().currsize == 0
        _profiles(stack[:200], 1)  # 51200 pixels: its 51200-long table is kept
        assert _plogp.cache_info().currsize == 1


class TestSelectStrategy:
    def test_accepts_profile(self):
        # the profile that entropy_2d returns is select_strategy's input, with no float taken out first
        profile = ag.entropy_2d(ag.Image(np.zeros((4, 4), dtype=np.uint8)))
        assert ag.select_strategy(profile).intervals == 2


class TestRoundedMean:
    def test_matches_doubled_numerator_form_on_every_sum(self):
        # every sum that n taps of 0..255 can reach, against the doubled-numerator form (2 * acc + n) // (2 * n)
        for n in range(1, 26):
            acc = np.arange(255 * n + 1, dtype=np.int16)
            got = _rounded_mean(acc, n)
            assert got.dtype == np.uint8
            assert np.array_equal(got, (2 * acc.astype(np.int64) + n) // (2 * n)), n
