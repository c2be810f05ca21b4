import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import advguard as ag
from advguard.classifier import _bytes, _floats


def idx3_bytes(count, rows, cols, payload, magic=0x00000803):
    return struct.pack(">IIII", magic, count, rows, cols) + bytes(payload)


def idx1_bytes(labels, magic=0x00000801):
    return struct.pack(">II", magic, len(labels)) + bytes(labels)


class TestImageType:
    def test_2d_input_becomes_single_plane(self):
        img = ag.Image(np.zeros((2, 3), dtype=np.uint8))
        assert (img.height, img.width, img.planes) == (2, 3, 1)

    def test_rejects_bad_plane_count(self):
        with pytest.raises(ValueError, match="plane count"):
            ag.Image(np.zeros((2, 2, 2), dtype=np.uint8))

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            ag.Image(np.zeros((0, 4), dtype=np.uint8))

    def test_rejects_float_pixels(self):
        with pytest.raises(ValueError, match="integer"):
            ag.Image(np.zeros((2, 2), dtype=np.float64))

    def test_rejects_out_of_range_ints(self):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            ag.Image(np.full((2, 2), 300))

    def test_in_range_ints_become_bytes(self):
        img = ag.Image(np.array([[0, 128], [255, 7]], dtype=np.int64))
        assert img.pixels.dtype == np.uint8
        assert img.pixels[:, :, 0].tolist() == [[0, 128], [255, 7]]

    def test_equality_with_a_non_image_is_not_implemented(self):
        img = ag.Image(np.zeros((2, 2), dtype=np.uint8))
        assert img.__eq__(3) is NotImplemented
        assert img != 3 and not img == 3
        assert img == ag.Image(np.zeros((2, 2, 1), dtype=np.uint8))

    @pytest.mark.parametrize("shape, message", [
        ((4,), "expected 2-D or 3-D pixel array, got 1-D"),
        ((2, 2, 2), "plane count must be 1 or 3, got 2"),
        ((0, 4), "image dimensions must be at least 1x1, got 0x4"),
    ])
    @pytest.mark.parametrize("cls", [ag.Image])
    def test_shape_errors_are_shared(self, cls, shape, message):
        with pytest.raises(ValueError, match=message):
            cls(np.zeros(shape, dtype=np.uint8))

    def test_repr_names_the_class(self):
        assert repr(ag.Image(np.zeros((2, 3), dtype=np.uint8))) == "Image(3x2, planes=1)"
        assert repr(ag.Image(np.zeros((2, 3, 3), dtype=np.uint8))) == "Image(3x2, planes=3)"


class TestPgmPpm:
    def test_parse_p5(self):
        img = ag.read_pgm_ppm(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        assert (img.width, img.height, img.planes) == (2, 2, 1)
        assert img.pixels[:, :, 0].tolist() == [[0, 255], [128, 64]]

    def test_parse_p6(self):
        img = ag.read_pgm_ppm(b"P6\n1 1\n255\n" + bytes([10, 20, 30]))
        assert (img.width, img.height, img.planes) == (1, 1, 3)
        assert img.pixels[0, 0].tolist() == [10, 20, 30]

    def test_zero_width_rejected(self):
        with pytest.raises(ag.FormatError, match="at least 1x1"):
            ag.read_pgm_ppm(b"P5\n0 2\n255\n")

    def test_bad_magic_rejected(self):
        with pytest.raises(ag.FormatError, match="magic"):
            ag.read_pgm_ppm(b"P4\n2 2\n255\n" + bytes(4))

    @pytest.mark.parametrize("data", [b"Q" * 10**6, b"P5" + b"x" * 10**6, b"P6\x00" + b"7" * 10**6],
                             ids=["no-magic", "long-magic", "magic-then-nul"])
    def test_long_first_token_quoted_briefly(self, data):
        with pytest.raises(ag.FormatError, match="unsupported magic") as info:
            ag.read_pgm_ppm(data)
        assert len(str(info.value)) < 60

    def test_magic_starts_the_file(self):
        with pytest.raises(ag.FormatError, match="magic"):
            ag.read_pgm_ppm(b" P5 1 1 255\n" + bytes(1))

    def test_wrong_maxval_rejected(self):
        with pytest.raises(ag.FormatError, match="maxval 65535"):
            ag.read_pgm_ppm(b"P5\n2 2\n65535\n" + bytes(8))

    def test_truncated_payload_rejected(self):
        with pytest.raises(ag.FormatError, match="truncated"):
            ag.read_pgm_ppm(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))

    def test_trailing_bytes_rejected(self):
        with pytest.raises(ag.FormatError, match="trailing"):
            ag.read_pgm_ppm(b"P5\n2 2\n255\n" + bytes(5))

    @pytest.mark.parametrize("header", [b"P5 +2 1_0 255", b"P5 2 10 +255", b"P5 -2 10 255", b"P5 2 1e1 255"])
    def test_header_fields_must_be_decimal_digits(self, header):
        with pytest.raises(ag.FormatError, match="non-numeric"):
            ag.read_pgm_ppm(header + b"\n" + bytes(20))

    def test_header_leading_zeros_are_decimal(self):
        assert ag.read_pgm_ppm(b"P5 02 010 0255\n" + bytes(20)).pixels.shape == (10, 2, 1)

    def test_header_number_too_long_for_int(self):
        with pytest.raises(ag.FormatError, match="too long"):
            ag.read_pgm_ppm(b"P5 " + b"1" * 5000 + b" 1 255\n" + bytes(1))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(lambda head, tail: head + tail,
                  st.sampled_from([b"P5 ", b"P6 ", b"P5\n2 2\n", b"P6 1 1 255\n", b"P5 1 1 255 "]),
                  st.binary(max_size=32)),
    ))
    def test_any_bytes_parse_or_raise_format_error(self, data):
        try:
            img = ag.read_pgm_ppm(data)
        except ag.FormatError:
            return
        assert isinstance(img, ag.Image)

    def test_header_comments_skipped(self):
        img = ag.read_pgm_ppm(b"P5\n# a comment\n2 1 255\n" + bytes([9, 8]))
        assert img.pixels[:, :, 0].tolist() == [[9, 8]]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_header_grammar_reads_back_the_encoded_image(self, data):
        # every whitespace byte, comments holding digits, # and control bytes, and leading zeros between the fields
        h, w, planes = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)), data.draw(st.sampled_from([1, 3]))
        pixels = np.array(data.draw(st.lists(st.integers(0, 255), min_size=h * w * planes, max_size=h * w * planes)),
                          dtype=np.uint8).reshape(h, w, planes)
        whitespace = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])
        comment = st.lists(st.sampled_from([b"0", b"9", b"255", b"#", b"\r", b"\t", b" ", b"x"]), max_size=6).map(
            lambda parts: b"#" + b"".join(parts) + b"\n")
        separator = st.lists(st.one_of(whitespace, comment), min_size=1, max_size=4).map(b"".join)
        encoded = b"P5" if planes == 1 else b"P6"
        for value in (w, h, 255):
            encoded += data.draw(separator) + b"0" * data.draw(st.integers(0, 2)) + str(value).encode()
        encoded += data.draw(whitespace) + pixels.tobytes()
        assert ag.read_pgm_ppm(encoded) == ag.Image(pixels)

    def test_comment_text_is_not_read_as_fields(self):
        assert ag.read_pgm_ppm(b"P5 # 9 9 255\n1 1 255\n\x07").pixels.tolist() == [[[7]]]

    @pytest.mark.parametrize("data, message", [
        (b"P5 1 1 # 255 and the pixel \x07", "missing fields"),  # a comment that runs to the end of the file
        (b"P5 1 1 255#c\n\x00", "no separator before pixel payload"),
    ], ids=["comment-to-eof", "comment-after-maxval"])
    def test_header_comment_errors(self, data, message):
        with pytest.raises(ag.FormatError, match=message):
            ag.read_pgm_ppm(data)

    # about 1 MB of separators before too few fields: a parser that backtracks over them would not finish
    @pytest.mark.parametrize("data", [b"P5" + b" #\n" * 300_000 + b"1", b"P5" + b" \t" * 500_000 + b"1",
                                      b"P5 1 " + b"#" * 10**6], ids=["comments", "whitespace", "hashes"])
    def test_long_malformed_header_rejected_in_linear_time(self, data):
        with pytest.raises(ag.FormatError, match="missing fields"):
            ag.read_pgm_ppm(data)

    def test_write_single_black_pixel(self):
        data = ag.write_pgm_ppm(ag.Image(np.zeros((1, 1), dtype=np.uint8)))
        assert data.endswith(b"\n255\n\x00")

    def test_write_rgb_pixel_order(self):
        px = np.array([[[1, 2, 3], [4, 5, 6]]], dtype=np.uint8)  # 2x1 RGB
        data = ag.write_pgm_ppm(ag.Image(px))
        assert data[-6:] == bytes([1, 2, 3, 4, 5, 6])

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_roundtrip_identity(self, data):
        h = data.draw(st.integers(1, 12))
        w = data.draw(st.integers(1, 12))
        planes = data.draw(st.sampled_from([1, 3]))
        px = data.draw(
            st.lists(st.integers(0, 255), min_size=h * w * planes, max_size=h * w * planes)
        )
        img = ag.Image(np.array(px, dtype=np.uint8).reshape(h, w, planes))
        assert ag.read_pgm_ppm(ag.write_pgm_ppm(img)) == img


class TestIdx:
    def test_read_images(self):
        images = ag.read_idx_images(idx3_bytes(1, 2, 2, [1, 2, 3, 4]))
        assert len(images) == 1
        assert images[0].pixels[:, :, 0].tolist() == [[1, 2], [3, 4]]

    def test_images_wrong_magic(self):
        with pytest.raises(ag.FormatError, match="wrong magic"):
            ag.read_idx_images(idx3_bytes(1, 2, 2, [1, 2, 3, 4], magic=0x00000801))

    def test_images_truncated(self):
        with pytest.raises(ag.FormatError, match="length mismatch"):
            ag.read_idx_images(idx3_bytes(2, 2, 2, [1, 2, 3, 4]))

    def test_no_images_of_a_huge_size(self):
        assert ag.read_idx_images(idx3_bytes(0, 3036988439, 3037012561, [])) == []

    def test_read_labels(self):
        assert ag.read_idx_labels(idx1_bytes([7, 0, 9])) == [7, 0, 9]

    def test_labels_wrong_magic(self):
        with pytest.raises(ag.FormatError, match="wrong magic"):
            ag.read_idx_labels(idx1_bytes([1], magic=0x00000803))

    def test_label_out_of_range(self):
        with pytest.raises(ag.FormatError, match="out of range"):
            ag.read_idx_labels(idx1_bytes([3, 10]))

    def test_empty_label_file(self):
        assert ag.read_idx_labels(idx1_bytes([])) == []

    def test_gzipped_files_read_as_plain(self):
        images = idx3_bytes(2, 2, 3, range(12))
        labels = idx1_bytes([4, 2])
        assert ag.read_idx_images(gzip.compress(images)) == ag.read_idx_images(images)
        assert ag.read_idx_labels(gzip.compress(labels)) == [4, 2]

    @pytest.mark.parametrize("data", [
        b"\x1f\x8b", gzip.compress(idx1_bytes([1, 2]))[:-5], b"\x1f\x8b\x08\x00" + bytes(30), b"\x1f\x8b\x09" + bytes(30),
    ], ids=["magic-only", "truncated", "bad-block", "bad-method"])
    @pytest.mark.parametrize("read", [ag.read_idx_images, ag.read_idx_labels])
    def test_corrupt_gzip_rejected(self, read, data):
        with pytest.raises(ag.FormatError, match="corrupt gzip data"):
            read(data)

    def test_labels_length_mismatch(self):
        with pytest.raises(ag.FormatError, match="length mismatch"):
            ag.read_idx_labels(struct.pack(">II", 0x00000801, 5) + bytes([1, 2]))


class TestDomainConversion:
    """Image bytes and the classifier's [0, 1] rows: classifier._floats and classifier._bytes."""

    def test_floats_endpoints(self):
        assert _floats(np.array([[255, 0, 51]], dtype=np.uint8)).tolist() == [[1.0, 0.0, 0.2]]

    def test_bytes_endpoints_and_tie(self):
        # 0.5 * 255 = 127.5 rounds up (half away from zero)
        out = _bytes(np.array([[1.0, 0.5, 0.0]]))
        assert out.dtype == np.uint8 and out.tolist() == [[255, 128, 0]]

    def test_bytes_float_identity_all_values(self):
        rows = np.arange(256, dtype=np.uint8).reshape(1, 256)
        assert np.array_equal(_bytes(_floats(rows)), rows)
