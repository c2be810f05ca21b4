"""The 8-bit image type and binary PGM/PPM/IDX I/O.

Images are 8-bit with pixels shaped ``(height, width, planes)``; planes is
1 (grayscale) or 3 (interleaved RGB). Only the classifier and the FGSM
step see them as [0, 1] floats, and each converts the bytes itself.
"""

import gzip
import re
import struct
import zlib

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801
_GZIP_MAGIC = b"\x1f\x8b"

_WHITESPACE = b" \t\n\r\x0b\x0c"
# The PGM/PPM header: the magic, then width, height and maxval, each after whitespace or # comments (a comment
# runs through its newline), then the one whitespace byte before the payload. Every byte can match in one way
# only, so a failed match takes linear time; the last group is empty when that byte is missing.
_HEADER = re.compile(rb"P[56]" + (rb"(?:[%s]|#[^\n]*\n)+([^%s#]+)" % (_WHITESPACE, _WHITESPACE)) * 3
                     + rb"([%s]?)" % _WHITESPACE)

# A batch ends at 512 images or 1 MiB of pixels, whichever comes first (512
# digits, or 6 images of 224x224x3), so its float rows stay below 15 MB.
_BATCH_IMAGES, _BATCH_BYTES = 512, 2**20


class FormatError(ValueError):
    """A byte stream violates the PGM/PPM or IDX format."""


class Image:
    """8-bit image; ``pixels`` is a (height, width, planes) uint8 array."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3:
            raise ValueError(f"expected 2-D or 3-D pixel array, got {arr.ndim}-D")
        if arr.shape[2] not in (1, 3):
            raise ValueError(f"plane count must be 1 or 3, got {arr.shape[2]}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"image dimensions must be at least 1x1, got {arr.shape[0]}x{arr.shape[1]}")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"pixel dtype must be integer, got {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("pixel values must be in [0, 255]")
            arr = arr.astype(np.uint8)
        self.pixels = arr

    @property
    def height(self):
        return self.pixels.shape[0]

    @property
    def width(self):
        return self.pixels.shape[1]

    @property
    def planes(self):
        return self.pixels.shape[2]

    def __repr__(self):
        return f"Image({self.width}x{self.height}, planes={self.planes})"

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(self.pixels, other.pixels)


def _chunks(items, nbytes):
    """Consecutive runs of items within _BATCH_IMAGES items and _BATCH_BYTES bytes; a larger item runs alone."""
    chunk, total = [], 0
    for item in items:
        size = nbytes(item)
        if chunk and (len(chunk) == _BATCH_IMAGES or total + size > _BATCH_BYTES):
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += size
    if chunk:
        yield chunk


def read_pgm_ppm(data):
    """Parse binary PGM (P5) or PPM (P6) bytes with maxval 255."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("expected a byte sequence")
    data = bytes(data)
    # the magic must end after two bytes, so a long first token is neither scanned nor quoted
    if data[:2] not in (b"P5", b"P6") or data[2:3].strip(_WHITESPACE + b"#"):
        raise FormatError(f"malformed header: unsupported magic {data[:8]!r}")
    planes = 1 if data[:2] == b"P5" else 3
    header = _HEADER.match(data)
    if header is None:
        raise FormatError("malformed header: missing fields")
    *fields, separator = header.groups()
    if not separator:
        raise FormatError("malformed header: no separator before pixel payload")
    if not all(t.isdigit() for t in fields):  # int() alone would take a sign or underscores
        raise FormatError("malformed header: non-numeric dimension or maxval")
    try:
        width, height, maxval = (int(t) for t in fields)
    except ValueError:  # more digits than int() converts
        raise FormatError("malformed header: dimension or maxval too long") from None
    if width < 1 or height < 1:
        raise FormatError(f"malformed header: dimensions must be at least 1x1, got {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255")
    expected = width * height * planes
    payload = data[header.end():]
    if len(payload) < expected:
        raise FormatError(f"truncated payload: expected {expected} bytes, got {len(payload)}")
    if len(payload) > expected:
        raise FormatError(f"trailing data after {expected} payload bytes")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, planes)
    return Image(arr)


def write_pgm_ppm(img):
    """Serialize an Image as binary PGM (1 plane) or PPM (3 planes)."""
    magic = b"P5" if img.planes == 1 else b"P6"
    header = magic + b"\n" + f"{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def _gunzip(data):
    """The bytes of `data`, decompressed when they start with the gzip magic."""
    data = bytes(data)
    if data[:2] != _GZIP_MAGIC:
        return data
    try:
        return gzip.decompress(data)
    except (gzip.BadGzipFile, EOFError, zlib.error) as e:
        raise FormatError(f"corrupt gzip data: {e}") from None


def read_idx_images(data):
    """Parse an IDX3 image file (MNIST layout), plain or gzipped, into a list of Images."""
    data = _gunzip(data)
    if len(data) < 16:
        raise FormatError("length mismatch: IDX3 header needs 16 bytes")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"wrong magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    if count > 0 and (rows < 1 or cols < 1):
        raise FormatError(f"malformed header: {rows}x{cols} images")
    if len(data) - 16 != count * rows * cols:
        raise FormatError(f"length mismatch: expected {count * rows * cols} pixel bytes, got {len(data) - 16}")
    if count == 0:  # numpy cannot shape even an empty array when rows * cols overflows it
        return []
    arr = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows, cols)
    return [Image(a) for a in arr]


def read_idx_labels(data):
    """Parse an IDX1 label file (MNIST layout), plain or gzipped, into a list of ints in 0..9."""
    data = _gunzip(data)
    if len(data) < 8:
        raise FormatError("length mismatch: IDX1 header needs 8 bytes")
    magic, count = struct.unpack(">II", data[:8])
    if magic != IDX_LABEL_MAGIC:
        raise FormatError(f"wrong magic 0x{magic:08x}, expected 0x{IDX_LABEL_MAGIC:08x}")
    if len(data) - 8 != count:
        raise FormatError(f"length mismatch: expected {count} labels, got {len(data) - 8} bytes")
    labels = np.frombuffer(data, dtype=np.uint8, offset=8)
    if labels.size and labels.max() > 9:
        raise FormatError(f"label {int(labels.max())} out of range 0..9")
    return [int(x) for x in labels]
