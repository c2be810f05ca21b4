"""Image containers, byte/float domain conversion, and binary PGM/PPM/IDX I/O.

Stored images are 8-bit with pixels shaped ``(height, width, planes)``;
planes is 1 (grayscale) or 3 (interleaved RGB). The real-valued [0, 1]
domain exists only for the classifier and attack code. Float-to-byte
conversion rounds half away from zero everywhere in this package.
"""

import struct

import numpy as np

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

_WHITESPACE = b" \t\n\r\x0b\x0c"


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

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"Image({self.width}x{self.height}, planes={self.planes})"


class FloatImage:
    """Real-valued image in [0.0, 1.0]; same shape conventions as Image."""

    __slots__ = ("pixels",)

    def __init__(self, pixels):
        arr = np.asarray(pixels, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, np.newaxis]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError("expected (height, width, 1or3) values")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("image dimensions must be at least 1x1")
        if not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("values must lie in [0.0, 1.0]")
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
        return f"FloatImage({self.width}x{self.height}, planes={self.planes})"


def to_float(img):
    """Map byte intensities to [0, 1] by dividing by 255."""
    return FloatImage(img.pixels / 255.0)


def to_bytes(img):
    """Map [0, 1] values back to bytes, rounding half away from zero.

    Exact inverse of :func:`to_float` on every 8-bit image.
    """
    v = img.pixels
    # values are nonnegative, so half-away-from-zero is floor(x + 0.5)
    return Image(np.floor(v * 255.0 + 0.5).astype(np.uint8))


def _header_tokens(data, count):
    """Read `count` whitespace-delimited header tokens, honoring # comments.

    Returns (tokens, payload_offset); exactly one whitespace byte separates
    the final token from the binary payload.
    """
    tokens = []
    i, n = 0, len(data)
    while len(tokens) < count:
        while i < n and data[i] in _WHITESPACE:
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and data[i] not in _WHITESPACE and data[i] != ord("#"):
            i += 1
        if i == start:
            raise FormatError("malformed header: missing fields")
        tokens.append(data[start:i])
    if i >= n or data[i] not in _WHITESPACE:
        raise FormatError("malformed header: no separator before pixel payload")
    return tokens, i + 1


def read_pgm_ppm(data):
    """Parse binary PGM (P5) or PPM (P6) bytes with maxval 255."""
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise TypeError("expected a byte sequence")
    data = bytes(data)
    tokens, offset = _header_tokens(data, 4)
    magic = tokens[0]
    if magic == b"P5":
        planes = 1
    elif magic == b"P6":
        planes = 3
    else:
        raise FormatError(f"malformed header: unsupported magic {magic!r}")
    if not all(t.isdigit() for t in tokens[1:4]):  # int() alone would take a sign or underscores
        raise FormatError("malformed header: non-numeric dimension or maxval")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:  # more digits than int() converts
        raise FormatError("malformed header: dimension or maxval too long") from None
    if width < 1 or height < 1:
        raise FormatError(f"malformed header: dimensions must be at least 1x1, got {width}x{height}")
    if maxval != 255:
        raise FormatError(f"unsupported maxval {maxval}, expected 255")
    expected = width * height * planes
    payload = data[offset:]
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


def read_idx_images(data):
    """Parse an IDX3 image file (MNIST layout) into a list of Images."""
    data = bytes(data)
    if len(data) < 16:
        raise FormatError("length mismatch: IDX3 header needs 16 bytes")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_IMAGE_MAGIC:
        raise FormatError(f"wrong magic 0x{magic:08x}, expected 0x{IDX_IMAGE_MAGIC:08x}")
    if count > 0 and (rows < 1 or cols < 1):
        raise FormatError(f"malformed header: {rows}x{cols} images")
    if len(data) - 16 != count * rows * cols:
        raise FormatError(f"length mismatch: expected {count * rows * cols} pixel bytes, got {len(data) - 16}")
    arr = np.frombuffer(data, dtype=np.uint8, offset=16).reshape(count, rows, cols)
    return [Image(a) for a in arr]


def read_idx_labels(data):
    """Parse an IDX1 label file (MNIST layout) into a list of ints in 0..9."""
    data = bytes(data)
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
