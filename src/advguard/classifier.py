"""Feed-forward softmax classifier with exact input gradients, plus adapters.

The built-in model is a single hidden rectified-linear layer trained by
mini-batch gradient descent on cross-entropy; training is bitwise
deterministic for a fixed seed. An external-command adapter lets any
off-the-shelf classifier plug into detection unchanged: it must print one
whitespace-separated confidence per class for the image path it is given.
"""

import math
import shlex
import struct
import subprocess
import tempfile
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .image import Image, write_pgm_ppm

MODEL_MAGIC = b"ADVG"
MODEL_VERSION = 1
_INIT_RANGE = 0.05  # train draws initial weights uniformly from [-0.05, 0.05]
_SLICE_BYTES = 2**20  # _first_layer's w1 slice size; like image._BATCH_BYTES, a cache-sized bound


class ExternalClassifierError(RuntimeError):
    """The external classifier command failed or produced invalid output."""


def _check_confidences(P, tol):
    """Raise the ValueError of the first row of the (n, k) matrix P that is not a prediction vector.

    A row is one when it is non-empty, finite and nonnegative, and sums to 1
    within tol. The whole matrix is checked at once: a NaN fails both
    comparisons, and a +inf makes its row's sum infinite.
    """
    if P.shape[1] == 0:
        raise ValueError("prediction vector is empty")
    with np.errstate(over="ignore"):  # finite values too large to add: an infinite sum, named below
        total = P.sum(axis=1)
    off = np.abs(total - 1.0)
    if P.min() >= 0 and off.max() <= tol:
        return
    for row, row_total, row_off in zip(P, total, off):
        if not np.all(np.isfinite(row)) or np.any(row < 0):
            raise ValueError("confidences must be finite and nonnegative")
        if row_off > tol:
            raise ValueError(f"confidences sum to {float(row_total):.6f}, expected 1 within {tol}")


class PredictionVector:
    """Per-class confidences; the label is the argmax, lowest index on ties."""

    __slots__ = ("confidences",)

    def __init__(self, confidences, tol=1e-6):
        arr = np.asarray(confidences, dtype=np.float64).ravel()
        _check_confidences(arr[None], tol)
        self.confidences = arr

    def label(self):
        return int(np.argmax(self.confidences))

    def __len__(self):
        return self.confidences.size

    def __repr__(self):
        return f"PredictionVector(label={self.label()}, n={len(self)})"


@dataclass(eq=False)
class ClassifierModel:
    """Weights of the input->hidden (relu) ->output (softmax) network."""

    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h, n)
    b2: np.ndarray  # (n,)

    def __post_init__(self):
        if np.ndim(self.w1) != 2 or np.ndim(self.w2) != 2:
            raise ValueError("w1 and w2 must be 2-D")
        (d, h), n = np.shape(self.w1), np.shape(self.w2)[1]
        for layer, size in (("input", d), ("hidden", h), ("output", n)):
            if size == 0:
                raise ValueError(f"{layer} layer size is 0")
        for name, shape in (("w1", (d, h)), ("b1", (h,)), ("w2", (h, n)), ("b2", (n,))):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, arr)

    @property
    def input_size(self):
        return self.w1.shape[0]

    @property
    def hidden_size(self):
        return self.w1.shape[1]

    @property
    def n_classes(self):
        return self.w2.shape[1]


def _is_real(value):
    """Whether value is a real number that is not a bool: a bool is a Real too, and True would pass as 1."""
    # a float, as every EntropyProfile holds, skips the ABC check, which takes longer than the rest of select_strategy
    return type(value) is float or isinstance(value, Real) and not isinstance(value, bool)


def _check_integer(value, name):
    if not isinstance(value, Integral) or isinstance(value, bool):  # a bool is an Integral too, and True would pass as 1
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 42

    def __post_init__(self):
        for name in ("epochs", "batch_size", "seed"):
            _check_integer(getattr(self, name), name)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.seed < 0:  # numpy's generator would refuse it only after the dataset is converted
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not (_is_real(self.learning_rate) and 0 < self.learning_rate < math.inf):
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate!r}")


def _rows(images):
    """Images, or rows of [0, 1] values, as an (n, d) matrix: uint8 bytes when all are Images, else float64.

    Bytes take an eighth of the memory. _forward and _parameter_gradients take
    them as they are and convert them where they need floats.
    """
    images = list(images)
    if not images:
        raise ValueError("empty dataset")
    rows = [im.pixels.reshape(-1) if isinstance(im, Image) else np.asarray(im, dtype=np.float64).reshape(-1)
            for im in images]
    if not all(isinstance(im, Image) for im in images):  # byte-domain inputs always enter the net as [0, 1]
        rows = [_floats(row) for row in rows]
    try:
        return np.array(rows)
    except ValueError:  # rows of different lengths; numpy's message names no row
        i = next(i for i, row in enumerate(rows) if row.size != rows[0].size)
        raise ValueError(f"image {i} has {rows[i].size} values, image 0 has {rows[0].size}") from None


def _floats(X):
    """Rows from _rows in the network's float64 [0, 1] domain: byte rows divided by 255."""
    return X / 255.0 if X.dtype == np.uint8 else X


def _bytes(X):
    """[0, 1] float64 rows committed to uint8, rounding half away from zero; exact inverse of _floats on bytes.

    X is scratch: the rounding is made in place in it, so no row-sized temporary is allocated.
    """
    X *= 255.0
    X += 0.5
    return np.floor(X, out=X).astype(np.uint8)  # nonnegative, so half away from zero is floor(x + 0.5)


def _dataset(images, labels, classes):
    """_rows of the images, and their labels as an integer array: one per image, not a bool, in 0..classes-1."""
    X = _rows(images)
    y = np.asarray(labels)
    if y.shape != (len(X),):
        found = f"{len(y)} labels" if y.ndim == 1 else f"labels of shape {y.shape}"
        raise ValueError(f"images and labels are not aligned: {len(X)} images but {found}")
    # a float label would be truncated, a bool one taken as 0 or 1; np.asarray([0, True]) is an int array
    if not isinstance(labels, np.ndarray) and not {bool, np.bool_}.isdisjoint(map(type, labels)):
        raise ValueError("labels must be integers, got bool")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError(f"labels must be integers, got {y.dtype}")
    if y.min() < 0 or y.max() >= classes:
        raise ValueError(f"label out of range 0..{classes - 1}")
    return X, y


def _check_class(model, c):
    _check_integer(c, "class index")
    if not 0 <= c < model.n_classes:
        raise ValueError(f"class index {c} out of range 0..{model.n_classes - 1}")


def _first_layer(X, w1):
    """X @ w1, summed over row slices of w1 of about _SLICE_BYTES each into the first slice's product.

    Each slice stays in cache while every row of X passes over it, so a w1
    larger than the cache is read from memory once. A w1 that fits in one
    slice is one product of the full arrays.
    """
    rows = max(1, _SLICE_BYTES // w1[0].nbytes)
    z = X[:, :rows] @ w1[:rows]
    for s in range(rows, len(w1), rows):
        z += X[:, s:s + rows] @ w1[s:s + rows]
    return z


def _forward(model, X):
    """The network on an (n, d) batch of rows from _rows: hidden pre-activations, activations, softmax rows."""
    if X.shape[1] != model.input_size:
        raise ValueError(f"dimension mismatch: input has {X.shape[1]} values, model expects {model.input_size}")
    # weights that overflow give NaN rows, which PredictionVector names; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        z1 = _first_layer(_floats(X), model.w1) + model.b1  # whole, not per w1 slice: see README's performance notes
        a1 = np.maximum(z1, 0.0)
        z2 = a1 @ model.w2 + model.b2
        e = np.exp(z2 - z2.max(axis=1, keepdims=True))
        return z1, a1, e / e.sum(axis=1, keepdims=True)


def _softmax(model, X):
    """_forward's softmax rows of the rows X from _rows, all checked at once as PredictionVector checks one."""
    P = _forward(model, X)[2]
    _check_confidences(P, 1e-6)
    return P


def _hidden_gradient(model, z1, g2):
    """The gradient at the hidden pre-activations z1, given the one at the softmax input."""
    return (g2 @ model.w2.T) * (z1 > 0.0)


def _pixel_gradient(model, z1, p, labels):
    """Each row's cross-entropy gradient at the pixels, against its label, from one _forward's z1 and softmax rows p."""
    return _hidden_gradient(model, z1, p - np.eye(model.n_classes)[labels]) @ model.w1.T


def _parameter_gradients(model, X, labels):
    """The mean cross-entropy's gradients over rows X from _rows against their labels, for (w1, b1, w2, b2)."""
    X = _floats(X)  # once here, for X.T @ g1; _forward's conversion of float rows is then the identity
    z1, a1, p = _forward(model, X)
    g2 = (p - np.eye(model.n_classes)[labels]) / len(X)
    g1 = _hidden_gradient(model, z1, g2)
    return X.T @ g1, g1.sum(axis=0), a1.T @ g2, g2.sum(axis=0)


def forward(model, x):
    """Run the network on a flattened input; returns a PredictionVector."""
    return PredictionVector(_forward(model, _rows([x]))[2])


def loss(model, x, c):
    """Cross-entropy of the prediction against class c, clamped above log 0."""
    _check_class(model, c)
    p = forward(model, x).confidences[c]
    return float(-np.log(max(p, 1e-300)))


def input_gradient(model, x, c):
    """Exact gradient of the loss with respect to each input pixel.

    The result has the shape of the input: an Image's pixel shape, or the
    array's own shape, so a flat row gives a flat gradient. It is taken in
    the [0, 1] domain either way.
    """
    _check_class(model, c)
    z1, _, p = _forward(model, _rows([x]))
    return _pixel_gradient(model, z1, p, [c]).reshape(x.pixels.shape if isinstance(x, Image) else np.shape(x))


def parameter_gradients(model, x, c):
    """Gradients of the loss with respect to (w1, b1, w2, b2)."""
    _check_class(model, c)
    return _parameter_gradients(model, _rows([x]), [c])


def train(images, labels, config=None, hidden=128, classes=10):
    """Train the network by mini-batch gradient descent on cross-entropy.

    Images may be Images (converted to [0, 1]) or rows of [0, 1] values,
    such as an (n, d) array. The run is a pure function of data and
    config.seed: weights are initialized uniformly in [-0.05, 0.05] and
    every epoch's shuffle comes from the same seeded generator, so
    identical inputs give bitwise-identical models.
    """
    if config is None:
        config = TrainConfig()
    for name, layer, size in (("hidden", "hidden", hidden), ("classes", "output", classes)):
        _check_integer(size, name)
        if size < 1:  # ClassifierModel's message for a size of 0, given before the weights are drawn
            raise ValueError(f"{layer} layer size is {size}")
    X, y = _dataset(images, labels, classes)
    n, d = X.shape

    rng = np.random.default_rng(config.seed)
    r = _INIT_RANGE
    model = ClassifierModel(rng.uniform(-r, r, size=(d, hidden)), np.zeros(hidden),
                            rng.uniform(-r, r, size=(hidden, classes)), np.zeros(classes))
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            grads = _parameter_gradients(model, X[batch], y[batch])  # all four before any update
            for param, grad in zip((model.w1, model.b1, model.w2, model.b2), grads):
                grad *= config.learning_rate  # in place: no second gradient-sized temporary
                param -= grad
    # a new model checks the weights again: too large a learning rate makes them non-finite
    return ClassifierModel(model.w1, model.b1, model.w2, model.b2)


def accuracy(model, images, labels):
    """Fraction of images whose predicted label (as forward gives it) matches."""
    X, y = _dataset(images, labels, model.n_classes)
    return float(np.mean(np.argmax(_softmax(model, X), axis=1) == y))


def save_model(model, path):
    """Write the model file: magic, version, layer sizes, float64 parameters.

    Little-endian throughout; parameters in row-major w1, b1, w2, b2 order.
    """
    d, h, n = model.input_size, model.hidden_size, model.n_classes
    blob = MODEL_MAGIC + struct.pack("<IIII", MODEL_VERSION, d, h, n)
    for arr in (model.w1, model.b1, model.w2, model.b2):
        blob += np.ascontiguousarray(arr, dtype="<f8").tobytes()
    Path(path).write_bytes(blob)


def load_model(path):
    """Read a model file written by save_model; exact round-trip."""
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:4] != MODEL_MAGIC:
        raise ValueError("not a model file (bad magic)")
    version, d, h, n = struct.unpack("<IIII", data[4:20])
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    counts = (d * h, h, h * n, n)
    if len(data) - 20 != 8 * sum(counts):
        raise ValueError("model file length mismatch")
    flat = np.frombuffer(data, dtype="<f8", offset=20)
    parts, pos = [], 0
    for cnt in counts:
        parts.append(flat[pos:pos + cnt].copy())
        pos += cnt
    return ClassifierModel(parts[0].reshape(d, h), parts[1], parts[2].reshape(h, n), parts[3])


class ModelClassifier:
    """Adapter: classify stored Images with a built-in model."""

    def __init__(self, model):
        self.model = model

    def __call__(self, img):
        return forward(self.model, img)

    def batch(self, images):
        """(n, k) float64 softmax rows of same-size Images from one forward pass, checked as forward checks each."""
        return _softmax(self.model, _rows(images))


def _check_timeout(timeout):
    """timeout itself when it is None or a finite real number > 0 that is not a bool, else a ValueError naming it."""
    if timeout is None or _is_real(timeout) and 0 < timeout < math.inf:
        return timeout
    raise ValueError(f"timeout must be a finite number of seconds > 0, got {timeout!r}")


class ExternalClassifier:
    """Adapter: classify stored Images through an external command.

    Each call writes the image to a temporary PGM/PPM file and runs
    `command <path>`, which gets `timeout` seconds (None: no limit). The command
    must exit 0 and print whitespace-separated nonnegative confidences summing
    to 1 within 1e-3. Once it has timed out, later calls fail at once without
    running it. A command that is not a str, cannot be split into words, or
    whose first word is empty is a ValueError here, as is any other timeout.
    """

    def __init__(self, command, timeout=None):
        if not isinstance(command, str):  # shlex.split(None) would read the words from standard input
            raise ValueError(f"classifier command must be a string, got {type(command).__name__}")
        self.command = command
        self._argv = shlex.split(command)  # a ValueError of its own on an unclosed quote or a trailing backslash
        if not self._argv or not self._argv[0]:
            raise ValueError(f"classifier command {command!r} names no program")
        self.timeout = _check_timeout(timeout)
        self._timed_out = None  # the timeout message, once the command has run past it

    def __call__(self, img):
        if self._timed_out is not None:
            raise ExternalClassifierError(f"{self._timed_out} earlier; not run again")
        with tempfile.NamedTemporaryFile(suffix=".pgm" if img.planes == 1 else ".ppm") as f:
            f.write(write_pgm_ppm(img))
            f.flush()
            argv = self._argv + [f.name]
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=self.timeout)
            except OSError as e:
                raise ExternalClassifierError(f"cannot run {argv[0]!r}: {e}") from e
            except subprocess.TimeoutExpired:
                self._timed_out = f"classifier command timed out after {self.timeout:g} s"
                raise ExternalClassifierError(self._timed_out) from None
        if proc.returncode != 0:
            raise ExternalClassifierError(
                f"classifier command exited {proc.returncode}: {proc.stderr.strip()[:200]}"
            )
        try:
            values = [float(tok) for tok in proc.stdout.split()]
        except ValueError:
            raise ExternalClassifierError(f"unparsable classifier output: {proc.stdout[:200]!r}") from None
        try:
            return PredictionVector(values, tol=1e-3)
        except ValueError as e:
            raise ExternalClassifierError(str(e)) from None
