"""Feed-forward softmax classifier with exact input gradients, plus adapters.

The built-in model is a single hidden rectified-linear layer trained by
mini-batch gradient descent on cross-entropy; training is bitwise
deterministic for a fixed seed. An external-command adapter lets any
off-the-shelf classifier plug into detection unchanged: it must print one
whitespace-separated confidence per class for the image path it is given.
"""

import shlex
import struct
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .image import FloatImage, Image, to_float, write_pgm_ppm

MODEL_MAGIC = b"ADVG"
MODEL_VERSION = 1


class ExternalClassifierError(RuntimeError):
    """The external classifier command failed or produced invalid output."""


class _TimedOut(ExternalClassifierError):
    """The external classifier command ran past its timeout."""


class PredictionVector:
    """Per-class confidences; the label is the argmax, lowest index on ties."""

    __slots__ = ("confidences",)

    def __init__(self, confidences, tol=1e-6):
        arr = np.asarray(confidences, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValueError("prediction vector is empty")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0):
            raise ValueError("confidences must be finite and nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > tol:
            raise ValueError(f"confidences sum to {total:.6f}, expected 1 within {tol}")
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
        for name in ("w1", "b1", "w2", "b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
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


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.1
    seed: int = 42
    init_range: float = 0.05

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        if self.learning_rate <= 0 or self.init_range <= 0:
            raise ValueError("learning rate and init range must be positive")


def _row(x):
    """One input as a (1, d) float64 row."""
    if isinstance(x, Image):
        x = to_float(x)  # byte-domain inputs always enter the net as [0, 1]
    if isinstance(x, FloatImage):
        x = x.pixels
    return np.asarray(x, dtype=np.float64).reshape(1, -1)


def _rows(images):
    """Images/FloatImages/array rows as an (n, d) matrix: uint8 bytes when all are Images, else float64.

    Bytes take an eighth of the memory; _floats converts them where the
    network needs them, so training holds only one mini-batch as floats.
    """
    images = list(images)
    if not images:
        raise ValueError("empty dataset")
    if all(isinstance(im, Image) for im in images):
        return np.stack([im.pixels.reshape(-1) for im in images])
    return np.concatenate([_row(im) for im in images])


def _floats(X):
    """Rows from _rows in the network's float64 [0, 1] domain; one to_float for all byte rows."""
    return to_float(Image(X)).pixels[:, :, 0] if X.dtype == np.uint8 else X


def _dataset(images, labels):
    """_rows of the images, and their labels."""
    X = _rows(images)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (len(X),):
        raise ValueError("images and labels are not aligned")
    return X, y


def _check_class(model, c):
    if not 0 <= c < model.n_classes:
        raise ValueError(f"class index {c} out of range 0..{model.n_classes - 1}")


def _forward(model, X):
    """The network on an (n, d) batch: hidden pre-activations, activations, softmax rows."""
    if X.shape[1] != model.input_size:
        raise ValueError(f"dimension mismatch: input has {X.shape[1]} values, model expects {model.input_size}")
    z1 = X @ model.w1 + model.b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ model.w2 + model.b2
    e = np.exp(z2 - z2.max(axis=1, keepdims=True))
    return z1, a1, e / e.sum(axis=1, keepdims=True)


def _hidden_gradient(model, z1, g2):
    """The gradient at the hidden pre-activations z1, given the one at the softmax input."""
    return (g2 @ model.w2.T) * (z1 > 0.0)


def _backward(model, X, Y):
    """a1 and the mean cross-entropy's output and hidden gradients against one-hot rows Y."""
    z1, a1, p = _forward(model, X)
    g2 = (p - Y) / len(X)
    return a1, g2, _hidden_gradient(model, z1, g2)


def _gradients(model, x, c):
    """One input as a (1, d) row, then _backward's results for class c."""
    _check_class(model, c)
    X = _row(x)
    return (X, *_backward(model, X, np.eye(model.n_classes)[c]))


def forward(model, x):
    """Run the network on a flattened input; returns a PredictionVector."""
    return PredictionVector(_forward(model, _row(x))[2])


def loss(model, x, c):
    """Cross-entropy of the prediction against class c, clamped above log 0."""
    _check_class(model, c)
    p = forward(model, x).confidences[c]
    return float(-np.log(max(p, 1e-300)))


def input_gradient(model, x, c):
    """Exact gradient of the loss with respect to each input pixel.

    The result has the shape of the input (image shape for FloatImage
    inputs, flat otherwise).
    """
    dx = (_gradients(model, x, c)[3] @ model.w1.T)[0]
    return dx.reshape(x.pixels.shape) if isinstance(x, (FloatImage, Image)) else dx


def parameter_gradients(model, x, c):
    """Gradients of the loss with respect to (w1, b1, w2, b2)."""
    X, a1, g2, g1 = _gradients(model, x, c)
    return X.T @ g1, g1[0], a1.T @ g2, g2[0]


def train(images, labels, config=None, hidden=128, classes=10):
    """Train the network by mini-batch gradient descent on cross-entropy.

    Images may be Images (converted to [0, 1]), FloatImages, or an (n, d)
    array. The run is a pure function of data and config.seed: weights are
    initialized uniformly in [-init_range, init_range] and every epoch's
    shuffle comes from the same seeded generator, so identical inputs give
    bitwise-identical models.
    """
    if config is None:
        config = TrainConfig()
    X, y = _dataset(images, labels)
    n, d = X.shape
    if y.min() < 0 or y.max() >= classes:
        raise ValueError(f"label out of range 0..{classes - 1}")

    rng = np.random.default_rng(config.seed)
    r = config.init_range
    model = ClassifierModel(rng.uniform(-r, r, size=(d, hidden)), np.zeros(hidden),
                            rng.uniform(-r, r, size=(hidden, classes)), np.zeros(classes))
    onehot = np.eye(classes)
    lr = config.learning_rate
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            Xb = _floats(X[batch])
            a1, g2, g1 = _backward(model, Xb, onehot[y[batch]])  # g1 from w2 before its update
            model.w2 -= lr * (a1.T @ g2)
            model.b2 -= lr * g2.sum(axis=0)
            model.w1 -= lr * (Xb.T @ g1)
            model.b1 -= lr * g1.sum(axis=0)
    # a new model checks the weights again: too large a learning rate makes them non-finite
    return ClassifierModel(model.w1, model.b1, model.w2, model.b2)


def accuracy(model, images, labels):
    """Fraction of images whose predicted label (as forward gives it) matches."""
    X, y = _dataset(images, labels)
    return float(np.mean(np.argmax(_forward(model, _floats(X))[2], axis=1) == y))


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
    for layer, size in (("input", d), ("hidden", h), ("output", n)):
        if size == 0:
            raise ValueError(f"{layer} layer size is 0")
    counts = (d * h, h, h * n, n)
    if len(data) - 20 != 8 * sum(counts):
        raise ValueError("model file length mismatch")
    flat = np.frombuffer(data, dtype="<f8", offset=20)
    parts, pos = [], 0
    for cnt in counts:
        parts.append(flat[pos:pos + cnt].copy())
        pos += cnt
    return ClassifierModel(parts[0].reshape(d, h), parts[1], parts[2].reshape(h, n), parts[3])


def external_classify(command, image_path, timeout=None):
    """Run `command <image_path>` and parse its stdout as a prediction vector.

    The command must exit 0 and print whitespace-separated nonnegative
    confidences summing to 1 within 1e-3. With a `timeout` in seconds, a
    command still running after it is killed; None waits without limit.
    """
    argv = shlex.split(command) + [str(image_path)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except OSError as e:
        raise ExternalClassifierError(f"cannot run {argv[0]!r}: {e}") from e
    except subprocess.TimeoutExpired:
        raise _TimedOut(f"classifier command timed out after {timeout:g} s") from None
    if proc.returncode != 0:
        raise ExternalClassifierError(
            f"classifier command exited {proc.returncode}: {proc.stderr.strip()[:200]}"
        )
    try:
        values = [float(tok) for tok in proc.stdout.split()]
    except ValueError:
        raise ExternalClassifierError(f"unparsable classifier output: {proc.stdout[:200]!r}") from None
    if not values:
        raise ExternalClassifierError("classifier printed no confidences")
    try:
        return PredictionVector(values, tol=1e-3)
    except ValueError as e:
        raise ExternalClassifierError(str(e)) from None


class ModelClassifier:
    """Adapter: classify stored Images with a built-in model."""

    def __init__(self, model):
        self.model = model

    def __call__(self, img):
        return forward(self.model, img)

    def batch(self, images):
        """Classify same-size Images with one forward pass over all their rows."""
        return [PredictionVector(p) for p in _forward(self.model, _floats(_rows(images)))[2]]


class ExternalClassifier:
    """Adapter: classify stored Images through an external command.

    Each call writes the image to a temporary PGM/PPM file and hands the
    path to the command, which gets `timeout` seconds (None: no limit).
    Once it has timed out, later calls fail at once without running it.
    """

    def __init__(self, command, timeout=None):
        self.command = command
        self.timeout = timeout
        self._timed_out = None

    def __call__(self, img):
        if self._timed_out is not None:
            raise ExternalClassifierError(f"{self._timed_out} earlier; not run again")
        suffix = ".pgm" if img.planes == 1 else ".ppm"
        with tempfile.NamedTemporaryFile(suffix=suffix, delete=True) as f:
            f.write(write_pgm_ppm(img))
            f.flush()
            try:
                return external_classify(self.command, f.name, self.timeout)
            except _TimedOut as e:
                self._timed_out = e
                raise
