import os
from pathlib import Path

import pytest

import advguard as ag

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def mnist_dir():
    default = Path(__file__).resolve().parent.parent / "data" / "mnist"
    return Path(os.environ.get("ADVGUARD_MNIST_DIR", default))


@pytest.fixture(scope="session")
def mnist_dataset():
    """The official MNIST IDX files, plain or gzipped, or None when they are not on disk.

    Tests that need the data call require_mnist() so the skip message is
    emitted from inside the test itself.
    """
    d = mnist_dir()
    paths = {key: next((p for p in (d / name, d / f"{name}.gz") if p.is_file()), None)
             for key, name in MNIST_FILES.items()}
    if None in paths.values():
        return None
    return {key: (ag.read_idx_images if key.endswith("images") else ag.read_idx_labels)(path.read_bytes())
            for key, path in paths.items()}


def require_mnist(dataset):
    if dataset is None:
        pytest.skip(
            f"MNIST IDX files not found under {mnist_dir()} (this sandbox has "
            "no network access; place the four official files there, "
            "optionally gzipped, to enable the MNIST criteria)"
        )
    return dataset
