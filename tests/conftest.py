import importlib.util
import os
from pathlib import Path
import struct
import warnings

import numpy as np
import pytest

from eigendecay.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from eigendecay.model import Activation, DenseLayer, init_mlp


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)])
    return float(np.max(np.abs(a - b) / denom))


def _warned(call):
    """(result, [(category, message)]) of a call, every warning recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, [(w.category, str(w.message)) for w in caught]


def linear_layer(weights, bias=None):
    weights = np.asarray(weights, dtype=float)
    if bias is None:
        bias = np.zeros(weights.shape[0])
    return DenseLayer(weights, bias, Activation("linear"))


def small_model(dims=(2, 3, 2), activation="sigmoid", seed=0):
    return init_mlp(list(dims), activation, seed=seed)


def rotation(n, scale, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return scale * q


def write_idx(dataset, images_path, labels_path, rows, cols):
    """An IDX image/label file pair that load_idx reads back as dataset,
    for [0, 1]-scaled pixel features on the 8-bit grid."""
    n = len(dataset)
    assert rows * cols == dataset.n_features
    pixels = np.round(dataset.features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(pixels.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(dataset.targets.astype(np.uint8).tobytes())


def load_script(name):
    """The module of scripts/<name>.py, loaded from its path; its main()
    does not run."""
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mnist_paths():
    """IDX file paths for the handwritten-digits experiment, or None.

    Looks under $EIGENDECAY_MNIST_DIR, then data/mnist next to the repo
    root. scripts/fetch_mnist.py downloads the files.
    """
    candidates = []
    env = os.environ.get("EIGENDECAY_MNIST_DIR")
    if env:
        candidates.append(env)
    candidates.append(os.path.join(os.path.dirname(__file__), "..", "data", "mnist"))
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    for base in candidates:
        paths = [os.path.join(base, name) for name in names]
        if all(os.path.exists(p) for p in paths):
            return dict(zip(("train_images", "train_labels", "test_images", "test_labels"), paths))
    return None


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
