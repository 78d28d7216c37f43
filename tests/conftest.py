import os
import struct

import numpy as np
import pytest

from eigendecay.data import IDX_IMAGES_MAGIC, IDX_LABELS_MAGIC
from eigendecay.model import Activation, DenseLayer, init_mlp


def max_rel_err(a, b, floor=1e-8):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum.reduce([np.abs(a), np.abs(b), np.full_like(a, floor)])
    return float(np.max(np.abs(a - b) / denom))


def linear_layer(weights, bias=None):
    weights = np.asarray(weights, dtype=float)
    if bias is None:
        bias = np.zeros(weights.shape[0])
    return DenseLayer(weights, bias, Activation("linear"))


def small_model(dims=(2, 3, 2), activation="sigmoid", seed=0):
    return init_mlp(list(dims), activation, seed=seed)


def reference_sigmoid(v):
    """The sigmoid as it was written with two full-array divisions."""
    e = np.exp(np.minimum(v, -v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def reference_deriv(kind, v):
    """The activation derivative at the preactivation v, as the model took
    it before it read slopes from the activation values."""
    if kind == "sigmoid":
        s = reference_sigmoid(v)
        return s * (1.0 - s)
    if kind == "tanh":
        t = np.tanh(v)
        return 1.0 - t * t
    if kind == "relu":
        return np.where(v > 0, 1.0, 0.0)
    return np.ones_like(v)


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
