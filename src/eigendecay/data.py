"""Dataset container, IDX and delimited-text loaders, synthetic 2-D
generators, +/-1 one-hot encoding, deterministic splits, and the JSON-lines
report writer."""

from dataclasses import dataclass
import json
import math
import numbers
import struct

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """IDX file failed a structural check."""


# A JSON config can hold 1.5 or true where a number belongs, and bool is
# an int, so both checks turn it away.

def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_finite(value):
    """Whether value is a real number that converts to a finite float: not
    a bool, nan or an infinity, nor an integer past float range."""
    try:
        return _is_real(value) and math.isfinite(value)
    except OverflowError:
        return False


def _check_count(name, value, low):
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def encode_batch_pm1(targets, n_classes):
    targets = np.asarray(targets)
    out = np.full((targets.shape[0], n_classes), -1.0)
    # written as the negation, so a nan class is out of range too
    bad = ~((0 <= targets) & (targets < n_classes))
    if bad.any():
        c = targets[bad.argmax()]  # the first in input order
        raise ValueError(f"class {c} out of range for {n_classes} classes")
    if len(targets):  # an empty list is a float array, which cannot index
        out[np.arange(len(targets)), targets] = 1.0
    return out


@dataclass
class Dataset:
    features: np.ndarray  # (n, d)
    targets: np.ndarray  # (n,) int
    encoded: np.ndarray  # (n, L) in {-1, +1}
    n_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=np.int64)
        self.encoded = np.asarray(self.encoded, dtype=float)
        n = self.features.shape[0]
        if self.targets.shape[0] != n or self.encoded.shape[0] != n:
            raise ValueError("features, targets, and encodings must align")
        if self.encoded.shape[1] != self.n_classes:
            raise ValueError("encoding width must equal the class count")

    @classmethod
    def from_arrays(cls, features, targets, n_classes=None):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=np.int64)
        if n_classes is None:
            n_classes = int(targets.max()) + 1 if targets.size else 0
        return cls(features, targets, encode_batch_pm1(targets, n_classes), n_classes)

    def __len__(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def subset(self, indices):
        indices = np.asarray(indices, dtype=np.intp)
        return Dataset(
            self.features[indices],
            self.targets[indices],
            self.encoded[indices],
            self.n_classes,
        )


def _read_exact(path, description):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise IdxFormatError(f"{description} file not found: {path}") from None


def load_idx(images_path, labels_path, n_classes=None, limit=None):
    """Dataset from an IDX image/label file pair.

    Pixels are scaled to [0, 1]; images are flattened row-major. limit,
    when given, keeps the first limit examples and must be an integer >= 1;
    the class count, unless given, is the whole file's, as for a delimited
    file.
    Structural problems (bad magic, truncation, count mismatch) fail before
    any data is returned.
    """
    if limit is not None and (not _is_int(limit) or limit < 1):
        raise ValueError(f"limit must be an integer >= 1, got {limit!r}")
    img = _read_exact(images_path, "images")
    if len(img) < 16:
        raise IdxFormatError(f"images file too short for its header: {images_path}")
    magic, n_images, rows, cols = struct.unpack(">IIII", img[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(
            f"bad magic {magic:#010x} in images file (expected "
            f"{IDX_IMAGES_MAGIC:#010x}): {images_path}"
        )
    expected = 16 + n_images * rows * cols
    if len(img) < expected:
        raise IdxFormatError(
            f"images file truncated: {len(img)} bytes, header promises {expected}"
        )
    if len(img) > expected:
        raise IdxFormatError(
            f"images file has {len(img) - expected} trailing bytes past the "
            f"declared data"
        )

    lab = _read_exact(labels_path, "labels")
    if len(lab) < 8:
        raise IdxFormatError(f"labels file too short for its header: {labels_path}")
    magic, n_labels = struct.unpack(">II", lab[:8])
    if magic != IDX_LABELS_MAGIC:
        raise IdxFormatError(
            f"bad magic {magic:#010x} in labels file (expected "
            f"{IDX_LABELS_MAGIC:#010x}): {labels_path}"
        )
    if len(lab) != 8 + n_labels:
        raise IdxFormatError(
            f"labels file holds {len(lab) - 8} labels, header promises {n_labels}"
        )
    if n_labels != n_images:
        raise IdxFormatError(
            f"count mismatch: {n_images} images vs {n_labels} labels"
        )

    pixels = np.frombuffer(img, dtype=np.uint8, offset=16)
    features = pixels.reshape(n_images, rows * cols).astype(float) / 255.0
    targets = np.frombuffer(lab, dtype=np.uint8, offset=8).astype(np.int64)
    dataset = Dataset.from_arrays(features, targets, n_classes)
    if limit is not None:
        dataset = dataset.subset(np.arange(min(limit, n_images)))
    return dataset


def load_delimited(path, sep=",", header=False, n_classes=None):
    """Delimited text, one example per line, integer class label last."""
    features = []
    targets = []
    with open(path) as fh:
        lines = fh.read().splitlines()
    if header:
        lines = lines[1:]
    for ln, line in enumerate(lines, start=1 + int(header)):
        if not line.strip():
            continue
        parts = line.split(sep)
        try:
            row = [float(v) for v in parts[:-1]]
            targets.append(int(parts[-1]))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
        if not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path}:{ln}: feature values must be finite")
        features.append(row)
    if not features:
        raise ValueError(f"no examples in {path}")
    return Dataset.from_arrays(np.array(features), np.array(targets), n_classes)


def write_delimited(dataset, path, sep=","):
    with open(path, "w") as fh:
        for x, t in zip(dataset.features, dataset.targets):
            fh.write(sep.join(repr(float(v)) for v in x))
            fh.write(f"{sep}{int(t)}\n")


def write_jsonl(path, header, records):
    """A JSON-lines report: the header with its keys in the order given,
    then one line per record with sorted keys."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def gen_two_gaussians(n_per_class, centers=((-1.0, 0.0), (1.0, 0.0)), sigma=0.5, seed=0):
    """Isotropic gaussian blob per center; one class per center."""
    if n_per_class < 1:
        raise ValueError(f"need at least one example per class, got {n_per_class}")
    if not (_is_finite(sigma) and sigma >= 0):
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if not all(_is_finite(x) for center in centers for x in center):
        raise ValueError(f"center coordinates must be finite numbers, got {centers}")
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)
    features = []
    targets = []
    for c, center in enumerate(centers):
        pts = center + sigma * rng.standard_normal((n_per_class, centers.shape[1]))
        features.append(pts)
        targets.extend([c] * n_per_class)
    return Dataset.from_arrays(
        np.vstack(features), np.array(targets), n_classes=len(centers)
    )


def gen_two_moons(n, noise=0.1, seed=0):
    """Two interleaved half circles; classes split n as evenly as possible."""
    if n < 2:
        raise ValueError(f"need at least two examples, got {n}")
    if not (_is_finite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n0 = n // 2
    n1 = n - n0
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    outer = np.column_stack([np.cos(t0), np.sin(t0)])
    inner = np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)])
    pts = np.vstack([outer, inner]) + noise * rng.standard_normal((n, 2))
    targets = np.array([0] * n0 + [1] * n1)
    return Dataset.from_arrays(pts, targets, n_classes=2)


def gen_xor(n, seed=0):
    """Uniform points in [-1, 1]^2 labeled by quadrant parity."""
    if n < 1:
        raise ValueError(f"need at least one example, got {n}")
    _check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, size=(n, 2))
    targets = ((pts[:, 0] > 0) ^ (pts[:, 1] > 0)).astype(np.int64)
    return Dataset.from_arrays(pts, targets, n_classes=2)


def split_indices(n, fraction, seed):
    """Row indices of a shuffled two-way split of n rows; the first part
    gets round(fraction * n)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"split fraction must lie in (0, 1), got {fraction}")
    n_a = int(round(fraction * n))
    if n_a == 0 or n_a == n:
        raise ValueError(
            f"split fraction {fraction} leaves an empty side for {n} examples"
        )
    perm = np.random.default_rng(seed).permutation(n)
    return perm[:n_a], perm[n_a:]


def kfold(dataset, folds, seed):
    """Deterministic fold assignment: a seeded permutation chopped into
    `folds` nearly equal parts (sizes differ by at most one)."""
    if not _is_int(folds):
        raise ValueError(f"the fold count must be an integer, got {folds!r}")
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    n = len(dataset)
    if folds > n:
        raise ValueError(f"cannot make {folds} folds from {n} examples")
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]
