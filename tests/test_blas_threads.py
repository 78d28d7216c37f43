"""Report bytes do not depend on the BLAS thread count. A 784-d train and a
784-d theorem1 verify run as separate processes, once with
OPENBLAS_NUM_THREADS=1 and once with it unset, and must write the same
bytes. On a host with one CPU both runs take one thread, and the test
cannot tell the two apart."""

import os
from pathlib import Path
import json
import subprocess
import sys

import numpy as np

from conftest import write_idx

from eigendecay.data import Dataset
from eigendecay.model import init_mlp, save_model
from eigendecay.objectives import RegularizerSpec
from eigendecay.train import TrainConfig, sgd_train

SRC = Path(__file__).resolve().parents[1] / "src"


def _digits(n, n_classes, seed):
    """28x28 images on the 8-bit pixel grid: a random binary prototype per
    class, blurred by uniform noise."""
    rng = np.random.default_rng(seed)
    prototypes = rng.random((n_classes, 784)) < 0.3
    labels = rng.integers(0, n_classes, n)
    pixels = np.clip(0.7 * prototypes[labels] + 0.4 * rng.random((n, 784)), 0.0, 1.0)
    return Dataset.from_arrays(np.round(pixels * 255.0) / 255.0, labels, n_classes=n_classes)


def _outputs(args, out, threads):
    """The report files a CLI run writes into out, by name: every file but
    the manifest, which records the threads."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, "-m", "eigendecay", *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())
            if path.name != "manifest.json"}


def _assert_same_bytes_at_one_and_default_threads(args, tmp_path, names):
    one = _outputs(args, tmp_path / "one_thread", "1")
    default = _outputs(args, tmp_path / "default_threads", None)
    assert sorted(one) == sorted(names)
    for name in names:
        assert one[name] == default[name], name


def test_784_d_train_writes_the_same_bytes_at_any_thread_count(tmp_path):
    # one epoch of the digits net: two batches of 128 and the epoch-end
    # pass, each a K = 784 product
    write_idx(_digits(256, 10, seed=0), tmp_path / "images", tmp_path / "labels", 28, 28)
    config = {
        "model": {"layers": [784, 128, 10], "hidden_activation": "relu", "seed": 0},
        "data": {"kind": "idx", "images": str(tmp_path / "images"),
                 "labels": str(tmp_path / "labels")},
        "loss": "categorical_cross_entropy",
        "regularizers": {"layers": [{"kind": "eigen_decay", "c": 0.001},
                                    {"kind": "eigen_decay", "c": 0.001}],
                         "dropout": [0.2]},
        "train": {"learning_rate": 0.1, "batch_size": 128, "max_epochs": 1, "seed": 0},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    _assert_same_bytes_at_one_and_default_threads(
        ["train", "--config", str(tmp_path / "config.json")], tmp_path,
        ["history.jsonl", "model.json"])


def test_784_d_theorem1_writes_the_same_bytes_at_any_thread_count(tmp_path):
    # the bisection stacks and the per-point chunks of 83 points are K = 784
    # products
    digits = _digits(260, 2, seed=1)
    train_set, test_set = digits.subset(range(200)), digits.subset(range(200, 260))
    model = init_mlp([784, 32, 2], "sigmoid", seed=3)
    sgd_train(model, train_set, "mse", RegularizerSpec.none(2, 1),
              TrainConfig(learning_rate=0.1, batch_size=32, max_epochs=2, seed=4))
    save_model(model, tmp_path / "m.json")
    write_idx(test_set, tmp_path / "images", tmp_path / "labels", 28, 28)
    _assert_same_bytes_at_one_and_default_threads(
        ["verify", "--mode", "theorem1", "--model", str(tmp_path / "m.json"),
         "--images", str(tmp_path / "images"), "--labels", str(tmp_path / "labels"),
         "--anchors", "3"], tmp_path, ["margin.jsonl", "verify.jsonl"])
