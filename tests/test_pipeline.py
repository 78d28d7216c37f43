"""End-to-end run of the image-classification pipeline on a small synthetic
IDX dataset: load, grid search, train with dropout and the eigenvalue
penalty, evaluate, and verify gradients via the CLI."""

import json

import numpy as np

from conftest import write_idx

from eigendecay.cli import main
from eigendecay.data import load_idx, Dataset
from eigendecay.model import init_mlp
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import TrainConfig, evaluate, grid_search, sgd_train


def _blocky_digits(n_per_class, n_classes=4, side=6, noise=0.15, seed=0):
    """Images whose bright 2x2 block position encodes the class."""
    rng = np.random.default_rng(seed)
    images = []
    labels = []
    for cls in range(n_classes):
        row = (cls % 2) * (side // 2)
        col = (cls // 2) * (side // 2)
        for _ in range(n_per_class):
            img = noise * rng.random((side, side))
            img[row : row + 2, col : col + 2] = 1.0 - noise * rng.random((2, 2))
            images.append(img.reshape(-1))
            labels.append(cls)
    order = rng.permutation(len(labels))
    features = np.asarray(images)[order]
    targets = np.asarray(labels)[order]
    # quantize to the 8-bit pixel grid so the IDX round trip is exact
    features = np.round(features * 255.0) / 255.0
    return Dataset.from_arrays(features, targets, n_classes=n_classes)


def test_idx_pipeline_end_to_end(tmp_path):
    side = 6
    train = _blocky_digits(30, side=side, seed=1)
    test = _blocky_digits(10, side=side, seed=2)
    write_idx(train, tmp_path / "train-images", tmp_path / "train-labels", side, side)
    write_idx(test, tmp_path / "test-images", tmp_path / "test-labels", side, side)

    loaded = load_idx(tmp_path / "train-images", tmp_path / "train-labels")
    np.testing.assert_allclose(loaded.features, train.features)

    cfg = TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=8, seed=0)

    def model_builder(seed):
        return init_mlp([side * side, 12, 4], "relu", seed=seed)

    def reg_builder(ca, cb):
        return RegularizerSpec(
            (
                LayerPenalty("eigen_decay", ca) if ca else LayerPenalty(),
                LayerPenalty("eigen_decay", cb) if cb else LayerPenalty(),
            ),
            (0.1,),
        )

    result = grid_search(
        loaded, model_builder, "categorical_cross_entropy",
        [0.0, 1e-3], [0.0], 3, cfg, reg_builder,
    )
    assert len(result.cells) == 2

    model = model_builder(0)
    sgd_train(
        model, loaded, "categorical_cross_entropy", reg_builder(*result.selected),
        TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=40, seed=0),
    )
    scores = evaluate(model, test, "categorical_cross_entropy")
    assert scores["accuracy"] >= 0.9


def test_idx_training_via_cli(tmp_path):
    side = 6
    train = _blocky_digits(25, side=side, seed=3)
    write_idx(train, tmp_path / "imgs", tmp_path / "labs", side, side)
    config = {
        "model": {"layers": [side * side, 10, 4], "hidden_activation": "relu", "seed": 0},
        "data": {"kind": "idx", "images": str(tmp_path / "imgs"),
                 "labels": str(tmp_path / "labs")},
        "loss": "categorical_cross_entropy",
        "regularizers": {
            "layers": [{"kind": "eigen_decay", "c": 0.001}, {"kind": "none"}],
            "dropout": [0.1],
        },
        "train": {"learning_rate": 0.3, "batch_size": 16, "max_epochs": 30, "seed": 1},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 0

    rc = main([
        "eval", "--model", str(tmp_path / "run" / "model.json"),
        "--images", str(tmp_path / "imgs"), "--labels", str(tmp_path / "labs"),
        "--loss", "categorical_cross_entropy", "--out", str(tmp_path / "eval"),
    ])
    assert rc == 0
    report = json.loads(
        (tmp_path / "eval" / "eval.jsonl").read_text().splitlines()[1]
    )
    assert report["accuracy"] >= 0.9
