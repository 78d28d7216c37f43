#!/usr/bin/env python3
"""Digits experiment on a 10k MNIST subset: cross-validated grid search over
the two eigenvalue-penalty constants, then dropout-alone vs dropout plus
eigenvalue decay across seeds, with per-epoch timing.

Needs the IDX files (scripts/fetch_mnist.py)."""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from eigendecay.data import load_idx
from eigendecay.model import init_mlp
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import TrainConfig, evaluate, grid_search, sgd_train


def reg_spec(c_hidden, c_out, dropout=0.2):
    def layer(c):
        return LayerPenalty("eigen_decay", c) if c > 0 else LayerPenalty()

    return RegularizerSpec((layer(c_hidden), layer(c_out)), (dropout,))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=str(
        Path(__file__).resolve().parent.parent / "data" / "mnist"))
    parser.add_argument("--subset", type=int, default=10000)
    parser.add_argument("--epochs", type=int, default=25)
    parser.add_argument("--cv-epochs", type=int, default=6)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    base = Path(args.data_dir)
    if not (base / "train-images-idx3-ubyte").exists():
        print(f"no IDX files under {base}; run scripts/fetch_mnist.py first",
              file=sys.stderr)
        return 1
    train = load_idx(base / "train-images-idx3-ubyte", base / "train-labels-idx1-ubyte",
                     n_classes=10, limit=args.subset)
    test = load_idx(base / "t10k-images-idx3-ubyte", base / "t10k-labels-idx1-ubyte",
                    n_classes=10)
    print(f"train subset {len(train)}, test {len(test)}")

    def model_builder(seed):
        return init_mlp([784, 128, 10], "relu", seed=seed)

    cv_cfg = TrainConfig(learning_rate=0.1, batch_size=128, max_epochs=args.cv_epochs,
                         seed=0)
    started = time.perf_counter()
    result = grid_search(
        train, model_builder, "categorical_cross_entropy",
        [0.0, 1e-4, 1e-3], [0.0, 1e-4, 1e-3], 5, cv_cfg,
        lambda ca, cb: reg_spec(ca, cb),
    )
    print(f"grid search ({time.perf_counter() - started:.0f}s): "
          f"selected {result.selected}, cv accuracy {result.selected_accuracy:.4f}")
    c_a, c_b = result.selected
    if c_a == 0.0 and c_b == 0.0:
        c_a = c_b = 1e-3
        print(f"grid chose no penalty; comparing against ({c_a}, {c_b}) anyway")

    results = {"dropout": [], "dropout+ed": []}
    times = {"dropout": [], "dropout+ed": []}
    for seed in range(args.seeds):
        for label, reg in (("dropout", reg_spec(0.0, 0.0)),
                           ("dropout+ed", reg_spec(c_a, c_b))):
            model = model_builder(seed)
            cfg = TrainConfig(learning_rate=0.1, batch_size=128,
                              max_epochs=args.epochs, seed=seed)
            t0 = time.perf_counter()
            sgd_train(model, train, "categorical_cross_entropy", reg, cfg)
            per_epoch = (time.perf_counter() - t0) / args.epochs
            acc = evaluate(model, test, "categorical_cross_entropy")["accuracy"]
            results[label].append(acc)
            times[label].append(per_epoch)
            print(f"seed {seed} {label:11s} test acc {acc:.4f} "
                  f"({per_epoch:.2f}s/epoch)")

    for label in results:
        accs = results[label]
        print(f"{label:11s} mean {np.mean(accs):.4f}  min {min(accs):.4f}  "
              f"max {max(accs):.4f}  sec/epoch {np.mean(times[label]):.2f}")
    ratio = np.mean(times["dropout+ed"]) / np.mean(times["dropout"])
    print(f"eigenvalue-penalty epoch-time overhead: {ratio:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
