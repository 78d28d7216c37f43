#!/usr/bin/env python3
"""Digits experiment on a 10k MNIST subset: cross-validated grid search over
the two eigenvalue-penalty constants, then dropout-alone vs dropout plus
eigenvalue decay across seeds. Results go to stdout; the grid's seconds,
each arm's seconds per epoch and the penalty's overhead go to stderr.

compare is the protocol; acceptance criterion 7 runs it on a 2x2 grid.
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
from eigendecay.train import TrainConfig, evaluate, grid_search, sgd_train_runs

LOSS = "categorical_cross_entropy"
GRID = [0.0, 1e-4, 1e-3]  # both penalty constants' axis
FALLBACK = (1e-3, 1e-3)  # compared against when the grid picks no penalty


def reg_spec(c_hidden, c_out, dropout=0.2):
    def layer(c):
        return LayerPenalty("eigen_decay", c) if c > 0 else LayerPenalty()

    return RegularizerSpec((layer(c_hidden), layer(c_out)), (dropout,))


def model_builder(seed):
    return init_mlp([784, 128, 10], "relu", seed=seed)


def compare(train, test, grid, cv_epochs, epochs, seeds):
    """Selects (c_hidden, c_out) on grid x grid by 5-fold cross validation
    (CV seed 0), or FALLBACK where that selects (0, 0); trains seeds 0 ..
    seeds - 1 of each arm in one sgd_train_runs call. Returns the grid
    result, the constants compared and each arm's test accuracies by seed."""
    started = time.perf_counter()
    cv_cfg = TrainConfig(learning_rate=0.1, batch_size=128, max_epochs=cv_epochs, seed=0)
    result = grid_search(train, model_builder, LOSS, grid, grid, 5, cv_cfg, reg_spec)
    print(f"grid search: {time.perf_counter() - started:.0f}s", file=sys.stderr)
    chosen = FALLBACK if result.selected == (0.0, 0.0) else result.selected
    accuracies, per_epoch = {}, {}
    for label, reg in (("dropout", reg_spec(0.0, 0.0)), ("dropout+ed", reg_spec(*chosen))):
        runs = [(model_builder(seed), train, reg,
                 TrainConfig(learning_rate=0.1, batch_size=128, max_epochs=epochs, seed=seed))
                for seed in range(seeds)]
        started = time.perf_counter()
        trained = sgd_train_runs(runs, LOSS)
        per_epoch[label] = (time.perf_counter() - started) / epochs
        print(f"{label}: {per_epoch[label]:.2f}s per epoch of {seeds} runs", file=sys.stderr)
        accuracies[label] = [evaluate(model, test, LOSS)["accuracy"] for model, _ in trained]
    print(f"eigenvalue-penalty epoch-time overhead: "
          f"{per_epoch['dropout+ed'] / per_epoch['dropout']:.2f}x", file=sys.stderr)
    return result, chosen, accuracies


def positive(text):
    """An argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return int(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default=str(
        Path(__file__).resolve().parent.parent / "data" / "mnist"))
    parser.add_argument("--subset", type=positive, default=10000)
    parser.add_argument("--epochs", type=positive, default=25)
    parser.add_argument("--cv-epochs", type=positive, default=6)
    parser.add_argument("--seeds", type=positive, default=5)
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

    result, chosen, accuracies = compare(train, test, GRID, args.cv_epochs, args.epochs,
                                         args.seeds)
    print(f"grid search: selected {result.selected}, "
          f"cv accuracy {result.selected_accuracy:.4f}")
    if chosen != result.selected:
        print(f"grid chose no penalty; comparing against {chosen} anyway")
    for seed in range(args.seeds):
        for label, accs in accuracies.items():
            print(f"seed {seed} {label:11s} test acc {accs[seed]:.4f}")
    for label, accs in accuracies.items():
        print(f"{label:11s} mean {np.mean(accs):.4f}  min {min(accs):.4f}  "
              f"max {max(accs):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
