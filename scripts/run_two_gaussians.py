#!/usr/bin/env python3
"""Desk-scale demo: train a small sigmoid network on two gaussian blobs with
and without the eigenvalue penalty, then verify the margin bound on held-out
points and print the per-layer eigenvalue trajectories.

train_pairs is the protocol; acceptance criterion 6 runs it over ten seeds."""

import argparse
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigendecay.data import gen_two_gaussians
from eigendecay.margin import save_margin_reports, verify_theorem1
from eigendecay.model import init_mlp
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import TrainConfig, evaluate, sgd_train_runs

CENTERS = ((-1.5, 0.0), (1.5, 0.0))


def reg_for(C):
    if C > 0:
        return RegularizerSpec((LayerPenalty("eigen_decay", C), LayerPenalty()), (0.0,))
    return RegularizerSpec.none(2, 1)


def train_pairs(seeds, penalty, epochs):
    """Per seed, (test set, (model, history) of the plain run, and of the run
    with eigen decay C = penalty on the hidden layer). Every run trains in
    one sgd_train_runs call, each with the bits it has alone."""
    runs, tests = [], []
    for seed in seeds:
        train = gen_two_gaussians(100, centers=CENTERS, sigma=0.5, seed=seed)
        tests.append(gen_two_gaussians(100, centers=CENTERS, sigma=0.5, seed=seed + 1000))
        cfg = TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=epochs, seed=seed)
        runs += [(init_mlp([2, 8, 2], "sigmoid", seed=seed), train, reg_for(C), cfg)
                 for C in (0.0, penalty)]
    trained = sgd_train_runs(runs, "mse")
    return [(test, *trained[2 * k : 2 * k + 2]) for k, test in enumerate(tests)]


def at_least(low):
    """An argparse type: an integer of at least low."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text!r}")
        return int(text)

    return integer


def penalty(text):
    """An argparse type: a finite number above 0."""
    if not 0 < float(text) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return float(text)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=at_least(0), default=0)
    parser.add_argument("--epochs", type=at_least(1), default=150)
    parser.add_argument("--penalty", type=penalty, default=0.01)
    parser.add_argument("--out", default=None, help="optional margin report path")
    args = parser.parse_args()

    [(test, *pair)] = train_pairs([args.seed], args.penalty, args.epochs)
    for label, (model, history) in zip(("plain", "eigen-decay"), pair):
        acc = evaluate(model, test)["accuracy"]
        lam = history.epochs[-1].lambda_dom
        print(f"{label:12s} test acc {acc:.3f}  final lambda_dom per layer "
              f"{tuple(round(v, 3) for v in lam)}")
        reports, ok = verify_theorem1(model, test, 0, anchors_per_example=5)
        margins = [r.margin for r in reports]
        bounds = [r.theorem_bound for r in reports]
        print(f"{'':12s} margin bound verified on {len(reports)} examples: {ok}; "
              f"min margin {min(margins):.4f}, min bound {min(bounds):.4f}")
        if args.out and label == "eigen-decay":
            save_margin_reports(reports, args.out)
            print(f"{'':12s} wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
