#!/usr/bin/env python3
"""Desk-scale demo: train a small sigmoid network on two gaussian blobs with
and without the eigenvalue penalty, then verify the margin bound on held-out
points and print the per-layer eigenvalue trajectories."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from eigendecay.data import gen_two_gaussians
from eigendecay.margin import save_margin_reports, verify_theorem1
from eigendecay.model import init_mlp
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import TrainConfig, evaluate, sgd_train_runs


def reg_for(C):
    if C > 0:
        return RegularizerSpec((LayerPenalty("eigen_decay", C), LayerPenalty()), (0.0,))
    return RegularizerSpec.none(2, 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=150)
    parser.add_argument("--penalty", type=float, default=0.01)
    parser.add_argument("--out", default=None, help="optional margin report path")
    args = parser.parse_args()

    train = gen_two_gaussians(100, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5,
                              seed=args.seed)
    test = gen_two_gaussians(100, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5,
                             seed=args.seed + 1000)

    cfg = TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=args.epochs, seed=args.seed)
    labels = (("plain", 0.0), ("eigen-decay", args.penalty))
    runs = [(init_mlp([2, 8, 2], "sigmoid", seed=args.seed), train, reg_for(C), cfg)
            for _, C in labels]
    # both runs train as one stack, each with the bits it has alone
    for (label, C), (model, history) in zip(labels, sgd_train_runs(runs, "mse")):
        acc = evaluate(model, test)["accuracy"]
        lam = history.epochs[-1].lambda_dom
        print(f"{label:12s} test acc {acc:.3f}  final lambda_dom per layer "
              f"{tuple(round(v, 3) for v in lam)}")
        reports, ok = verify_theorem1(model, test, 0, anchors_per_example=5)
        margins = [r.margin for r in reports]
        bounds = [r.theorem_bound for r in reports]
        print(f"{'':12s} margin bound verified on {len(reports)} examples: {ok}; "
              f"min margin {min(margins):.4f}, min bound {min(bounds):.4f}")
        if args.out and C > 0:
            save_margin_reports(reports, args.out)
            print(f"{'':12s} wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
