"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import hashlib
import json
import time

import numpy as np
import pytest

from conftest import mnist_paths

from eigendecay.cli import main as cli_main
from eigendecay.data import Dataset, gen_two_gaussians, load_idx
from eigendecay.margin import verify_theorem1
from eigendecay.model import Activation, DenseLayer, MlpModel, init_mlp
from eigendecay.objectives import LayerPenalty, RegularizerSpec
from eigendecay.train import TrainConfig, evaluate, grid_search, sgd_train
from eigendecay.verify import (
    denominator_inequality_suite,
    gradient_check_suite,
    power_method_fidelity_suite,
    quadratic_form_bound_suite,
)


def check(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def records_hash(records):
    """16-hex sha256 prefix of a suite's records. The benchmark's
    fingerprint covers only the first tenth of each suite; these pins guard
    every bit of the full-size records, Jacobi eigenvalues included."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def test_criterion_1_power_method_fidelity():
    started = time.perf_counter()
    records, ok = power_method_fidelity_suite(count=500, seed=0, max_side=32, p=9)
    elapsed = time.perf_counter() - started
    worst = max(r["rel_err"] for r in records)
    above = [r for r in records if not r["rayleigh_bound"]]
    check(
        1,
        "power-method fidelity",
        ok and elapsed < 10.0,
        f"worst rel err {worst:.2e}, {len(above)} Rayleigh violations, "
        f"{elapsed:.1f}s over 500 matrices",
    )
    assert records_hash(records) == "03b2c82cda2991ef"


def test_criterion_2_quadratic_form_bound():
    records, ok = quadratic_form_bound_suite(count=1000, seed=0)
    failures = sum(1 for r in records if not r["ok"])
    check(2, "quadratic-form eigenvalue bound", ok, f"{failures} failures in 1000")
    assert records_hash(records) == "c4998b3ca9b86f7d"


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    records, ok = gradient_check_suite(count=50, seed=0, h=1e-5, tol=1e-4)
    elapsed = time.perf_counter() - started
    worst = max(r["max_rel_err"] for r in records)
    losses = {r["loss"] for r in records}
    penalties = {r["penalties"] for r in records}
    covered = losses == {
        "mse", "binary_cross_entropy", "categorical_cross_entropy", "multiclass_hinge",
    } and {"eigen_decay", "l1", "l2"} <= penalties
    check(
        3,
        "gradient correctness",
        ok and covered and elapsed < 60.0,
        f"worst rel err {worst:.2e} across 50 configurations, {elapsed:.1f}s",
    )
    assert records_hash(records) == "2ac9b705feac8fa3"


def _rot2(scale, theta):
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


def test_criterion_4_margin_bound_verification():
    started = time.perf_counter()

    train = gen_two_gaussians(150, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=41)
    test = gen_two_gaussians(75, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=42)
    model = init_mlp([2, 8, 2], "sigmoid", seed=40)
    sgd_train(
        model, train, "mse", RegularizerSpec.none(2, 1),
        TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=150, seed=43),
    )
    reports, ok_sigmoid = verify_theorem1(model, test, 0, anchors_per_example=5)
    n_points = sum(len(r.points) for r in reports)
    violations = sum(1 for r in reports for p in r.points if not p.ok)

    # all-linear model with isotropic layer grams: the bound is an equality
    lin = Activation("linear")
    linear_model = MlpModel(
        [DenseLayer(_rot2(1.7, 0.9), np.array([0.1, -0.2]), lin),
         DenseLayer(_rot2(0.6, -0.4), np.array([0.0, 0.3]), lin)],
        DenseLayer(_rot2(2.3, -0.5), np.array([0.05, -0.1]), lin),
    )
    lin_data = gen_two_gaussians(50, centers=((2.0, 0.0), (-2.0, 0.0)), sigma=0.8, seed=44)
    lin_reports, ok_linear = verify_theorem1(linear_model, lin_data, 0, anchors_per_example=3)
    tight = all(
        abs(r.target * p.distance - p.bound) <= 1e-9 * (1.0 + abs(p.distance))
        for r in lin_reports
        for p in r.points
    )
    elapsed = time.perf_counter() - started
    check(
        4,
        "margin-bound verification",
        ok_sigmoid and len(reports) >= 100 and ok_linear and tight and elapsed < 60.0,
        f"{len(reports)} correct examples, {n_points} surface points, "
        f"{violations} violations; linear tight={tight}; {elapsed:.1f}s",
    )


def test_criterion_5_denominator_inequality():
    records, ok = denominator_inequality_suite(count=500, seed=0)
    failures = sum(1 for r in records if not r["ok"])
    check(5, "denominator inequality", ok, f"{failures} failures in 500")
    assert records_hash(records) == "6319f498ca1faeab"


def test_criterion_6_regularization_effect():
    def run(seed, C):
        train = gen_two_gaussians(100, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=seed)
        test = gen_two_gaussians(100, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5,
                                 seed=seed + 1000)
        model = init_mlp([2, 8, 2], "sigmoid", seed=seed)
        if C > 0:
            reg = RegularizerSpec(
                (LayerPenalty("eigen_decay", C), LayerPenalty()), (0.0,)
            )
        else:
            reg = RegularizerSpec.none(2, 1)
        _, history = sgd_train(
            model, train, "mse", reg,
            TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=150, seed=seed),
        )
        return history.epochs[-1].lambda_dom[0], evaluate(model, test)["accuracy"]

    wins = 0
    max_gap = 0.0
    for seed in range(10):
        lam_reg, acc_reg = run(seed, 0.01)
        lam_plain, acc_plain = run(seed, 0.0)
        wins += lam_reg < lam_plain
        max_gap = max(max_gap, abs(acc_reg - acc_plain))
    check(
        6,
        "regularization shrinks the dominant eigenvalue",
        wins >= 9 and max_gap <= 0.02,
        f"{wins}/10 seed pairs smaller, max accuracy gap {max_gap:.3f}",
    )


def _mnist_reg(c_hidden, c_out, dropout=0.2):
    def layer(c):
        return LayerPenalty("eigen_decay", c) if c > 0 else LayerPenalty()

    return RegularizerSpec((layer(c_hidden), layer(c_out)), (dropout,))


def test_criterion_7_handwritten_digits_subset():
    paths = mnist_paths()
    if paths is None:
        pytest.skip(
            "MNIST IDX files not found (set EIGENDECAY_MNIST_DIR or run "
            "scripts/fetch_mnist.py); this criterion needs the real dataset"
        )
    started = time.perf_counter()
    train = load_idx(paths["train_images"], paths["train_labels"], n_classes=10,
                     limit=10000)
    test = load_idx(paths["test_images"], paths["test_labels"], n_classes=10)
    assert len(test) == 10000

    cfg = TrainConfig(learning_rate=0.1, batch_size=128, max_epochs=6, seed=0)

    def model_builder(seed):
        return init_mlp([784, 128, 10], "relu", seed=seed)

    result = grid_search(
        train, model_builder, "categorical_cross_entropy",
        [0.0, 1e-3], [0.0, 1e-3], 5, cfg,
        lambda ca, cb: _mnist_reg(ca, cb),
    )
    c_a, c_b = result.selected
    if c_a == 0.0 and c_b == 0.0:
        # directional comparison still exercises the regularizer
        c_a = c_b = 1e-3

    ed_accs, plain_accs = [], []
    run_cfg = TrainConfig(learning_rate=0.1, batch_size=128, max_epochs=25, seed=0)
    for seed in range(5):
        for accs, reg in (
            (ed_accs, _mnist_reg(c_a, c_b)),
            (plain_accs, _mnist_reg(0.0, 0.0)),
        ):
            model = model_builder(seed)
            sgd_train(
                model, train, "categorical_cross_entropy", reg,
                TrainConfig(learning_rate=0.1, batch_size=128,
                            max_epochs=run_cfg.max_epochs, seed=seed),
            )
            accs.append(evaluate(model, test, "categorical_cross_entropy")["accuracy"])
    elapsed = time.perf_counter() - started
    ed_mean = float(np.mean(ed_accs))
    plain_mean = float(np.mean(plain_accs))
    check(
        7,
        "digits subset accuracy",
        ed_mean >= 0.92 and ed_mean >= plain_mean - 0.003 and elapsed < 900.0,
        f"ED mean {ed_mean:.4f} vs dropout-alone {plain_mean:.4f}, "
        f"grid choice ({c_a:g}, {c_b:g}), {elapsed:.0f}s",
    )


def test_criterion_8_determinism(tmp_path):
    config = {
        "model": {"layers": [2, 6, 2], "hidden_activation": "sigmoid", "seed": 1},
        "data": {"kind": "two_gaussians", "n_per_class": 40, "sigma": 0.5, "seed": 2},
        "loss": "mse",
        "regularizers": {
            "layers": [{"kind": "eigen_decay", "c": 0.01}, {"kind": "none"}],
            "dropout": [0.1],
        },
        "train": {"learning_rate": 0.4, "batch_size": 8, "max_epochs": 25, "seed": 5},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    for name in ("a", "b"):
        rc = cli_main(["train", "--config", str(cfg_path), "--out", str(tmp_path / name)])
        assert rc == 0
    same_history = (tmp_path / "a" / "history.jsonl").read_bytes() == (
        tmp_path / "b" / "history.jsonl"
    ).read_bytes()
    same_model = (tmp_path / "a" / "model.json").read_bytes() == (
        tmp_path / "b" / "model.json"
    ).read_bytes()

    for name in ("g1", "g2"):
        rc = cli_main(["gendata", "--kind", "two_moons", "--n", "60", "--seed", "7",
                       "--out", str(tmp_path / name)])
        assert rc == 0
    same_data = (tmp_path / "g1" / "data.csv").read_bytes() == (
        tmp_path / "g2" / "data.csv"
    ).read_bytes()
    check(
        8,
        "determinism of reports",
        same_history and same_model and same_data,
        f"history={same_history} model={same_model} gendata={same_data}",
    )


def test_criterion_9_regularizer_overhead():
    paths = mnist_paths()
    if paths is not None:
        train = load_idx(paths["train_images"], paths["train_labels"], n_classes=10,
                         limit=10000)
    else:
        # timing depends on shapes, not pixel values
        rng = np.random.default_rng(0)
        train = Dataset.from_arrays(
            rng.random((10000, 784)), rng.integers(0, 10, size=10000), n_classes=10
        )

    def epoch_time(reg):
        model = init_mlp([784, 128, 10], "relu", seed=0)
        cfg = TrainConfig(learning_rate=0.1, batch_size=128, max_epochs=1, seed=0)
        started = time.perf_counter()
        sgd_train(model, train, "categorical_cross_entropy", reg, cfg)
        return time.perf_counter() - started

    plain = epoch_time(_mnist_reg(0.0, 0.0))
    regularized = epoch_time(_mnist_reg(1e-3, 1e-3))
    ratio = regularized / plain
    check(
        9,
        "regularizer overhead",
        ratio <= 5.0,
        f"epoch {regularized:.2f}s vs {plain:.2f}s, ratio {ratio:.2f}",
    )
