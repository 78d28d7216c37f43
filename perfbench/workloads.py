"""The benchmark's four workloads.

Each workload makes its inputs from the benchmark seed in setup(), runs the
program's public calls once per rep(), and judges its own outputs in
checks(). Its reference_kernel, the refclock kernel that resembles its
work, sets the speed its repetition times are divided by. Program functions are always looked up through their module at
call time, so a tracer installed after setup sees every call.
"""

from dataclasses import dataclass, field
import contextlib
import io
import json
from pathlib import Path

import numpy as np

from eigendecay import cli, data, margin, model, objectives, train, verify

import refclock

# digits_epoch keeps the shape of acceptance criteria 7 and 9
DIGITS_TRAIN = 10000
DIGITS_TEST = 2000
DIGITS_CLASSES = 10
DIGITS_PIXELS = 784
# Pixels in [0, 1], like MNIST. Each class has a random binary prototype
# (15% of pixels on); an example keeps 30% of its prototype's pixels and adds
# gaussian noise of 0.5, so one epoch learns the task but not perfectly: on
# the seeds tried while building the benchmark it scored 0.90 to 0.96 (with
# 50% kept it scored 1.0). Chance is 0.10.
DIGITS_PROTOTYPE_ON = 0.15
DIGITS_KEEP = 0.3
DIGITS_NOISE = 0.5
DIGITS_ACCURACY_FLOOR = 0.8

# theorem1 keeps the shape and strictness of acceptance criterion 4
THEOREM1_MIN_CORRECT = 100

# Timing on a shared host comes in slow phases up to 2x, so a repetition is
# kept near one second and a run holds many of them: gauss_grid trains 15
# epochs instead of the config's 150, and verify_suites checks the first
# tenth of each acceptance suite (the suites draw records in order, so these
# are the gate's own first records).
GRID_EPOCHS = 15
SUITE_COUNTS = {"eigencheck": 50, "lemma1": 100, "gradcheck": 10, "denominator": 50}
ACCEPTANCE_SEED = 0
GRADCHECK_TOL = 1e-4
LOSSES_COVERED = {"mse", "binary_cross_entropy", "categorical_cross_entropy",
                  "multiclass_hinge"}
PENALTIES_COVERED = {"eigen_decay", "l1", "l2"}


@dataclass
class RepResult:
    """What one repetition did: work items, operations attempted and
    failed, a fingerprint that must repeat exactly, and display values."""

    items: int
    attempted: int
    failed: int
    fingerprint: bytes
    info: dict = field(default_factory=dict)


class DigitsEpoch:
    """One SGD epoch of a 784-128-10 relu net with eigen decay on both
    layers, then held-out accuracy."""

    name = "digits_epoch"
    unit_name = "examples_per_s"
    reference_kernel = staticmethod(refclock.dense_step)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        shape = (DIGITS_CLASSES, DIGITS_PIXELS)
        prototypes = (rng.random(shape) < DIGITS_PROTOTYPE_ON).astype(float)

        def draw(n):
            targets = rng.integers(0, DIGITS_CLASSES, size=n)
            kept = rng.random((n, DIGITS_PIXELS)) < DIGITS_KEEP
            noise = DIGITS_NOISE * rng.standard_normal((n, DIGITS_PIXELS))
            features = np.clip(prototypes[targets] * kept + noise, 0.0, 1.0)
            return data.Dataset.from_arrays(features, targets, DIGITS_CLASSES)

        penalty = objectives.LayerPenalty("eigen_decay", 1e-3, 9)
        return {
            "seed": seed,
            "train": draw(DIGITS_TRAIN),
            "test": draw(DIGITS_TEST),
            "reg": objectives.RegularizerSpec((penalty, penalty), (0.2,)),
            "config": train.TrainConfig(
                learning_rate=0.1, batch_size=128, max_epochs=1, seed=seed
            ),
            "history_path": Path(workdir) / "history.jsonl",
        }

    def rep(self, state):
        net = model.init_mlp([DIGITS_PIXELS, 128, DIGITS_CLASSES], "relu",
                             seed=state["seed"])
        _, history = train.sgd_train(
            net, state["train"], "categorical_cross_entropy", state["reg"],
            state["config"],
        )
        accuracy = train.evaluate(net, state["test"], "categorical_cross_entropy")[
            "accuracy"
        ]
        train.save_history(history, state["history_path"])
        fingerprint = state["history_path"].read_bytes() + repr(accuracy).encode()
        return RepResult(len(state["train"]), 1, 0, fingerprint,
                         {"accuracy": accuracy})

    def checks(self, state, reps):
        accuracy = reps[0].info["accuracy"]
        return [("accuracy_floor", accuracy >= DIGITS_ACCURACY_FLOOR,
                 f"test accuracy {accuracy:.4f}, floor {DIGITS_ACCURACY_FLOOR}")]


class GaussGrid:
    """`eigendecay gridsearch --epochs 15` on configs/two_gaussians.json,
    reseeded, through cli.main: 5 penalty constants x 5 folds of 2-8-2
    trainings."""

    name = "gauss_grid"
    unit_name = "examples_per_s"
    reference_kernel = staticmethod(refclock.small_ops)

    def __init__(self, root):
        self.config_path = Path(root) / "configs" / "two_gaussians.json"

    def setup(self, seed, workdir):
        config = json.loads(self.config_path.read_text())
        config["data"]["seed"] = seed
        config["model"]["seed"] = seed + 1
        config["train"]["seed"] = seed + 2
        if config["train"].get("early_stopping", {}).get("enabled"):
            raise ValueError("gauss_grid counts examples from a fixed epoch budget")
        grid = config["grid"]
        n = 2 * config["data"]["n_per_class"]
        cells = len(grid["a"]) * len(grid["b"])
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config))
        return {
            "config_path": path,
            "out": Path(workdir) / "grid",
            "trainings": cells * grid["folds"],
            # every fold trains on the n - |fold| rows outside it
            "examples": cells * (grid["folds"] - 1) * n * GRID_EPOCHS,
        }

    def rep(self, state):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["gridsearch", "--config", str(state["config_path"]),
                             "--epochs", str(GRID_EPOCHS), "--out", str(state["out"])])
        report = state["out"] / "gridsearch.jsonl"
        fingerprint = report.read_bytes() if code == 0 else b""
        info = {"exit_code": code}
        if code == 0:
            summary = json.loads(fingerprint.splitlines()[-1])
            info["accuracy"] = summary["selected_accuracy"]
        failed = 0 if code == 0 else state["trainings"]
        return RepResult(state["examples"], state["trainings"], failed, fingerprint, info)

    def checks(self, state, reps):
        codes = sorted({r.info["exit_code"] for r in reps})
        return [("exit_code", codes == [0], f"exit codes {codes}")]


class Theorem1:
    """Margin-bound verification in the shape of acceptance criterion 4:
    verify_theorem1 for class 0 with 5 anchors over 150 held-out points of
    a 2-8-2 sigmoid net trained in setup, then the tightness case on an
    all-linear model with isotropic layer grams. No training and no
    penalty in the timed part: single-example forward calls during
    bisection and the exact eigensolver dominate."""

    name = "theorem1"
    unit_name = "surface_points_per_s"
    reference_kernel = staticmethod(refclock.small_ops)

    def setup(self, seed, workdir):
        centers = ((-1.5, 0.0), (1.5, 0.0))
        train_set = data.gen_two_gaussians(150, centers=centers, sigma=0.5, seed=seed)
        net = model.init_mlp([2, 8, 2], "sigmoid", seed=seed + 1)
        train.sgd_train(
            net, train_set, "mse", objectives.RegularizerSpec.none(2, 1),
            train.TrainConfig(learning_rate=0.5, batch_size=16, max_epochs=150,
                              seed=seed + 2),
        )
        linear = model.Activation("linear")
        return {
            "net": net,
            "test": data.gen_two_gaussians(75, centers=centers, sigma=0.5, seed=seed + 3),
            "linear_net": model.MlpModel(
                [model.DenseLayer(_rotation(1.7, 0.9), np.array([0.1, -0.2]), linear),
                 model.DenseLayer(_rotation(0.6, -0.4), np.array([0.0, 0.3]), linear)],
                model.DenseLayer(_rotation(2.3, -0.5), np.array([0.05, -0.1]), linear),
            ),
            "linear_data": data.gen_two_gaussians(
                50, centers=((2.0, 0.0), (-2.0, 0.0)), sigma=0.8, seed=seed + 4),
        }

    def rep(self, state):
        reports, ok = margin.verify_theorem1(state["net"], state["test"], 0,
                                             anchors_per_example=5)
        linear_reports, linear_ok = margin.verify_theorem1(
            state["linear_net"], state["linear_data"], 0, anchors_per_example=3)
        points = sum(len(r.points) for r in reports + linear_reports)
        violations = sum(not p.ok for r in reports + linear_reports for p in r.points)
        tight = all(
            abs(r.target * p.distance - p.bound) <= 1e-9 * (1.0 + abs(p.distance))
            for r in linear_reports for p in r.points
        )
        fingerprint = json.dumps(
            [margin.report_to_dict(r) for r in reports + linear_reports]).encode()
        return RepResult(points, points, violations, fingerprint,
                         {"ok": ok and linear_ok, "correct_examples": len(reports),
                          "tight": tight})

    def checks(self, state, reps):
        info = reps[0].info
        return [
            ("inequality_holds", info["ok"], "every surface point"),
            ("correct_examples", info["correct_examples"] >= THEOREM1_MIN_CORRECT,
             f"{info['correct_examples']} correctly classified, floor "
             f"{THEOREM1_MIN_CORRECT}"),
            ("linear_tight", info["tight"], "linear case within 1e-9"),
        ]


def _rotation(scale, theta):
    c, s = np.cos(theta), np.sin(theta)
    return scale * np.array([[c, -s], [s, c]])


class VerifySuites:
    """Acceptance criteria 1, 2, 3 and 5 at the acceptance gate's seed, on
    the first tenth of its records.

    The benchmark seed is not used: the inputs are the release gate's own.
    On other suite seeds the 1e-4 gradient check can fail for want of oracle
    accuracy rather than gradient accuracy (seed 22: 1.2e-3 relative at
    h=1e-5, falling as h squared), which the gate does not ask about.
    """

    name = "verify_suites"
    unit_name = "checks_per_s"
    reference_kernel = staticmethod(refclock.small_ops)

    def setup(self, seed, workdir):
        return {"seed": ACCEPTANCE_SEED}

    def rep(self, state):
        seed, counts = state["seed"], SUITE_COUNTS
        suites = {
            "eigencheck": verify.power_method_fidelity_suite(
                count=counts["eigencheck"], seed=seed, max_side=32, p=9),
            "lemma1": verify.quadratic_form_bound_suite(
                count=counts["lemma1"], seed=seed),
            "gradcheck": verify.gradient_check_suite(
                count=counts["gradcheck"], seed=seed, h=1e-5, tol=GRADCHECK_TOL),
            "denominator": verify.denominator_inequality_suite(
                count=counts["denominator"], seed=seed),
        }
        records = [r for recs, _ in suites.values() for r in recs]
        failed = sum(not r["ok"] for r in records)
        grad_records = suites["gradcheck"][0]
        return RepResult(
            len(records), len(records), failed,
            json.dumps(suites, sort_keys=True).encode(),
            {"losses": {r["loss"] for r in grad_records},
             "penalties": {r["penalties"] for r in grad_records}},
        )

    def checks(self, state, reps):
        info = reps[0].info
        covered = info["losses"] == LOSSES_COVERED and PENALTIES_COVERED <= info["penalties"]
        return [("gradcheck_coverage", covered,
                 f"losses {sorted(info['losses'])}, penalties {sorted(info['penalties'])}")]


def all_workloads(root):
    return {w.name: w for w in (DigitsEpoch(), GaussGrid(root), Theorem1(), VerifySuites())}
