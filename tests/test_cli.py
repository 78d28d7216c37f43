import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import os
from pathlib import Path
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import write_idx

from eigendecay import train, verify
from eigendecay.cli import DEFAULT_LOSS, main
from eigendecay.data import (
    Dataset,
    gen_two_gaussians,
    gen_two_moons,
    gen_xor,
    load_delimited,
    write_delimited,
)
from eigendecay.model import (
    Activation,
    DenseLayer,
    MlpModel,
    init_mlp,
    load_model,
    model_to_dict,
    save_model,
)
from eigendecay.margin import verify_theorem1
from eigendecay.objectives import LOSS_KINDS, RegularizerSpec
from eigendecay.train import EarlyStopping, TrainConfig, grid_search, sgd_train


def _two_gaussians_config(tmp_path, **train_overrides):
    train = {
        "learning_rate": 0.4,
        "batch_size": 8,
        "max_epochs": 30,
        "seed": 5,
    }
    train.update(train_overrides)
    config = {
        "model": {"layers": [2, 6, 2], "hidden_activation": "sigmoid", "seed": 1},
        "data": {"kind": "two_gaussians", "n_per_class": 40, "sigma": 0.5, "seed": 2},
        "loss": "mse",
        "regularizers": {
            "layers": [{"kind": "eigen_decay", "c": 0.01, "p": 9}, {"kind": "none"}],
            "dropout": [0.0],
        },
        "train": train,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path, config


class TestTrainCommand:
    def test_success_writes_artifacts(self, tmp_path, monkeypatch):
        # read when the manifest is written; BLAS took its threads at import
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        config, _ = _two_gaussians_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        assert (out / "history.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["schema_version"] == 1
        assert "duration_s" in manifest
        # what report bytes depend on besides the config and seeds
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        assert manifest["numerics"] == {
            "numpy": np.__version__,
            "blas": blas["name"],
            "blas_version": blas["version"],
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": "3",
            "OMP_NUM_THREADS": None,
        }
        load_model(out / "model.json")  # parses back

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "absent.json" in capsys.readouterr().err

    def test_missing_data_path_is_data_error(self, tmp_path, capsys):
        config = {
            "model": {"layers": [2, 4, 2]},
            "data": {"kind": "csv", "path": str(tmp_path / "nope.csv")},
            "loss": "mse",
            "train": {"learning_rate": 0.1, "max_epochs": 2},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path):
        config, _ = _two_gaussians_config(tmp_path, learning_rate=1e6, max_epochs=5)
        rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_seed_override_changes_history(self, tmp_path):
        config, _ = _two_gaussians_config(tmp_path)
        main(["train", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(config), "--out", str(tmp_path / "b"),
              "--seed", "99"])
        ha = (tmp_path / "a" / "history.jsonl").read_text()
        hb = (tmp_path / "b" / "history.jsonl").read_text()
        assert ha != hb

    def test_repeated_runs_byte_identical_reports(self, tmp_path):
        config, _ = _two_gaussians_config(tmp_path)
        main(["train", "--config", str(config), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(config), "--out", str(tmp_path / "b")])
        for name in ("history.jsonl", "model.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


class TestEvalCommand:
    def test_eval_trained_model(self, tmp_path):
        config, _ = _two_gaussians_config(tmp_path, max_epochs=60)
        main(["train", "--config", str(config), "--out", str(tmp_path / "run")])
        # evaluate on its own training distribution, via CSV
        from eigendecay.data import gen_two_gaussians

        ds = gen_two_gaussians(40, sigma=0.5, seed=2)
        write_delimited(ds, tmp_path / "data.csv")
        rc = main([
            "eval", "--model", str(tmp_path / "run" / "model.json"),
            "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "eval"),
        ])
        assert rc == 0
        lines = (tmp_path / "eval" / "eval.jsonl").read_text().splitlines()
        report = json.loads(lines[1])
        # the default +-1 centers overlap slightly at sigma 0.5
        assert report["accuracy"] >= 0.95

    def test_missing_model_is_data_error(self, tmp_path):
        rc = main(["eval", "--model", str(tmp_path / "no.json"),
                   "--data", str(tmp_path / "no.csv"), "--out", str(tmp_path / "e")])
        assert rc == 2

    @pytest.mark.parametrize("layers", [[2, 4, 3], [3, 4, 2]])
    def test_model_data_shape_mismatch_is_data_error(self, tmp_path, capsys, layers):
        from eigendecay.data import gen_two_gaussians

        save_model(init_mlp(layers, "sigmoid", seed=0), tmp_path / "m.json")
        write_delimited(gen_two_gaussians(5, seed=1), tmp_path / "d.csv")
        rc = main(["eval", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "the model maps" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_data_error(self, tmp_path, capsys, value):
        save_model(init_mlp([2, 4, 2], "sigmoid", seed=0), tmp_path / "m.json")
        (tmp_path / "d.csv").write_text(f"0.5,1.0,0\n{value},0.25,1\n")
        rc = main(["eval", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "e")])
        assert rc == 2
        _assert_one_line_error(capsys, "d.csv:2")
        assert not (tmp_path / "e" / "eval.jsonl").exists()

    def test_perfect_model_scores_exactly_one(self, tmp_path):
        from eigendecay.data import gen_two_gaussians

        ds = gen_two_gaussians(50, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.4, seed=8)
        model = init_mlp([2, 8, 2], "sigmoid", seed=9)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=8, max_epochs=120, seed=10))
        save_model(model, tmp_path / "m.json")
        write_delimited(ds, tmp_path / "train.csv")
        rc = main(["eval", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / "train.csv"), "--out", str(tmp_path / "e")])
        assert rc == 0
        report = json.loads((tmp_path / "e" / "eval.jsonl").read_text().splitlines()[1])
        assert report["accuracy"] == 1.0

    # sha256 of eval.jsonl on numpy 2.4.6 with OpenBLAS, an untrained
    # 2-5-3 sigmoid net on three gaussian blobs
    def test_output_bytes_unchanged(self, tmp_path):
        save_model(init_mlp([2, 5, 3], "sigmoid", seed=3), tmp_path / "m.json")
        ds = gen_two_gaussians(6, centers=((-1.0, 0.0), (1.0, 0.0), (0.0, 1.0)), seed=4)
        write_delimited(ds, tmp_path / "d.csv")
        rc = main(["eval", "--model", str(tmp_path / "m.json"), "--data", str(tmp_path / "d.csv"),
                   "--loss", "categorical_cross_entropy", "--out", str(tmp_path / "e")])
        assert rc == 0
        written = (tmp_path / "e" / "eval.jsonl").read_bytes()
        assert hashlib.sha256(written).hexdigest() == (
            "4b4c7849933385188661aaf50b7a22a3a85adb67717ea7429ce7c350c3b7a226")


def _underflowing_slopes_model(scale=1e150):
    """Class 0 reads scale * (sigmoid(x1 - 400) - sigmoid(-x1 - 400)). Its
    hidden W W^T has the all-ones start in its kernel."""
    return MlpModel(
        [DenseLayer(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-400.0, -400.0]),
                    Activation("sigmoid"))],
        DenseLayer(scale * np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2),
                   Activation("linear")),
    )


def _assert_one_line_error(capsys, needle=""):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert needle in err


class TestGendataCommand:
    # sha256 of data.csv as the generator-per-kind code wrote it before
    # gendata went through the config data builder; two_moons is compared
    # with the library only, since its sin/cos values may differ by CPU
    @pytest.mark.parametrize("argv, reference, sha256", [
        (["--kind", "two_gaussians", "--n", "4", "--sigma", "0.3", "--seed", "5"],
         lambda: gen_two_gaussians(n_per_class=4, sigma=0.3, seed=5),
         "5321546c8ecaad5bfea3d4e10f685086ed25703e2bf8fa3cbe4c81e7d6b79880"),
        (["--kind", "xor", "--n", "6", "--seed", "2"],
         lambda: gen_xor(n=6, seed=2),
         "c177d8c89f23092f750a287702c026ecceae2df57626477439001b62024c35b0"),
        (["--kind", "two_moons", "--n", "7", "--noise", "0.05", "--seed", "3"],
         lambda: gen_two_moons(n=7, noise=0.05, seed=3),
         None),
    ], ids=["two_gaussians", "xor", "two_moons"])
    def test_output_bytes_unchanged(self, tmp_path, argv, reference, sha256):
        assert main(["gendata", *argv, "--out", str(tmp_path / "g")]) == 0
        written = (tmp_path / "g" / "data.csv").read_bytes()
        write_delimited(reference(), tmp_path / "ref.csv")
        assert written == (tmp_path / "ref.csv").read_bytes()
        if sha256 is not None:
            assert hashlib.sha256(written).hexdigest() == sha256

    @pytest.mark.parametrize("argv", [
        ["--kind", "two_gaussians", "--n", "0"],
        ["--kind", "two_moons", "--n", "1"],
        ["--kind", "two_gaussians", "--n", "3", "--sigma", "-1"],
        ["--kind", "xor", "--n", "3", "--seed", "-1"],
        ["--kind", "two_moons", "--n", "3", "--noise", "-1"],
    ], ids=["n_zero", "moons_n_one", "negative_sigma", "negative_seed", "negative_noise"])
    def test_generator_rejection_is_config_error(self, tmp_path, capsys, argv):
        assert main(["gendata", *argv, "--out", str(tmp_path / "g")]) == 1
        _assert_one_line_error(capsys)
        assert not (tmp_path / "g" / "data.csv").exists()

    @pytest.mark.parametrize("kind, flag", [("two_gaussians", "--sigma"),
                                            ("two_moons", "--noise")])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_spread_is_config_error(self, tmp_path, capsys, kind, flag, value):
        # flag=value: argparse would take a separate "-inf" for an option
        rc = main(["gendata", "--kind", kind, "--n", "2", f"{flag}={value}",
                   "--out", str(tmp_path / "g")])
        assert rc == 1
        _assert_one_line_error(capsys, "finite")
        assert not (tmp_path / "g" / "data.csv").exists()

    def test_deterministic_output(self, tmp_path):
        for out in ("g1", "g2"):
            rc = main(["gendata", "--kind", "two_moons", "--n", "50",
                       "--seed", "7", "--out", str(tmp_path / out)])
            assert rc == 0
        assert (tmp_path / "g1" / "data.csv").read_bytes() == (
            tmp_path / "g2" / "data.csv"
        ).read_bytes()

    def test_output_loads_back(self, tmp_path):
        main(["gendata", "--kind", "xor", "--n", "30", "--seed", "3",
              "--out", str(tmp_path / "g")])
        ds = load_delimited(tmp_path / "g" / "data.csv")
        assert len(ds) == 30
        assert ds.n_classes == 2


class TestVerifyCommand:
    # sha256 of verify.jsonl on numpy 2.4.6 with OpenBLAS, at the default seed
    @pytest.mark.parametrize("mode, sha256", [
        ("eigencheck", "3021eb157bb0d77eeb7a75de7486dbd8bbd0e2b0230ee845bd95888de81863c7"),
        ("lemma1", "d99182765103a24c24cb364b25771f609a26a619641d7c2ad856324ed8df647b"),
    ])
    def test_output_bytes_unchanged(self, tmp_path, mode, sha256):
        rc = main(["verify", "--mode", mode, "--count", "5", "--out", str(tmp_path / "v")])
        assert rc == 0
        written = (tmp_path / "v" / "verify.jsonl").read_bytes()
        assert hashlib.sha256(written).hexdigest() == sha256

    def test_eigencheck_passes(self, tmp_path):
        rc = main(["verify", "--mode", "eigencheck", "--count", "40",
                   "--seed", "0", "--out", str(tmp_path / "v")])
        assert rc == 0
        lines = (tmp_path / "v" / "verify.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["ok"] is True
        assert summary["checked"] == 40

    def test_lemma1_passes(self, tmp_path):
        rc = main(["verify", "--mode", "lemma1", "--count", "60",
                   "--seed", "1", "--out", str(tmp_path / "v")])
        assert rc == 0

    def test_gradcheck_random_models(self, tmp_path):
        rc = main(["verify", "--mode", "gradcheck", "--count", "6",
                   "--seed", "2", "--out", str(tmp_path / "v")])
        assert rc == 0

    def test_gradcheck_on_saved_model(self, tmp_path):
        model = init_mlp([3, 4, 2], "tanh", seed=0)
        save_model(model, tmp_path / "m.json")
        rc = main(["verify", "--mode", "gradcheck", "--model",
                   str(tmp_path / "m.json"), "--out", str(tmp_path / "v")])
        assert rc == 0

    def test_theorem1_on_trained_model(self, tmp_path):
        from eigendecay.data import gen_two_gaussians

        ds = gen_two_gaussians(50, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=4)
        model = init_mlp([2, 6, 2], "sigmoid", seed=5)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=8, max_epochs=80, seed=6))
        save_model(model, tmp_path / "m.json")
        write_delimited(ds, tmp_path / "d.csv")
        rc = main(["verify", "--mode", "theorem1", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / "d.csv"), "--class", "0",
                   "--anchors", "3", "--out", str(tmp_path / "v")])
        assert rc == 0
        assert (tmp_path / "v" / "margin.jsonl").exists()

    def test_theorem1_all_linear_model_tight(self, tmp_path):
        import numpy as np

        from eigendecay.model import Activation, DenseLayer, MlpModel
        from eigendecay.data import gen_two_gaussians

        def rot2(scale, theta):
            c, s = np.cos(theta), np.sin(theta)
            return scale * np.array([[c, -s], [s, c]])

        lin = Activation("linear")
        model = MlpModel(
            [DenseLayer(rot2(1.5, 0.4), np.zeros(2), lin)],
            DenseLayer(rot2(2.0, -0.4), np.zeros(2), lin),
        )
        save_model(model, tmp_path / "m.json")
        ds = gen_two_gaussians(30, centers=((2.0, 0.0), (-2.0, 0.0)), sigma=0.7, seed=3)
        write_delimited(ds, tmp_path / "d.csv")
        rc = main(["verify", "--mode", "theorem1", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / "d.csv"), "--class", "0",
                   "--anchors", "2", "--out", str(tmp_path / "v")])
        assert rc == 0
        lines = (tmp_path / "v" / "margin.jsonl").read_text().splitlines()
        assert len(lines) > 30
        for line in lines[1:]:
            rec = json.loads(line)
            for d, b in zip(rec["distances"], rec["bounds"]):
                assert abs(rec["target"] * d - b) <= 1e-9 * (1 + abs(d))

    # sha256 of margin.jsonl on numpy 2.4.6 with OpenBLAS, two trained nets
    # and 5 anchors per example: surface points bisected one example's
    # segments at a time, distances and bounds from the row pass and the
    # row-product input gradient of the whole call's points, the bounds
    # with the input gradient's dot as the numerator
    @pytest.mark.parametrize("layers, activation, sha256", [
        ([2, 8, 2], "sigmoid", "7e8b0c8b4ff295cf18cd5399c128fc5dbfc1b71b73a1013043da912795841150"),
        ([2, 5, 4, 2], "tanh", "0cd419cb5be2416357605dd3843703977ab59e51d87d4587d5b24137cb49591f"),
    ], ids=["sigmoid_2_8_2", "tanh_2_5_4_2"])
    def test_theorem1_output_bytes_unchanged(self, tmp_path, layers, activation, sha256):
        centers = ((-1.5, 0.0), (1.5, 0.0))
        train_set = gen_two_gaussians(60, centers=centers, sigma=0.5, seed=21)
        model = init_mlp(layers, activation, seed=22)
        reg = RegularizerSpec.none(len(layers) - 1, len(layers) - 2)
        sgd_train(model, train_set, "mse", reg,
                  TrainConfig(learning_rate=0.3, batch_size=16, max_epochs=60, seed=23))
        save_model(model, tmp_path / "m.json")
        write_delimited(gen_two_gaussians(25, centers=centers, sigma=0.5, seed=24),
                        tmp_path / "d.csv")
        rc = main(["verify", "--mode", "theorem1", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / "d.csv"), "--anchors", "5",
                   "--out", str(tmp_path / "v")])
        assert rc == 0
        written = (tmp_path / "v" / "margin.jsonl").read_bytes()
        assert hashlib.sha256(written).hexdigest() == sha256

    def test_theorem1_relu_model_is_config_error(self, tmp_path):
        model = init_mlp([2, 4, 2], "relu", seed=0)
        save_model(model, tmp_path / "m.json")
        write_delimited(__import__("eigendecay.data", fromlist=["gen_xor"]).gen_xor(20, 1),
                        tmp_path / "d.csv")
        rc = main(["verify", "--mode", "theorem1", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "v")])
        assert rc == 1

    def _theorem1(self, tmp_path, model, features, labels, cls=0, anchors=1,
                  mode="theorem1"):
        import numpy as np

        from eigendecay.data import Dataset

        save_model(model, tmp_path / "m.json")
        ds = Dataset.from_arrays(np.asarray(features, dtype=float), np.asarray(labels),
                                 n_classes=2)
        write_delimited(ds, tmp_path / "d.csv")
        return main(["verify", "--mode", mode, "--model", str(tmp_path / "m.json"),
                     "--data", str(tmp_path / "d.csv"), "--class", str(cls),
                     "--anchors", str(anchors), "--out", str(tmp_path / "v")])

    def test_theorem1_constant_output_is_data_error(self, tmp_path, capsys):
        # class 0 reads +1 everywhere: no example has an opposite anchor
        import numpy as np

        from eigendecay.model import Activation, DenseLayer, MlpModel

        model = MlpModel(
            [DenseLayer(np.zeros((2, 2)), np.zeros(2), Activation("sigmoid"))],
            DenseLayer(np.zeros((2, 2)), np.array([1.0, -1.0]), Activation("linear")),
        )
        rc = self._theorem1(tmp_path, model, [[0.1, 0.2], [0.3, 0.4]], [0, 1])
        assert rc == 2
        _assert_one_line_error(capsys, "anchors")

    def test_theorem1_wide_layer_is_checked(self, tmp_path):
        # a hidden layer wider than 64 gets its exact eigenvalue like any
        # other; the shifted bias puts class 0's surface between the points
        model = init_mlp([2, 80, 2], "sigmoid", seed=0)
        model.output.bias[0] -= 0.77
        rc = self._theorem1(tmp_path, model, [[-3.0, -3.0], [3.0, 3.0]], [0, 1])
        assert rc == 0
        lines = (tmp_path / "v" / "margin.jsonl").read_text().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["ok"] for line in lines[1:])

    def test_theorem1_data_model_mismatch_is_data_error(self, tmp_path, capsys):
        model = init_mlp([3, 4, 2], "sigmoid", seed=0)
        rc = self._theorem1(tmp_path, model, [[0.1, 0.2], [0.3, 0.4]], [0, 1])
        assert rc == 2
        _assert_one_line_error(capsys, "features")

    @pytest.mark.parametrize("flag, cls, anchors", [("--class", 2, 1), ("--anchors", 0, 0)])
    def test_theorem1_bad_flag_is_config_error(self, tmp_path, capsys, flag, cls, anchors):
        model = init_mlp([2, 4, 2], "sigmoid", seed=0)
        rc = self._theorem1(tmp_path, model, [[0.1, 0.2], [0.3, 0.4]], [0, 1],
                            cls=cls, anchors=anchors)
        assert rc == 1
        _assert_one_line_error(capsys, flag)

    def test_theorem1_vanishing_gradient_exits_4(self, tmp_path, capsys):
        # two saturated tanh units cancel exactly for |x1| < 0.3, so the
        # first midpoint is an exact root where every slope is 0
        import numpy as np

        from eigendecay.model import Activation, DenseLayer, MlpModel

        model = MlpModel(
            [DenseLayer(np.array([[100.0, 0.0], [100.0, 0.0]]), np.array([50.0, -50.0]),
                        Activation("tanh"))],
            DenseLayer(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2),
                       Activation("linear")),
        )
        rc = self._theorem1(tmp_path, model, [[-1.0, 0.0], [1.0, 0.0]], [1, 0])
        assert rc == 4
        _assert_one_line_error(capsys, "gradient vanishes")

    def test_theorem1_unreachable_tolerance_exits_4(self, tmp_path, capsys):
        # near the root the class output moves in steps of 4096 between
        # adjacent floats and is offset by 0.5, so it never drops below 1e-10
        import numpy as np

        from eigendecay.model import Activation, DenseLayer, MlpModel

        lin = Activation("linear")
        model = MlpModel(
            [DenseLayer(np.array([[1e20, 0.0]]), np.array([-3e19]), lin)],
            DenseLayer(np.array([[1.0], [-1.0]]), np.array([0.5, -0.5]), lin),
        )
        rc = self._theorem1(tmp_path, model, [[-1.0, 0.0], [1.0, 0.0]], [1, 0])
        assert rc == 4
        _assert_one_line_error(capsys, "bisection")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_theorem1_overflowing_midpoint_is_data_error(self, tmp_path, capsys):
        # the class-0 output reads x2 only, so the two rows lie on either
        # side of the surface, and the first midpoint's x1 overflows
        from eigendecay.model import Activation, DenseLayer, MlpModel

        model = MlpModel(
            [DenseLayer(np.array([[0.0, 1.0], [0.0, -1.0]]), np.zeros(2),
                        Activation("sigmoid"))],
            DenseLayer(np.array([[1.0, -1.0], [-1.0, 1.0]]), np.zeros(2),
                       Activation("linear")),
        )
        rc = self._theorem1(tmp_path, model, [[1e308, 1.0], [1e308, -1.0]], [0, 1])
        assert rc == 2
        _assert_one_line_error(capsys, "data error: theorem1: bisection midpoint")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("features, labels, anchors, needle", [
        ([[1.0, 0.0], [-1.0, 0.0], [-1.5, 0.0]], [0, 1, 1], 2, "anchors"),
        ([[1.0, 0.0], [1.0, 1e308], [-1.0, 0.0], [-1.0, 1e308]], [0, 0, 1, 1], 1,
         "bisection midpoint"),
    ], ids=["missing_anchor", "overflowing_midpoint"])
    @pytest.mark.parametrize("reverse", [False, True], ids=["gradient_first", "gradient_last"])
    def test_theorem1_first_failing_example_sets_the_exit_code(
            self, tmp_path, capsys, features, labels, anchors, needle, reverse):
        # the first example's gradient vanishes at its surface point (exit 4,
        # found after every bisection); a later one has a data error found
        # before any per-point call (exit 2). Reversed, the data error comes
        # first. The model is that of test_theorem1_vanishing_gradient_exits_4.
        model = MlpModel(
            [DenseLayer(np.array([[100.0, 0.0], [100.0, 0.0]]), np.array([50.0, -50.0]),
                        Activation("tanh"))],
            DenseLayer(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2),
                       Activation("linear")),
        )
        if reverse:
            features, labels = features[::-1], labels[::-1]
        rc = self._theorem1(tmp_path, model, features, labels, anchors=anchors)
        if reverse:
            assert rc == 2
            _assert_one_line_error(capsys, needle)
        else:
            assert rc == 4
            _assert_one_line_error(capsys, "gradient vanishes")

    @pytest.mark.parametrize("cls", [0, 1])
    def test_theorem1_zero_bound_denominator_exits_4(self, tmp_path, capsys, cls):
        # at the surface point x1 = 0 both sigmoid slopes are about
        # 1.9e-174: the gradient is finite, but the squared slopes, and with
        # them the bound denominator, underflow to zero
        model = _underflowing_slopes_model()
        rc = self._theorem1(tmp_path, model, [[1.0, 0.0], [-1.0, 0.0]], [0, 1], cls=cls)
        assert rc == 4
        _assert_one_line_error(
            capsys, f"verification failed: theorem1: class-{cls} bound denominator")

    @pytest.mark.parametrize("cls", [0, 1])
    def test_theorem1_overflowing_output_row_is_data_error(self, tmp_path, capsys, cls):
        # the slopes are those above, and the output rows' norms overflow:
        # the bound would be nan, and the point a false violation (exit 4)
        model = _underflowing_slopes_model(1e170)
        rc = self._theorem1(tmp_path, model, [[1.0, 0.0], [-1.0, 0.0]], [0, 1], cls=cls)
        assert rc == 2
        _assert_one_line_error(
            capsys, f"data error: theorem1: the norm of output row {cls} overflows")
        assert not (tmp_path / "v" / "margin.jsonl").exists()

    @pytest.mark.parametrize("mode", ["theorem1", "gradcheck"])
    def test_overflowing_gram_is_data_error(self, tmp_path, capsys, mode):
        model = init_mlp([2, 4, 2], "sigmoid", seed=0)
        model.hidden[0].weights[0, 0] = 1e200
        rc = self._theorem1(tmp_path, model, [[0.1, 0.2], [0.3, 0.4]], [0, 1], mode=mode)
        assert rc == 2
        _assert_one_line_error(capsys, f"data error: {mode}: W W^T of layer 0 overflows")

    @pytest.mark.parametrize("model, needle", [
        (_underflowing_slopes_model(), "power iterate hit the zero vector"),
        # a gram of 1e308 entries: the first iterate overflows
        (MlpModel([DenseLayer(np.array([[1e154, 0.0]] * 3), np.zeros(3), Activation("tanh"))],
                  DenseLayer(np.ones((2, 3)), np.zeros(2), Activation("linear"))),
         "power iterate overflowed"),
    ], ids=["iterate_in_kernel", "iterate_overflow"])
    def test_gradcheck_eigenvalue_failure_is_data_error(self, tmp_path, capsys, model, needle):
        rc = self._theorem1(tmp_path, model, [[0.1, 0.2], [0.3, 0.4]], [0, 1],
                            mode="gradcheck")
        assert rc == 2
        _assert_one_line_error(capsys, f"data error: gradcheck: {needle}")

    @pytest.mark.parametrize("mode", ["eigencheck", "lemma1"])
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_is_config_error(self, tmp_path, capsys, mode, count):
        rc = main(["verify", "--mode", mode, "--count", count,
                   "--out", str(tmp_path / "v")])
        assert rc == 1
        _assert_one_line_error(capsys, "--count")
        assert not (tmp_path / "v" / "verify.jsonl").exists()

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        rc = main(["verify", "--mode", "lemma1", "--count", "2", "--seed", "-1",
                   "--out", str(tmp_path / "v")])
        assert rc == 1
        _assert_one_line_error(capsys, "--seed")

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify", "--mode", "bogus", "--out", str(tmp_path / "v")])

    def test_failed_checks_exit_4_and_are_enumerated(self, tmp_path, monkeypatch):
        import eigendecay.cli as cli

        def rigged(count=500, seed=0):
            records = [
                {"index": 0, "ok": True},
                {"index": 1, "ok": False, "rel_err": 1.0},
            ]
            return records, False

        monkeypatch.setattr(cli, "power_method_fidelity_suite", rigged)
        rc = main(["verify", "--mode", "eigencheck", "--out", str(tmp_path / "v")])
        assert rc == 4
        lines = (tmp_path / "v" / "verify.jsonl").read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["failures"] == 1
        assert any(json.loads(l).get("index") == 1 for l in lines[1:-1])


def _idx_model_pair(work):
    """A 2-3-2 model file and a ten-row IDX pair of two classes it fits."""
    ds = Dataset.from_arrays(np.tile([[1.0, 0.0], [0.0, 1.0]], (5, 1)),
                             np.tile([1, 0], 5), n_classes=2)
    write_idx(ds, f"{work}/images.idx", f"{work}/labels.idx", 1, 2)
    save_model(init_mlp([2, 3, 2], "sigmoid", seed=0), f"{work}/model.json")


@pytest.mark.parametrize("limit", ["0", "-1"])
@pytest.mark.parametrize("command", [["eval"], ["verify", "--mode", "theorem1"]],
                         ids=["eval", "verify"])
def test_limit_below_one_is_config_error(tmp_path, capsys, command, limit):
    # --limit -1 used to score all rows but the last, and 0 to report
    # "0 classes" as a data error
    _idx_model_pair(tmp_path)
    rc = main([*command, "--model", str(tmp_path / "model.json"),
               "--images", str(tmp_path / "images.idx"),
               "--labels", str(tmp_path / "labels.idx"), "--limit", limit,
               "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, "--limit")


@pytest.mark.parametrize("limit", [0, -1, True])
def test_idx_config_limit_below_one_is_config_error(tmp_path, capsys, limit):
    _idx_model_pair(tmp_path)
    path, config = _two_gaussians_config(tmp_path, max_epochs=1)
    config["model"]["layers"] = [2, 3, 2]
    config["data"] = {"kind": "idx", "images": str(tmp_path / "images.idx"),
                      "labels": str(tmp_path / "labels.idx"), "limit": limit}
    path.write_text(json.dumps(config))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, "limit must be an integer >= 1")


class TestGridsearchCommand:
    def test_single_cell_echoes_selection(self, tmp_path, capsys):
        config = {
            "model": {"layers": [2, 4, 2], "seed": 0},
            "data": {"kind": "two_gaussians", "n_per_class": 30, "sigma": 0.5, "seed": 1},
            "loss": "mse",
            "train": {"learning_rate": 0.4, "batch_size": 8, "max_epochs": 10, "seed": 2},
            "grid": {"a": [0.01], "b": [0.0], "folds": 3},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        rc = main(["gridsearch", "--config", str(path), "--out", str(tmp_path / "g")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "c_a=0.01" in out
        lines = (tmp_path / "g" / "gridsearch.jsonl").read_text().splitlines()
        tail = json.loads(lines[-1])
        assert tail["selected_c_a"] == 0.01
        assert tail["selected_c_b"] == 0.0

    def test_bad_late_grid_value_fails_before_any_training(self, tmp_path, capsys,
                                                           monkeypatch):
        # one member per stack, so a cell trains as soon as it is built
        def trained(*args):
            raise AssertionError("a grid cell trained")

        monkeypatch.setattr(train, "_stack_cap", lambda model, batch_size: 1)
        monkeypatch.setattr(train, "_sgd_stack", trained)
        path, config = _two_gaussians_config(tmp_path, max_epochs=2)
        config["grid"] = {"a": [0.0, 0.01, "x"], "b": [0.0], "folds": 2}
        path.write_text(json.dumps(config))
        rc = main(["gridsearch", "--config", str(path), "--out", str(tmp_path / "g")])
        assert rc == 1
        _assert_one_line_error(capsys, "config error")


@pytest.mark.parametrize("command", [
    ["train", "--config", "c.json"],
    ["gridsearch", "--config", "c.json"],
    ["verify", "--mode", "eigencheck", "--count", "1"],
], ids=["train", "gridsearch", "verify"])
def test_threads_option_is_gone(tmp_path, command):
    with pytest.raises(SystemExit) as info:
        main([*command, "--threads", "2", "--out", str(tmp_path / "o")])
    assert info.value.code == 2


class TestPathChecks:
    def test_data_directory_is_data_error(self, tmp_path, capsys):
        save_model(init_mlp([2, 4, 2], "sigmoid", seed=0), tmp_path / "m.json")
        rc = main(["eval", "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path), "--out", str(tmp_path / "e")])
        assert rc == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_idx_directory_is_data_error(self, tmp_path):
        save_model(init_mlp([2, 4, 2], "sigmoid", seed=0), tmp_path / "m.json")
        rc = main(["eval", "--model", str(tmp_path / "m.json"),
                   "--images", str(tmp_path), "--labels", str(tmp_path),
                   "--out", str(tmp_path / "e")])
        assert rc == 2

    def test_model_directory_is_data_error(self, tmp_path):
        rc = main(["verify", "--mode", "gradcheck", "--model", str(tmp_path),
                   "--out", str(tmp_path / "v")])
        assert rc == 2

    def test_config_directory_is_config_error(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "directory" in capsys.readouterr().err


def test_zero_epochs_is_config_error(tmp_path, capsys):
    config, _ = _two_gaussians_config(tmp_path)
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "o"),
               "--epochs", "0"])
    assert rc == 1
    assert "epoch" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "gridsearch"])
@pytest.mark.parametrize("model, flags, message", [
    ({"layers": [2, 0, 2]}, [], "must be >= "),
    ({"layers": [2, 0, 0, 2]}, [], "must be >= "),
    ({"layers": [2, 3, 2]}, ["--seed", "-1"], "must be >= "),
    # gridsearch seeds each member itself, but checks the config's seed
    ({"layers": [2, 3, 2], "seed": "x"}, [], "seed must be an integer"),
    ({"layers": [2, 3, 2], "seed": None}, [], "seed must be an integer"),
    ({"layers": [2, 3, 2], "seed": True}, [], "seed must be an integer"),
], ids=["zero_width", "zero_widths", "negative_seed", "model_seed_string",
        "model_seed_null", "model_seed_true"])
def test_bad_model_or_seed_is_config_error(tmp_path, capsys, command, model, flags, message):
    config = {
        "model": model,
        "data": {"kind": "xor", "n": 12, "seed": 0},
        "train": {"learning_rate": 0.1, "max_epochs": 1},
        "grid": {"a": [0.0], "b": [0.0], "folds": 2},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o"), *flags])
    assert rc == 1
    _assert_one_line_error(capsys, message)


@pytest.mark.parametrize("value", [[], 0, False, ""], ids=["list", "zero", "false", "string"])
def test_falsy_early_stopping_is_config_error(tmp_path, capsys, value):
    # an absent or null section leaves early stopping off; a falsy
    # non-object is an error, as any other non-object is
    path, config = _two_gaussians_config(tmp_path, max_epochs=2)
    config["train"]["early_stopping"] = value
    path.write_text(json.dumps(config))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, "'early_stopping' must be a JSON object")


def test_null_early_stopping_leaves_it_off(tmp_path):
    path, config = _two_gaussians_config(tmp_path, max_epochs=2)
    main(["train", "--config", str(path), "--out", str(tmp_path / "absent")])
    config["train"]["early_stopping"] = None
    path.write_text(json.dumps(config))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "null")])
    assert rc == 0
    assert (tmp_path / "null" / "history.jsonl").read_bytes() == (
        tmp_path / "absent" / "history.jsonl").read_bytes()


@pytest.mark.parametrize("command", [
    ["eval"], ["verify", "--mode", "gradcheck"], ["verify", "--mode", "theorem1"],
], ids=["eval", "gradcheck", "theorem1"])
def test_zero_width_model_file_is_data_error(tmp_path, capsys, command):
    doc = {"format": "eigendecay-model", "version": 1, "layers": [
        {"activation": "sigmoid", "out": 0, "in": 2, "weights": [], "bias": []},
        {"activation": "linear", "out": 2, "in": 0, "weights": [], "bias": [0.0, 0.0]},
    ]}
    (tmp_path / "m.json").write_text(json.dumps(doc))
    (tmp_path / "d.csv").write_text("0.1,0.2,0\n0.3,0.4,1\n")
    rc = main([*command, "--model", str(tmp_path / "m.json"), "--data",
               str(tmp_path / "d.csv"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "at least one input and one output" in capsys.readouterr().err


def _model_doc_with(**layer0):
    doc = {"format": "eigendecay-model", "version": 1, "layers": [
        {"activation": "sigmoid", "out": 3, "in": 2, "weights": [0.1] * 6, "bias": [0.0] * 3},
        {"activation": "linear", "out": 2, "in": 3, "weights": [0.2] * 6, "bias": [0.0] * 2},
    ]}
    doc["layers"][0].update(layer0)
    return doc


# model documents whose fields have the wrong type
MALFORMED_MODEL_DOCS = {
    "top_level_list": [_model_doc_with()],
    "layers_number": {**_model_doc_with(), "layers": 5},
    "layers_of_numbers": {**_model_doc_with(), "layers": [1, 2]},
    "out_bool": _model_doc_with(out=True),
    "out_float": _model_doc_with(out=3.0),
    "out_negative": _model_doc_with(out=-1),
    "activation_list": _model_doc_with(activation=[]),
    "weights_object": _model_doc_with(weights={"a": 1}),
    "weights_nested": _model_doc_with(weights=[[0.1] * 2] * 3),
    "weights_past_float_range": _model_doc_with(weights=[10**400] * 6),
    "version_float": {**_model_doc_with(), "version": 1.0},
    "version_bool": {**_model_doc_with(), "version": True},
}


@pytest.mark.parametrize("command", [
    ["eval"], ["verify", "--mode", "theorem1"], ["verify", "--mode", "gradcheck"],
], ids=["eval", "theorem1", "gradcheck"])
@pytest.mark.parametrize("name", list(MALFORMED_MODEL_DOCS))
def test_malformed_model_document_is_data_error(tmp_path, capsys, command, name):
    (tmp_path / "m.json").write_text(json.dumps(MALFORMED_MODEL_DOCS[name]))
    data = [] if "gradcheck" in command else ["--data", str(tmp_path / "d.csv")]
    (tmp_path / "d.csv").write_text("0.1,0.2,0\n0.3,0.4,1\n")
    rc = main([*command, "--model", str(tmp_path / "m.json"), *data,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    _assert_one_line_error(capsys, "bad model file")


# file bodies that hold no JSON document: bytes that are not UTF-8, and
# arrays nested past the parser's recursion limit
UNREADABLE_FILES = {
    "not_utf8": b'\xff\xfe{"model": {}}',
    "nested_too_deeply": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["train", "gridsearch"])
@pytest.mark.parametrize("name", list(UNREADABLE_FILES))
def test_unreadable_config_file_is_config_error(tmp_path, capsys, command, name):
    (tmp_path / "c.json").write_bytes(UNREADABLE_FILES[name])
    rc = main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, "config error")


@pytest.mark.parametrize("command", [
    ["eval"], ["verify", "--mode", "theorem1"], ["verify", "--mode", "gradcheck"],
], ids=["eval", "theorem1", "gradcheck"])
@pytest.mark.parametrize("name", list(UNREADABLE_FILES))
def test_unreadable_model_file_is_data_error(tmp_path, capsys, command, name):
    (tmp_path / "m.json").write_bytes(UNREADABLE_FILES[name])
    data = [] if "gradcheck" in command else ["--data", str(tmp_path / "d.csv")]
    (tmp_path / "d.csv").write_text("0.1,0.2,0\n0.3,0.4,1\n")
    rc = main([*command, "--model", str(tmp_path / "m.json"), *data,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    _assert_one_line_error(capsys, "bad model file")


def test_model_data_class_mismatch_is_config_error(tmp_path, capsys):
    config = {
        "model": {"layers": [2, 4, 3]},
        "data": {"kind": "xor", "n": 20, "seed": 0},
        "loss": "mse",
        "train": {"learning_rate": 0.1, "max_epochs": 2},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "classes" in capsys.readouterr().err


@pytest.mark.parametrize("keys, value, needle", [
    (("model", "layers"), [3, 8, 2], "data has 2 features but the model expects 3"),
    (("data", "n_per_class"), 1, "split fraction 0.9 leaves an empty side for 2 examples"),
], ids=["feature_count", "empty_validation_split"])
def test_training_input_error_is_config_error(tmp_path, capsys, keys, value, needle):
    # sgd_train finds both; gridsearch maps the same errors from grid_search
    path, config = _two_gaussians_config(tmp_path, max_epochs=2,
                                         early_stopping={"enabled": True})
    path.write_text(json.dumps(_set(config, keys, value)))
    rc = main(["train", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, f"config error: {needle}")


# malloc refuses arrays of this many rows at once, touching no pages
HUGE = 10**12


@pytest.mark.parametrize("command", ["train", "gridsearch"])
@pytest.mark.parametrize("keys, value, needle", [
    (("model", "layers"), [2, HUGE, 2], "model too large to allocate"),
    (("data",), {"kind": "two_gaussians", "n_per_class": HUGE}, "data spec too large"),
    (("data",), {"kind": "xor", "n": HUGE}, "data spec too large"),
    (("model", "layers"), [2, "8", 2],
     "bad model spec: layer sizes must be integers, got [2, '8', 2]"),
    (("model", "layers"), [2, 8.0, 2],
     "bad model spec: layer sizes must be integers, got [2, 8.0, 2]"),
    (("model", "layers"), [2, True, 2],
     "bad model spec: layer sizes must be integers, got [2, True, 2]"),
], ids=["huge_model", "huge_two_gaussians", "huge_xor", "string_size", "float_size",
        "bool_size"])
def test_unbuildable_model_or_data_is_config_error(tmp_path, capsys, command, keys, value,
                                                   needle):
    path, config = _two_gaussians_config(tmp_path, max_epochs=2)
    config["grid"] = {"a": [0.0], "b": [0.0], "folds": 2}
    path.write_text(json.dumps(_set(config, keys, value)))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, f"config error: {needle}")


@pytest.mark.parametrize("kind", ["two_gaussians", "two_moons", "xor"])
def test_gendata_too_large_to_generate_is_config_error(tmp_path, capsys, kind):
    rc = main(["gendata", "--kind", kind, "--n", str(HUGE), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, "config error: data spec too large to generate")


@pytest.mark.parametrize("command", ["train", "gridsearch"])
def test_divergence_prints_one_error_line(tmp_path, command):
    # numpy's overflow warnings used to precede the error line; a separate
    # process shows stderr as a user of the command sees it
    path, config = _two_gaussians_config(tmp_path, learning_rate=1e300, max_epochs=3)
    config["grid"] = {"a": [0.0, 0.01], "b": [0.0], "folds": 2}
    path.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "eigendecay", command, "--config", str(path),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("training diverged: ")


@pytest.mark.parametrize("command, report", [
    (["eval"], "eval.jsonl"),
    (["verify", "--mode", "theorem1", "--anchors", "2"], "margin.jsonl"),
], ids=["eval", "verify"])
def test_limit_keeps_the_first_csv_rows(tmp_path, command, report):
    # the report on the first rows of a file equals the one on a file of
    # those rows alone; a linear 2-2-2 net, where the bound is tight
    theta = 0.4
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    lin = Activation("linear")
    model = MlpModel([DenseLayer(1.5 * rot, np.zeros(2), lin)],
                     DenseLayer(2.0 * rot.T, np.zeros(2), lin))
    save_model(model, tmp_path / "m.json")
    ds = gen_two_gaussians(30, centers=((2.0, 0.0), (-2.0, 0.0)), sigma=0.7, seed=3)
    # the classes alternate, so that the first rows hold both
    ds = ds.subset(np.arange(60).reshape(2, 30).T.reshape(-1))
    write_delimited(ds, tmp_path / "all.csv")
    write_delimited(ds.subset(range(6)), tmp_path / "first.csv")
    for name, limit in (("all", ["--limit", "6"]), ("first", [])):
        rc = main([*command, "--model", str(tmp_path / "m.json"),
                   "--data", str(tmp_path / f"{name}.csv"), *limit,
                   "--out", str(tmp_path / name)])
        assert rc == 0
    assert (tmp_path / "all" / report).read_bytes() == (tmp_path / "first" / report).read_bytes()
    assert len((tmp_path / "first" / report).read_text().splitlines()) > 1


def test_limit_on_idx_and_csv_files_of_the_same_rows_agrees(tmp_path):
    # the first row is class 0: both formats keep the whole file's two
    # classes, where the IDX pair used to count one and exit 2
    ds = Dataset.from_arrays(np.tile([[0.0, 1.0], [1.0, 0.0]], (5, 1)),
                             np.tile([0, 1], 5), n_classes=2)
    write_idx(ds, tmp_path / "images.idx", tmp_path / "labels.idx", 1, 2)
    write_delimited(ds, tmp_path / "d.csv")
    save_model(init_mlp([2, 3, 2], "sigmoid", seed=0), tmp_path / "m.json")
    for name, data in (("idx", ["--images", str(tmp_path / "images.idx"),
                                "--labels", str(tmp_path / "labels.idx")]),
                       ("csv", ["--data", str(tmp_path / "d.csv")])):
        rc = main(["eval", "--model", str(tmp_path / "m.json"), *data, "--limit", "1",
                   "--out", str(tmp_path / name)])
        assert rc == 0
    report = (tmp_path / "csv" / "eval.jsonl").read_bytes()
    assert (tmp_path / "idx" / "eval.jsonl").read_bytes() == report
    assert b'"n_examples": 1' in report


def _set(config, keys, value):
    # config with the entry at the key path set to value; the empty path
    # replaces the whole config
    if not keys:
        return value
    entry = config
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = value
    return config


NAN, INF = float("nan"), float("inf")
PAST_FLOAT = 10**400  # a JSON integer past float range


@pytest.mark.parametrize("command, keys, value", [
    ("train", ("train", "batch_size"), 2.5),
    ("train", ("train", "max_epochs"), 1.5),
    ("train", ("train", "seed"), 1.5),
    ("train", ("regularizers", "layers", 0, "p"), 2.5),
    ("gridsearch", ("grid", "a"), ["x"]),
    ("gridsearch", ("grid", "a"), 0.5),
    ("train", ("train",), [0.4]),
    ("train", ("data",), "two_gaussians"),
    ("gridsearch", ("grid",), [0.01]),
    ("train", (), [{"loss": "mse"}]),
    ("train", ("regularizers", "layers", 0, "c"), NAN),
    ("train", ("regularizers", "layers", 0, "c"), INF),
    ("train", ("train", "learning_rate"), NAN),
    ("train", ("train", "learning_rate"), INF),
    ("gridsearch", ("grid", "a"), [NAN]),
    ("gridsearch", ("grid", "folds"), 2.5),
    ("train", ("train", "early_stopping"), {"enabled": True, "patience": 1.5}),
    ("train", ("train", "shuffle"), "no"),
    ("train", ("train", "batch_size"), True),
    ("train", ("train", "max_epochs"), True),
    ("train", ("train", "seed"), False),
    ("train", ("train", "learning_rate"), True),
    ("train", ("train", "momentum"), False),
    ("train", ("train", "early_stopping"), {"enabled": True, "patience": True}),
    ("train", ("regularizers", "layers", 0, "c"), True),
    ("train", ("regularizers", "layers", 0, "p"), True),
    ("gridsearch", ("grid", "folds"), True),
    ("gridsearch", ("grid", "a"), [0.0, True]),
    ("gridsearch", ("grid", "b"), [False]),
    ("train", ("model", "seed"), None),
    ("train", ("model", "seed"), True),
    ("train", ("model", "seed"), 2.5),
    ("train", ("model", "seed"), -1),
    ("train", ("data", "seed"), None),
    ("train", ("data", "seed"), True),
    ("train", ("data", "seed"), 2.5),
    ("train", ("data", "seed"), -1),
    ("train", ("regularizers", "layers", 0), "x"),
    ("train", ("regularizers", "layers", 0), [1]),
    ("train", ("train", "early_stopping"), [1]),
    ("train", ("data",), None),
    ("gridsearch", ("model",), None),
    ("train", ("regularizers", "layers", 0, "c"), PAST_FLOAT),
    ("train", ("train", "learning_rate"), PAST_FLOAT),
    ("gridsearch", ("grid", "a"), [0.0, PAST_FLOAT]),
    ("train", ("data", "sigma"), PAST_FLOAT),
    ("train", ("data", "centers"), [[PAST_FLOAT, 0.0], [1.0, 0.0]]),
    ("train", ("data", "centers"), [[NAN, 0.0], [1.0, 0.0]]),
    ("train", ("data", "centers"), [[-1.0, 0.0], [1.0, INF]]),
    ("train", ("data", "sigma"), True),
    ("train", ("data", "sigma"), False),
    ("train", ("data", "centers"), [[True, 0.0], [1.0, 0.0]]),
    ("train", ("regularizers", "dropout"), [False]),
    ("train", ("data",), {"kind": "two_moons", "n": 20, "noise": PAST_FLOAT}),
    ("train", ("data",), {"kind": "two_moons", "n": 20, "noise": True}),
    ("train", ("data", "centers"), [-1.0, 1.0]),
    ("train", ("model", "layers"), [2, PAST_FLOAT, 2]),
    # os.path.isfile would take these as file descriptors; the existing
    # file beside each puts the wrong-typed path first in line to be read
    ("train", ("data",), {"kind": "csv", "path": 1}),
    ("gridsearch", ("data",), {"kind": "csv", "path": True}),
    ("train", ("data",), {"kind": "idx", "images": 1, "labels": __file__}),
    ("gridsearch", ("data",), {"kind": "idx", "images": __file__, "labels": 1}),
], ids=[
    "batch_size_fraction", "max_epochs_fraction", "seed_fraction", "p_fraction",
    "grid_string", "grid_scalar_axis", "train_not_object", "data_not_object",
    "grid_not_object", "config_not_object", "c_nan", "c_inf", "learning_rate_nan",
    "learning_rate_inf", "grid_nan", "folds_fraction", "patience_fraction",
    "shuffle_string", "batch_size_true", "max_epochs_true", "seed_false",
    "learning_rate_true", "momentum_false", "patience_true", "c_true", "p_true",
    "folds_true", "grid_true", "grid_false", "model_seed_null", "model_seed_true",
    "model_seed_fraction", "model_seed_negative", "data_seed_null", "data_seed_true",
    "data_seed_fraction", "data_seed_negative", "layer_entry_string", "layer_entry_list",
    "early_stopping_list", "data_null", "model_null", "c_past_float",
    "learning_rate_past_float", "grid_past_float", "sigma_past_float", "center_past_float",
    "center_nan", "center_inf", "sigma_true", "sigma_false", "center_true", "dropout_false",
    "noise_past_float", "noise_true", "centers_flat", "width_past_float",
    "path_int", "path_true", "images_int", "labels_int",
])
def test_config_value_of_wrong_type_or_not_finite_is_config_error(
        tmp_path, capsys, command, keys, value):
    path, config = _two_gaussians_config(tmp_path, max_epochs=2)
    config["grid"] = {"a": [0.0, 0.01], "b": [0.0], "folds": 2}
    path.write_text(json.dumps(_set(config, keys, value)))
    rc = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_one_line_error(capsys, "config error")


def _library_defaults(fn, *names):
    params = inspect.signature(fn).parameters
    return {name: params[name].default for name in names}


def _same_reports(tmp_path, bare, spelled):
    """The reports of argv bare, after checking that argv spelled writes
    the same bytes; the manifest holds the wall clock and is left out."""
    written = []
    for k, argv in enumerate((bare, spelled)):
        out = tmp_path / f"out{k}"
        assert main([*argv, "--out", str(out)]) == 0
        written.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "manifest.json"})
    assert written[0] == written[1]
    return written[0]


class TestCliAddsNoDefault:
    """Each command writes the same reports with every optional key or flag
    left out as with the library's defaults spelled out: a key or flag the
    user leaves out is not passed on, so the library's default applies."""

    @pytest.mark.parametrize("command, flags", [
        ("train", []), ("gridsearch", ["--epochs", "2"])])
    def test_config_commands(self, tmp_path, command, flags):
        bare = {
            "model": {"layers": [2, 4, 2]},
            "data": {"kind": "two_gaussians", "n_per_class": 20},
            "train": {"learning_rate": 0.3},
        }
        none = RegularizerSpec.none(2, 1)
        spelled = {
            "model": {**bare["model"],
                      **_library_defaults(init_mlp, "hidden_activation", "seed")},
            "data": {**bare["data"],
                     **_library_defaults(gen_two_gaussians, "centers", "sigma", "seed")},
            "train": {
                **bare["train"],
                **_library_defaults(TrainConfig, "batch_size", "max_epochs", "seed",
                                    "shuffle", "momentum"),
                "early_stopping": dataclasses.asdict(EarlyStopping()),
            },
            "regularizers": {"layers": [dataclasses.asdict(e) for e in none.layers],
                             "dropout": list(none.dropout)},
            "loss": DEFAULT_LOSS,
            # the command's own axes and folds, and grid_search's selection
            "grid": {"a": [0.0, 1e-4, 1e-3, 1e-2, 1e-1], "b": [0.0, 1e-4, 1e-3, 1e-2, 1e-1],
                     "folds": 5, **_library_defaults(grid_search, "select_by")},
        }
        argvs = []
        for name, config in (("bare", bare), ("spelled", spelled)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(config))
            argvs.append([command, "--config", str(path), *flags])
        reports = _same_reports(tmp_path, *argvs)
        assert len(reports) == (2 if command == "train" else 1)

    @pytest.mark.parametrize("kind, generator, names", [
        ("two_gaussians", gen_two_gaussians, ("seed", "sigma")),
        ("two_moons", gen_two_moons, ("seed", "noise")),
        ("xor", gen_xor, ("seed",)),
    ])
    def test_gendata(self, tmp_path, kind, generator, names):
        argv = ["gendata", "--kind", kind, "--n", "9"]
        for name, value in _library_defaults(generator, *names).items():
            argv += [f"--{name}", repr(value)]
        _same_reports(tmp_path, argv[:5], argv)

    @pytest.mark.parametrize("mode, suite", [
        ("eigencheck", verify.power_method_fidelity_suite),
        ("lemma1", verify.quadratic_form_bound_suite),
        ("gradcheck", verify.gradient_check_suite),
    ])
    def test_verify_suites(self, tmp_path, mode, suite):
        argv = ["verify", "--mode", mode, "--count", "2"]
        seed = _library_defaults(suite, "seed")["seed"]
        _same_reports(tmp_path, argv, [*argv, "--seed", str(seed)])

    def test_verify_theorem1(self, tmp_path):
        ds = gen_two_gaussians(20, centers=((-1.5, 0.0), (1.5, 0.0)), sigma=0.5, seed=4)
        model = init_mlp([2, 6, 2], "sigmoid", seed=5)
        sgd_train(model, ds, "mse", RegularizerSpec.none(2, 1),
                  TrainConfig(learning_rate=0.5, batch_size=8, max_epochs=40, seed=6))
        save_model(model, tmp_path / "m.json")
        write_delimited(ds, tmp_path / "d.csv")
        argv = ["verify", "--mode", "theorem1", "--model", str(tmp_path / "m.json"),
                "--data", str(tmp_path / "d.csv")]
        anchors = _library_defaults(verify_theorem1, "anchors_per_example")
        spelled = [*argv, "--anchors", str(anchors["anchors_per_example"]), "--class", "0"]
        reports = _same_reports(tmp_path, argv, spelled)
        assert set(reports) == {"margin.jsonl", "verify.jsonl"}


_SMALL_INT = st.integers(-3, 5).map(str)
# a data path that os.path.isfile would take as a file descriptor
_DESCRIPTOR = st.one_of(st.integers(0, 2), st.booleans())
_FLOAT_FLAGS = ("--sigma", "--noise")


def _value(draw, valid, invalid=()):
    # one draw in ten is invalid, so that most configs get past their checks
    if invalid and draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(invalid))
    return draw(st.sampled_from(valid))


def _maybe(draw, into, key, valid, invalid=()):
    # sets into[key], or leaves the key out for its default
    if draw(st.booleans()):
        into[key] = _value(draw, valid, invalid)


@st.composite
def _config(draw, command):
    """A train or gridsearch config for a small net on a few generated
    points for 1-2 epochs; any value may be invalid."""
    n_hidden = _value(draw, [1, 2], [0])
    layers = [2] + [_value(draw, [1, 3], [0, 2.5]) for _ in range(n_hidden)] + [2]
    model = {"layers": layers}
    _maybe(draw, model, "hidden_activation", ["sigmoid", "tanh", "relu", "linear"], ["cubic"])
    _maybe(draw, model, "seed", [0, 3], [-1, "x", 2.5, None, True])
    data = _value(draw, [
        {"kind": "two_gaussians", "n_per_class": 6, "sigma": 0.5},
        {"kind": "xor", "n": 12},
        {"kind": "two_moons", "n": 12},
    ], [
        {"kind": "two_gaussians", "n_per_class": 0},
        {"kind": "two_gaussians", "n_per_class": 6, "sigma": True},
        {"kind": "two_gaussians", "n_per_class": 6, "sigma": PAST_FLOAT},
        {"kind": "two_gaussians", "n_per_class": 6, "centers": [[False, 0.0], [1.0, 0.0]]},
        {"kind": "two_gaussians", "n_per_class": 6, "centers": [[PAST_FLOAT, 0.0], [1.0, NAN]]},
        {"kind": "xor", "n": -1},
        {"kind": "two_moons", "n": 12, "noise": -1.0},
        {"kind": "two_moons", "n": 12, "noise": PAST_FLOAT},
        {"kind": "spiral", "n": 12},
        {"n": 12},
        {"kind": "csv", "path": draw(_DESCRIPTOR)},
        {"kind": "idx", "images": draw(_DESCRIPTOR), "labels": "labels.idx"},
        {"kind": "idx", "images": "images.idx", "labels": draw(_DESCRIPTOR)},
    ])
    train = {"learning_rate": _value(draw, [0.1, 0.5, 1e6],
                                     [-0.5, "x", NAN, INF, True, PAST_FLOAT])}
    train["max_epochs"] = _value(draw, [1, 2], [0, 2.5, True])
    _maybe(draw, train, "batch_size", [1, 4], [0, 2.5, True])
    _maybe(draw, train, "momentum", [0.0, 0.5], [1.0, False, PAST_FLOAT])
    _maybe(draw, train, "early_stopping",
           [{"enabled": True, "patience": 1, "validation_fraction": 0.3}],
           [{"enabled": True, "patience": 0}, {"enabled": True, "patience": 2.5},
            {"enabled": True, "patience": True}, {"validation_fraction": 1.5},
            {"validation_fraction": PAST_FLOAT}])
    entries = [
        {"kind": _value(draw, ["none", "eigen_decay", "l1", "l2"], ["l3"]),
         "c": _value(draw, [0.0, 0.01, 1e8], [-1.0, NAN, INF, True, PAST_FLOAT]),
         "p": _value(draw, [1, 3], [0, 2.5, True])}
        for _ in range(len(layers) - 1 + _value(draw, [0], [-1, 1]))
    ]
    dropout = [_value(draw, [0.0, 0.3], [1.0, False, True, PAST_FLOAT]) for _ in range(n_hidden)]
    config = {"model": model, "data": data, "train": train}
    _maybe(draw, config, "loss", list(LOSS_KINDS), ["l0"])
    _maybe(draw, config, "regularizers", [{"layers": entries, "dropout": dropout}])
    if command == "gridsearch":
        grid = {"folds": _value(draw, [2, 3], [1, 2.5, True])}
        for key in ("a", "b"):
            axis = [_value(draw, [0.0, 0.01], [-1.0, NAN, INF, "x", True, PAST_FLOAT])
                    for _ in range(_value(draw, [1, 2], [0]))]
            grid[key] = _value(draw, [axis], [0.01])
        _maybe(draw, grid, "select_by", ["accuracy", "loss"], ["auc"])
        config["grid"] = grid
    # a section that is not a JSON object
    section = _value(draw, [None], ["model", "data", "train", "regularizers", "grid"])
    if section is not None:
        config[section] = [1]
    return config


@st.composite
def _argv(draw):
    """(argv, config): gendata, a verify suite, eval of a saved model on an
    IDX pair (_idx_model_pair) with --limit, or train or gridsearch on a
    generated config, with small, possibly invalid, integer arguments and
    optional extra flags, --threads among them; the float flags may also
    be nan or +-inf. config is None, or the config that --config names."""
    mode = draw(st.sampled_from(
        ["gendata", "eigencheck", "lemma1", "train", "gridsearch", "eval"]))
    config = None
    if mode == "eval":
        argv = ["eval", "--model", "model.json", "--images", "images.idx",
                "--labels", "labels.idx", "--limit", draw(_SMALL_INT)]
        optional = []
    elif mode == "gendata":
        kind = draw(st.sampled_from(["two_gaussians", "two_moons", "xor"]))
        argv = ["gendata", "--kind", kind, "--n", draw(_SMALL_INT)]
        optional = ["--sigma", "--noise", "--seed", "--threads"]
    elif mode in ("train", "gridsearch"):
        config = draw(_config(mode))
        argv = [mode, "--config", "config.json"]
        optional = ["--seed", "--epochs"]
    else:
        # --count always given: the default suites take seconds
        argv = ["verify", "--mode", mode, "--count", draw(_SMALL_INT)]
        optional = ["--seed", "--class", "--anchors", "--threads"]
    for flag in optional:
        if draw(st.booleans()):
            values = _SMALL_INT
            if flag in _FLOAT_FLAGS:
                values = st.one_of(_SMALL_INT, st.sampled_from(["nan", "inf", "-inf"]))
            argv += [flag, draw(values)]
    return argv, config


@given(_argv())
@settings(max_examples=80, deadline=None)
def test_generated_argv_ends_in_documented_exit_code(case):
    argv, config = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        if config is not None:
            path = f"{work}/config.json"
            with open(path, "w") as fh:
                json.dump(config, fh)
            argv = [path if a == "config.json" else a for a in argv]
        if argv[0] == "eval":
            _idx_model_pair(work)
            argv = [f"{work}/{a}" if a.endswith((".json", ".idx")) else a for a in argv]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main([*argv, "--out", f"{work}/out"])
            except SystemExit as exc:
                code = exc.code
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    if argv[0] == "eval":
        # every other argument is valid: the model fits the data
        assert code == (1 if int(argv[argv.index("--limit") + 1]) < 1 else 0)


# the ways _model_doc changes one layer's weights
_LAYER_KINDS = ("plain", "scaled", "zero", "rank1", "kernel", "poison")


_DROP = object()  # a mutation that deletes the field


def _mutated(draw, value):
    """value with its type or shape changed: a list and a scalar swapped,
    a list one entry shorter or longer (an integer one less or more), the
    value nested in a list, or a string, bool, null, object or missing
    field in its place."""
    kind = draw(st.sampled_from(["swap", "shorter", "longer", "nest", "string", "bool",
                                 "null", "object", "drop"]))
    is_list = isinstance(value, list)
    if kind == "swap":
        return (value[0] if value else 1.5) if is_list else [value]
    if kind in ("shorter", "longer"):
        step = -1 if kind == "shorter" else 1
        if is_list:
            return value[:-1] if step < 0 else value + value[-1:]
        return value + step if isinstance(value, int) and not isinstance(value, bool) else 0.5
    return {"nest": [value], "string": str(value), "bool": True, "null": None,
            "object": {"value": value}, "drop": _DROP}[kind]


@st.composite
def _model_doc(draw):
    """A model document for 2 inputs and 2 classes, with 1-2 hidden layers.
    Each layer may be scaled by 1e-300 to 1e300, zero, rank-1, hold rows w
    and -w (which put the all-ones power start in W W^T's kernel) or hold
    a nan or inf. The output may never change sign on the data. One
    document in three has one field of the document or of a layer
    _mutated, as MALFORMED_MODEL_DOCS' fixed cases are."""
    widths = [2] + [draw(st.integers(1, 4)) for _ in range(draw(st.integers(1, 2)))] + [2]
    activation = draw(st.sampled_from(["sigmoid", "tanh", "linear", "relu"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for k, (d, h) in enumerate(zip(widths[:-1], widths[1:])):
        w = rng.standard_normal((h, d))
        kind = draw(st.sampled_from(_LAYER_KINDS))
        if kind == "scaled":
            w *= 10.0 ** draw(st.integers(-300, 300))
        elif kind == "zero":
            w[:] = 0.0
        elif kind == "rank1":
            w = np.outer(rng.standard_normal(h), rng.standard_normal(d))
        elif kind == "kernel":
            w[1::2] = -w[0::2][:h // 2]
        elif kind == "poison":
            w.flat[draw(st.integers(0, w.size - 1))] = draw(st.sampled_from([NAN, INF, -INF]))
        bias = rng.standard_normal(h)
        if k == len(widths) - 2 and draw(st.booleans()):
            # every output's sign is its bias's, whatever the input
            w[:] = 0.0
            bias = np.array([1.0, -1.0])
        layers.append({"activation": activation if k < len(widths) - 2 else "linear",
                       "out": h, "in": d, "weights": w.reshape(-1).tolist(),
                       "bias": bias.tolist()})
    doc = {"format": "eigendecay-model", "version": 1, "layers": layers}
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(-1, len(layers) - 1))
        target = doc if k < 0 else layers[k]
        key = draw(st.sampled_from(sorted(target)))
        value = _mutated(draw, target[key])
        if value is _DROP:
            del target[key]
        else:
            target[key] = value
    return doc


_MODEL_COMMANDS = {
    "eval": ["eval", "--data", "d.csv"],
    "theorem1": ["verify", "--mode", "theorem1", "--data", "d.csv", "--anchors", "1"],
    "gradcheck": ["verify", "--mode", "gradcheck"],
}


def _tiny_model_doc():
    # every weight of a 2-8-2 sigmoid net times 1e-8: the eigen-decay
    # gradient keeps its size, while the oracle's 1e-5 step spans weights a
    # thousand times smaller, so gradcheck exits 4
    model = init_mlp([2, 8, 2], "sigmoid", seed=0)
    for layer in model.layers:
        layer.weights *= 1e-8
    return model_to_dict(model)


@given(_model_doc(), st.sampled_from(list(_MODEL_COMMANDS)))
@example(_tiny_model_doc(), "gradcheck")
@settings(max_examples=100, deadline=None)
def test_generated_model_document_ends_in_documented_exit_code(doc, command):
    err = io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    with tempfile.TemporaryDirectory() as work:
        with open(f"{work}/m.json", "w") as fh:
            json.dump(doc, fh)
        with open(f"{work}/d.csv", "w") as fh:
            fh.write("1.0,0.5,0\n-1.0,0.5,1\n0.8,-0.3,0\n-0.7,-0.2,1\n"
                     "0.3,1.0,0\n-0.2,-1.0,1\n2.0,0.1,0\n-1.5,0.4,1\n")
        argv = [f"{work}/d.csv" if a == "d.csv" else a for a in _MODEL_COMMANDS[command]]
        # warnings print as a plain run prints them, and stderr is read
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            warnings.showwarning = show
            code = main([*argv, "--model", f"{work}/m.json", "--out", f"{work}/out"])
    assert code in range(5)
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()

