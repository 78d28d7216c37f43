"""Smoke runs of the demo scripts under scripts/, each as a subprocess, and
their argument checks, in process."""

import json
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from conftest import load_script, write_idx

from eigendecay.data import Dataset

ROOT = Path(__file__).resolve().parent.parent


def test_run_two_gaussians_prints_both_runs_and_writes_its_margin_report(tmp_path):
    out = tmp_path / "margin.jsonl"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_two_gaussians.py"), "--epochs", "3",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    results = [line.split()[0] for line in done.stdout.splitlines() if "test acc" in line]
    assert results == ["plain", "eigen-decay"]
    header, *reports = (json.loads(line) for line in out.read_text().splitlines())
    assert header["kind"] == "margin_report"
    assert reports and all("margin" in r for r in reports)


def _run_mnist(data_dir, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_mnist.py"), "--data-dir", str(data_dir),
         *args],
        capture_output=True, text=True, timeout=120,
    )


def test_run_mnist_runs_its_grid_and_seed_runs_on_synthetic_digits(tmp_path):
    # 80 training and 40 test images of uniform noise, 28 x 28, ten classes
    rng = np.random.default_rng(0)
    for prefix, n in (("train", 80), ("t10k", 40)):
        digits = Dataset.from_arrays(rng.uniform(0.0, 1.0, (n, 784)), np.arange(n) % 10, 10)
        write_idx(digits, tmp_path / f"{prefix}-images-idx3-ubyte",
                  tmp_path / f"{prefix}-labels-idx1-ubyte", 28, 28)
    done = _run_mnist(tmp_path, "--subset", "60", "--epochs", "1", "--cv-epochs", "1",
                      "--seeds", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "train subset 60, test 40"
    assert lines[1].startswith("grid search: selected (")
    runs = [line.split()[:3] for line in lines if "test acc" in line]
    assert runs == [["seed", "0", "dropout"], ["seed", "0", "dropout+ed"]]
    # results on stdout, the timing on stderr
    assert "s/epoch" not in done.stdout and "overhead" not in done.stdout
    timing = done.stderr.splitlines()
    assert timing[0].startswith("grid search: ") and timing[0].endswith("s")
    assert timing[-1].startswith("eigenvalue-penalty epoch-time overhead: ")


def test_run_mnist_without_its_files_exits_1(tmp_path):
    done = _run_mnist(tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"no IDX files under {tmp_path}; run scripts/fetch_mnist.py first\n"


@pytest.mark.parametrize("script, flags", [
    ("run_mnist", ["--seeds", "0"]),
    ("run_mnist", ["--epochs", "0"]),
    ("run_mnist", ["--cv-epochs", "0"]),
    ("run_mnist", ["--subset", "0"]),
    ("run_two_gaussians", ["--epochs", "0"]),
    ("run_two_gaussians", ["--seed", "-1"]),
    ("run_two_gaussians", ["--penalty", "-1"]),
    ("run_two_gaussians", ["--penalty", "nan"]),
    ("run_two_gaussians", ["--penalty", "0"]),
    ("run_two_gaussians", ["--penalty", "inf"]),
], ids=lambda v: v if isinstance(v, str) else "=".join(v))
def test_scripts_refuse_a_bad_flag_before_any_work(tmp_path, capsys, monkeypatch, script,
                                                   flags):
    # past its flags, run_mnist would exit 1 on the empty data dir and
    # run_two_gaussians would train
    data = ["--data-dir", str(tmp_path)] if script == "run_mnist" else []
    monkeypatch.setattr(sys, "argv", [f"{script}.py", *flags, *data])
    with pytest.raises(SystemExit) as exited:
        load_script(script).main()
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, *_, error = err.splitlines()
    assert usage.startswith(f"usage: {script}.py ")
    assert error.startswith(f"{script}.py: error: argument {flags[0]}: ")
