"""Smoke runs of the demo scripts under scripts/, each as a subprocess."""

import json
from pathlib import Path
import subprocess
import sys

import numpy as np

from conftest import write_idx

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
    assert lines[1].startswith("grid search (") and "selected (" in lines[1]
    runs = [line.split()[:3] for line in lines if "test acc" in line]
    assert runs == [["seed", "0", "dropout"], ["seed", "0", "dropout+ed"]]


def test_run_mnist_without_its_files_exits_1(tmp_path):
    done = _run_mnist(tmp_path)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == f"no IDX files under {tmp_path}; run scripts/fetch_mnist.py first\n"
