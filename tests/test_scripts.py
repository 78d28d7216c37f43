"""Smoke runs of the demo scripts under scripts/, each as a subprocess."""

import json
from pathlib import Path
import subprocess
import sys

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
