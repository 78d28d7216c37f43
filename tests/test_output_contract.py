"""The benchmark's output contract: one repetition of each perfbench
workload at seed 0 gives the output fingerprint ROADMAP.md pins, and every
function perfbench/spans.py traces is still defined where it looks.
perfbench/ is imported and left as it is."""

import hashlib
import importlib
from pathlib import Path
import sys

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402

# 16-hex sha256 prefixes of RepResult.fingerprint at seed 0
SEED_0_PREFIXES = {
    "digits_epoch": "a04210ed5725839a",
    "gauss_grid": "3b6a4e92cccee52d",
    "theorem1": "aa875cf08f9a2285",
    "verify_suites": "4bb0131941741a94",
}


@pytest.mark.parametrize("name", sorted(SEED_0_PREFIXES))
def test_workload_fingerprint_at_seed_0_is_pinned(tmp_path, name):
    workload = workloads.all_workloads(ROOT)[name]
    result = workload.rep(workload.setup(0, tmp_path))
    assert result.failed == 0
    assert hashlib.sha256(result.fingerprint).hexdigest()[:16] == SEED_0_PREFIXES[name]


@pytest.mark.parametrize("module", sorted(spans.TRACED))
def test_every_traced_name_is_defined_in_its_module(module):
    mod = importlib.import_module(f"eigendecay.{module}")
    assert [name for name in spans.TRACED[module] if not callable(getattr(mod, name, None))] == []
