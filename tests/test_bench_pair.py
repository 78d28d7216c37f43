"""scripts/bench_pair.py's parsing and aggregation, on canned run.py
outputs; the benchmark itself is never run here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pair", ROOT / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

END_TO_END = [
    {"name": "wall_refs", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "items_per_kref", "unit": "1/kref", "better": "higher", "bound": 0.25},
]


def _result(wall_refs, items_per_kref, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0 if correct else 1,
        "metrics": {"wall_refs": {"value": wall_refs, "unit": "ref"},
                    "items_per_kref": {"value": items_per_kref, "unit": "1/kref"}},
    }


def test_parse_run_output_takes_the_last_line_and_the_env():
    result = _result(4000.0, 15000.0)
    stdout = "\n".join([
        'env {"nproc": 2, "source_sha256": "abc"}',
        "metric wall_refs 4000 ref",
        "check outputs_repeat: PASS (1 distinct outputs over 9 repetitions)",
        json.dumps(result),
    ])
    parsed, env = bench_pair.parse_run_output(stdout + "\n")
    assert parsed == result
    assert env == {"nproc": 2, "source_sha256": "abc"}


def test_summarize_medians_quartiles_and_pairs_won():
    pairs = [
        (_result(4000.0, 15000.0), _result(1000.0, 60000.0)),
        (_result(4200.0, 14000.0), _result(1100.0, 54000.0)),
        (_result(3800.0, 16000.0), _result(5000.0, 12000.0)),
        (_result(4100.0, 14500.0), _result(1050.0, 57000.0)),
    ]
    stats = bench_pair.summarize(pairs, END_TO_END)
    wall = stats["wall_refs"]
    assert wall["base"]["runs"] == [4000.0, 4200.0, 3800.0, 4100.0]
    assert wall["base"]["median"] == 4050.0
    # inclusive quartiles of 3800, 4000, 4100, 4200
    assert (wall["base"]["q1"], wall["base"]["q3"]) == (3950.0, 4125.0)
    assert wall["change"]["median"] == 1075.0
    assert wall["change_over_base"] == pytest.approx(1075.0 / 4050.0)
    # lower is better for wall_refs, higher for items_per_kref
    assert wall["pairs_change_better"] == 3
    assert stats["items_per_kref"]["pairs_change_better"] == 3
    assert stats["items_per_kref"]["better"] == "higher"
    assert stats["items_per_kref"]["unit"] == "1/kref"


def test_summarize_one_pair_and_ties():
    stats = bench_pair.summarize([(_result(10.0, 5.0), _result(10.0, 5.0))], END_TO_END)
    for name in ("wall_refs", "items_per_kref"):
        side = stats[name]["change"]
        assert side["q1"] == side["median"] == side["q3"]
        assert stats[name]["pairs_change_better"] == 0
        assert stats[name]["change_over_base"] == 1.0


def test_parse_pairs():
    assert bench_pair.parse_pairs("3") == dict.fromkeys(bench_pair.WORKLOADS, 3)
    counts = bench_pair.parse_pairs("gauss_grid=10,2")
    assert counts["gauss_grid"] == 10
    assert counts["theorem1"] == 2
    for bad in ("gauss_grid=10", "nope=3,2", "0"):
        with pytest.raises(ValueError):
            bench_pair.parse_pairs(bad)
