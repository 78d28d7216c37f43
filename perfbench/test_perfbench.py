"""Tests of the benchmark itself: span arithmetic, alias-complete wrapping,
call counts that repeat, reference-kernel timing, and BENCHMARK.json
agreeing with what run.py reports.

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path
import sys

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from eigendecay import data, grad, margin, model, objectives, train, verify  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_span_stats_on_a_known_tree():
    # a: 0..10 with children b: 1..4 (child c: 2..3) and b again: 5..9,
    # then a root-level c: 12..13
    names = np.array([0, 1, 2, 1, 2], dtype=np.int32)
    parents = np.array([-1, 0, 1, 0, -1], dtype=np.int32)
    starts = np.array([0.0, 1.0, 2.0, 5.0, 12.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0, 13.0])
    calls, self_s, total_s = spans.span_stats(3, names, parents, starts, ends)
    assert calls.tolist() == [1, 2, 2]
    assert self_s.tolist() == [10.0 - 3.0 - 4.0, (3.0 - 1.0) + 4.0, 1.0 + 1.0]
    assert total_s.tolist() == [10.0, 7.0, 2.0]
    # self times partition the root intervals
    assert self_s.sum() == 10.0 + 1.0


def test_span_stats_counts_recursion_once_in_total():
    names = np.array([0, 0, 1], dtype=np.int32)
    parents = np.array([-1, 0, 1], dtype=np.int32)
    starts = np.array([0.0, 1.0, 2.0])
    ends = np.array([6.0, 5.0, 3.0])
    calls, self_s, total_s = spans.span_stats(2, names, parents, starts, ends)
    assert calls.tolist() == [2, 1]
    assert self_s.tolist() == [2.0 + 3.0, 1.0]
    assert total_s.tolist() == [6.0, 1.0]


def test_tracer_nests_spans_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    net = model.init_mlp([2, 3, 2], "sigmoid", seed=0)
    dataset = data.Dataset.from_arrays(
        np.random.default_rng(0).standard_normal((8, 2)), np.arange(8) % 2, 2
    )
    with tracer:
        train.evaluate(net, dataset)
    calls, self_s, total_s = tracer.stats()
    names = tracer.names
    counted = {names[k]: int(c) for k, c in enumerate(calls) if c}
    assert counted == {"train.evaluate": 1, "model.forward_batch": 1, "objectives.loss_batch": 1}
    # every clock read is one tick; evaluate opens at 0 and closes last
    k = names.index("train.evaluate")
    assert total_s[k] == 5.0 and self_s[k] == 3.0


def test_wrapping_reaches_every_alias_and_is_undone():
    originals = {
        "train.backward": train.backward,
        "grad.backward": grad.backward,
        "verify.backward": verify.backward,
        "margin.forward_batch": margin.forward_batch,
        "objectives.forward_batch": objectives.forward_batch,
    }
    assert originals["train.backward"] is originals["grad.backward"]
    with spans.Tracer():
        assert train.backward is grad.backward is verify.backward
        assert getattr(train.backward, spans.MARKER) == "grad.backward"
        for mod in (grad, margin, objectives, train, verify):
            assert getattr(mod.forward_batch, spans.MARKER) == "model.forward_batch"
        assert getattr(model.forward_batch, spans.MARKER) == "model.forward_batch"
        assert spans.installed_wrappers()
    assert not spans.installed_wrappers()
    assert train.backward is originals["train.backward"]
    assert margin.forward_batch is originals["margin.forward_batch"]


def test_untraced_run_refuses_installed_wrappers():
    args = run.parse_args(["--workload", "verify_suites", "--seed", "0",
                           "--seconds", "0", "--trace", "0"])
    with spans.Tracer(), pytest.raises(RuntimeError, match="tracing wrappers"):
        run.measure(workloads.VerifySuites(), {"seed": 0}, args)


def test_every_traced_function_is_called_and_counts_repeat(tmp_path):
    called = np.zeros(len(spans.Tracer().names), dtype=np.int64)
    for name, workload in workloads.all_workloads(ROOT).items():
        state = workload.setup(3, tmp_path)
        tracer = spans.Tracer()
        bounds = []
        with tracer:
            for _ in range(2):
                lo = len(tracer)
                workload.rep(state)
                bounds.append((lo, len(tracer)))
        first, second = (tracer.stats(lo, hi)[0] for lo, hi in bounds)
        assert np.array_equal(first, second), name
        called += first
    never = [n for n, c in zip(spans.Tracer().names, called) if c == 0]
    assert never == []


def test_refs_divide_out_a_uniform_slowdown():
    # five samples, each entering the handler 1 s after the last one left;
    # the kernel takes 0.1 s. The second run is a host twice as slow.
    def samples(scale):
        entries, starts, ends, wall_ends = [], [], [], []
        t = 0.0
        for _ in range(5):
            entries.append(t)
            starts.append(t + 0.1 * scale)  # the warm-up call
            ends.append(t + 0.2 * scale)
            wall_ends.append(t + 0.2 * scale)
            t += 0.2 * scale + 1.0 * scale
        cpu = [0.5 * x for x in entries], [0.5 * x for x in wall_ends]
        return entries, starts, ends, wall_ends, *cpu

    for scale in (1.0, 2.0):
        entries, starts, ends, wall_ends, cpu_entries, cpu_ends = samples(scale)
        wall_refs, cpu_refs = refclock.refs_between(
            entries, starts, ends, wall_ends, cpu_entries, cpu_ends)
        assert wall_refs == pytest.approx(4 * 10.0)
        assert cpu_refs == pytest.approx(4 * 5.0)


def test_refs_follow_the_kernel_speed_of_each_stretch():
    # the kernel slows from 1 to 3 s at sample 4 of 8; with a window of two
    # samples a side, stretch k takes the median of samples k-1 .. k+2
    kernel = [1.0] * 4 + [3.0] * 4
    entries, starts, ends, wall_ends = [], [], [], []
    t = 0.0
    for duration in kernel:
        entries.append(t)
        starts.append(t)
        ends.append(t + duration)
        wall_ends.append(t + duration)
        t += duration + 6.0
    wall_refs, _ = refclock.refs_between(entries, starts, ends, wall_ends,
                                         entries, wall_ends)
    medians = [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
    assert wall_refs == pytest.approx(sum(6.0 / m for m in medians))


def test_refclock_leaves_out_its_own_time_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock(refclock.small_ops, period=0.01) as clock:
        time.sleep(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.samples >= 5
    assert clock.wall_s == pytest.approx(0.2, abs=0.02)
    assert clock.cpu_s < 0.05
    assert clock.wall_refs == pytest.approx(clock.wall_s / clock.kernel_s, rel=0.5)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
