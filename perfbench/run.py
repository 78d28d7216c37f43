"""Closed-loop benchmark of eigendecay: one caller, one call in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
src/ directory. The workload's inputs are made from --seed. setup_s is the
median time for a fresh interpreter to import the program plus the median
of three set-ups of the workload, in plain seconds: the import did not slow
when the reference kernels of perfbench/refclock.py did. The workload is
then repeated for at least S seconds and at least three times, and every
repetition is checked: its outputs must repeat exactly and pass the
workload's own acceptance checks.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics. Repetition times are gated in reference-kernel durations ("refs",
perfbench/refclock.py), which divide out the host's changing speed; the
plain seconds are printed beside them. With --trace 1 untraced repetitions
alternate with traced ones, in which the program's public functions are
wrapped (perfbench/spans.py), and the JSON holds per-layer call counts and
self times per repetition instead; the spans are written to
.perfbench_out/spans-<workload>.npz.
Human-readable lines, including the environment, come first.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
from pathlib import Path
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("digits_epoch", "gauss_grid", "theorem1", "verify_suites")
SETUP_REPEATS = 3
IMPORT_PROBES = 5
MIN_REPS = 3
MIN_TRACED_REPS = 2
E2E_UNITS = {"setup_s": "s", "wall_refs": "ref", "cpu_refs": "ref", "peak_rss_mb": "MiB",
             "items_per_kref": "1/kref", "ok_ratio": "ratio"}
RATIOS = ("grad.penalty_share", "margin.forward_calls_per_point", "trace.overhead_ratio")


def per_layer_names():
    from spans import TRACED

    names = [f"{mod}.{fn}.{kind}" for mod, fns in TRACED.items() for fn in fns
             for kind in ("calls", "self_s", "total_s")]
    return names + [f"{mod}.self_s" for mod in TRACED] + list(RATIOS)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def blas_info(np):
    """BLAS build and, for numpy's bundled OpenBLAS, its thread count."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": None}
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "libscipy_openblas*")):
        threads = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if threads is not None:
            threads.restype = ctypes.c_int
            info["blas_threads"] = threads()
    return info


def git_commit():
    """The checked-out commit, or None outside a git working tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    branch = ROOT / ".git" / ref[len("ref: "):]
    return branch.read_text().strip() if branch.is_file() else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "eigendecay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(np, args):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas_info(np),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "EIGENDECAY_THREADS": os.environ.get("EIGENDECAY_THREADS"),
    }


def import_seconds():
    """Median wall time for a fresh interpreter to start and import the
    whole program."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_PROBES):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import eigendecay.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - began)
    return statistics.median(times)


def tail_percentile(samples):
    """(q, value) for the highest percentile with at least ten samples
    beyond it, or None when there are fewer than twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    q = 100 * (n - 10) // n
    return q, statistics.quantiles(samples, n=100)[q - 1]


def run_rep(workload, state):
    """One repetition; one that raises is reported as one failed operation."""
    from workloads import RepResult

    try:
        return workload.rep(state)
    except Exception as exc:  # reported as a failed operation
        traceback.print_exc()
        return RepResult(0, 1, 1, b"", {"error": repr(exc)})


def run_checks(workload, state, reps):
    errors = [r.info["error"] for r in reps if "error" in r.info]
    fingerprints = {r.fingerprint for r in reps}
    checks = [
        ("no_errors", not errors, "; ".join(errors) or f"{len(reps)} repetitions"),
        ("outputs_repeat", len(fingerprints) == 1,
         f"{len(fingerprints)} distinct outputs over {len(reps)} repetitions"),
    ]
    if not errors:
        checks += workload.checks(state, reps)
    return checks


def tally(reps, checks):
    """(attempted, failed) operations: repetition work plus the checks."""
    attempted = sum(r.attempted for r in reps) + len(checks)
    failed = sum(r.failed for r in reps) + sum(not ok for _, ok, _ in checks)
    return attempted, failed


def e2e_metrics(reps, clocks, setup_s, checks):
    """The gated metrics. Repetition times are medians in refs: on a shared
    host, slow phases of up to twice the time, lasting from a fraction of a
    second to minutes, spread even the fastest repetition of a run by 30 to
    40% between runs, and the reference kernel slows with them."""
    wall_refs = statistics.median(c.wall_refs for c in clocks)
    attempted, failed = tally(reps, checks)
    values = {
        "setup_s": setup_s,
        "wall_refs": wall_refs,
        "cpu_refs": statistics.median(c.cpu_refs for c in clocks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_per_kref": 1000 * reps[0].items / wall_refs,
        "ok_ratio": 1.0 - failed / attempted,
    }
    return {name: (values[name], unit) for name, unit in E2E_UNITS.items()}


def layer_metrics(tracer, bounds, traced_walls, untraced_walls):
    """Per-repetition layer metrics from the traced repetitions' spans."""
    import numpy as np
    from spans import TRACED

    per_rep = [tracer.stats(lo, hi) for lo, hi in bounds]
    index = {name: k for k, name in enumerate(tracer.names)}
    metrics = {}
    for name, k in index.items():
        metrics[f"{name}.calls"] = (int(per_rep[0][0][k]), "count")
        metrics[f"{name}.self_s"] = (statistics.median(s[1][k] for s in per_rep), "s")
        metrics[f"{name}.total_s"] = (statistics.median(s[2][k] for s in per_rep), "s")
    for module, fns in TRACED.items():
        ks = [index[f"{module}.{fn}"] for fn in fns]
        rollups = (float(np.sum(s[1][ks])) for s in per_rep)
        metrics[f"{module}.self_s"] = (statistics.median(rollups), "s")

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["grad.penalty_share"] = (statistics.median(
        ratio(s[2][index["grad.eigen_decay_gradient"]], s[2][index["grad.backward"]])
        for s in per_rep), "ratio")
    metrics["margin.forward_calls_per_point"] = (statistics.median(
        ratio(s[0][index["model.forward"]], s[0][index["margin.find_surface_point"]])
        for s in per_rep), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced_walls) / statistics.median(untraced_walls), "ratio")
    repeat = all(np.array_equal(s[0], per_rep[0][0]) for s in per_rep)
    return metrics, repeat


def measure(workload, state, args):
    from refclock import RefClock
    from spans import installed_wrappers

    found = installed_wrappers()
    if found:
        raise RuntimeError(f"untraced run found tracing wrappers: {found}")
    reps, clocks = [], []
    began = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - began < args.seconds:
        with RefClock(workload.reference_kernel) as clock:
            result = run_rep(workload, state)
        reps.append(result)
        clocks.append(clock)
        if "error" in result.info:
            break
    return reps, clocks, run_checks(workload, state, reps)


def measure_traced(workload, state, args, out_dir):
    """Alternate untraced and traced repetitions, so both see the same
    host conditions; their median ratio is the tracing overhead."""
    import numpy as np
    from spans import Tracer, installed_wrappers

    tracer = Tracer()
    reps, bounds, untraced_walls, traced_walls = [], [], [], []
    began = time.perf_counter()
    while not any("error" in r.info for r in reps) and (
        len(bounds) < MIN_TRACED_REPS or time.perf_counter() - began < args.seconds
    ):
        began_rep = time.perf_counter()
        reps.append(run_rep(workload, state))
        untraced_walls.append(time.perf_counter() - began_rep)
        lo = len(tracer)
        with tracer:
            began_rep = time.perf_counter()
            reps.append(run_rep(workload, state))
            traced_walls.append(time.perf_counter() - began_rep)
        bounds.append((lo, len(tracer)))
    checks = run_checks(workload, state, reps)
    metrics, repeat = layer_metrics(tracer, bounds, traced_walls, untraced_walls)
    leftover = installed_wrappers()
    checks += [
        ("calls_repeat", repeat, f"call counts over {len(bounds)} traced repetitions"),
        ("wrappers_removed", not leftover, f"{len(leftover)} wrappers left installed"),
    ]
    np.savez(out_dir / f"spans-{workload.name}.npz", **tracer.spans(),
             rep_bounds=np.array(bounds))
    return reps, metrics, checks


def emit(env, lines, checks, reps, metrics):
    attempted, failed = tally(reps, checks)
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for name, ok, detail in checks:
        print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "eigendecay" / "__init__.py").is_file():
        print(f"no eigendecay sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # the default of one worker thread is what gets measured
    os.environ.pop("EIGENDECAY_THREADS", None)
    sys.path.insert(0, str(SRC))
    import numpy as np
    from workloads import all_workloads

    import_s = import_seconds()

    workload = all_workloads(ROOT)[args.workload]
    out_dir = ROOT / ".perfbench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        state = None
        for _ in range(SETUP_REPEATS):
            state = None
            began = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            setup_times.append(time.perf_counter() - began)
        setup_s = import_s + statistics.median(setup_times)
        if args.trace:
            reps, metrics, checks = measure_traced(workload, state, args, out_dir)
            lines = [f"trace {len(reps) // 2} traced repetitions alternating with untraced ones; "
                     f"spans in {out_dir / ('spans-' + args.workload + '.npz')}"]
        else:
            reps, clocks, checks = measure(workload, state, args)
            metrics = e2e_metrics(reps, clocks, setup_s, checks)
            lines = [f"metric {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
            walls = [c.wall_s for c in clocks]
            wall_s = statistics.median(walls)
            tail = tail_percentile(walls)
            lines += [
                f"timing {len(walls)} repetitions, medians; setup_s = imports {import_s:.4f} s "
                f"(median of {IMPORT_PROBES} fresh interpreters) + median of "
                f"{SETUP_REPEATS} set-ups; the reference kernel took "
                f"{statistics.median(c.kernel_s for c in clocks) * 1e3:.4g} ms, sampled "
                f"{statistics.median(c.samples for c in clocks):g} times a repetition",
                f"metric wall_s {wall_s:.6g} s (median"
                + (f"; p{tail[0]} {tail[1]:.6g} s)" if tail else ")"),
                f"metric cpu_s {statistics.median(c.cpu_s for c in clocks):.6g} s (median)",
                f"metric {workload.unit_name} {reps[0].items / wall_s:.6g} 1/s (at the median)",
                f"metric failed_ratio {1.0 - metrics['ok_ratio'][0]:.6g} ratio",
            ]
            if "accuracy" in reps[0].info:
                lines.append(f"metric accuracy {reps[0].info['accuracy']:.6g} ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(environment(np, args), lines, checks, reps, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
