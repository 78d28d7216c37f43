#!/usr/bin/env python3
"""Before/after benchmark record: runs perfbench/run.py on a base revision
and on the working tree in alternating pairs and writes BENCH_<label>.json.

    python3 scripts/bench_pair.py --label NAME [--base REV]
        [--pairs 3 | --pairs gauss_grid=10,3] [--fingerprint-seeds 0,7]

The base side is the committed files of REV, extracted with `git archive`
into a temporary directory (as the benchmark gate runs them); the change
side is the working tree, which on a clean checkout is HEAD. Every run is
one of BENCHMARK.json's workloads at seed 0 for its run_seconds.
Within a pair the side that runs first alternates. For every workload the
record holds each end-to-end metric's median and quartiles per side, how
many pairs the change won, each side's timed repetitions per run, and each
side's sha256 of every workload's output fingerprint per seed, so byte
identity can be read off the file.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_VERSION = 1
SEED = 0

# Runs one repetition of each workload from a checkout and prints the
# sha256 of its output fingerprint; argv: root, seed.
FINGERPRINT_CODE = """
import hashlib, json, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
import workloads
out = {}
for name, workload in workloads.all_workloads(root).items():
    with tempfile.TemporaryDirectory() as work:
        result = workload.rep(workload.setup(int(sys.argv[2]), work))
    out[name] = hashlib.sha256(result.fingerprint).hexdigest()
print(json.dumps(out))
"""


def read_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names():
    """The benchmark's workloads, in BENCHMARK.json's order."""
    return tuple(w["name"] for w in read_benchmark()["workloads"])


def parse_pairs(spec):
    """'3' or 'gauss_grid=10,3': pairs per workload, a bare number being
    the default for the rest; the keys are in BENCHMARK.json's order."""
    workloads = workload_names()
    default, per = None, {}
    for item in spec.split(","):
        name, sep, count = item.partition("=")
        if sep:
            if name not in workloads:
                raise ValueError(f"unknown workload {name!r}")
            per[name] = int(count)
        else:
            default = int(name)
    if default is None and len(per) < len(workloads):
        raise ValueError("give a default pair count for the other workloads")
    counts = {w: per.get(w, default) for w in workloads}
    if any(c < 1 for c in counts.values()):
        raise ValueError("pair counts must be >= 1")
    return counts


def parse_run_output(stdout):
    """The result object run.py prints last, its env line, and the number
    of timed repetitions its timing line gives (None without one)."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(l[len("env "):]) for l in lines if l.startswith("env ")), {})
    reps = next((int(l.split()[1]) for l in lines if l.startswith("timing ")), None)
    return json.loads(lines[-1]), env, reps


def quartiles(values):
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs, end_to_end):
    """Per-metric statistics of one workload.

    pairs: [(base_result, change_result)], each run.py's result object.
    end_to_end: BENCHMARK.json's metric list (name, unit, better).
    """
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        sides = {}
        for k, side in enumerate(("base", "change")):
            runs = [pair[k]["metrics"][name]["value"] for pair in pairs]
            q1, median, q3 = quartiles(runs)
            sides[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        won = sum(
            sign * (c["metrics"][name]["value"] - b["metrics"][name]["value"]) > 0
            for b, c in pairs
        )
        base_median = sides["base"]["median"]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **sides,
            "change_over_base": sides["change"]["median"] / base_median
            if base_median else None,
            "pairs_change_better": won,
        }
    return out


def workload_record(pairs, repetitions, end_to_end):
    """One workload's record. pairs as summarize takes them; repetitions
    maps each side to its runs' timed repetition counts, in pair order.
    run.py keeps every repetition's fingerprint, so peak_rss_mb grows with
    the count and reads against it."""
    return {
        "pairs": len(pairs),
        "correct": {side: all(p[k]["correct"] for p in pairs)
                    for k, side in enumerate(("base", "change"))},
        "repetitions": repetitions,
        "metrics": summarize(pairs, end_to_end),
    }


def extract(rev, into):
    """The committed files of rev under the directory into."""
    archive = Path(into) / "src.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=fh,
                       check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return Path(into)


def commit_of(rev):
    return subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def run_bench(root, workload, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    return parse_run_output(proc.stdout)


def fingerprints(root, seed):
    proc = subprocess.run([sys.executable, "-c", FINGERPRINT_CODE, str(root), str(seed)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", default="3", type=parse_pairs)
    parser.add_argument("--fingerprint-seeds", default="0,7")
    args = parser.parse_args(argv)

    bench = read_benchmark()
    seconds = bench["run_seconds"]
    fp_seeds = [int(s) for s in args.fingerprint_seeds.split(",")]
    with tempfile.TemporaryDirectory() as base_dir:
        roots = {"base": extract(args.base, base_dir), "change": ROOT}
        record = {
            "schema_version": SCHEMA_VERSION,
            "label": args.label,
            "base": {"rev": args.base, "commit": commit_of(args.base)},
            "change": {"rev": "working tree", "commit": commit_of("HEAD")},
            "run_seconds": seconds,
            "seed": SEED,
            "host": None,
            "workloads": {},
        }
        for name in args.pairs:
            pairs = []
            repetitions = {"base": [], "change": []}
            for i in range(args.pairs[name]):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                got = {}
                for side in order:
                    got[side], env, reps = run_bench(roots[side], name, seconds)
                    repetitions[side].append(reps)
                    record[side]["source_sha256"] = env.get("source_sha256")
                    print(f"{name} pair {i + 1}/{args.pairs[name]} {side}: "
                          f"correct={got[side]['correct']}", file=sys.stderr, flush=True)
                record["host"] = record["host"] or {
                    k: env.get(k) for k in ("nproc", "affinity_cpus", "python", "numpy",
                                            "blas", "blas_version", "blas_threads")}
                pairs.append((got["base"], got["change"]))
            record["workloads"][name] = workload_record(
                pairs, repetitions, bench["end_to_end"])
        prints = {side: {str(s): fingerprints(roots[side], s) for s in fp_seeds}
                  for side in roots}
        for name in args.pairs:
            record["workloads"][name]["fingerprint_sha256"] = {
                side: {seed: fp[name] for seed, fp in prints[side].items()}
                for side in prints}
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
