"""Alternating benchmark pairs of two source trees, each with a CPU-grant probe.

    python3 tools/bench_pairs.py --parent <tree> --change <tree> \\
        --workload daily_jump --seed 1 --pairs 10 --output pairs.json

Each pair runs `python3 bench/run.py --workload W --seed S --seconds T` once
in each tree, one run at a time: odd pairs run the parent first, even pairs
the change first.  Before each pair the probe times a fixed fill of SFC64
normals in one process alone and then in two processes side by side.  The
ratio side/alone reads about 1 while the host grants the process tree two
CPUs and about 2 while it grants one, so the time metrics of a pair can be
read against the CPUs the host gave it.  Only `bench/run.py` of each tree is
run; nothing under `bench/` is changed.  The output is one JSON object with
every run, every probe, and per metric the medians, quartiles, the parent's
interquartile range and the number of pairs the change won, over all pairs
and again over the pairs whose probe read two CPUs and those that read one.
A run that is not correct or that failed an operation is refused: no
medians are written.

    python3 tools/bench_pairs.py --probe

prints one probe.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# The child fills PROBE_FILLS arrays of PROBE_SIZE normals after the parent
# starts it, and prints its own elapsed seconds (interpreter start-up and the
# numpy import are not timed).
PROBE_SIZE = 1 << 16
PROBE_FILLS = 400
_PROBE_CHILD = f"""
import sys, time
import numpy as np
gen = np.random.Generator(np.random.SFC64(1))
out = np.empty({PROBE_SIZE})
print("ready", flush=True)
sys.stdin.readline()
start = time.perf_counter()
for _ in range({PROBE_FILLS}):
    gen.standard_normal(out=out)
print(time.perf_counter() - start, flush=True)
"""
METRICS = ("setup_s", "total_s", "sweeps_per_s", "peak_rss_mb")
LOWER_IS_BETTER = {"setup_s": True, "total_s": True, "sweeps_per_s": False, "peak_rss_mb": True}
# A probe's side/alone ratio at or above this reads as one CPU granted: it
# lies between the ~1 of two CPUs and the ~2 of one.
ONE_CPU_RATIO = 1.5


def _fill_seconds(count: int) -> list[float]:
    """Start count probe children, release them together, return their fill times."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    procs = [subprocess.Popen([sys.executable, "-c", _PROBE_CHILD], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True, env=env)
             for _ in range(count)]
    try:
        for proc in procs:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("probe child failed to start")
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return [float(proc.communicate()[0]) for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


def cpu_grant_probe() -> dict:
    """Fill seconds alone and side by side; side/alone near 2 means one CPU."""
    alone = _fill_seconds(1)[0]
    side = max(_fill_seconds(2))
    return {"alone_s": round(alone, 4), "side_by_side_s": round(side, 4),
            "side_over_alone": round(side / alone, 3)}


def bench_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS}}


def _quartiles(values: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [round(q1, 4), round(q3, 4)]


def summarize(pairs: list[dict]) -> dict:
    """Per metric: medians, quartiles, the parent's IQR and the pairs the change won.

    Ties count for neither side.  Raises ValueError, naming the pair and the
    side, if any run is not correct or failed an operation.
    """
    for p in pairs:
        for side in ("parent", "change"):
            run = p[side]
            if not run["correct"] or run["failed"] > 0:
                raise ValueError(f"pair {p['pair']}, {side}: correct={run['correct']}, "
                                 f"failed={run['failed']} of {run['attempted']}")
    metrics = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if LOWER_IS_BETTER[name] else -1
        pq = _quartiles(parent)
        metrics[name] = {
            "parent_median": round(statistics.median(parent), 4),
            "change_median": round(statistics.median(change), 4),
            "parent_quartiles": pq,
            "change_quartiles": _quartiles(change),
            "parent_iqr": round(pq[1] - pq[0], 4),
            "change_better_in": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        }
    return metrics


def by_cpu_grant(pairs: list[dict]) -> dict:
    """The pairs whose probe read two CPUs granted and those that read one, with
    summarize() of each group of at least two pairs."""
    groups = {"two_cpus": [], "one_cpu": []}
    for p in pairs:
        one = p["cpu_probe"]["side_over_alone"] >= ONE_CPU_RATIO
        groups["one_cpu" if one else "two_cpus"].append(p)
    return {grant: {"pairs": [p["pair"] for p in group],
                    **({"metrics": summarize(group)} if len(group) >= 2 else {})}
            for grant, group in groups.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="print one CPU-grant probe")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--output")
    args = parser.parse_args()
    if args.probe:
        print(json.dumps(cpu_grant_probe()))
        return 0
    if not (args.parent and args.change and args.workload and args.output and args.pairs >= 2):
        parser.error("--parent, --change, --workload, --output and --pairs >= 2 are required")
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i in range(1, args.pairs + 1):
        pair = {"pair": i, "cpu_probe": cpu_grant_probe()}
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            pair[side] = bench_run(trees[side], args.workload, args.seed, args.seconds)
        pairs.append(pair)
        print(json.dumps(pair), file=sys.stderr, flush=True)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "pairs": args.pairs, "order": "odd pairs parent first, even pairs change first",
              "metrics": summarize(pairs), "by_cpu_grant": by_cpu_grant(pairs), "runs": pairs}
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
