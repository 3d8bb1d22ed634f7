"""Benchmark for jumpvol: one command, three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload daily_jump --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload short_batch --seed 1 --repeat 5
    python3 bench/run.py --smoke

A run starts fresh single-threaded worker processes one after another:
PROBES set-up probes (import and input generation only) and then the
measuring worker.  setup_s is the median over all of them.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
Workers write only under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import checks

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
CONFIG = os.path.join(ROOT, "BENCHMARK.json")
PROBES = 2
# Seconds per repetition of the calibration kernel at the reference speed
# (this 2-core sandbox on a quiet minute, numpy 2.4); end-to-end times are
# reported at that speed, see README.
CALIBRATION_REF_REP_S = 6.0e-4
RUN_TIMEOUT_S = 170.0
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def load_config() -> dict:
    with open(CONFIG, encoding="utf-8") as fh:
        return json.load(fh)


def _tree_rss_bytes(root_pid: int) -> int:
    """Resident memory of root_pid and all its descendants, from /proc."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in tree:
                tree.add(child)
                frontier.append(child)
    total = 0
    for pid in tree:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1]) * 1024
                        break
        except OSError:
            continue
    return total


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 probe: bool, smoke: bool, workdir: str, deadline: float) -> dict:
    """Start one worker, sample its process tree's memory, return its JSON."""
    env = dict(os.environ, **SINGLE_THREAD_ENV)
    env.pop("PYTHONPATH", None)
    spawned_at = time.monotonic()
    argv = [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(spawned_at), "--workdir", workdir,
    ] + (["--probe"] if probe else []) + (["--smoke"] if smoke else [])
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    peak = [0]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(0.1):
            peak[0] = max(peak[0], _tree_rss_bytes(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        stop.set()
        sampler.join()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{err.strip()[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed nothing:\n{err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["tree_peak_mb"] = peak[0] / 1e6
    return result


def measure(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, probes: int = PROBES) -> dict:
    """One benchmark run; returns the result object that run.py prints."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = os.path.join(OUT_DIR, f"work-{workload}-{os.getpid()}")
    try:
        setups = []  # (seconds, calibration seconds per repetition) of each set-up
        if not trace:
            for i in range(probes):
                probe = spawn_worker(workload, seed, 0, 0, True, smoke,
                                     os.path.join(workdir, f"probe{i}"), deadline)
                setups.append((probe["setup_s"], probe["setup_rep_s"]))
        res = spawn_worker(workload, seed, seconds, trace, False, smoke,
                           os.path.join(workdir, "run"), deadline)
        setups.append((res["setup_s"], res["setup_rep_s"]))
        res["failures"] += checks.verify(os.path.join(workdir, "run", "reports"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in res["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    scale = CALIBRATION_REF_REP_S / res["calibration_rep_s"]
    print(f"{workload}: seed {seed}, operation seconds per untraced round "
          f"{[round(s, 3) for s in res['round_s']]}, calibration "
          f"{res['calibration_rep_s'] * 1e6:.2f} us per repetition (time scale {scale:.4f}), "
          f"set-up seconds {[round(s, 3) for s, _ in setups]}", file=sys.stderr)
    if res["ess_per_s"]:
        print(f"{workload}: ESS per sampler second {res['ess_per_s']}", file=sys.stderr)
    wanted = load_config()["per_layer" if trace else "end_to_end"]
    if trace:
        for name in res["absent"]:
            print(f"absent patch point: {name}", file=sys.stderr)
        values = res["layers"]
    else:
        values = {
            "setup_s": statistics.median(s * CALIBRATION_REF_REP_S / rep for s, rep in setups),
            "total_s": res["total_s"] * scale,
            "sweeps_per_s": res["sweeps_per_s"] / scale,
            "peak_rss_mb": max(res["maxrss_mb"], res["tree_peak_mb"]),
        }
    return {
        "correct": res["correct"] and not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(workload: str, seed: int, seconds: float, trace: int, n: int) -> dict:
    """Run a workload n times on seeds seed..seed+n-1; report median and quartiles."""
    runs = []
    for i in range(n):
        res = measure(workload, seed + i, seconds, trace)
        runs.append(res)
        print(json.dumps({"seed": seed + i, **res}), file=sys.stderr, flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs if r["metrics"][name]["value"] is not None]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / abs(med) if med else None,
                         "unit": runs[0]["metrics"][name]["unit"]}
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"{workload}: {n} runs, seeds {seed}..{seed + n - 1}, failed share {shares}", file=sys.stderr)
    for name, s in summary.items():
        print(f"  {name:36s} median {s['median']:.6g} {s['unit']:6s} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} iqr/median {s['iqr_share']}", file=sys.stderr)
    return {"workload": workload, "runs": n, "correct": all(r["correct"] for r in runs),
            "failed_shares": shares, "metrics": summary}


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced, with all checks."""
    ok = True
    for w in load_config()["workloads"]:
        for trace in (0, 1):
            res = measure(w["name"], 1, 0.5, trace, smoke=True, probes=1)
            good = res["correct"] and res["failed"] == 0 and all(
                m["value"] is not None for m in res["metrics"].values())
            ok = ok and good
            print(f"smoke {w['name']} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"{json.dumps(res)}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="run N times on consecutive seeds")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, seconds")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "jumpvol", "__init__.py")):
        print(f"error: no jumpvol sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    config = load_config()
    if args.smoke:
        return smoke()
    names = [w["name"] for w in config["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = config["run_seconds"] if args.seconds is None else args.seconds
    try:
        if args.repeat:
            result = repeat(args.workload, args.seed, seconds, args.trace, args.repeat)
        else:
            result = measure(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
