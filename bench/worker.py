"""One measured process of the benchmark; started by run.py, not by hand.

    worker.py --workload W --seed N --seconds S --trace 0|1 --spawned-at T
              --workdir DIR [--probe] [--smoke]

Set-up (interpreter start, ``import jumpvol``, input generation) runs first
and is timed from T, the parent's monotonic clock just before the spawn.
With --probe the worker stops there.  Otherwise it repeats whole rounds of
the workload until S seconds have passed, runs the calibration kernel after
every operation, checks every round, saves the first round's reports for
checks.verify, and prints one JSON object as its last stdout line.

With --trace 1 untraced and traced rounds alternate: layer metrics come from
the traced rounds, and the tracing overhead is the difference of the two
medians of the rounds' operation times.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

SETUP_CALIBRATION_REPS = 300
# Kernel time after each operation, as a share of that operation's time.
CALIBRATION_SHARE = 0.15
CALIBRATION_CHUNK = 10


def calibrate(np, reps: int) -> float:
    """Seconds taken by a fixed mix of numpy draws, array arithmetic and small calls.

    The work is identical on every call and uses no jumpvol code, so its time
    tracks only the machine's current speed.
    """
    gen = np.random.default_rng(20261018)
    shape = np.linspace(0.05, 2.0, 5000)
    start = time.perf_counter()
    for _ in range(reps):
        path = np.cumsum(gen.gamma(shape, 1.0))
        draws = gen.normal(path / path[-1], 1.0)
        total = float(np.sum(np.log1p(np.exp(-np.abs(draws)))))
        for _ in range(10):
            total = float(gen.normal(np.asarray(total / 5000.0), 1.0))
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spawned-at", dest="spawned_at", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(bench_dir), "src")
    sys.path.insert(0, src)

    import_start = time.perf_counter()
    import jumpvol
    import jumpvol.cli
    import_s = time.perf_counter() - import_start
    if not os.path.abspath(jumpvol.__file__).startswith(src + os.sep):
        raise SystemExit(f"jumpvol imported from {jumpvol.__file__}, not from {src}")

    import numpy as np
    from workloads import SIZES, WORKLOADS

    size = SIZES["smoke" if args.smoke else "full"][args.workload]
    workload = WORKLOADS[args.workload](jumpvol, args.seed, args.workdir, size)
    setup_s = time.monotonic() - args.spawned_at
    # The machine's speed right after set-up, to report set-up at reference speed.
    setup_rep_s = calibrate(np, SETUP_CALIBRATION_REPS) / SETUP_CALIBRATION_REPS
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_rep_s": setup_rep_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    calibration = [0.0, 0]  # kernel seconds, repetitions

    def after_operation(op_s: float) -> None:
        spent = 0.0
        while spent < CALIBRATION_SHARE * op_s or not spent:
            spent += calibrate(np, CALIBRATION_CHUNK)
            calibration[1] += CALIBRATION_CHUNK
        calibration[0] += spent

    rounds = []  # (traced, RoundResult)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = workload.run_round(tracer if traced else None, after_operation)
        finally:
            if traced:
                tracer.uninstall()
        if not rounds:
            from checks import save

            save(os.path.join(args.workdir, "reports"), result.reports)
        result.reports = []
        rounds.append((traced, result))
        if time.perf_counter() >= deadline and (tracer is None or len(rounds) % 2 == 0):
            break

    results = [r for _, r in rounds]
    failures = [f for r in results for f in r.failures]
    prints = {r.fingerprint for r in results}
    if len(prints) > 1:
        failures.append(f"repeated rounds differ: {len(prints)} distinct outputs")
    plain = [r for traced, r in rounds if not traced]
    out = {
        "correct": not failures,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "failures": failures[:20],
        "setup_s": setup_s,
        "setup_rep_s": setup_rep_s,
        "calibration_rep_s": calibration[0] / calibration[1],
        "round_s": [r.op_s for r in plain],
        "total_s": statistics.fmean(r.op_s for r in plain),
        "sweeps_per_s": sum(r.sweeps for r in plain) / sum(r.sampler_s for r in plain),
        "ess_per_s": plain[0].ess_per_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }

    if tracer:
        from tracing import layer_metrics

        traced_rounds = [r for traced, r in rounds if traced]
        counts = {
            "rounds": len(traced_rounds),
            "fits": sum(r.fits for r in traced_rounds) or 1,
            "sweeps": sum(r.sweeps for r in traced_rounds) or 1,
            "latent_matrix_bytes": max(r.latent_matrix_bytes for r in traced_rounds),
            "bytes_written": traced_rounds[0].bytes_written,
        }
        layers = layer_metrics(tracer, counts)
        layers["trace.overhead_s"] = (
            statistics.fmean(r.op_s for r in traced_rounds) - out["total_s"])
        layers["synthetic.simulate_ms"] = statistics.median(workload.simulate_s) * 1e3
        layers["setup.import_s"] = import_s
        layers["calibration.rep_us"] = out["calibration_rep_s"] * 1e6
        out["layers"] = layers
        out["absent"] = tracer.missing
        trace_dir = os.path.join(bench_dir, "out")
        tracer.write(os.path.join(trace_dir, f"spans-{args.workload}.csv"))
        with open(os.path.join(trace_dir, f"layers-{args.workload}.json"), "w") as fh:
            json.dump({"seed": args.seed, "counts": counts, "layers": layers,
                       "absent": tracer.missing}, fh, indent=1, sort_keys=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
