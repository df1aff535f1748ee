"""Benchmark entry point: one workload, one seed, one run of fixed length.

    python3 bench/run.py --workload matrix_month --seed 0 --seconds 30 --trace 0

Set-up writes the workload's CSV inputs from the seed in a fresh
interpreter, several times, and reports the median as `setup_s`. The run
then repeats whole rounds of the workload until the next round would end
after `--seconds`, checking every round's outputs after its timed part.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with `--trace 0` the end-to-end
metrics (median `wall_s` over rounds, `setup_s`, `peak_rss_mb`), with
`--trace 1` the per-layer metrics of the traced rounds, which alternate
with untraced rounds so that the tracing overhead is measured in the
same run. Run files go under bench/runs/ and are removed at the end,
except the trace file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before numpy loads. With two, the dense simplex's
# per-iteration LU ran 15-30x slower whenever another process used the
# second core, and it was 25 % slower even on an idle machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hessmg  # noqa: E402,F401  (fails here when the program is missing)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
RUNS_DIR = os.path.join(HERE, "runs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the smoke tests")
    p.add_argument("--prepare", metavar="DIR",
                   help="only write the inputs to DIR (one set-up repetition)")
    return p.parse_args(argv)


def set_up(args, run_dir) -> tuple[float, str]:
    """Median wall time of interpreter start + imports + writing the inputs."""
    times = []
    for i in range(SETUP_REPS):
        in_dir = os.path.join(run_dir, f"inputs{i}")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--size", args.size, "--prepare", in_dir]
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), in_dir


def measure(workload, args, in_dir, run_dir):
    tracer = spans.Tracer() if args.trace else None
    walls = {False: [], True: []}
    attempted = failed = 0
    correct = True
    fingerprint = None
    peak_rss_mb = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        out_dir = os.path.join(run_dir, f"round{i}")
        os.makedirs(out_dir)
        if traced:
            with tracer.installed(), tracer.round(f"{workload.name}-{args.seed}-r{i}") as root:
                detail = workload.run(in_dir, out_dir, args.seed)
            wall = root.seconds
        else:
            t0 = time.perf_counter()
            detail = workload.run(in_dir, out_dir, args.seed)
            wall = time.perf_counter() - t0
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls[traced].append(wall)
        attempted += workload.ops
        try:
            rnd = workload.check(in_dir, out_dir, args.seed, detail)
            failed += rnd.failed
            if fingerprint is None:
                fingerprint = rnd.fingerprint
            elif rnd.fingerprint != fingerprint:
                raise checks.CheckError("round results differ from the first round's")
        except checks.CheckError as exc:
            correct = False
            print(f"check failed in round {i}: {exc}", file=sys.stderr)
        del detail
        shutil.rmtree(out_dir)
        i += 1
        elapsed = time.perf_counter() - start
        print(f"round {i}: wall {wall:.4f} s{' traced' if traced else ''}, "
              f"elapsed {elapsed:.1f} s", file=sys.stderr)
        need_more = bool(args.trace) and not walls[True]
        if elapsed * (i + 1) / i > args.seconds and not need_more:
            break

    if not args.trace:
        metrics = {"wall_s": (statistics.median(walls[False]), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        return correct, attempted, failed, metrics, None
    layers = [tracer.layer_metrics(r) for r in tracer.rounds()]
    metrics = {name: (statistics.median(m[name] for m in layers), unit_of(name))
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]), "s")
    return correct, attempted, failed, metrics, tracer


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    table = workloads.TINY if args.size == "tiny" else workloads.WORKLOADS
    workload = table[args.workload]
    if args.prepare:
        workload.prepare(args.prepare, args.seed)
        return 0

    os.makedirs(RUNS_DIR, exist_ok=True)
    run_dir = os.path.join(RUNS_DIR, f"{workload.name}-seed{args.seed}-{os.getpid()}")
    try:
        setup_s, in_dir = set_up(args, run_dir)
        correct, attempted, failed, metrics, tracer = measure(
            workload, args, in_dir, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is None:
        metrics["setup_s"] = (setup_s, "s")
    else:
        tracer.dump(os.path.join(RUNS_DIR, f"trace-{workload.name}-seed{args.seed}.json"),
                    workload=workload.name, seed=args.seed)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
