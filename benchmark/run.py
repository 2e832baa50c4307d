"""ctcnat benchmark: one workload, one process, one thread, one caller.

    python3 benchmark/run.py --workload train|nar-decode|ar-decode \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run times whole units of work untraced
and reports the end-to-end metrics. With ``--trace 1`` it runs the same
units untraced and then traced, reports the per-layer metrics from the
traced half and the traced-over-untraced wall-time ratio, and checks that
both halves produced identical outputs. Human-readable lines and a JSON
report come first; the last stdout line is the result object. The exit
code is 1 if any operation failed or any output mismatched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 15


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; it reads these variables once, when numpy loads."""
    if "numpy" in sys.modules:
        unpinned = [v for v in BLAS_THREAD_VARS if os.environ.get(v) != "1"]
        if unpinned:
            raise SystemExit(
                "run.py: numpy was imported before the BLAS thread count could be pinned "
                f"({', '.join(unpinned)} not set to 1); run the benchmark in a fresh interpreter")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 has no mode="dicts"
        blas = {}
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_units(workload, count: int, seconds: float, tally, results, tracer=None) -> int:
    """Run units 0, 1, ...: at least ``count``, then more while the next
    one, if it takes as long as the last, still ends within ``seconds``.
    Stops early if a unit leaves the workload unable to go on."""
    start = time.perf_counter()
    done = 0
    while True:
        unit_start = time.perf_counter()
        go_on = workload.run_unit(done, tally, results, tracer)
        results.unit_s.append(time.perf_counter() - unit_start)
        done += 1
        elapsed = time.perf_counter() - start
        if not go_on or (done >= count and elapsed + results.unit_s[-1] > seconds):
            return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctcnat" / "__init__.py").is_file():
        print(f"run.py: no ctcnat sources at {SRC}; run from the root of a ctcnat checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    import workloads
    from calibration import REFERENCE_MS
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = environment()
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    results = workloads.Results()
    calibration = results.calibration
    tally = workloads.Tally()
    with tempfile.TemporaryDirectory(dir=out_dir) as work_dir:
        setup = []  # (start, seconds)
        for _ in range(SETUP_REPS):
            calibration.sample()
            start = time.perf_counter()
            workload = workloads.make_workload(args.workload, args.seed, Path(work_dir))
            workload.setup()
            setup.append((start, time.perf_counter() - start))
        try:
            if not args.trace:
                run_units(workload, workload.min_units, args.seconds, tally, results)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                metrics = workloads.end_to_end(results, setup, peak_rss_mb, calibrated=True)
                raw = workloads.end_to_end(results, setup, peak_rss_mb, calibrated=False)
            else:
                units = run_units(workload, 1, args.seconds / 2, tally, results)
                with Tracer() as tracer:
                    run_units(workload, units, 0.0, tally, results, tracer)
                overhead = sum(results.unit_s[units:]) / sum(results.unit_s[:units])
                metrics = workloads.per_layer(tracer.spans, workload.root_span, overhead)
                raw = {}
                tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
        except (ValueError, ZeroDivisionError):
            if not tally.failed:
                raise
            metrics = raw = {}  # nothing left to measure after a failed unit

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env,
        "units": len(results.unit_s), "unit_s": results.unit_s,
        "setup_s_each": [seconds for _, seconds in setup],
        "attempted": tally.attempted, "succeeded": tally.attempted - tally.failed,
        "failed": tally.failed, "errors": tally.errors,
        "timed_per_mode": {m: len(v) for m, v in results.timed.items()},
        "bucket_ms_p50": workloads.buckets(results),
        "calibration": {"reference_ms": REFERENCE_MS, "samples": len(calibration.ms),
                        "kernel_ms_median": statistics.median(calibration.ms)},
        "raw_metrics": raw,
        "expected_outputs": getattr(workload, "expected_source", None),
    }
    if results.losses:
        if "sent_per_s" in metrics:
            report["train.sent_per_s"] = metrics["sent_per_s"]
        report["train.loss_final"] = statistics.median(results.losses)
        report["train.valid_bleu"] = statistics.median(results.bleus)
    metric_units = {**workloads.END_TO_END, **workloads.PER_LAYER}
    print_report(report, metrics, metric_units)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": metric_units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


REPORT_UNITS = {"train.sent_per_s": "1/s", "train.loss_final": "nats", "train.valid_bleu": "BLEU"}


def print_report(report: dict, metrics: dict, units: dict) -> None:
    env = report["env"]
    print(f"ctcnat benchmark  workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}")
    print(f"env  python {env['python']}  numpy {env['numpy']}  blas {env['blas']}  "
          f"threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}  nproc {env['nproc']}  cpu {env['cpu']}")
    print(f"ops  attempted {report['attempted']}  succeeded {report['succeeded']}  "
          f"failed {report['failed']}  units {report['units']}  "
          f"expected outputs: {report['expected_outputs'] or 'checked against train() and itself'}")
    for error in report["errors"]:
        print(f"FAIL {error}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:14.4f} {units[name]}")
    for name, unit in REPORT_UNITS.items():
        if name in report:
            print(f"  {name:<34} {report[name]:14.4f} {unit}")
    for mode, by_bucket in report["bucket_ms_p50"].items():
        cells = "  ".join(f"{b}: {ms:.3f}" for b, ms in by_bucket.items())
        print(f"  {mode} median ms by source length  {cells}")
    print(json.dumps({"report": report}))


if __name__ == "__main__":
    sys.exit(main())
