"""Benchmark of the nlevel-rabi command line, driven in-process.

Run from the repository root:

    python3 bench/run.py --workload exact-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Set-up writes the seeded INI inputs and times ``setup_s``: a fresh
interpreter importing ``nlevel_rabi.cli`` and loading those files, repeated
SETUPS times.  The workload then runs in its own child process
(``bench/worker.py``) with the BLAS thread count fixed at 1.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` -- the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  ``--workload all``
runs every workload and prints the end-to-end table for each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# The calibration kernel runs here too (around each set-up), with the BLAS
# thread count the children get.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402  (numpy reads the thread count on import)
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-ups are timed half before and half after the workload, so their median
# spans the run rather than one moment of a machine whose speed drifts.
SETUPS = 12
TIME_LIMIT_S = 170
SETUP_SNIPPET = "import sys, nlevel_rabi.cli as c\nfor p in sys.argv[1:]: c.load_config(p)"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(inis, deadline, count) -> list:
    """Set-up times at the reference speed, each between two calibration rounds."""
    times, before = [], calibrate.timed()
    for _ in range(count):
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *inis], env=child_env(),
                              capture_output=True, text=True, timeout=deadline - perf_counter())
        took = perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
        after = calibrate.timed()
        times.append(calibrate.scaled(took, before, after))
        before = after
    return times


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workdir = BENCH / "_work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = min(2, len(os.sched_getaffinity(0)))
    workload = workloads.build(name, seed, jobs)
    inis = workload.write_inputs(workdir)
    setup = measure_setup(inis, deadline, SETUPS // 2)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--jobs", str(jobs),
           "--workdir", str(workdir), "--src", str(SRC)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=deadline - perf_counter())
    if proc.returncode != 0:
        raise BenchError(f"{name} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads((workdir / "result.json").read_text())
    setup += measure_setup(inis, deadline, SETUPS - SETUPS // 2)
    result.update(setup_s=setup, jobs=jobs)
    return result


def end_to_end(result: dict) -> dict:
    p50 = statistics.median(result["scaled_pass_s"])
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "pass_p50_s": p50,
        "rows_per_s": result["rows_per_pass"] / p50,
        "peak_rss_mb": result["peak_rss_mb"],
        "success_rate": 1.0 - result["failed"] / result["attempted"],
    }


def with_units(values: dict, declared: list) -> dict:
    """Attach BENCHMARK.json units; every declared metric must be present."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def report(name: str, result: dict) -> None:
    e2e = end_to_end(result)
    passes = result["pass_s"]
    print(f"# {name}: {len(passes)} timed passes (+1 warm-up), {len(result['setup_s'])} set-ups, "
          f"blas_threads={result['blas_threads']} jobs={result['jobs']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / result['attempted']:.4g}")
    print(f"#   setup_s      {e2e['setup_s']:.4f} s   median of {len(result['setup_s'])}")
    print(f"#   pass_p50_s   {e2e['pass_p50_s']:.4f} s   median of {len(passes)} at the reference "
          f"speed; as timed: median {statistics.median(passes):.4f}, "
          f"min {min(passes):.4f}, max {max(passes):.4f}")
    print(f"#   rows_per_s   {e2e['rows_per_s']:.1f} 1/s   {result['rows_per_pass']} rows per pass")
    print(f"#   peak_rss_mb  {e2e['peak_rss_mb']:.2f} MB")
    print(f"#   success_rate {e2e['success_rate']:.4g}    of {result['attempted']} commands")
    for failure in result["failures"][:5]:
        print(f"#   FAILED {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nlevel-rabi CLI benchmark")
    ap.add_argument("--workload", required=True, choices=[*workloads.BUILDERS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    # A SIGTERM becomes an exception, so subprocess.run kills and waits for its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "nlevel_rabi" / "cli.py").is_file():
        print(f"bench: package source not found at {SRC / 'nlevel_rabi'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(workloads.BUILDERS) if args.workload == "all" else [args.workload]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        results = {}
        for name in names:
            remaining = (deadline - perf_counter()) / (len(names) - len(results))
            results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                         perf_counter() + remaining)
            report(name, results[name])
        metrics = {}
        for name, result in results.items():
            values = result["per_layer"] if args.trace else end_to_end(result)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in with_units(values, declared).items()})
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
