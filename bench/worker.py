"""One workload, run in-process in its own child process.

Started by ``bench/run.py`` with ``PYTHONPATH`` set to the checkout's ``src``
and the BLAS thread count fixed in the environment, so that ``peak_rss_mb``
belongs to this workload alone.  The order is:

1. a warm-up pass, then timed passes for about ``--seconds`` (at least
   MIN_PASSES), each command timed between two rounds of the calibration
   kernel (``calibrate.py``);
2. peak resident memory, read before anything else allocates;
3. with ``--trace 1``, one more pass with the span recorder installed;
4. the correctness checks of every pass, outside the timed region.

The result is written as JSON to ``<workdir>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import calibrate
import reference
import spans
import workloads

MIN_PASSES = 3


@dataclass
class PassRecord:
    pass_id: str
    outdir: Path
    wall_s: float  # sum of command_s
    results: list  # (exit code, captured stderr) per command
    command_s: list  # wall time per command
    kernel_s: list  # calibration round before each command and after the last


class Runner:
    """Runs a workload's commands through ``cli.main``, one after another."""

    def __init__(self, cli, workload: workloads.Workload, workdir: Path):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir

    def run_pass(self, pass_id) -> PassRecord:
        outdir = self.workdir / f"pass_{pass_id}"
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        argvs = [self.workload.argv(c, self.workdir, outdir) for c in self.workload.commands]
        results, command_s, kernel_s = [], [], [calibrate.timed()]
        for argv in argvs:
            start = perf_counter()
            results.append(self._run(argv))
            command_s.append(perf_counter() - start)
            kernel_s.append(calibrate.timed())
        return PassRecord(str(pass_id), outdir, sum(command_s), results, command_s, kernel_s)

    def _run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse refuses bad flags this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash counts as a failed command, not a failed benchmark
            code = "exception"
            err.write(traceback.format_exc())
        return code, err.getvalue()


class Checker:
    """Compares outputs with the references and keeps the worst deviations."""

    def __init__(self):
        self._refs = {}
        self._seen = {}  # output bytes -> problem found when they were first checked
        self.max_dev = {"exact": 0.0, "dyson": 0.0, "propagate": 0.0}
        self.norm_drift = 0.0
        self.attempted = 0
        self.failures = []

    def check_pass(self, workload: workloads.Workload, record: PassRecord):
        for index, (command, (code, err)) in enumerate(zip(workload.commands, record.results)):
            self.attempted += 1
            problem = None
            if code != 0:
                tail = err.strip().splitlines()[-1:] or [""]
                problem = f"exit {code}: {tail[0]}"
            else:
                for output in command.outputs:
                    problem = self._check_output(record.outdir / output.path, output)
                    if problem:
                        break
            if problem:
                self.failures.append(f"pass {record.pass_id} command {index} "
                                     f"({command.argv[0]}): {problem}")

    def _check_output(self, path: Path, output: workloads.Output):
        if not path.is_file() or path.stat().st_size == 0:
            return f"no output {output.path}"
        # Passes repeat the same commands; bytes already checked need no second parse.
        key = (output, hashlib.blake2b(path.read_bytes()).digest())
        if key not in self._seen:
            self._seen[key] = self._compare(path, output)
        return self._seen[key]

    def _compare(self, path: Path, output: workloads.Output):
        try:
            times, states = _load(path, output.kind)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{output.path}: unreadable ({exc})"
        grid = np.linspace(0.0, output.ref[-2], output.ref[-1])
        if times.shape != grid.shape or not np.array_equal(times, grid):
            return f"{output.path}: time grid differs from t_max/samples"
        if output.kind == "report":
            dev = float(np.max(states))
        else:
            ref = self._reference(output.ref)
            if states.shape != ref.shape:
                return f"{output.path}: shape {states.shape}, expected {ref.shape}"
            dev = float(np.max(np.abs(states - ref)))
            if output.family == "propagate":
                drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)))
                self.norm_drift = max(self.norm_drift, drift)
        self.max_dev[output.family] = max(self.max_dev[output.family], dev)
        if not dev <= output.tol:
            return f"{output.path}: max amplitude deviation {dev:.3g} > {output.tol:g}"
        return None

    def _reference(self, ref):
        if ref not in self._refs:
            self._refs[ref] = reference.evaluate(ref)
        return self._refs[ref]


def _load(path: Path, kind: str):
    """(times, states) of a trajectory; (times, amplitude deviation) of a report."""
    if kind == "csv":
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        n = (data.shape[1] - 1) // 3
        return data[:, 0], data[:, 1:1 + 2 * n:2] + 1j * data[:, 2:2 + 2 * n:2]
    doc = json.loads(path.read_text())
    if kind == "report":
        table = np.asarray(doc["report"]["table"], dtype=float)
        return table[:, 0], table[:, 1]
    amp = np.asarray(doc["states"], dtype=float)
    return np.asarray(doc["times"], dtype=float), amp[..., 0] + 1j * amp[..., 1]


def scaled_pass(record: PassRecord) -> float:
    """Pass time at the reference speed: each command scaled by the kernel rounds around it."""
    k = record.kernel_s
    return sum(calibrate.scaled(t, k[i], k[i + 1]) for i, t in enumerate(record.command_s))


def layer_metrics(recorder: spans.SpanRecorder, traced_s: float, pass_p50_s: float,
                  checker: Checker) -> dict:
    s = spans.summarize(recorder.spans)

    def get(name, key):
        return s[name][key] if name in s else 0

    m = {}
    for name, keys in (
        ("cli.load_config", ("calls", "s")),
        ("cli.run_solver", ("self_s",)),
        ("model.h_eval", ("calls", "s")),
        ("model.detunings", ("calls", "s")),
        ("model.rotating_frame", ("calls", "s")),
        ("model.residual_coupling", ("calls", "s")),
        ("spectral.exp_c", ("calls", "s")),
        ("spectral.decompose", ("calls", "s")),
        ("exact.exact_evolution", ("calls", "self_s")),
        ("exact.exp_q", ("calls", "s")),
        ("exact.check_consistency", ("calls",)),
        ("dyson.dyson_state", ("calls", "self_s")),
        ("dyson.a_matrix", ("calls", "s")),
        ("dyson.first_order_state_3", ("calls", "s")),
        ("propagate.integrate", ("calls", "self_s")),
        ("propagate.to_json", ("s",)),
        ("propagate.compare", ("s",)),
        ("propagate.to_csv", ("s",)),
    ):
        for key in keys:
            m[f"{name}.{key}"] = get(name, key)

    sweep_ids = {sid for sid, _, _, name, _, _ in recorder.spans if name == "cli.sweep"}
    busy = sum(end - start for _, parent, _, name, start, end in recorder.spans
               if parent in sweep_ids
               and name in ("cli.run_solver", "propagate.to_json", "propagate.to_csv"))
    m["cli.sweep.busy_ratio"] = busy / get("cli.sweep", "s") if sweep_ids else 0.0
    rows = get("dyson.dyson_state", "calls")
    m["dyson.a_matrix.per_row"] = get("dyson.a_matrix", "calls") / rows if rows else 0.0
    m["propagate.rk4_steps"] = get("model.h_eval", "calls") // 4
    for name in spans.WRITERS:
        m[f"{name}.bytes"] = recorder.bytes.get(name, 0)
    for family, dev in checker.max_dev.items():
        m[f"{family}.max_amp_dev"] = dev
    m["propagate.norm_drift"] = checker.norm_drift
    m["trace.overhead_s"] = traced_s - pass_p50_s
    return m


def run(cli, package, workload, workdir: Path, seconds: float, trace: bool) -> dict:
    runner = Runner(cli, workload, workdir)
    records = [runner.run_pass("warmup")]
    timed = []
    start = perf_counter()
    # Start another pass while it is expected to end less than half a pass
    # after ``seconds``, so a run measures about ``seconds`` on every workload.
    while len(timed) < MIN_PASSES or (
            perf_counter() - start + statistics.median(r.wall_s for r in timed) / 2 < seconds):
        timed.append(runner.run_pass(len(timed)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    records += timed
    recorder = None
    if trace:
        recorder = spans.SpanRecorder()
        recorder.pass_id = "traced"
        with recorder.installed(package):
            records.append(runner.run_pass("traced"))

    checker = Checker()
    for record in records:
        checker.check_pass(workload, record)
        shutil.rmtree(record.outdir)
    pass_s = [r.wall_s for r in timed]
    result = {
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "failures": checker.failures,
        "pass_s": pass_s,
        "scaled_pass_s": [scaled_pass(r) for r in timed],
        "rows_per_pass": workload.rows_per_pass,
        "peak_rss_mb": peak_rss_mb,
    }
    if recorder is not None:
        result["per_layer"] = layer_metrics(recorder, scaled_pass(records[-1]),
                                            statistics.median(result["scaled_pass_s"]), checker)
        recorder.write(workdir / "spans.csv")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    args = ap.parse_args(argv)

    import nlevel_rabi
    import nlevel_rabi.cli as cli

    if Path(nlevel_rabi.__file__).resolve().parent != (args.src / "nlevel_rabi").resolve():
        print(f"imported nlevel_rabi from {nlevel_rabi.__file__}, not from {args.src}",
              file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.jobs)
    workload.write_inputs(args.workdir)
    result = run(cli, nlevel_rabi, workload, args.workdir, args.seconds, bool(args.trace))
    result["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    (args.workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
