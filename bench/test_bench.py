"""Tests of the benchmark itself.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/ -q

The end-to-end tests run every workload for a minimal number of passes and
take under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import nlevel_rabi
import nlevel_rabi.cli as cli
import calibrate
import run
import spans
import workloads
import worker

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_same_seed_same_inputs():
    for name in workloads.BUILDERS:
        assert workloads.build(name, 5, 2) == workloads.build(name, 5, 2)
        assert workloads.build(name, 5, 2).inis != workloads.build(name, 6, 2).inis


def test_refused_command_counts_as_failure(tmp_path):
    # dyson1 is the n = 3 closed form: on the n = 4 oracle ladder the CLI exits 2.
    base = workloads.build("oracle-sweep", 0, 1)
    refused = workloads.Command(
        argv=("evolve", "{inputs}/oracle.ini", "--solver", "dyson1", "--output", "{out}/d1.csv"),
        outputs=(workloads.Output("d1.csv", "csv", ("grid", 10.0, 201), 0.0, "dyson"),),
        rows=201,
    )
    wl = workloads.Workload("refusal", 0, base.inis, (refused, base.commands[-1]))
    wl.write_inputs(tmp_path)
    result = worker.run(cli, nlevel_rabi, wl, tmp_path, seconds=0, trace=False)
    passes = 1 + worker.MIN_PASSES
    assert result["attempted"] == 2 * passes
    assert result["failed"] == passes
    assert all("command 0" in f and "exit 2" in f for f in result["failures"])
    assert run.end_to_end(dict(result, setup_s=[1.0]))["success_rate"] == 0.5


def test_scaled_pass_divides_each_command_by_the_kernel_rounds_around_it():
    # the first command ran while the machine was twice as slow as during the second
    record = worker.PassRecord("0", Path("."), 3.0, [(0, ""), (0, "")], [2.0, 1.0],
                               [2.0, 2.0, 1.0])
    ref = calibrate.REF_S
    assert worker.scaled_pass(record) == pytest.approx(2.0 / 2.0 * ref + 1.0 / 1.5 * ref)


def test_self_time_subtracts_union_of_children():
    recorded = [
        (0, None, "p", "parent", 0.0, 10.0),
        (1, 0, "p", "child", 1.0, 4.0),
        (2, 0, "p", "child", 3.0, 6.0),  # overlaps the first child (another thread)
        (3, 1, "p", "grandchild", 2.0, 3.0),
    ]
    s = spans.summarize(recorded)
    assert s["parent"]["self_s"] == pytest.approx(5.0)
    assert s["child"] == {"calls": 2, "s": pytest.approx(6.0), "self_s": pytest.approx(5.0)}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench("--workload", "exact-grid", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(trace):
    proc = _bench("--workload", "all", "--seed", "3", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0, proc.stdout
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {f"{w}.{m['name']}" for w in workloads.BUILDERS for m in declared}
    assert set(doc["metrics"]) == expected
    if trace:
        m = {k: v["value"] for k, v in doc["metrics"].items()}
        # one detunings call per exact output row
        assert m["exact-grid.model.detunings.calls"] == 1001
        assert m["exact-grid.exact.exact_evolution.calls"] == 1001
        # one per dyson1 output row, plus one in dispatch for dyson2
        assert m["dyson-detuned.model.detunings.calls"] == 2001 + 1
        # two exp_c per A(t) node plus one per dyson_state call with t > 0
        assert m["dyson-detuned.spectral.exp_c.calls"] == (
            2 * m["dyson-detuned.dyson.a_matrix.calls"]
            + m["dyson-detuned.dyson.dyson_state.calls"] - 1)
        assert m["oracle-sweep.model.h_eval.calls"] == 4 * m["oracle-sweep.propagate.rk4_steps"]
        # each layer idles on a workload that does not use it
        assert m["exact-grid.spectral.exp_c.calls"] == 0
        assert m["exact-grid.model.h_eval.calls"] == 0
        assert m["dyson-detuned.model.h_eval.calls"] == 0
        assert m["dyson-detuned.propagate.to_json.bytes"] == 0
        assert m["oracle-sweep.dyson.a_matrix.calls"] == 0
