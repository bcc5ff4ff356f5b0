"""Self-tests of the benchmark: ``python3 -m pytest perfbench``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import LAYER_METRICS

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bytes")


@pytest.mark.parametrize("name", run.NAMES)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    wl = workloads.WORKLOADS[name]()
    first = workloads.make_rounds(wl, name, 7, 2)
    assert first == workloads.make_rounds(wl, name, 7, 2)
    assert first != workloads.make_rounds(wl, name, 8, 2)


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600,
    )
    return done.returncode, json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["products", "cli"])
def test_two_traced_runs_give_identical_counts(name):
    args = ("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1")
    code1, first = _run(*args)
    code2, second = _run(*args)
    assert code1 == code2 == 0 and first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(LAYER_METRICS)
    counts = {k for k, unit in LAYER_METRICS.items() if unit in COUNT_UNITS}
    assert {k: first["metrics"][k] for k in counts} == {k: second["metrics"][k] for k in counts}
    assert first["metrics"]["conformal.nproduct.calls"]["value"] > 0


def _failed_share(wl, ops):
    checker = run.Checker(wl)
    run.run_pass(wl, ops, on_output=checker)
    return checker.failed / len(ops)


def test_a_corrupted_product_fails_the_checks(monkeypatch):
    wl = workloads.Products()
    (ops,) = workloads.make_rounds(wl, "products", 1, 1)
    assert _failed_share(wl, ops) == 0
    cend = workloads.cend
    real = cend.nproduct

    def corrupted(a, n, b, circ=False):
        out = real(a, n, b, circ=circ)
        return out + cend.ConformalElement.identity(out.n)

    monkeypatch.setattr(cend, "nproduct", corrupted)
    assert _failed_share(wl, ops) > 0


def test_a_corrupted_verify_report_fails_the_checks(monkeypatch):
    wl = workloads.Verify()
    ops = [workloads.Op("core", (5, "core"))]
    real = workloads.cend.verify_suite
    monkeypatch.setattr(
        workloads.cend, "verify_suite", lambda seed, suite: real(seed, suite, corrupt=True)
    )
    assert _failed_share(wl, ops) == 1


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
