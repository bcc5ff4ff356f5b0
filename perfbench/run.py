"""Benchmark for cend: seeded workloads, output checks, end-to-end metrics.

Usage::

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass over the same operations.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is non-zero when an output
check fails.  ``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("products", "classify", "verify", "cli")
SETUP_PROBES = 9  # set-up is timed this many times per run; the median counts
OVERRUN = 2.0  # see run_workload: bounds an untraced run on a slow machine

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def machine_note(seed: int) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    return (
        f"machine nproc={os.cpu_count()} cpu={cpu!r} "
        f"python={platform.python_version()} git={sha} seed={seed}"
    )


def measure_setup(name: str, seed: int, seconds: float) -> tuple[float, float]:
    """Median time for a fresh interpreter to import cend and build the
    inputs, and the median time ``import cend`` took inside it."""
    setup, imports = [], []
    cmd = [sys.executable, str(HERE / "probe.py"), name, str(seed), str(seconds)]
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            setup.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with status {proc.returncode}")
        imports.append(json.loads(line)["import_s"])
    return statistics.median(setup), statistics.median(imports)


def run_pass(wl, ops, tracer=None, on_output=None):
    """Run every operation once and return the seconds each took.

    ``on_output(op, out)`` runs after each operation, outside its timing;
    ``out`` is ``None`` for an operation that raised.
    """
    times = []
    for op in ops:
        out = None
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            out = wl.run(op)
        except Exception:  # an operation failing is a result, not a crash
            traceback.print_exc()
        finally:
            times.append(perf_counter() - start)
            if tracer is not None:
                tracer.active = False
        if on_output is not None:
            on_output(op, out)
    return times


class Checker:
    """Checks each output and folds its canonical JSON into ``output_sha``."""

    def __init__(self, wl):
        self.wl = wl
        self.failed = 0
        self.digest = hashlib.sha256()

    def __call__(self, op, out):
        fails = ["raised"] if out is None else self.wl.check(op, out)
        for msg in fails:
            print(f"check failed: {op.kind}: {msg}", file=sys.stderr)
        self.failed += bool(fails)
        text = "error" if out is None else self.wl.encode(op, out)
        self.digest.update(text.encode() + b"\n")


def kind_medians(ops, times) -> list[float]:
    """Each operation's time replaced by the median time of its kind.

    A kind recurs once per round, so a slow stretch of a shared machine
    moves these medians less than it moves single timings; every end-to-end
    timing is taken from them.
    """
    by_kind = defaultdict(list)
    for op, t in zip(ops, times):
        by_kind[op.kind].append(t)
    median = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    return [median[op.kind] for op in ops]


def tail_quantile(n: int) -> float:
    """p90 from 100 operations on; below that the highest quantile with ten
    samples beyond it, and the maximum when fewer than 20 were run."""
    if n >= 100:
        return 0.9
    if n >= 20:
        return 1 - 10 / n
    return 1.0


def nearest_rank(sorted_vals: list[float], q: float) -> float:
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def write_spans(tracer, name: str, seed: int) -> Path:
    out = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.tsv"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as f:
        f.write("index\tlayer\tstart\tend\tparent\n")
        for i, (layer, start, end, parent) in enumerate(tracer.spans):
            f.write(f"{i}\t{layer}\t{start!r}\t{end!r}\t{parent}\n")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    try:
        import workloads
    except ImportError as err:
        print(f"perfbench: cannot load the package: {err}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[name]()
    setup_s, import_s = measure_setup(name, seed, seconds)
    rounds = workloads.make_rounds(wl, name, seed, workloads.rounds_for(name, seconds))
    print(f"perfbench workload={name} seed={seed} rounds={len(rounds)} ops={sum(map(len, rounds))}")
    print(machine_note(seed))

    # On a machine in a slow stretch the run stops at the first round
    # boundary past OVERRUN x --seconds of operation time, so that its length
    # stays bounded.  A traced run always completes: its counts must repeat.
    checker = Checker(wl)
    ops, times, done = [], [], 0
    for ops_round in rounds:
        times += run_pass(wl, ops_round, on_output=checker)
        ops += ops_round
        done += 1
        if not trace and sum(times) > OVERRUN * seconds:
            break
    rss = peak_rss_mb()
    smoothed = kind_medians(ops, times)
    ops_per_s = len(ops) / sum(smoothed)
    failed = checker.failed
    final_fails = wl.final_check()
    for msg in final_fails:
        print(f"check failed: {msg}", file=sys.stderr)
    correct = failed == 0 and not final_fails
    print(f"ran {done} of {len(rounds)} rounds, {len(ops)} operations")
    print(f"output_sha {checker.digest.hexdigest()}")
    print(f"fail_ratio {failed / len(ops)!r} ({failed}/{len(ops)})")

    if trace:
        from tracer import LAYER_METRICS, Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        traced_times = run_pass(wl, ops, tracer)
        wl.tracer = None
        tracer.uninstall()
        overhead = sum(smoothed) / sum(kind_medians(ops, traced_times))
        metrics = layer_metrics(tracer, import_s, overhead)
        units = LAYER_METRICS
        print(f"spans {len(tracer.spans)} written to {write_spans(tracer, name, seed)}")
    else:
        q = tail_quantile(len(ops))
        metrics = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": 1000 * statistics.median(smoothed),
            "latency_p90_ms": 1000 * nearest_rank(sorted(smoothed), q),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        units = END_TO_END
        print(f"latency_p90_ms is p{round(100 * q)} of {len(ops)} operations")

    for key, val in metrics.items():
        print(f"{key} {val!r} {units[key]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(ops),
                "failed": failed + len(final_fails),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run each workload in its own process, so peak memory is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        status = max(status, done.returncode)
        lines = done.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = val
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
