"""Set-up probe: a fresh interpreter imports cend and builds a workload's inputs.

Usage: ``python3 perfbench/probe.py <workload> <seed> <seconds>``.  Prints one
JSON line with the time ``import cend`` took once every input of the run
exists; the benchmark times the probe from its start to that line.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    start = time.perf_counter()
    import cend  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    workloads.make_rounds(
        workloads.WORKLOADS[name](), name, seed, workloads.rounds_for(name, seconds)
    )
    print(json.dumps({"import_s": import_s}), flush=True)


if __name__ == "__main__":
    main()
