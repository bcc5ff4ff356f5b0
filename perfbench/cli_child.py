"""Traced stand-in for ``python -m cend``, used by the traced ``cli`` pass.

Runs the CLI on this process's arguments and standard input with layer
tracing on, then writes the recorded spans and counts as one JSON line on
standard error.  Usage: ``python3 perfbench/cli_child.py <command> [args]``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cend.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        status = cend.cli.main(sys.argv[1:])
    finally:
        tracer.active = False
        tracer.uninstall()
    sys.stdout.flush()
    sys.stderr.write(json.dumps(tracer.export()) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
