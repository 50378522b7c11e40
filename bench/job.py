"""One cold eqchow CLI invocation, as the benchmark launches it.

    python3 bench/job.py [--trace] <eqchow arguments...>

Behaves like the ``eqchow`` console script run from the source tree: the CLI
output goes to stdout and the exit code is the CLI's.  On exit it writes one
line to stderr, ``eqchow-bench-stats {...}``, holding the CLOCK_MONOTONIC
instant at which ``eqchow.cli`` finished importing (the end of set-up) and,
with ``--trace``, the span statistics of the whole invocation.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import eqchow.cli  # noqa: E402

READY = time.monotonic()
STATS_PREFIX = "eqchow-bench-stats "


def main(argv):
    trace = argv[:1] == ["--trace"]
    argv = argv[1:] if trace else argv
    tracer = None
    if trace:
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = eqchow.cli.run(argv)
    finally:
        sys.stdout.flush()
        stats = {"ready": READY, "spans": tracer.stats if tracer else None}
        sys.stderr.write(STATS_PREFIX + json.dumps(stats) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
