"""Trace one eqchow CLI invocation layer by layer (not part of the gated runs).

    python3 bench/trace_cli.py orthogonal --n 8 --k 1 --force
    python3 bench/trace_cli.py quadrics --n 6 --k 1

Runs the command in this process with the benchmark's tracer installed,
discards the CLI output and prints the span table (calls, inclusive seconds,
self seconds and size counters, slowest self time first) to stdout, followed
by the wall time and exit code.
"""

import io
import os
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import eqchow.cli  # noqa: E402
from tracer import Tracer, format_table  # noqa: E402


def main(argv):
    tracer = Tracer()
    tracer.install()
    sink = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(sink):
        code = eqchow.cli.run(argv)
    wall = time.perf_counter() - t0
    print(format_table(tracer.stats))
    print(f"wall {wall:.3f} s, exit code {code}, output {len(sink.getvalue().encode())} bytes")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
