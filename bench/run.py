"""eqchow benchmark: cold CLI jobs and seeded small library calls.

    python3 bench/run.py --workload {chern,lattice,small-ops} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is ``src/eqchow``, used in
place.  Every CLI job runs in a fresh interpreter (``bench/job.py``), one at a
time, so each pays its import and ``lru_cache`` fills like a real ``eqchow``
invocation.  The ``small-ops`` workload runs in one process
(``bench/small_ops.py``).

With ``--trace 0`` the job list (order shuffled by the seed) is repeated in
rounds until S seconds have passed, and the end-to-end metrics are printed.
With ``--trace 1`` one untraced and one traced round run and the per-layer
metrics are printed.  Every call's output is checked; a call that fails, times
out or prints a wrong result counts in ``failed``.  The last line of stdout is
the result object; the line before it holds ungated records.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from tracer import layer_value, merge  # noqa: E402

STATS_PREFIX = "eqchow-bench-stats "
# A call running past this is killed and counted as failed.
CALL_LIMIT_S = 60.0
# The whole run launches nothing after this, so that it ends within three
# minutes even if every call hangs.
RUN_LIMIT_S = 150.0
# Launches made only to time set-up; the first also compiles the bytecode
# cache and is not counted.
SETUP_PROBES = 6
M01_RELATIONS = ["4*c3", "2*c1*c3", "c1^2*c3"]

WORKLOADS = {
    # symfunc/poly-heavy: the l-ring expansion and rewrite into Chern classes;
    # the pushforward jobs are the large users of sum_fractions/exact division.
    "chern": [
        ("m01",),
        *(("quadrics", "--n", "5", "--k", str(k)) for k in range(4)),
        *(("pushforward", "--n", "5", "--r", str(r)) for r in range(5)),
    ],
    # Almost pure ideal layer: per-degree lattices up to dim ~290.  The
    # degree bounds keep each job to seconds; the small n=5/6 jobs expose a
    # per-insert cost, and n=5 runs the alpha-vs-series cross-check.
    "lattice": [
        ("orthogonal", "--n", "8", "--k", "1", "--max-degree", "17", "--force"),
        ("orthogonal", "--n", "7", "--k", "3", "--max-degree", "13", "--force"),
        ("orthogonal", "--n", "7", "--k", "2", "--max-degree", "14", "--force"),
        ("orthogonal", "--n", "6", "--k", "5"),
        ("orthogonal", "--n", "5", "--k", "3"),
    ],
    "small-ops": None,
}

def cli_args(job) -> tuple:
    return job + ("--format", "json")


def job_key(job) -> str:
    return " ".join(cli_args(job))


def load_json(name):
    with open(os.path.join(HERE, name), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Call:
    """One child process: wall seconds from launch to exit, set-up seconds
    from launch to the end of ``import eqchow.cli``, and its output."""

    started: float
    seconds: float
    returncode: int | None = None
    stdout: bytes = b""
    stderr: bytes = b""
    setup: float | None = None
    spans: dict | None = None
    timed_out: bool = False


def launch(argv, limit) -> Call:
    """Run a child to completion or kill it after ``limit`` seconds."""
    t0 = time.monotonic()
    if limit <= 0:
        return Call(t0, 0.0, timed_out=True)
    proc = subprocess.Popen(
        argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return Call(t0, time.monotonic() - t0, proc.returncode, out, err, timed_out=True)
    call = Call(t0, time.monotonic() - t0, proc.returncode, out, err)
    for line in err.decode(errors="replace").splitlines():
        if line.startswith(STATS_PREFIX):
            stats = json.loads(line[len(STATS_PREFIX):])
            call.setup = stats["ready"] - t0
            call.spans = stats["spans"]
    return call


def judge(job, call: Call, expected: dict) -> str | None:
    """Why a CLI call failed, or None if its output is the recorded one."""
    if call.timed_out:
        return "timed out"
    if call.returncode != 0:
        return f"exit code {call.returncode}: {call.stderr[-300:]!r}"
    if call.setup is None:
        return "no stats line"
    if hashlib.sha256(call.stdout).hexdigest() != expected.get(job_key(job)):
        return "output digest differs from the recorded one"
    if job == ("m01",):
        relations = json.loads(call.stdout)["presentation"]["relations"]
        if relations != M01_RELATIONS:
            return f"m01 relations {relations} differ from {M01_RELATIONS}"
    return None


@dataclass
class Run:
    """Counts and samples of one benchmark run."""

    deadline: float
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setups: list = field(default_factory=list)

    def remaining(self, limit=CALL_LIMIT_S) -> float:
        return min(limit, self.deadline - time.monotonic())

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


def job_argv(args, trace=False):
    flag = ["--trace"] if trace else []
    return [sys.executable, os.path.join(HERE, "job.py"), *flag, *args]


def probe_setup(run: Run) -> None:
    for i in range(SETUP_PROBES):
        call = launch(job_argv(["--version"]), run.remaining())
        run.attempted += 1
        if call.returncode != 0 or call.setup is None:
            run.fail(f"set-up probe failed: {call.stderr[-300:]!r}")
        elif i:
            run.setups.append(call.setup)


def cli_round(run: Run, jobs, expected, trace=False) -> list[tuple[tuple, Call]]:
    calls = []
    for job in jobs:
        call = launch(job_argv(cli_args(job), trace), run.remaining())
        run.attempted += 1
        error = judge(job, call, expected)
        if error:
            run.fail(f"{job_key(job)}: {error}")
        elif not trace:
            run.setups.append(call.setup)
        calls.append((job, call))
    return calls


def cli_workload(run: Run, jobs, seed, seconds, trace):
    expected = load_json("expected.json")
    rng = random.Random(seed)
    if trace:
        plain = cli_round(run, jobs, expected)
        traced = cli_round(run, jobs, expected, trace=True)
        # judge() has held every traced output to the recorded digest too.
        spans = {}
        for _, call in traced:
            merge(spans, call.spans or {})
        return {
            "spans": spans,
            "overhead": slowdown(sum(c.seconds for _, c in traced), sum(c.seconds for _, c in plain)),
            "output_bytes": sum(len(c.stdout) for _, c in traced),
        }
    rounds = []
    stop = time.monotonic() + seconds
    while not rounds or (time.monotonic() < stop and run.remaining() > 0):
        order = list(jobs)
        rng.shuffle(order)
        rounds.append({job: call.seconds for job, call in cli_round(run, order, expected)})
    return per_call_medians(rounds)


def small_ops_workload(run: Run, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "small_ops.py"), "--seed", str(seed),
            "--seconds", str(seconds)] + (["--trace"] if trace else [])
    call = launch(argv, run.remaining(seconds + CALL_LIMIT_S))
    try:
        out = json.loads(call.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        run.attempted += 1
        run.fail(f"small-ops worker failed: {call.stderr[-500:]!r}")
        return {"run_s": call.seconds, "call_s.max": call.seconds, "spans": {},
                "overhead": 0.0, "output_bytes": 0}
    run.attempted += out["attempted"]
    run.failed += out["failed"]
    run.errors += out["errors"]
    rounds = out["rounds"]
    if trace:
        return {
            "spans": out["spans"],
            "overhead": slowdown(sum(rounds[1].values()), sum(rounds[0].values())),
            "output_bytes": 0,
        }
    run.setups.append(out["ready"] - call.started)
    return per_call_medians(rounds)


def slowdown(traced, plain):
    return traced / plain - 1 if plain else 0.0


def per_call_medians(rounds):
    """``run_s`` sums each call's median over the rounds, so one call slowed
    by a noisy neighbour does not move it; ``call_s.max`` is the largest of
    those medians."""
    calls = dict.fromkeys(call for r in rounds for call in r)
    medians = [statistics.median(r[c] for r in rounds if c in r) for c in calls]
    return {"run_s": sum(medians), "call_s.max": max(medians, default=0.0)}


def src_line_count() -> int:
    total = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "eqchow", "__init__.py")):
        sys.stderr.write(f"bench: no eqchow sources under {SRC}\n")
        return 2

    run = Run(deadline=time.monotonic() + RUN_LIMIT_S)
    probe_setup(run)
    jobs = WORKLOADS[args.workload]
    if jobs is None:
        res = small_ops_workload(run, args.seed, args.seconds, args.trace)
    else:
        res = cli_workload(run, jobs, args.seed, args.seconds, args.trace)

    spec = load_json("../BENCHMARK.json")["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values = {
            "cli.output_bytes": res["output_bytes"],
            "trace.overhead_ratio": res["overhead"],
        }
        for m in spec:
            if m["name"] not in values:
                values[m["name"]] = layer_value(res["spans"], m["name"])
    else:
        rss_kb = max(
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        values = {
            "run_s": res["run_s"],
            "call_s.max": res["call_s.max"],
            "setup_s": statistics.median(run.setups) if run.setups else float(RUN_LIMIT_S),
            "peak_rss_mb": rss_kb / 1024,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}

    for error in run.errors:
        sys.stderr.write(f"bench: {error}\n")
    records = {
        "workload": args.workload,
        "seed": args.seed,
        "src_lines": src_line_count(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "fail_ratio": run.failed / max(run.attempted, 1),
    }
    print(json.dumps({"records": records}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
