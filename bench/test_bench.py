"""Tests of the benchmark itself (not of eqchow).

    python3 -m pytest -q bench/test_bench.py
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import Tracer, layer_value, merge  # noqa: E402

M01 = ("m01",)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def inner(dt):
        clock.now += dt

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.now += 1
        inner(2)
        clock.now += 3
        inner(4)

    outer = tracer.wrap("outer", outer)
    outer()
    assert tracer.stats["outer"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert tracer.stats["inner"] == {"calls": 2, "s": 6.0, "self_s": 6.0}


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def f(n):
        clock.now += 1
        if n:
            f(n - 1)

    f = tracer.wrap("f", f)
    f(2)
    assert tracer.stats["f"] == {"calls": 3, "s": 3.0, "self_s": 3.0}


def test_merge_and_derived_layer_values():
    agg = {}
    merge(agg, {"ideal.insert": {"calls": 4, "s": 1.0, "self_s": 1.0, "changed": 1}})
    merge(agg, {"ideal.insert": {"calls": 6, "s": 2.0, "self_s": 2.0, "changed": 4},
                "ideal.hnf": {"calls": 1, "s": 0.5, "self_s": 0.5, "entry_bits_max": 7}})
    merge(agg, {"ideal.hnf": {"calls": 1, "s": 0.5, "self_s": 0.5, "entry_bits_max": 5}})
    assert layer_value(agg, "ideal.insert.changed_ratio") == 0.5
    assert layer_value(agg, "ideal.insert.self_s") == 3.0
    assert layer_value(agg, "ideal.hnf.max_entry_bits") == 7
    assert layer_value(agg, "symfunc.e_top.s") == 0


def _m01_call(stdout):
    return run.Call(started=0.0, seconds=0.1, returncode=0, stdout=stdout, setup=0.05)


def test_tampered_output_fails_the_digest_check():
    good = json.dumps({"presentation": {"relations": run.M01_RELATIONS}}).encode()
    expected = {run.job_key(M01): hashlib.sha256(good).hexdigest()}
    assert run.judge(M01, _m01_call(good), expected) is None
    tampered = good.replace(b"4*c3", b"2*c3")
    assert "digest" in run.judge(M01, _m01_call(tampered), expected)


def test_m01_relations_checked_against_the_literal_ideal():
    wrong = json.dumps({"presentation": {"relations": ["2*c3"]}}).encode()
    expected = {run.job_key(M01): hashlib.sha256(wrong).hexdigest()}
    assert "relations" in run.judge(M01, _m01_call(wrong), expected)


def test_timed_out_call_counts_as_failed():
    expected = run.load_json("expected.json")
    job = run.WORKLOADS["lattice"][0]
    bench_run = run.Run(deadline=time.monotonic() + 0.3)
    calls = run.cli_round(bench_run, [job, job], expected)
    assert calls[0][1].timed_out and calls[0][1].returncode is not None
    # The second call starts past the run's deadline and is not launched.
    assert calls[1][1].timed_out and calls[1][1].returncode is None
    assert (bench_run.attempted, bench_run.failed) == (2, 2)


def test_traced_job_matches_recorded_digest_and_sees_every_layer():
    expected = run.load_json("expected.json")
    bench_run = run.Run(deadline=time.monotonic() + 60)
    [(_, call)] = run.cli_round(bench_run, [M01], expected, trace=True)
    assert bench_run.failed == 0, bench_run.errors
    spans = call.spans
    assert spans["cli.run"]["calls"] == 1
    assert spans["pipeline.m01"]["calls"] == 1
    # Reached only through pipeline's own `from .x import y` bindings.
    assert spans["symfunc.symmetric_to_chern"]["calls"] > 0
    assert spans["localization.veronese_pushforward"]["calls"] == 3
    assert spans["ideal.hnf"]["calls"] > 0


def test_tracer_wraps_aliases_and_rebound_names():
    script = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import eqchow.pipeline as pl, eqchow.symfunc as sf\n"
        "from eqchow.poly import Polynomial, var\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install()\n"
        "assert Polynomial.__rmul__ is Polynomial.__mul__\n"
        "assert pl.symmetric_to_chern is sf.symmetric_to_chern\n"
        "x = var('c1'); x * x; 3 * x; x * 3\n"
        "print(t.stats['poly.mul']['calls'])\n"
    )
    src = os.path.join(os.path.dirname(HERE), "src")
    out = subprocess.run(
        [sys.executable, "-c", script, src, HERE], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["3"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chern", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
