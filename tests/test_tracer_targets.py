"""The names the benchmark's span tracer refers to, and the library calls of
the benchmark's ``small-ops`` workload.

``bench/tracer.py`` wraps library functions by name and ``bench/small_ops.py``
calls them; their own tests run only with the benchmark, so a rename or a
broken call under ``src/`` is caught here instead.  Both modules are loaded
from their files; the tracer is read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    path = BENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"eqchow_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load("tracer").TARGETS


@pytest.mark.parametrize("module_name, path", [t[:2] for t in TARGETS])
def test_tracer_target_resolves(module_name, path):
    # the lookup ``Tracer.install`` performs
    owner = importlib.import_module(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])


def test_small_ops_batches_pass_their_checks():
    # every batch's warm-up call, checked by its second route
    runner = _load("small_ops").Runner(7)
    runner.warm_up()
    assert runner.failed == 0, runner.errors
