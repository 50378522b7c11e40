"""The names the benchmark's span tracer and the package exports refer to.

``bench/tracer.py`` wraps library functions by name and its own tests run
only with the benchmark, so a rename under ``src/`` is caught here instead.
The tracer module is loaded from its file and read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import eqchow

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("eqchow_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize("module_name, path", [t[:2] for t in TARGETS])
def test_tracer_target_resolves(module_name, path):
    # the lookup ``Tracer.install`` performs
    owner = importlib.import_module(module_name)
    *cls_path, attr = path.split(".")
    for part in cls_path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[attr])


@pytest.mark.parametrize("name", eqchow.__all__)
def test_package_export_resolves(name):
    assert hasattr(eqchow, name)
