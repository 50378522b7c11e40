"""No module of the package imports a name it never reads.

A stdlib ``ast`` stand-in for a linter's unused-import rule (F401): a name
bound by a module-level import must be read somewhere in its module, be
re-exported through ``__all__``, or carry ``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eqchow"


def unused_imports(source: str) -> list[str]:
    """The module-level import names of ``source`` that nothing reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name in read or name in exported:
                continue
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(name)
    return unused


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name
)
def test_module_reads_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_flags_a_leftover_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .ideal import GradedIdeal, IdealComparison, compare_up_to\n"
        "from .poly import var  # noqa: F401, read elsewhere\n"
        "from .poly import ONE\n"
        "__all__ = ['ONE']\n"
        "def check(ideal: GradedIdeal):\n"
        "    return compare_up_to(ideal, ideal, 3)\n"
    )
    assert unused_imports(source) == ["os", "IdealComparison"]
