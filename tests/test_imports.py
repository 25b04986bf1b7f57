"""Every name a budgetcore module imports is used there or listed in its
``__all__``, and importing the CLI leaves scipy unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import budgetcore

MODULES = sorted(Path(budgetcore.__file__).parent.glob("*.py"))


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_cli_import_loads_no_scipy():
    # scipy.stats and scipy.cluster take about a second to import; only
    # ``analyze`` (chi2_pairwise) and the tests need them.
    code = (
        "import sys, budgetcore.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
