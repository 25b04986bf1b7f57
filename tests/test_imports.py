"""Every name a budgetcore module imports is used there or listed in its
``__all__``, every ``__all__`` entry names an attribute, no base-class method
is shadowed in every concrete subclass, no module or class body binds a second
name to one of its functions, every ``__all__`` entry is named by the package,
the benchmark or the acceptance gate (bar a listed few) and an ``__init__``
entry is read there through the package itself, so no name has a second import
path, every defaulted parameter of a budgetcore function is passed by the
package, the benchmark or the acceptance gate, every config field rejects a
bool, importing the CLI leaves scipy unloaded, ``analyze`` loads no
``scipy.stats``, and every mutant in ``tests/mutants.py`` still finds its text
exactly once."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import budgetcore
import mutants
from budgetcore.lindahl import SolverConfig
from budgetcore.mechanism import MechanismConfig
from budgetcore.saturating import HeuristicConfig

MODULES = sorted(Path(budgetcore.__file__).parent.glob("*.py"))
# The code outside the unit tests: the package, the benchmark and the acceptance gate.
REPO = Path(__file__).resolve().parents[1]
READERS = MODULES + sorted((REPO / "perfbench").glob("*.py")) + [
    REPO / "tests" / "test_acceptance.py"]


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_resolve(path):
    # An entry left behind by a deletion counts as a use above, so check it here.
    name = "budgetcore" if path.stem == "__init__" else f"budgetcore.{path.stem}"
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def unreachable_base_methods() -> list:
    """Concrete methods of an abstract budgetcore class that every concrete
    subclass overrides without calling through ``super()``: code no instance
    can run."""
    classes, super_calls = set(), set()
    for path in MODULES:
        module = importlib.import_module(f"budgetcore.{path.stem}")
        classes |= {obj for obj in vars(module).values()
                    if isinstance(obj, type) and obj.__module__ == module.__name__}
        super_calls |= {
            node.attr for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "super"
        }
    found = []
    for base in filter(inspect.isabstract, classes):
        concrete = [c for c in classes if issubclass(c, base) and not inspect.isabstract(c)]
        for name, attr in vars(base).items():
            if not (inspect.isfunction(attr) or isinstance(attr, property)):
                continue
            if getattr(attr, "__isabstractmethod__", False) or name in super_calls:
                continue
            owners = {next(k for k in c.__mro__ if name in vars(k)) for c in concrete}
            if concrete and base not in owners:
                found.append(f"{base.__name__}.{name}")
    return sorted(found)


def test_no_unreachable_base_methods():
    assert unreachable_base_methods() == []


def alias_functions() -> list:
    """Names that a module or class body binds to a function defined in that
    same body (``g = f``): a second name for one piece of code."""
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(path.stem, tree)] + [(f"{path.stem}.{node.name}", node)
                                        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for name, scope in scopes:
            defined = {node.name for node in scope.body if isinstance(node, ast.FunctionDef)}
            found += [f"{name}.{target.id}" for node in scope.body
                      if isinstance(node, ast.Assign) and getattr(node.value, "id", None) in defined
                      for target in node.targets if isinstance(target, ast.Name)]
    return sorted(found)


def test_no_alias_functions():
    assert alias_functions() == []


# Public names kept although only unit tests call them, each with its reason.
TEST_ONLY_ALLOWED = {
    "smoothing_alpha": "the smoothed relaxation's factor, which the smoothed "
                       "`solve` report is to print (ROADMAP.md)",
}


def unit_test_only_names() -> list:
    """``__all__`` entries of budgetcore modules that the package, the
    benchmark and the acceptance gate never refer to: public surface that only
    unit tests reach.  A module's entry counts as used when any name or
    attribute there spells it; an ``__init__`` entry only when it is read
    through the package, as ``budgetcore.<name>``, ``from budgetcore import
    <name>`` or, inside the package, ``from . import <name>``."""
    used, via_package = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
                if getattr(node.value, "id", None) == "budgetcore":
                    via_package.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
                    ("budgetcore", 0), (None, 1)):
                via_package |= {a.name for a in node.names}
    found = []
    for path in MODULES:
        module = "budgetcore" if path.stem == "__init__" else f"budgetcore.{path.stem}"
        readable = via_package if path.stem == "__init__" else used
        found += [f"{path.stem}.{name}" for name in importlib.import_module(module).__all__
                  if name not in readable]
    return sorted(found)


def test_public_names_have_callers_outside_unit_tests():
    assert [n for n in unit_test_only_names()
            if n.split(".")[1] not in TEST_ONLY_ALLOWED] == []


def unpassed_defaults() -> list:
    """Defaulted parameters of budgetcore functions and methods (bar dunders)
    that no call in the package, the benchmark or the acceptance gate passes:
    knobs that only unit tests turn, or nothing.  A call passes a parameter by
    keyword, by position, or through a ``*args``/``**kwargs`` splat."""
    functions, calls = [], []
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and path in MODULES \
                    and not node.name.endswith("__"):
                functions.append((path.stem, node))
            elif isinstance(node, ast.Call):
                calls.append(node)
    found = []
    for module, fn in functions:
        positional = fn.args.posonlyargs + fn.args.args
        # A method called as obj.name(...) binds self/cls before the first argument.
        bound = int(bool(positional) and positional[0].arg in ("self", "cls"))
        first_default = len(positional) - len(fn.args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first_default]
        defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
        mine = [c for c in calls
                if getattr(c.func, "id", None) == fn.name or getattr(c.func, "attr", None) == fn.name]
        for index, name in defaulted:
            if not any(
                any(kw.arg in (name, None) for kw in c.keywords)
                or any(isinstance(a, ast.Starred) for a in c.args)
                or (index is not None and len(c.args) + bound > index)
                for c in mine
            ):
                found.append(f"{module}.{fn.name}({name})")
    return sorted(found)


def test_private_defaults_are_passed():
    assert [n for n in unpassed_defaults() if n.split(".")[1].startswith("_")] == []


def test_public_defaults_are_passed():
    assert [n for n in unpassed_defaults() if not n.split(".")[1].startswith("_")] == []


CONFIG_FIELDS = [(config, f.name)
                 for config in (SolverConfig, HeuristicConfig, MechanismConfig)
                 for f in dataclasses.fields(config)]


@pytest.mark.parametrize("config, name", CONFIG_FIELDS,
                         ids=[f"{config.__name__}.{name}" for config, name in CONFIG_FIELDS])
def test_config_fields_reject_bools(config, name):
    # JSON's true passes isinstance(v, numbers.Integral); a field added
    # without the check would read it as 1.
    with pytest.raises(ValueError, match=f"{name} must be a number, got True"):
        config(**{name: True})


def loaded_scipy_modules(code: str) -> list:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    code += "; import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        check=True, timeout=120,
    )
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def test_cli_import_loads_no_scipy():
    # scipy.cluster and scipy.special take over half a second to import; only
    # ``analyze`` (chi2_pairwise) and the tests need them.
    assert loaded_scipy_modules("import budgetcore.cli") == []


def test_chi2_pairwise_loads_no_scipy_stats():
    # scipy.stats alone takes about a second to import; the p-values come
    # from scipy.special.chdtrc, the function chi2.sf evaluates.
    code = (
        "import numpy as np; from budgetcore.aggregation import chi2_pairwise; "
        "from budgetcore.model import Instance; "
        "u = (np.random.default_rng(0).random((50, 4)) < 0.5).astype(float); "
        "u[:, 0] = 1.0; import warnings; warnings.simplefilter('ignore'); "
        "rep = chi2_pairwise(Instance(utilities=u, budget=1.0)); "
        "assert np.isfinite(rep.p_values[1, 2])"
    )
    loaded = loaded_scipy_modules(code)
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded


def test_mutants_apply_once():
    # A mutant whose text the source no longer holds would be skipped silently.
    assert mutants.stale() == []
