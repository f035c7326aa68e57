"""The package's structure: every name a module exports resolves, the root
loads nothing, each module imports on its own, and no import cycle exists."""
from __future__ import annotations

import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import imputeaudit

MODULES = ["imputeaudit"] + sorted(m.name for m in pkgutil.iter_modules(imputeaudit.__path__, "imputeaudit."))
SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_module_of_the_package_is_checked():
    assert {"imputeaudit.attack", "imputeaudit.core", "imputeaudit.harness", "imputeaudit.models"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_resolves(name):
    # Nothing in the package star-imports, so a name left in __all__ after its definition went would pass unseen.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [item for item in exported if not hasattr(module, item)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


# Run in a fresh interpreter: prints, as JSON, what `import imputeaudit` loads of the
# package and, for each module imported alone, what it loads or why it failed.
_PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])

def loaded():
    return sorted(m for m in sys.modules if m.startswith("imputeaudit."))

import imputeaudit
result = {"file": imputeaudit.__file__, "root": loaded(), "alone": {}}
for info in pkgutil.iter_modules(imputeaudit.__path__, "imputeaudit."):
    for m in loaded():
        del sys.modules[m]
    try:
        importlib.import_module(info.name)
        result["alone"][info.name] = loaded()
    except Exception as exc:
        result["alone"][info.name] = f"{type(exc).__name__}: {exc}"
print(json.dumps(result))
"""


def test_the_root_loads_no_module_and_each_module_imports_on_its_own():
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert Path(result["file"]).resolve().is_relative_to(SRC)
    assert result["root"] == []
    assert sorted(result["alone"]) == MODULES[1:]
    failed = {name: outcome for name, outcome in result["alone"].items() if isinstance(outcome, str)}
    assert failed == {}
    assert result["alone"]["imputeaudit.core"] == ["imputeaudit.core"]


def _relative_imports(node: ast.AST, package: set[str]):
    """The package modules that ``node``'s relative imports name, at any depth;
    the body of ``if TYPE_CHECKING:`` never runs, so it is skipped."""
    if isinstance(node, ast.ImportFrom) and node.level == 1:
        if node.module is None:  # from . import attack
            yield from (alias.name for alias in node.names if alias.name in package)
        else:
            yield node.module
    type_checking = isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
    for child in node.orelse if type_checking else ast.iter_child_nodes(node):
        yield from _relative_imports(child, package)


def _import_graph() -> dict[str, set[str]]:
    package = {name.rsplit(".", 1)[-1] for name in MODULES[1:]}
    root = SRC / "imputeaudit"
    return {name: set(_relative_imports(ast.parse((root / f"{name}.py").read_text(encoding="utf-8")), package))
            for name in sorted(package)}


def test_the_package_import_graph_has_no_cycle():
    graph = _import_graph()
    # The walk sees both import forms, at module level and inside a function (models' lazy attention import).
    assert {"autoencoder", "core", "attention"} <= graph["models"]
    assert {"attack", "data", "harness", "models"} <= graph["cli"]

    def reach(name: str) -> set[str]:
        seen: set[str] = set()
        todo = list(graph[name])
        while todo:
            module = todo.pop()
            if module not in seen:
                seen.add(module)
                todo.extend(graph[module])
        return seen

    assert sorted(name for name in graph if name in reach(name)) == []
