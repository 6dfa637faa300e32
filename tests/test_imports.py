"""Every name a module of ``globkernel`` imports is used in that module, every
private function or method of the package is used somewhere in it, and the
command line imports only the modules it always needs."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "globkernel"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no expression reads and ``__all__`` does not list."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = "import numpy as np\nimport os.path\nfrom .omega import compose, unit\n__all__ = ['unit']\n"
    assert unused_imports(source) == ["compose", "np", "os"]
    assert unused_imports(source + "np.zeros(os.sep, compose)\n") == []


def _references(tree) -> Counter:
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def unused_private_functions(sources: list[str]) -> list[str]:
    """Underscore functions and methods that no source refers to outside their own body.

    Names are matched by spelling, so a reference to any function of that
    name keeps every one of them.
    """
    trees = [ast.parse(source) for source in sources]
    everywhere = sum((_references(tree) for tree in trees), Counter())
    unused = []
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            if everywhere[name] == _references(node)[name]:
                unused.append(name)
    return sorted(unused)


def test_package_uses_every_private_function():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_functions(sources) == []


def test_unused_private_functions_are_found():
    helpers = (
        "def _dead(n):\n    return _dead(n - 1)\n"
        "def _live():\n    pass\n"
        "class C:\n    def __init__(self):\n        self._used()\n"
        "    def _used(self):\n        pass\n    def _method(self):\n        pass\n"
    )
    assert unused_private_functions([helpers]) == ["_dead", "_live", "_method"]
    callers = "from m import _live\n_live()\nC()._method\n"
    assert unused_private_functions([helpers, callers]) == ["_dead"]


def test_cli_imports_only_its_floor():
    """``import globkernel.cli`` loads exactly the modules every command needs.

    Each CLI job is a fresh process, often without cached bytecode, so every
    module it imports is compiled again; ``twist``, ``decalage`` and
    ``testcat`` are imported only by the commands that use them.
    """
    probe = ("import sys, globkernel.cli; "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'globkernel')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                   os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    assert out == [f"globkernel{suffix}" for suffix in (
        "", ".cli", ".errors", ".fixtures", ".globular", ".omega", ".report")]
