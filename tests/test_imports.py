"""Every name a module of ``globkernel`` imports is used in that module, every
private function or method of the package is used somewhere in it, and the
command line imports only the modules it always needs: ``check``, ``twist``,
``decalage`` and ``delta`` run, with their golden output, and the criterion-6
round trip runs, where numpy cannot be imported.  No module imports
``dataclasses``, so no command loads it, or ``inspect`` behind it, and no
module imports numpy."""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import json
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


def _python(code: str, *args: str) -> str:
    """Standard output of a fresh interpreter running ``code`` with the package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                                   os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=300).stdout


def test_cli_imports_only_its_floor():
    """``import globkernel.cli`` loads exactly the modules every command needs, and no numpy.

    Each CLI job is a fresh process, often without cached bytecode, so every
    module it imports is compiled again; ``omega``, ``globular``, ``twist``,
    ``decalage``, ``finsets`` and ``fixtures`` are imported only by the
    commands that use them, and ``testcat`` by none.
    """
    probe = ("import sys, globkernel.cli; "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'globkernel')))\n"
             "print('numpy' in sys.modules)")
    modules, numpy_loaded = _python(probe).splitlines()
    assert modules.split() == [f"globkernel{suffix}" for suffix in ("", ".cli", ".errors", ".report")]
    assert numpy_loaded == "False"


# Runs ``cli.main`` on the argument list in ``sys.argv[1]`` and prints its exit
# code, then the sorted names of the package's modules it loaded.
_COMMAND = """
import contextlib, io, json, sys
from globkernel import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'globkernel'))
"""


@pytest.mark.parametrize("argv, loaded", [
    pytest.param(argv, loaded, id=argv[0]) for argv, loaded in (
        (["check", "{file}"], "globular light omega"),
        (["twist", "{file}", "-o", "{out}"], "globular light omega twist"),
        (["decalage", "{file}", "--max-dim", "2"], "decalage globular light omega twist"),
        (["delta", "--max-n", "3"], "finsets light"),
    )
])
def test_each_command_imports_only_its_floor(tmp_path, argv, loaded):
    """A command job loads the floor of ``import globkernel.cli`` and the modules it
    runs, and no other module of the package: ``delta`` runs only ``finsets`` and
    the ``light`` reader it imports, and ``decalage`` no ``finsets``."""
    from globkernel import fixtures, omega

    path = tmp_path / "z2.json"
    x = fixtures.delooping(fixtures.NAMED_GROUPS["z2"](), 3)
    path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")
    argv = [arg.format(file=path, out=tmp_path / "out.json") for arg in argv]
    code, *modules = _python(_COMMAND, json.dumps(argv)).split()
    assert code == "0"
    floor = ("", ".cli", ".errors", ".report")
    assert modules == sorted([f"globkernel{suffix}" for suffix in floor]
                             + [f"globkernel.{name}" for name in loaded.split()])


def test_twist_imports_no_numpy():
    """The twisted complex, its products, the décalage sweeps and the finite categories
    run on plain lists and tuples: importing ``twist`` or ``decalage`` loads neither
    numpy nor ``testcat``, and ``decalage`` no ``finsets`` either; importing ``finsets``
    loads none of the omega-groupoid modules and no ``testcat``, and importing
    ``testcat`` loads neither numpy nor the omega-groupoid modules, so a criterion-8
    job compiles none of them."""
    for module, banned in (("twist", "testcat"), ("decalage", "finsets testcat"),
                           ("finsets", "decalage omega testcat twist"),
                           ("testcat", "decalage omega twist")):
        banned = {"numpy", *(f"globkernel.{name}" for name in banned.split())}
        probe = f"import sys, globkernel.{module}; print(sorted({banned!r} & set(sys.modules)))"
        assert _python(probe) == "[]\n", module


@pytest.mark.parametrize("module", ("cli", "twist", "decalage"))
def test_commands_load_no_dataclasses(module):
    """``dataclasses`` costs every job its import and ``inspect``'s behind it."""
    probe = f"import sys, globkernel.{module}; print(sorted({{'dataclasses', 'inspect'}} & set(sys.modules)))"
    assert _python(probe) == "[]\n"


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, relative imports left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return found


def test_imported_modules_are_found():
    source = "import os.path, dataclasses as dc\nfrom dataclasses import field\nfrom .errors import Record\n"
    assert imported_modules(source) == {"os", "dataclasses"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_imports_no_dataclasses(path):
    # nor numpy, which no part of the package needs
    assert not {"dataclasses", "numpy"} & imported_modules(path.read_text(encoding="utf-8"))


def test_cli_group_names_are_the_named_groups():
    """``cli`` holds the ``--group`` choices itself, so that building its parser
    imports no ``fixtures``; they must be the groups ``fixtures`` names."""
    from globkernel import cli, fixtures

    assert cli.GROUP_NAMES == tuple(sorted(fixtures.NAMED_GROUPS))


def _round_trip(path: str) -> list[int]:
    """Criterion 6 on the structure in ``path``, over every table of width and
    entries up to 3 below its truncation: the number of tables, paired and mixed
    tuples, and of tuples that contract and expand (or expand and contract) to
    something other than themselves."""
    from globkernel import omega, twist
    from globkernel.globular import all_tables

    with open(path, encoding="utf-8") as handle:
        x = omega.omega_from_json(json.load(handle))
    tables = all_tables(3, min(3, x.truncation - 1))
    paired = mixed = mismatches = 0
    for table in tables:
        tuples, mixed_tuples = twist.twisted_product(x, table), twist.mixed_product(x, table)
        paired, mixed = paired + len(tuples), mixed + len(mixed_tuples)
        mismatches += sum(twist.expand_product(x, twist.contract_product(x, table, tup)) != tup
                          for tup in tuples)
        mismatches += sum(twist.contract_product(x, table, twist.expand_product(x, m)) != m
                          for m in mixed_tuples)
    return [len(tables), paired, mixed, mismatches]


# Runs ``cli.main`` on each argument list of a JSON object and ``_round_trip``
# on each further path, and prints the exit codes and standard outputs, and
# the round trips' counts, with every import of numpy made to fail.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from globkernel import cli
results = {}
for key, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results[key] = [code, out.getvalue()]
""" + inspect.getsource(_round_trip) + """
for path in sys.argv[2:]:
    results[path] = _round_trip(path)
print(json.dumps(results))
"""


def test_check_runs_without_numpy(tmp_path):
    """``check`` gives every golden output, and a fault's capped witness lists, with numpy unimportable."""
    from globkernel import cli, omega
    from test_golden import CASES, FORMATS, GOLDEN, _comp_fault

    jobs, want = {}, {}
    for name, x in CASES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")
        for fmt in FORMATS:
            golden = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
            jobs[f"{name}.{fmt}"] = ["check", str(path), "--format", fmt]
            want[f"{name}.{fmt}"] = [1 if "FAIL" in golden else 0, golden]
    # a fault that breaks the structure and four axioms, at the smallest and the default cap
    fault = _comp_fault(CASES["delooping_z3_3"], 1, 0, "1", "2", "1")
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(omega.omega_to_json(fault)), encoding="utf-8")
    for cap in ("1", "100"):
        for fmt in FORMATS:
            argv = ["check", str(path), "--cap", cap, "--format", fmt]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            jobs[f"fault.{cap}.{fmt}"], want[f"fault.{cap}.{fmt}"] = argv, [code, out.getvalue()]
    assert json.loads(_python(_WITHOUT_NUMPY, json.dumps(jobs))) == want


def test_twist_runs_without_numpy(tmp_path):
    """``twist`` writes every golden file, the twice-twisted chains included, and
    the criterion-6 round trip on delooping Z/3 gives the counts it gives here,
    with numpy unimportable."""
    from globkernel import omega
    from test_golden import GOLDEN, TWIST_CASES

    jobs, want, written = {}, {}, {}
    for name, (x, depth) in TWIST_CASES.items():
        path = tmp_path / f"{name}_k0.json"
        path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")
        for k in range(1, depth + 1):
            out = tmp_path / f"{name}_k{k}.json"
            jobs[out.name] = ["twist", str(path), "-o", str(out)]
            want[out.name] = [0, f"wrote twisted structure (truncation {x.truncation - k}) to {out}\n"]
            path = out
        written[name] = path
    trip = str(tmp_path / "delooping_z3_3_k0.json")
    results = json.loads(_python(_WITHOUT_NUMPY, json.dumps(jobs), trip))
    assert {key: results[key] for key in jobs} == want
    for name, path in written.items():
        assert path.read_bytes() == (GOLDEN / f"twist_{name}.json").read_bytes(), name
    tables, paired, mixed, mismatches = results[trip]
    assert mismatches == 0 and paired == mixed > 0
    assert results[trip] == _round_trip(trip)


def test_decalage_runs_without_numpy(tmp_path):
    """``decalage`` on every corpus structure and ``delta`` at every golden size,
    in both formats, give their golden output with numpy unimportable."""
    from globkernel import omega
    from test_golden import CASES, DELTA_SIZES, FORMATS, GOLDEN, corpus

    jobs, want = {}, {}
    for name in corpus():
        x = CASES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")
        jobs[name] = ["decalage", str(path), "--max-dim", str(x.truncation - 1)]
        want[name] = (GOLDEN / f"decalage_{name}.text").read_text(encoding="utf-8")
    for max_n in DELTA_SIZES:
        for fmt in FORMATS:
            jobs[f"delta_{max_n}.{fmt}"] = ["delta", "--max-n", str(max_n), "--format", fmt]
            want[f"delta_{max_n}.{fmt}"] = (GOLDEN / f"delta_{max_n}.{fmt}").read_text(encoding="utf-8")
    want = {key: [1 if "FAIL" in golden else 0, golden] for key, golden in want.items()}
    assert json.loads(_python(_WITHOUT_NUMPY, json.dumps(jobs))) == want
