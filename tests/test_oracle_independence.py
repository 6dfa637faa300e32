"""The kernel keeps no copy of an oracle.

A differential test compares a fast path with ``tests/oracles.py``; a kernel
function whose body is an oracle's body compares that code with itself.  So
no function of ``globkernel`` with three or more statements may have a body,
docstring dropped, that unparses to the text of an oracle function's body.
"""

from __future__ import annotations

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "globkernel"


def bodies(source: str, least: int = 0) -> dict[str, list[str]]:
    """Unparsed body, docstring dropped, to the names of the functions and methods
    of ``source`` that have it, for bodies of at least ``least`` statements."""
    found: dict[str, list[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
            if len(body) >= least:
                found.setdefault("\n".join(map(ast.unparse, body)), []).append(node.name)
    return found


def copied_bodies(kernel_sources: dict[str, str], oracle_source: str) -> list[tuple[str, str]]:
    """``(module.function, oracle)`` for each kernel function of three or more
    statements whose body is an oracle function's body."""
    oracles = bodies(oracle_source)
    return sorted((f"{module}.{name}", oracle)
                  for module, source in kernel_sources.items()
                  for text, names in bodies(source, 3).items() if text in oracles
                  for name in names for oracle in oracles[text])


def test_kernel_copies_no_oracle_body():
    kernel = {path.stem: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert copied_bodies(kernel, (TESTS / "oracles.py").read_text(encoding="utf-8")) == []


def test_copied_bodies_are_found():
    oracle = '''
def ref_total(xs):
    total = 0
    for x in xs:
        total += x
    return total

def ref_head(xs):
    return xs[0]
'''
    kernel = {"sums": '''
class Sums:
    def total(self, xs):
        """A docstring and a comment are no statements."""
        total = 0  # running sum
        for x in xs:
            total += x
        return total

def other(xs):
    total = 1
    for x in xs:
        total += x
    return total

def head(xs):
    return xs[0]
'''}
    # a copy under another name and formatting is found; a changed body, and a body
    # below three statements, are not
    assert copied_bodies(kernel, oracle) == [("sums.total", "ref_total")]
