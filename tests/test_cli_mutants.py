"""The CLI exit-code contract on mutated structure files.

Each example takes the JSON of a corpus structure and changes one thing in
it: the type of a value, a key, a cell name, or an entry deleted.  ``check``,
``twist`` and ``decalage`` must exit 0, 1 or 2 and never let an exception
out.  A file that ``check`` accepts must twist, and ``check`` must accept the
twisted file too: the twisted complex of a lawful structure is lawful.  It
must also pass ``decalage``, which holds it to no law beyond those.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from globkernel import cli, omega

from conftest import GHOST, corpus

SOURCES = {name: omega.omega_to_json(x) for name, x in corpus().items()}
VALUES = (0, -1, 2.5, True, None, "", "0", GHOST, [], ["0"], {}, {"0": "0"}, "a|b", "(")


def _paths(node, prefix=()):
    """Every path to a value below ``node``, parents first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(data, path):
    for key in path[:-1]:
        data = data[key]
    return data


@st.composite
def mutants(draw):
    data = copy.deepcopy(SOURCES[draw(st.sampled_from(sorted(SOURCES)))])
    path = draw(st.sampled_from(list(_paths(data))))
    parent, key = _parent(data, path), path[-1]
    # "name" renames a cell name where the path ends at one, and keeps the file otherwise
    kind = draw(st.sampled_from(("type", "key", "name", "delete")))
    if kind == "type":
        parent[key] = draw(st.sampled_from(VALUES))
    elif kind == "delete":
        del parent[key]
    elif kind == "key" and isinstance(parent, dict):
        # rename the key in place: a field name, a "(i, j)" or "u|v" key, or a cell
        new = draw(st.sampled_from(("ghost", "", "0", "1,0", "9,9", "0|0", "0|ghost", "inv")))
        items = [(new if k == key else k, v) for k, v in parent.items()]
        parent.clear()
        parent.update(items)
    elif isinstance(parent[key], str):
        parent[key] = draw(st.sampled_from((GHOST, "", "0", "1", "a", "(0|1)", "x|y", "((")))
    return data


def run(argv) -> tuple[int, str]:
    """Exit code and standard error of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


# the unmutated files on which the unit lift is natural: no lift witness
@example(SOURCES["discrete_ab_3"])
@example(SOURCES["suspension_z3_2_4"])
@settings(max_examples=60, deadline=None)
@given(mutants())
def test_mutated_files_keep_the_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        twisted = str(Path(tmp) / "twisted.json")
        checked, _ = run(["check", str(path)])
        code, err = run(["twist", str(path), "-o", twisted])
        decalage, _ = run(["decalage", str(path), "--max-width", "2", "--max-dim", "1"])
        if checked == 0:
            assert code == 0, err
            assert run(["check", twisted])[0] == 0
            assert decalage == 0
