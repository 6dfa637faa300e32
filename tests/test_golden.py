"""Byte-for-byte snapshots of ``check``, ``twist`` and ``decalage`` output.

The ``check`` snapshots in ``golden/`` cover the fixture corpus and the
fault-injected tables of acceptance criterion 3, in text and JSON.  They pin
the verdict lines, the first witness of every failing sweep and its detail
text.  The ``twist`` snapshots are the files ``twist`` writes for each corpus
structure and for two chains twisted twice; they pin every cell name, table
entry and key order of the twisted complex.  The ``decalage`` snapshots are
its text output on the corpus.  The ``delta`` snapshots are its output at
``--max-n`` 3 and 4, in text and JSON.  Regenerate them only for an intended
change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from globkernel import cli, fixtures, omega

from conftest import corpus

GOLDEN = Path(__file__).parent / "golden"
FORMATS = ("text", "json")


def _comp_fault(x, i, j, u, v, value):
    tables = {key: dict(t) for key, t in x.comp.items()}
    tables[(i, j)][(u, v)] = value
    return omega.OmegaStructure(x.base, tables, x.unit, x.inv)


def _inv_fault(x, i, j, u, value):
    tables = {key: dict(t) for key, t in x.inv.items()}
    tables[(i, j)][u] = value
    return omega.OmegaStructure(x.base, x.comp, x.unit, tables)


def _comp_hole(x, i, j, u, v):
    tables = {key: dict(t) for key, t in x.comp.items()}
    del tables[(i, j)][(u, v)]
    return omega.OmegaStructure(x.base, tables, x.unit, x.inv)


def cases() -> dict:
    """Snapshot name -> structure: the corpus, the criterion-3 faults, one hole."""
    out = dict(corpus())
    z3 = out["delooping_z3_3"]
    sus = out["suspension_z3_2_4"]
    out.update({
        "fault_left_unit": _comp_fault(z3, 1, 0, "0", "2", "1"),
        "fault_right_unit": _comp_fault(z3, 1, 0, "2", "0", "1"),
        "fault_assoc": _comp_fault(z3, 1, 0, "1", "1", "0"),
        "fault_exchange": _comp_fault(sus, 2, 1, "1", "1", "0"),
        "fault_unit_compat": _comp_fault(z3, 2, 0, "1", "1", "0"),
        "fault_inverse": _inv_fault(z3, 1, 0, "1", "1"),
        "hole_comp": _comp_hole(z3, 1, 0, "1", "1"),
    })
    return out


CASES = cases()


def render(x, fmt: str) -> tuple[int, str]:
    """Exit code and standard output of ``check`` on a file holding ``x``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check", str(path), "--format", fmt])
    return code, out.getvalue()


# twist inputs: the corpus once, and two chains twisted twice.  The second
# round on the suspension runs on a base whose 2-cells have distinct source
# and target, which no corpus structure has.
TWIST_CASES = {name: (x, 1) for name, x in corpus().items()}
TWIST_CASES["delooping_z3_4"] = (fixtures.delooping(fixtures.cyclic_table(3), 4), 2)
TWIST_CASES["suspension_z2_2_4"] = (fixtures.suspension(fixtures.cyclic_table(2), 2, 4), 2)


def render_twist(x, depth: int) -> bytes:
    """The bytes of the file ``twist`` writes after ``depth`` rounds on ``x``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "k0.json"
        path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")
        for k in range(1, depth + 1):
            out = Path(tmp) / f"k{k}.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["twist", str(path), "-o", str(out)]) == 0
            path = out
        return path.read_bytes()


def render_decalage(x) -> tuple[int, str]:
    """Exit code and text output of ``decalage`` at the deepest admissible ``--max-dim``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.json"
        path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["decalage", str(path), "--max-dim", str(x.truncation - 1)])
    return code, out.getvalue()


def render_delta(max_n: int, fmt: str) -> tuple[int, str]:
    """Exit code and standard output of ``delta --max-n max_n``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["delta", "--max-n", str(max_n), "--format", fmt])
    return code, out.getvalue()


DELTA_SIZES = (3, 4)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_check_output_matches_snapshot(name, fmt):
    code, stdout = render(CASES[name], fmt)
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert stdout == want
    assert code == (1 if "FAIL" in want else 0)


@pytest.mark.parametrize("name", sorted(TWIST_CASES))
def test_twist_file_matches_snapshot(name):
    got = render_twist(*TWIST_CASES[name])
    assert got == (GOLDEN / f"twist_{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(corpus()))
def test_decalage_output_matches_snapshot(name):
    code, stdout = render_decalage(CASES[name])
    want = (GOLDEN / f"decalage_{name}.text").read_text(encoding="utf-8")
    assert stdout == want
    assert code == (1 if "FAIL" in want else 0)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("max_n", DELTA_SIZES)
def test_delta_output_matches_snapshot(max_n, fmt):
    code, stdout = render_delta(max_n, fmt)
    want = (GOLDEN / f"delta_{max_n}.{fmt}").read_text(encoding="utf-8")
    assert stdout == want
    assert code == (1 if "FAIL" in want else 0)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, x in CASES.items():
        for fmt in FORMATS:
            (GOLDEN / f"{name}.{fmt}").write_text(render(x, fmt)[1], encoding="utf-8")
    for name, (x, depth) in TWIST_CASES.items():
        (GOLDEN / f"twist_{name}.json").write_bytes(render_twist(x, depth))
    for name, x in corpus().items():
        (GOLDEN / f"decalage_{name}.text").write_text(render_decalage(x)[1], encoding="utf-8")
    for max_n in DELTA_SIZES:
        for fmt in FORMATS:
            (GOLDEN / f"delta_{max_n}.{fmt}").write_text(render_delta(max_n, fmt)[1], encoding="utf-8")
    sys.exit(0)
