"""Byte-for-byte snapshots of ``check`` output, in text and JSON.

The snapshots in ``golden/`` cover the fixture corpus and the fault-injected
tables of acceptance criterion 3.  They pin the verdict lines, the first
witness of every failing sweep and its detail text.  Regenerate them only for
an intended change of output::

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

from globkernel import cli, omega

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


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_check_output_matches_snapshot(name, fmt):
    code, stdout = render(CASES[name], fmt)
    want = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert stdout == want
    assert code == (1 if "FAIL" in want else 0)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, x in CASES.items():
        for fmt in FORMATS:
            (GOLDEN / f"{name}.{fmt}").write_text(render(x, fmt)[1], encoding="utf-8")
    sys.exit(0)
