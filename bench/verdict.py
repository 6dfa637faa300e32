"""Reading verdicts back from what a ``globkernel`` command printed.

A verdict is the exit code plus one ``(check, scope, status, witness)`` row
per checked scope.  Text output carries them as ``CHECK`` lines; with
``--format json`` they are a JSON list.  ``delta --format json`` prints its
generator lines before that list, so JSON is read from the first line that
opens it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

_CHECK_LINE = re.compile(r"^CHECK (\S+) (.+?) (PASS|FAIL)(?: (.*))?$")
_WITNESS = re.compile(r"^(\w+)\(([\d,]*)\) on \[(.*)\]: (.*)$")


@dataclass(frozen=True)
class Row:
    check: str
    scope: str
    status: str
    witness: str | None


@dataclass(frozen=True)
class Witness:
    law: str
    where: tuple[int, ...]
    cells: tuple[str, ...]
    detail: str


def parse_rows(stdout: str, fmt: str) -> list[Row]:
    """Every verdict row, from text ``CHECK`` lines or from the JSON list."""
    if fmt == "json":
        lines = stdout.splitlines()
        start = next((k for k, line in enumerate(lines) if line.startswith("[")), None)
        if start is None:
            raise ValueError("no JSON list in output")
        payload = json.loads("\n".join(lines[start:]))
        return [Row(e["check"], e["scope"], e["status"], e["witness"]) for e in payload]
    rows = []
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match:
            rows.append(Row(*match.groups()))
    return rows


def parse_witness(text: str) -> Witness:
    """Split ``law(i,j) on [u, v]: detail`` into its parts."""
    match = _WITNESS.match(text)
    if match is None:
        raise ValueError(f"unrecognised witness {text!r}")
    law, where, cells, detail = match.groups()
    return Witness(
        law,
        tuple(int(v) for v in where.split(",") if v),
        tuple(cells.split(", ")),
        detail,
    )
