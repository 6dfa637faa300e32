"""The four workloads: their inputs, why each was chosen, and known answers.

``build(workload, seed, workdir)`` writes every input file under ``workdir``
and returns the jobs to run, grouped in units.  A unit is a chain whose jobs
must run in order (``twist`` then ``check`` of its output); the seed draws
the fault positions and the order of the units.  Each job carries its own
known answer as a ``verify(exit_code, stdout) -> problems`` function.

Inputs come from ``globkernel.fixtures``; the known answers come from
``oracle``, which reads the written JSON and never calls the library.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle
from verdict import parse_rows, parse_witness

from globkernel import fixtures, omega

CLI = ["-m", "globkernel.cli"]
CHECK_ROWS = ["structure"] + [f"axiom:{a}" for a in oracle.AXIOMS]
DELTA_CHECKS = {
    "shift-generators", "shift-identity", "shift-composition",
    "shift-inclusion-square", "shift-point-square", "shift-retraction",
}
DECALAGE_CHECKS = {
    "section", "apex-naturality", "endpoint-naturality",
    "unit-closed-form", "lift-non-naturality",
}


@dataclass
class Job:
    """One fresh process producing one verdict."""

    name: str
    kind: str  # check | twist | decalage | delta | roundtrip | separating
    params: dict
    verify: Callable[[int, str], list[str]]

    def argv(self) -> list[str]:
        p = self.params
        if self.kind == "check":
            return CLI + ["check", p["input"], "--cap", str(p["cap"]), "--format", p["fmt"]]
        if self.kind == "twist":
            return CLI + ["twist", p["input"], "-o", p["output"]]
        if self.kind == "decalage":
            return CLI + ["decalage", p["input"], "--max-width", "3", "--max-dim", "3"]
        if self.kind == "delta":
            return CLI + ["delta", "--max-n", str(p["max_n"]), "--format", p["fmt"]]
        return [f"bench/drivers/{self.kind}.py"] + ([p["input"]] if "input" in p else [])


@dataclass
class Workload:
    units: list[list[Job]]
    notes: list[str] = field(default_factory=list)

    def jobs(self) -> list[Job]:
        return [job for unit in self.units for job in unit]


# -- inputs ------------------------------------------------------------------------
#
# name -> (constructor, why).  Sizes were picked so that one pass over a workload
# takes a few seconds on one core, leaving room for several passes per run.

def _cyc(n):
    return fixtures.cyclic_table(n)


INPUTS: dict[str, tuple[Callable, str]] = {
    "delooping_z8": (lambda: fixtures.delooping(_cyc(8), 4),
                     "small delooping: interpreter start and import dominate"),
    "delooping_z16": (lambda: fixtures.delooping(_cyc(16), 4),
                      "mid delooping: associativity (4 n^3 instances) starts to dominate"),
    "delooping_z24": (lambda: fixtures.delooping(_cyc(24), 4),
                      "largest delooping: associativity is most of the check"),
    "suspension_z8": (lambda: fixtures.suspension(_cyc(8), 2, 4),
                      "suspension at dim 2: exchange has ~3 n^4 instances"),
    "suspension_z12": (lambda: fixtures.suspension(_cyc(12), 2, 4),
                       "largest suspension: exchange is most of the check"),
    "delooping_s3": (lambda: fixtures.delooping(fixtures.symmetric3_table(), 4),
                     "non-abelian group: names that are not digits"),
    "product_z2_z3": (lambda: fixtures.product(fixtures.delooping(_cyc(2), 4),
                                               fixtures.delooping(_cyc(3), 4)),
                      "product: parenthesised pair names, six 1-cells"),
    "delooping_z4_t5": (lambda: fixtures.delooping(_cyc(4), 5),
                        "twist chain to k = 3: 256-cell levels, 0.8 MB file at k = 3"),
    "delooping_z5_t5": (lambda: fixtures.delooping(_cyc(5), 5),
                        "twist chain to k = 2: more cells per level than Z/4"),
    "suspension_z3_d1_t5": (lambda: fixtures.suspension(_cyc(3), 1, 5),
                            "twist chain from a suspension: different gluing pattern"),
    "delooping_z3": (lambda: fixtures.delooping(_cyc(3), 4),
                     "criterion-6 round trip, 3.4k paired tuples"),
    "delooping_z4": (lambda: fixtures.delooping(_cyc(4), 4),
                     "criterion-6 round trip, 9.7k paired tuples; decalage sweeps"),
    "delooping_z6": (lambda: fixtures.delooping(_cyc(6), 4),
                     "decalage sweeps over larger globular products"),
    "suspension_z4_d1_t5": (lambda: fixtures.suspension(_cyc(4), 1, 5),
                            "decalage on a suspension, one level deeper"),
}


def _input_data(name: str) -> dict:
    return omega.omega_to_json(INPUTS[name][0]())


def _write_input(name: str, workdir: Path) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(_input_data(name), indent=2) + "\n", encoding="utf-8")
    return str(path)


# -- known answers -----------------------------------------------------------------


def _rows(stdout: str, fmt: str, problems: list[str]):
    try:
        return parse_rows(stdout, fmt)
    except (ValueError, KeyError) as exc:
        problems.append(f"unparsable output: {exc}")
        return []


def _expect_lawful(fmt: str):
    def verify(code: int, stdout: str) -> list[str]:
        problems = [] if code == 0 else [f"exit {code}, want 0"]
        rows = _rows(stdout, fmt, problems)
        if [r.check for r in rows] != CHECK_ROWS:
            problems.append(f"rows {[r.check for r in rows]}")
        problems += [f"{r.check} {r.status}" for r in rows if r.status != "PASS"]
        return problems
    return verify


def _expect_fault(fmt: str, target: str, want):
    law, where, cells, detail = want

    def verify(code: int, stdout: str) -> list[str]:
        problems = [] if code == 1 else [f"exit {code}, want 1"]
        rows = {r.check: r for r in _rows(stdout, fmt, problems)}
        row = rows.get(target)
        if list(rows) != CHECK_ROWS or row is None or row.status != "FAIL":
            return problems + [f"{target} did not FAIL"]
        try:
            got = parse_witness(row.witness)
        except (TypeError, ValueError) as exc:
            return problems + [str(exc)]
        if (got.law, got.where, got.cells) != (law, where, cells):
            problems.append(f"witness {got.law}{got.where}{got.cells}, want {law}{where}{cells}")
        elif detail == "not evaluable":
            if not got.detail.startswith("not evaluable"):
                problems.append(f"detail {got.detail!r}, want not evaluable")
        elif detail is not None and got.detail != detail:
            problems.append(f"detail {got.detail!r}, want {detail!r}")
        return problems
    return verify


def _expect_twist(source: str, output: str):
    """Cell counts per level must match the glued tuples of the source tables.

    The source of a later link is the previous link's output, so its answer
    is computed when the job is verified, from the file the job read.
    """
    def verify(code: int, stdout: str) -> list[str]:
        if code != 0:
            return [f"exit {code}, want 0"]
        try:
            want = oracle.twisted_cell_counts(oracle.RawTables(_read(source)))
            got = [len(layer) for layer in _read(output)["cells"]]
        except (OSError, ValueError, KeyError) as exc:
            return [f"output unreadable: {exc}"]
        return [] if got == want else [f"cells per level {got}, want {want}"]
    return verify


def _read(path: str) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _expect_all_pass(fmt: str, names: set[str], witness_check: str | None = None):
    def verify(code: int, stdout: str) -> list[str]:
        problems = [] if code == 0 else [f"exit {code}, want 0"]
        rows = _rows(stdout, fmt, problems)
        if {r.check for r in rows} != names:
            problems.append(f"checks {sorted({r.check for r in rows})}")
        problems += [f"{r.check} {r.scope} {r.status}" for r in rows if r.status != "PASS"]
        if witness_check is not None and not any(
            r.check == witness_check and (r.witness or "").startswith("witness") for r in rows
        ):
            problems.append(f"{witness_check} shows no witness")
        return problems
    return verify


def _expect_json(check: Callable[[dict], bool]):
    def verify(code: int, stdout: str) -> list[str]:
        try:
            summary = json.loads(stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return [f"exit {code}, no JSON summary"]
        return [] if code == 0 and check(summary) else [f"exit {code}, summary {summary}"]
    return verify


# -- seeded single-entry faults ------------------------------------------------------


def _tower_shape(data: dict) -> tuple[int, str, list[str]]:
    """Group dimension ``d``, identity element and elements of a one-object tower."""
    d = next(i for i, layer in enumerate(data["cells"]) if len(layer) > 1)
    base = data["cells"][d - 1][0]
    return d, data["unit"][d - 1][base], list(data["cells"][d])


def _other(rng: random.Random, pool, avoid):
    return rng.choice([v for v in pool if v != avoid])


def _inject(kind: str, data: dict, rng: random.Random) -> tuple[dict, str]:
    """Change one table entry; return the mutant and the line that must FAIL."""
    data = json.loads(json.dumps(data))
    d, e, elems = _tower_shape(data)
    others = [g for g in elems if g != e]
    if kind in ("left_unit", "right_unit", "assoc", "exchange", "unit_compat"):
        if kind == "exchange":
            i, j = d, d - 1  # horizontal composite of a dim-2 group
        elif kind == "unit_compat":
            i, j = d + 1, 0  # composite of units one dimension up
        else:
            i, j = d, rng.randrange(d)
        g, h = rng.choice(others), rng.choice(others)
        pair = {"left_unit": f"{e}|{g}", "right_unit": f"{g}|{e}"}.get(kind, f"{g}|{h}")
        table = data["comp"][f"{i},{j}"]
        table[pair] = _other(rng, data["cells"][i], table[pair])
        return data, f"axiom:{kind}"
    if kind in ("left_inverse", "right_inverse"):
        table = data["inv"][f"{d},{rng.randrange(d)}"]
        g = rng.choice(elems)
        table[g] = _other(rng, elems, table[g])
        return data, f"axiom:{kind}"
    if kind == "unit_table":
        base = data["cells"][d - 1][0]
        data["unit"][d - 1][base] = rng.choice(others)
        return data, "axiom:left_unit"
    if kind == "boundary":
        g = rng.choice(elems)
        data["unit"][d][g] = _other(rng, data["cells"][d + 1], data["unit"][d][g])
        return data, "structure"
    raise ValueError(f"unknown fault kind {kind!r}")


def first_violation(data: dict, target: str):
    raw = oracle.RawTables(data)
    if target == "structure":
        return oracle.first_structure_violation(raw)
    return oracle.first_axiom_violation(raw, target.split(":", 1)[1])


def make_mutant(kind: str, data: dict, rng: random.Random):
    """Draw faults until one is caught by its target; return mutant, target, witness."""
    for _ in range(100):
        mutant, target = _inject(kind, data, rng)
        want = first_violation(mutant, target)
        if want is not None:
            return mutant, target, want
    raise RuntimeError(f"no {kind} fault caught after 100 draws")


# -- workload definitions ------------------------------------------------------------

CHECK_LADDER = ["delooping_z8", "delooping_z16", "delooping_z24", "suspension_z8",
                "suspension_z12", "delooping_s3", "product_z2_z3"]

# (fault kind, input, cap, format).  Each axiom family is hit once or twice,
# plus one fault in a unit table and one that breaks a boundary law.  cap 1
# stops a sweep at its first witness; cap 100 usually sweeps to the end.
FAULTS = [
    ("left_unit", "delooping_z16", 100, "text"),
    ("right_unit", "delooping_z8", 1, "json"),
    ("assoc", "delooping_z16", 1, "text"),
    ("assoc", "delooping_z8", 100, "json"),
    ("exchange", "suspension_z12", 100, "text"),
    ("exchange", "suspension_z8", 1, "json"),
    ("unit_compat", "delooping_s3", 100, "text"),
    ("left_inverse", "product_z2_z3", 1, "text"),
    ("right_inverse", "delooping_z8", 100, "json"),
    ("unit_table", "delooping_z16", 1, "json"),
    ("boundary", "delooping_s3", 1, "text"),
]

# (input, how many times to twist).  Z/4 to k = 3 is the memory peak.
TWIST_CHAINS = [("delooping_z4_t5", 3), ("delooping_z5_t5", 2), ("suspension_z3_d1_t5", 2)]
ROUND_TRIPS = ["delooping_z3", "delooping_z4"]
DECALAGE_INPUTS = ["delooping_z4", "delooping_z6", "suspension_z4_d1_t5", "product_z2_z3"]

WHY = {
    "check": "lawful ladder, all axioms: the omega sweeps do nearly all the work",
    "faulty": "seeded single-entry faults, cap 1 and 100, text and json: early stops and witnesses",
    "twist": "twist then check chains and criterion-6 round trips: build_twisted and big files",
    "decalage": "decalage, delta and criterion-8 jobs: sections, shift sweep, finite-set category",
}


def _check_job(name, path, cap, fmt, verify) -> Job:
    return Job(name, "check", {"input": path, "cap": cap, "fmt": fmt}, verify)


def build(workload: str, seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    units: list[list[Job]] = []
    notes: list[str] = []

    if workload == "check":
        for name in CHECK_LADDER:
            path = _write_input(name, workdir)
            units.append([_check_job(f"check {name}", path, 100, "text", _expect_lawful("text"))])

    elif workload == "faulty":
        written = {}
        for k, (kind, name, cap, fmt) in enumerate(FAULTS):
            if name not in written:
                written[name] = _input_data(name)
            mutant, target, want = make_mutant(kind, written[name], rng)
            path = workdir / f"fault{k}_{kind}_{name}.json"
            path.write_text(json.dumps(mutant, indent=2) + "\n", encoding="utf-8")
            notes.append(f"fault {k}: {kind} on {name} -> {target} {want[0]}{want[1]} {list(want[2])}")
            units.append([_check_job(f"fault {kind} {name} cap{cap} {fmt}", str(path), cap, fmt,
                                     _expect_fault(fmt, target, want))])

    elif workload == "twist":
        for name, depth in TWIST_CHAINS:
            path = _write_input(name, workdir)
            unit = []
            for k in range(1, depth + 1):
                out = str(workdir / f"{name}_k{k}.json")
                unit.append(Job(f"twist {name} k={k}", "twist", {"input": path, "output": out},
                                _expect_twist(path, out)))
                unit.append(_check_job(f"check {name} k={k}", out, 100, "text",
                                       _expect_lawful("text")))
                path = out
            units.append(unit)
        for name in ROUND_TRIPS:
            path = _write_input(name, workdir)
            units.append([Job(f"roundtrip {name}", "roundtrip", {"input": path},
                              _expect_json(lambda s: s["mismatches"] == 0
                                           and s["paired"] == s["mixed"] > 0))])

    elif workload == "decalage":
        for name in DECALAGE_INPUTS:
            path = _write_input(name, workdir)
            units.append([Job(f"decalage {name}", "decalage", {"input": path},
                              _expect_all_pass("text", DECALAGE_CHECKS, "lift-non-naturality"))])
        for max_n, fmt in ((3, "text"), (4, "text"), (3, "json")):
            units.append([Job(f"delta max-n={max_n} {fmt}", "delta", {"max_n": max_n, "fmt": fmt},
                              _expect_all_pass(fmt, DELTA_CHECKS))])
        morphisms, total, nondeg = oracle.hom_counts_nerve(3, 3)
        want = {"morphisms": morphisms, "separates": True, "terminal": "[0]",
                "nerve_total": list(total), "nerve_nondegenerate": list(nondeg)}
        units.append([Job("separating", "separating", {}, _expect_json(lambda s: s == want))])

    else:
        raise ValueError(f"unknown workload {workload!r}")

    rng.shuffle(units)
    return Workload(units, notes)
