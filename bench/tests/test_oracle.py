"""The benchmark's independent answers agree with brute force and the library.

Run from the checkout root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import itertools
import json
import random

import oracle
import pytest
import workloads
from verdict import parse_rows, parse_witness

from globkernel import cli, fixtures, omega, testcat, twist


def corpus():
    cyc = fixtures.cyclic_table
    return {
        "discrete_ab_3": fixtures.discrete(("a", "b"), 3),
        "delooping_z2_3": fixtures.delooping(cyc(2), 3),
        "delooping_z3_3": fixtures.delooping(cyc(3), 3),
        "delooping_s3_3": fixtures.delooping(fixtures.symmetric3_table(), 3),
        "suspension_z2_1_3": fixtures.suspension(cyc(2), 1, 3),
        "suspension_z3_2_4": fixtures.suspension(cyc(3), 2, 4),
        "product_z2_sz2": fixtures.product(fixtures.delooping(cyc(2), 3),
                                           fixtures.suspension(cyc(2), 1, 3)),
    }


CORPUS = {name: omega.omega_to_json(x) for name, x in corpus().items()}


def brute_bnd(data, kind, i, j, u):
    for d in range(i, j, -1):
        u = data[kind][d - 1][u]
    return u


def brute_instances(data, axiom, sub):
    """Filter the full cartesian product of cells by the gluing equations."""
    i, j = sub[0], sub[1]
    cells = data["cells"][i]

    def glued(a, b, low):  # s_low(a) = t_low(b)
        return brute_bnd(data, "src", i, low, a) == brute_bnd(data, "tgt", i, low, b)

    if axiom in ("left_unit", "right_unit", "left_inverse", "right_inverse"):
        return len(cells)
    if axiom == "unit_compat":
        return sum(glued(u, v, j) for u, v in itertools.product(cells, repeat=2))
    if axiom == "assoc":
        return sum(glued(u, v, j) and glued(v, w, j)
                   for u, v, w in itertools.product(cells, repeat=3))
    k = sub[2]
    return sum(glued(u, up, j) and glued(up, v, k) and glued(v, vp, j)
               for u, up, v, vp in itertools.product(cells, repeat=4))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_instance_counts_match_brute_force(name):
    data = CORPUS[name]
    raw = oracle.RawTables(data)
    for axiom in oracle.AXIOMS:
        counts = oracle.instance_counts(raw, axiom)
        assert counts, axiom
        for sub, n in counts.items():
            assert n == brute_instances(data, axiom, sub), (axiom, sub)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_twisted_cell_counts_match_library(name):
    x = omega.omega_from_json(CORPUS[name])
    want = [len(twist.twisted_cells(x, level)) for level in range(x.truncation)]
    assert oracle.twisted_cell_counts(oracle.RawTables(CORPUS[name])) == want


def test_finite_set_counts_match_library():
    cat = testcat.delta_truncated(2)
    morphisms, total, nondeg = oracle.hom_counts_nerve(2, 3)
    counts = testcat.nerve(cat, 3)
    assert (morphisms, total, nondeg) == (len(cat.morphisms), counts.total, counts.nondegenerate)
    assert oracle.shift_pair_count(1) == sum(
        (n + 1) ** (m + 1) * (p + 1) ** (n + 1) for m in (0, 1) for n in (0, 1) for p in (0, 1))


SMALL = {
    "delooping_z5": omega.omega_to_json(fixtures.delooping(fixtures.cyclic_table(5), 3)),
    "delooping_s3": omega.omega_to_json(fixtures.delooping(fixtures.symmetric3_table(), 3)),
    "suspension_z4": omega.omega_to_json(fixtures.suspension(fixtures.cyclic_table(4), 2, 3)),
    "product_z2_z3": omega.omega_to_json(fixtures.product(
        fixtures.delooping(fixtures.cyclic_table(2), 3),
        fixtures.delooping(fixtures.cyclic_table(3), 3))),
}
KINDS = [(kind, "suspension_z4" if kind == "exchange" else name)
         for kind in ("left_unit", "right_unit", "assoc", "exchange", "unit_compat",
                      "left_inverse", "right_inverse", "unit_table", "boundary")
         for name in ("delooping_z5", "delooping_s3", "product_z2_z3")]


@pytest.mark.parametrize("kind,name", sorted(set(KINDS)))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_mutant_loads_and_is_caught(kind, name, seed):
    mutant, target, want = workloads.make_mutant(kind, SMALL[name], random.Random(seed))
    x = omega.omega_from_json(mutant)  # loads: the command would not exit 2
    if target == "structure":
        got = omega.check_structure(x, cap=1).violations
    else:
        got = omega.check_axiom(x, target.split(":", 1)[1], None, cap=1)
    assert len(got) == 1
    law, where, cells, detail = want
    assert (got[0].law, got[0].where, got[0].witness) == (law, where, cells)
    if detail is not None:
        assert got[0].detail.startswith(detail)


def test_unit_faults_of_a_lawful_structure_are_none():
    for data in SMALL.values():
        raw = oracle.RawTables(data)
        assert oracle.first_structure_violation(raw) is None
        assert all(oracle.first_axiom_violation(raw, a) is None for a in oracle.AXIOMS)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_parser_reads_fail_lines_with_witnesses(tmp_path, capsys, fmt):
    mutant, target, want = workloads.make_mutant("left_inverse", SMALL["product_z2_z3"],
                                                 random.Random(5))
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(mutant), encoding="utf-8")
    code = cli.main(["check", str(path), "--cap", "1", "--format", fmt])
    out = capsys.readouterr().out
    rows = parse_rows(out, fmt)
    assert code == 1
    assert [r.check for r in rows] == workloads.CHECK_ROWS
    row = next(r for r in rows if r.check == target)
    witness = parse_witness(row.witness)
    assert row.status == "FAIL"
    assert (witness.law, witness.where, witness.cells) == want[:3]
    assert workloads._expect_fault(fmt, target, want)(code, out) == []


def test_parser_handles_nested_names_and_scopes_with_spaces():
    rows = parse_rows(
        "CHECK axiom:assoc all FAIL assoc(2,0) on [(a|(b|c)), (0,1), x]: (p|q) != (q|p)\n"
        "CHECK lift-non-naturality level 0 vs 1 PASS witness 1: ('0', '1') != ('1',)\n"
        "not a verdict line\n", "text")
    assert [(r.check, r.scope, r.status) for r in rows] == [
        ("axiom:assoc", "all", "FAIL"), ("lift-non-naturality", "level 0 vs 1", "PASS")]
    witness = parse_witness(rows[0].witness)
    assert witness.where == (2, 0)
    assert witness.cells == ("(a|(b|c))", "(0,1)", "x")
    assert witness.detail == "(p|q) != (q|p)"


def test_parser_skips_delta_header_before_json(capsys):
    header = "comp: 1->2 (0, 2)   shift: 2->3 (0, 2, 3)\n"
    payload = [{"check": "shift-identity", "scope": "n<=1", "status": "PASS", "witness": None}]
    rows = parse_rows(header + json.dumps(payload, indent=2) + "\n", "json")
    assert [(r.check, r.status) for r in rows] == [("shift-identity", "PASS")]
    assert cli.main(["delta", "--max-n", "1", "--format", "json"]) == 0
    rows = parse_rows(capsys.readouterr().out, "json")
    assert rows and all(r.status == "PASS" for r in rows)
