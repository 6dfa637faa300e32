"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` and in the
captured output) and enforces its stated time budget.
"""

from __future__ import annotations

import time


from globkernel import decalage, finsets, fixtures, omega, report, twist
from globkernel.globular import all_tables
from globkernel.omega import (
    INVERSE_COMPAT,
    AxiomFlags,
    FULL_FLAGS,
    check_all,
    check_axiom,
    check_structure,
)

from conftest import corpus
from oracles import brute_twisted_cells

CORPUS = corpus()


def announce(number: int, name: str, ok: bool, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f}s)")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_fixture_soundness():
    worst = 0.0
    ok = True
    for name, x in CORPUS.items():
        start = time.perf_counter()
        clean = check_structure(x).ok and all(r.ok for r in check_all(x, FULL_FLAGS).values())
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and clean and elapsed < 10.0
    announce(1, "fixture soundness", ok, worst)


def test_criterion_2_twisted_transport():
    start = time.perf_counter()
    ok = True
    for name, x in CORPUS.items():
        if x.truncation < 2:
            continue
        tx = twist.build_twisted(x)
        ok = ok and tx.truncation == x.truncation - 1
        ok = ok and check_structure(tx).ok and all(r.ok for r in check_all(tx, FULL_FLAGS).values())
    deep = fixtures.delooping(fixtures.cyclic_table(2), 4)
    twice = twist.build_twisted(twist.build_twisted(deep))
    ok = ok and check_structure(twice).ok and all(r.ok for r in check_all(twice, FULL_FLAGS).values())
    elapsed = time.perf_counter() - start
    announce(2, "twisted transport", ok and elapsed < 30.0, elapsed)


def test_criterion_3_conditional_propositions():
    start = time.perf_counter()
    hypotheses = AxiomFlags.parse("l,r,ri")
    ok = True
    # derived axiom: on every fixture satisfying the hypothesis set, inverse
    # compatibility holds
    for name, x in CORPUS.items():
        assert all(r.ok for r in check_all(x, hypotheses).values()), name
        ok = ok and check_axiom(x, INVERSE_COMPAT).violations == []

    # fault injections: each corrupted table is caught by the matching axiom,
    # and the uncorrupted twin stays clean (no spurious passes either way)
    z3 = CORPUS["delooping_z3_3"]
    sus = CORPUS["suspension_z3_2_4"]

    def comp_fault(x, i, j, u, v, value):
        tables = {key: dict(t) for key, t in x.comp.items()}
        tables[(i, j)][(u, v)] = value
        return omega.OmegaStructure(x.base, tables, x.unit, x.inv)

    def inv_fault(x, i, j, u, value):
        tables = {key: dict(t) for key, t in x.inv.items()}
        tables[(i, j)][u] = value
        return omega.OmegaStructure(x.base, x.comp, x.unit, tables)

    injections = [
        (omega.LEFT_UNIT, comp_fault(z3, 1, 0, "0", "2", "1")),
        (omega.RIGHT_UNIT, comp_fault(z3, 1, 0, "2", "0", "1")),
        (omega.ASSOC, comp_fault(z3, 1, 0, "1", "1", "0")),
        (omega.EXCHANGE, comp_fault(sus, 2, 1, "1", "1", "0")),
        (omega.UNIT_COMPAT, comp_fault(z3, 2, 0, "1", "1", "0")),
        (omega.LEFT_INVERSE, inv_fault(z3, 1, 0, "1", "1")),
        (omega.RIGHT_INVERSE, inv_fault(z3, 1, 0, "1", "1")),
    ]
    for axiom, bad in injections:
        caught = check_axiom(bad, axiom).violations
        ok = ok and len(caught) >= 1 and all(v.law == axiom for v in caught)
    elapsed = time.perf_counter() - start
    announce(3, "conditional propositions", ok, elapsed)


def test_criterion_4_decalage_splitting():
    start = time.perf_counter()
    x = fixtures.suspension(fixtures.cyclic_table(2), 1, 4)
    results = decalage.check_sections(x, max_width=3, max_dim=3)
    elapsed = time.perf_counter() - start
    ok = report.all_pass(results) and len(results) == len(all_tables(3, 3))
    announce(4, "decalage splitting", ok and elapsed < 60.0, elapsed)


def test_criterion_5_naturality_and_unit_forms():
    start = time.perf_counter()
    ok = True
    for name, x in CORPUS.items():
        ok = ok and report.all_pass(decalage.check_apex_naturality(x))
        ok = ok and report.all_pass(decalage.check_endpoint_naturality(x))
        ok = ok and report.all_pass(decalage.check_unit_closed_forms(x))
    # the negative test must find a witness
    witness = decalage.find_lift_naturality_failure(CORPUS["delooping_z2_3"])
    ok = ok and witness is not None
    ok = ok and decalage.check_lift_non_naturality(CORPUS["delooping_z2_3"]).ok
    elapsed = time.perf_counter() - start
    announce(5, "naturality and unit closed forms", ok, elapsed)


def test_criterion_6_canonical_isomorphism():
    start = time.perf_counter()
    ok = True
    for name, x in CORPUS.items():
        max_level = min(3, x.truncation - 1)
        if max_level < 0:
            continue
        for table in all_tables(3, max_level):
            paired = twist.twisted_product(x, table)
            mixed = twist.mixed_product(x, table)
            ok = ok and len(paired) == len(mixed)
            for tup in paired:
                m = twist.contract_product(x, table, tup)
                ok = ok and twist.expand_product(x, m) == tup
            for m in mixed:
                tup = twist.expand_product(x, m)
                ok = ok and twist.contract_product(x, table, tup) == m
    elapsed = time.perf_counter() - start
    announce(6, "canonical isomorphism", ok and elapsed < 10.0, elapsed)


def test_criterion_7_shift_category_tables():
    start = time.perf_counter()
    gens = finsets.standard_generators()
    ok = gens["comp"].table == (0, 2) and (gens["comp"].dom, gens["comp"].cod) == (1, 2)
    ok = ok and gens["unit"].table == (0, 0) and gens["unit"].cod == 0
    ok = ok and gens["inv"].table == (1, 0) and gens["inv"].cod == 1
    ok = ok and gens["comp_shift"].table == (0, 2, 3)
    ok = ok and gens["unit_shift"].table == (0, 0, 1)
    ok = ok and gens["inv_shift"].table == (1, 0, 2)
    for name in ("comp", "unit", "inv"):
        ok = ok and finsets.shift_map(gens[name]) == gens[f"{name}_shift"]
    ok = ok and finsets.top_inclusion(2).table == (0, 1, 2)
    ok = ok and finsets.base_point(2).table == (3,)
    ok = ok and report.all_pass(finsets.check_shift_decalage(4))
    elapsed = time.perf_counter() - start
    announce(7, "shift category tables", ok and elapsed < 5.0, elapsed)


def test_criterion_8_separating_interval():
    start = time.perf_counter()
    from globkernel.testcat import (
        check_separating_interval,
        delta_truncated,
        has_terminal,
        representable,
    )

    cat = delta_truncated(3)
    interval = representable(cat, "[1]")
    point0 = {f"[{n}]": f"{n}>1:" + "0" * (n + 1) for n in range(4)}
    point1 = {f"[{n}]": f"{n}>1:" + "1" * (n + 1) for n in range(4)}
    ok = check_separating_interval(interval, point0, point1) is True
    ok = ok and has_terminal(cat) == "[0]"
    elapsed = time.perf_counter() - start
    announce(8, "separating interval", ok and elapsed < 5.0, elapsed)


def test_criterion_9_oracle_equivalence():
    start = time.perf_counter()
    ok = True
    for name, x in CORPUS.items():
        for level in range(x.truncation):
            got = sorted(c.entries for c in twist.twisted_cells(x, level))
            want = sorted(brute_twisted_cells(x.base, level))
            ok = ok and got == want
    elapsed = time.perf_counter() - start
    announce(9, "oracle equivalence", ok, elapsed)
