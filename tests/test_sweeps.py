"""The integer-table sweeps against the name-based oracle, on faulted tables.

Each example sets or deletes one entry of a ``comp``, ``unit`` or ``inv``
table of a structure of ``conftest.POOL``, the corpus and one twisted
suspension (``conftest.faulted``).  The sweeps must give
the oracle's violation list cut at the cap, down to the witnesses and their
detail text, and flag the cut exactly; where the oracle raises, they must
raise the same error.  Each must count the oracle's instances, or, when the
cap cut it short, at most that many.  The same comparison runs with blocks of
one and of three rows, so instances sit at every block edge, and on pinned
faults that a sweep reading a -1 id as the last cell, or composing a pair
that does not glue, would pass.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings

from globkernel import globular, omega
from globkernel.globular import SRC, TGT

from conftest import GHOST, POOL, faulted
from oracles import (
    brute_axiom_instances,
    brute_axiom_violations,
    brute_structure_instances,
    brute_structure_violations,
    expected_axiom_instances,
    ref_generator_instances,
)

CAPS = (1, 3, 100)


def _run(fn):
    """``fn()``, or KeyError when it raises one (a lawless table the sweep cannot read)."""
    try:
        return fn()
    except KeyError:
        return KeyError


def _capped(full, cap, count):
    """What a sweep capped at ``cap`` must give when the full list is ``full``
    over ``count`` instances."""
    return KeyError if full is KeyError else (full[:cap], len(full) > cap, count)


def _report(report, count):
    """A report's violations and cut, and its count, read as ``count`` when the
    sweep was cut and screened no more: a cut sweep may stop before the last instance."""
    if report is KeyError:
        return KeyError
    cut_short = report.truncated and report.instances <= count
    return report.violations, report.truncated, count if cut_short else report.instances


def _match_oracle(x):
    full = _run(lambda: brute_structure_violations(x))
    count = brute_structure_instances(x)
    for cap in CAPS:
        got = _report(_run(lambda: omega.check_structure(x, cap)), count)
        assert got == _capped(full, cap, count), ("structure", cap)
    for name in omega.AXIOMS:
        full = brute_axiom_violations(x, name)
        count = expected_axiom_instances(x, name)
        for cap in CAPS:
            got = _report(omega.check_axiom(x, name, None, cap), count)
            assert got == _capped(full, cap, count), (name, cap)


@settings(max_examples=150, deadline=None)
@given(faulted(POOL))
def test_sweeps_match_oracle_on_single_faults(x):
    _match_oracle(x)


@pytest.mark.parametrize("chunk", (1, 3))
@settings(max_examples=100, deadline=None)
@given(x=faulted(POOL))
def test_sweeps_match_oracle_across_blocks(chunk, x):
    # instances enumerated one or three rows at a time, so the first and last
    # instance of every link bucket and every first column sit on block edges
    with mock.patch.object(globular, "_CHUNK", chunk):
        _match_oracle(x)


def test_id_evaluators_send_minus_one_to_minus_one():
    # every id map ends in a -1, so the id -1 gathers -1 and never the entry
    # of the last cell; composition reads no key with a -1 in it
    for name, x in POOL.items():
        t, n = x.tables, x.truncation
        for i in range(n + 1):
            for j in range(i + 1):
                for kind in (SRC, TGT):
                    assert t.boundary(kind, i, j, [-1, 0]) == [-1, t.boundary(kind, i, j, [0])[0]], name
                assert t.iter_unit(j, i, [-1]) == [-1], name
            for j in range(i):
                assert t.compose(i, j, [-1, 0], [0, -1]) == [-1, -1], name
                if x.inv is not None:
                    assert t.inverse(i, j, [-1]) == [-1], name
            if i < n:
                assert t.unit(i, [-1]) == [-1], name


@pytest.mark.parametrize("where", ((1, 0), (2, 0), (2, 1)))
def test_composite_keyed_on_names_that_are_no_cells_is_not_composed(where):
    # both names intern to -1, and the appended -1s of the boundary maps agree,
    # so a table that kept the key would give its value to the pair (-1, -1)
    x = POOL["delooping_z2_3"]
    tables = {key: dict(t) for key, t in x.comp.items()}
    value = x.base.cells[where[0]][0]
    tables[where][(GHOST, GHOST + "2")] = value
    tables[where][(GHOST, GHOST)] = value
    ghosted = omega.OmegaStructure(x.base, tables, x.unit, x.inv)
    assert ghosted.tables.compose(*where, [-1], [-1]) == [-1]
    assert ghosted.tables.compose(*where, [0, -1], [0, -1]) == [x.tables.compose(*where, [0], [0])[0], -1]


def _with_entries(x, comp=(), unit=(), inv=()):
    """``x`` with the given ``((i, j), key, value)`` comp and inv and ``(i, key, value)``
    unit entries set, or deleted where the value is None, built without validation."""
    tables = {key: dict(t) for key, t in x.comp.items()}
    units = [dict(t) for t in x.unit]
    inverses = None if x.inv is None else {key: dict(t) for key, t in x.inv.items()}
    edits = ([(tables[ij], key, w) for ij, key, w in comp] + [(units[i], key, w) for i, key, w in unit]
             + [(inverses[ij], key, w) for ij, key, w in inv])
    for table, key, value in edits:
        if value is None:
            table.pop(key)
        else:
            table[key] = value
    return omega.OmegaStructure(x.base, tables, tuple(units), inverses)


@pytest.mark.parametrize("value", (GHOST, None))
@pytest.mark.parametrize("where", ((1, 0), (2, 1)))
def test_composite_that_is_no_cell_is_not_read_as_the_last_cell(where, value):
    # b *_j b is b, the last cell of its dimension, and the unit of b composes
    # with itself to itself: with that composite a ghost or missing, a gather
    # that read the id -1 as the last cell would give both sides of
    # unit_compat as the unit of b, and pass
    i, j = where
    y = _with_entries(POOL["discrete_ab_3"], comp=[(where, ("b", "b"), value)])
    got = omega.check_axiom(y, omega.UNIT_COMPAT).violations
    assert got == brute_axiom_violations(y, omega.UNIT_COMPAT)
    assert [(v.where, v.witness) for v in got] == [((i, j), ("b", "b"))]
    assert got[0].detail.startswith("not evaluable: ")


def test_pair_that_does_not_glue_is_not_composed():
    # the unit of the 0-cell a made b, so left_unit at (1, 0) on a composes
    # b with a, which do not glue; a table entry b *_0 a = a must not be read,
    # or the law would hold
    x = POOL["discrete_ab_3"]
    y = _with_entries(x, comp=[((1, 0), ("b", "a"), "a")], unit=[(0, "a", "b")])
    got = omega.check_axiom(y, omega.LEFT_UNIT).violations
    assert got == brute_axiom_violations(y, omega.LEFT_UNIT)
    assert got[0].witness == ("a",)
    assert got[0].detail == "not evaluable: s^1_0(b) = b but t^1_0(a) = a"


def _one_sided(x, i, w, keep):
    """An ``i``-cell with the ``keep`` boundary of ``w`` and not its other one, or None."""
    same, other = (x.base.src[i], x.base.tgt[i]) if keep == SRC else (x.base.tgt[i], x.base.src[i])
    return next((c for c in x.base.cells[i] if same[c] == same[w] and other[c] != other[w]), None)


def test_one_sided_boundary_faults_match_oracle():
    # an entry of each table moved to a cell that keeps its source and
    # changes its target, or the other way round: a screen that compared one
    # side only would pass it, and a judge that swapped the wanted source and
    # target, or read a unit in the wrong dimension, would misreport it
    laws = set()
    for name, x in POOL.items():
        tables = ([("comp", ij, ij[0], t) for ij, t in x.comp.items()]
                  + [("unit", i, i + 1, t) for i, t in enumerate(x.unit)]
                  + [("inv", ij, ij[0], t) for ij, t in (x.inv or {}).items()])
        for kind, where, dim, table in tables:
            # an entry whose boundaries differ where there is one, so a swap shows
            key, w = min(table.items(), key=lambda kv: x.base.src[dim][kv[1]] == x.base.tgt[dim][kv[1]])
            for keep in (SRC, TGT):
                value = _one_sided(x, dim, w, keep)
                if value is not None:
                    y = _with_entries(x, **{kind: [(where, key, value)]})
                    got = omega.check_structure(y).violations
                    assert got == brute_structure_violations(y), (name, kind, where, keep)
                    laws.update(v.law for v in got)
    assert laws == {"comp_src_law", "comp_tgt_law", "unit_law", "inv_law"}


def test_sweeps_match_oracle_on_clean_corpus():
    for name, x in POOL.items():
        structure = omega.check_structure(x)
        assert structure.violations == brute_structure_violations(x) == [], name
        assert structure.instances == brute_structure_instances(x), name
        for axiom in omega.AXIOMS:
            got = omega.check_axiom(x, axiom)
            assert got.violations == brute_axiom_violations(x, axiom) == [], (name, axiom)
            assert got.instances == expected_axiom_instances(x, axiom), (name, axiom)


# -- associativity and exchange at generators ---------------------------------------
#
# Each table below fails a precondition of the generator path and passes every
# generator comparison, so without that precondition it would be a false PASS.
# It must be swept in full: the oracle's violations and instance count.


def _structure(cells, src, tgt, comp, unit):
    return omega.OmegaStructure(globular.validate_globular_set(cells, src, tgt), comp, unit)


def _swept_in_full(x, name):
    full = brute_axiom_violations(x, name)
    report = omega.check_axiom(x, name)
    assert full and report.violations == full
    assert report.instances == brute_axiom_instances(x, name) == expected_axiom_instances(x, name)
    return full


def test_unit_law_failure_takes_the_fallback():
    # c0 is the unit cell but c0 c1 = c0: the left unit law fails, and associativity
    # fails only at (c2, c0, c1), whose middle c0 is an identity, never a generator
    ones = ("c0", "c1", "c2")
    comp = {("c0", u): "c0" for u in ones} | {("c1", u): "c1" for u in ones}
    comp |= {("c2", "c0"): "c2", ("c2", "c1"): "c1", ("c2", "c2"): "c2"}
    x = _structure([["*"], ones], [{u: "*" for u in ones}], [{u: "*" for u in ones}],
                   {(1, 0): comp}, ({"*": "c0"},))
    assert [v.witness for v in _swept_in_full(x, omega.ASSOC)] == [("c2", "c0", "c1")]


def test_identity_that_is_no_endomorphism_takes_the_fallback():
    # every 1-cell runs from b to b, so the unit x of the 0-cell a is no endomorphism
    # of a; the unit laws hold at b, and associativity fails only with x as middle,
    # which the closure would take as an identity and never test
    ones = ("e", "x", "y")
    comp = {("e", u): u for u in ones} | {(u, "e"): u for u in ones}
    comp |= {("x", "x"): "e", ("x", "y"): "x", ("y", "x"): "x", ("y", "y"): "e"}
    x = _structure([["a", "b"], ones], [{u: "b" for u in ones}], [{u: "b" for u in ones}],
                   {(1, 0): comp}, ({"a": "x", "b": "e"},))
    assert {v.witness[1] for v in _swept_in_full(x, omega.ASSOC)} == {"x"}


def test_composite_with_wrong_ends_takes_the_fallback():
    # v f is v, which runs from b, not from a: its row is read at the cells into b
    ends = {"ia": ("a", "a"), "u": ("a", "a"), "ib": ("b", "b"), "v": ("b", "b"), "f": ("a", "b")}
    comp = {(g, f): g if f in ("ia", "ib") else f for g in ends for f in ends
            if ends[g][0] == ends[f][1] and (g in ("ia", "ib") or f in ("ia", "ib"))}
    comp |= {("u", "u"): "ia", ("v", "v"): "v", ("v", "f"): "v", ("f", "u"): "f"}
    x = _structure([["a", "b"], list(ends)], [{m: s for m, (s, _) in ends.items()}],
                   [{m: t for m, (_, t) in ends.items()}], {(1, 0): comp}, ({"a": "ia", "b": "ib"},))
    _swept_in_full(x, omega.ASSOC)


def _exchange_base(comp20):
    """One 0-cell, 1-cells e and f, 2-cells E: e => e, F: f => f and X: e => f, with *_1
    the category they form and ``comp20`` as *_0."""
    twos = ("E", "F", "X")
    cells = [["*"], ["e", "f"], list(twos)]
    src = [{"e": "*", "f": "*"}, {"E": "e", "F": "f", "X": "e"}]
    tgt = [{"e": "*", "f": "*"}, {"E": "e", "F": "f", "X": "f"}]
    comp = {(1, 0): {("e", "e"): "e", ("e", "f"): "f", ("f", "e"): "f", ("f", "f"): "f"},
            (2, 0): dict(zip(((u, v) for u in twos for v in twos), comp20)),
            (2, 1): {("E", "E"): "E", ("F", "F"): "F", ("X", "E"): "X", ("F", "X"): "X"}}
    return _structure(cells, src, tgt, comp, ({"*": "e"}, {"e": "E", "f": "F"}))


def test_exchange_with_a_unit_pair_not_sent_to_a_unit_takes_the_fallback():
    # F *_0 F = X, so *_0 sends the identity (F, F) of the pairs to no identity;
    # exchange fails only with (F, F) on the left, an identity, never a generator
    x = _exchange_base("EEEEXXEXX")
    assert omega.check_axiom(x, omega.ASSOC, (2, 1)).ok
    assert all(v.witness[:3:2] == ("F", "F") for v in _swept_in_full(x, omega.EXCHANGE))


def test_exchange_with_a_generator_off_its_target_takes_the_fallback():
    # *_0 sends every unit pair to a unit, but F *_0 X = X ends at f, while the unit
    # pair (F, F) at the target of (F, X) goes to E, at e; exchange fails only with
    # (F, F) on the left, after such a generator
    x = _exchange_base("EEEEEXEXX")
    assert omega.check_axiom(x, omega.ASSOC, (2, 1)).ok
    assert all(v.witness[:3:2] == ("F", "F") for v in _swept_in_full(x, omega.EXCHANGE))


def test_lawful_corpus_is_decided_at_generators():
    # on every lawful structure each subscript of assoc and exchange is decided at
    # generators, and reports what it compared: never 0 where a level has cells
    for name, x in POOL.items():
        for axiom in (omega.ASSOC, omega.EXCHANGE):
            for sub in omega._axiom_subscripts(x, axiom):
                decided = omega._at_generators(x.tables, axiom, sub)
                assert decided == ref_generator_instances(x, axiom, sub) > 0, (name, axiom, sub)
