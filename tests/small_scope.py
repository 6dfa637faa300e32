"""Small-scope exhaustive differential: the sweeps against the brute oracles on
every structure of a bounded scope.

A hypothesis sample can miss the one table that fools a fast path, so each
scope below is enumerated in full.  Every member is judged at caps 1 and 100 by
the rules of ``tests/differential.py``, the ones the tier-1 tests apply: in the
omega scopes ``check_structure`` and every ``check_axiom`` (the Eckmann-Hilton
scope: associativity and exchange) against the brute oracles, in the décalage
scope the naturality, closed-form and section checks against their ``ref_*``
oracles, and in the magma scope ``validate_category`` against
``ref_validate_category``.  The script prints each scope's size, its time, how
many members pass every check and how many fail each one, and exits 1 on the
first disagreement, or when no member fails a check its scope must see fail
(``MUST_FAIL``).  It needs the test dependencies, which ``conftest`` imports::

    PYTHONPATH=src python tests/small_scope.py
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from functools import partial
from itertools import combinations, product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from globkernel import decalage, omega  # noqa: E402
from globkernel.errors import KernelError, NotAGroup  # noqa: E402
from globkernel.fixtures import GroupTable, validate_group  # noqa: E402
from globkernel.globular import all_tables, validate_globular_set  # noqa: E402

from conftest import pair_groupoid  # noqa: E402
from differential import category_differs, cut_results_differ, omega_differs  # noqa: E402
from oracles import (  # noqa: E402
    ref_apex_naturality,
    ref_check_section,
    ref_endpoint_naturality,
    ref_unit_closed_forms,
)

CAPS = (1, 100)


def _tables(keys, values):
    """Every total table from ``keys`` to ``values``, in lexicographic order of the values."""
    keys = tuple(keys)
    return [dict(zip(keys, choice)) for choice in product(values, repeat=len(keys))]


def two_truncated():
    """One 0-cell ``*``, one 1-cell ``e`` and two 2-cells ``a``, ``b``: every
    ``comp[(2,0)]`` and ``comp[(2,1)]``, both ``unit[1]``, and every
    ``inv[(2,0)]`` and ``inv[(2,1)]``; 8,192 structures.  Every pair of
    2-cells glues over both 0 and 1, so ``exchange`` and ``unit_compat``
    have instances, and the composite laws read the faces of each pair.  With
    one cell in each dimension below the top, all cells of a dimension share
    their faces, so no table entry breaks a boundary law: only the eight
    axioms must fail on some member."""
    twos = ("a", "b")
    base = validate_globular_set([["*"], ["e"], twos], [{"e": "*"}, {u: "e" for u in twos}],
                                 [{"e": "*"}, {u: "e" for u in twos}])
    pairs = list(product(twos, repeat=2))
    for comp20, comp21, unit1, inv20, inv21 in product(
            _tables(pairs, twos), _tables(pairs, twos), _tables(["e"], twos),
            _tables(twos, twos), _tables(twos, twos)):
        comp = {(1, 0): {("e", "e"): "e"}, (2, 0): comp20, (2, 1): comp21}
        inv = {(1, 0): {"e": "e"}, (2, 0): inv20, (2, 1): inv21}
        yield omega.OmegaStructure(base, comp, ({"*": "e"}, unit1), inv)


def one_truncated():
    """One 0-cell and at most three 1-cells ``c0``, ``c1``, ``c2``: at one and
    two cells every ``comp``, ``unit`` and ``inv``; at three cells every
    ``comp`` with unit ``c0`` and each cell its own inverse (19,683), then
    every ``comp`` that is a group with identity ``c0``, with its inverse,
    so that lawful structures are swept too; 19,813 structures.  No boundary
    law can fail over one 0-cell, and with no 2-cells ``unit_compat`` and
    ``exchange`` have nothing to compare: the other six axioms must fail on
    some member."""
    for n in (1, 2, 3):
        ones = tuple(f"c{k}" for k in range(n))
        base = validate_globular_set([["*"], ones], [{u: "*" for u in ones}], [{u: "*" for u in ones}])
        pairs = list(product(ones, repeat=2))
        units = _tables(["*"], ones) if n < 3 else [{"*": "c0"}]
        inverses = _tables(ones, ones) if n < 3 else [{u: u for u in ones}]
        for comp, unit, inv in product(_tables(pairs, ones), units, inverses):
            yield omega.OmegaStructure(base, {(1, 0): comp}, (unit,), {(1, 0): inv})
        if n == 3:
            for comp in _tables(pairs, ones):
                try:
                    identity, inverse = validate_group(GroupTable(ones, comp))
                except NotAGroup:
                    continue
                if identity == "c0":
                    yield omega.OmegaStructure(base, {(1, 0): comp}, ({"*": "c0"},), {(1, 0): inverse})


def unit_compat():
    """One 0-cell, the 1-cells ``e`` and ``g`` composing as Z/2 with identity
    ``e``, and the 2-cells ``E: e => e`` and ``G: g => g``: every
    ``comp[(2,0)]``, ``comp[(2,1)]``, ``unit[1]``, ``inv[(2,0)]`` and
    ``inv[(2,1)]``; 4,096 structures.  The units over ``e`` and ``g`` are
    units over two distinct cells, which ``unit_compat`` compares.  The only
    omega scope whose cells of one dimension have different faces, so the only
    one where a table entry can break a boundary law: ``structure`` and all
    eight axioms must fail on some member."""
    ones, twos, over = ("e", "g"), ("E", "G"), {"E": "e", "G": "g"}
    base = validate_globular_set([["*"], ones, twos], [{u: "*" for u in ones}, over],
                                 [{u: "*" for u in ones}, over])
    z2 = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    for comp20, comp21, unit1, inv20, inv21 in product(
            _tables(product(twos, repeat=2), twos), _tables([("E", "E"), ("G", "G")], twos),
            _tables(ones, twos), _tables(twos, twos), _tables(twos, twos)):
        comp = {(1, 0): z2, (2, 0): comp20, (2, 1): comp21}
        inv = {(1, 0): {"e": "e", "g": "g"}, (2, 0): inv20, (2, 1): inv21}
        yield omega.OmegaStructure(base, comp, ({"*": "e"}, unit1), inv)


def unital_magmas():
    """Every unital magma on ``m0 .. m{n-1}``, ``n <= 4``, with identity ``m0``, as the
    one-object category ``(objects, morphisms, identity, comp)``: each table whose row
    and column of ``m0`` are the identity's; 1 + 2 + 81 + 262,144 = 262,228 magmas.
    Light's test, which ``testcat`` and the ``assoc`` sweep share, decides each one."""
    for n in range(1, 5):
        elements = tuple(f"m{k}" for k in range(n))
        morphisms = {m: ("*", "*") for m in elements}
        unit = {key: m for m in elements for key in ((m, "m0"), ("m0", m))}
        free = list(product(elements[1:], repeat=2))
        for values in product(elements, repeat=len(free)):
            yield ("*",), morphisms, {"*": "m0"}, {**unit, **dict(zip(free, values))}


def compare_category(category) -> tuple[str | None, list[str]]:
    """:func:`differential.category_differs`, with the reference's error text up to its witness
    as the one failing check."""
    found, full = category_differs(category, errors=KernelError)
    return found, [] if found is not None or full[0] == "value" else [full[2].partition(" at ")[0]]


Z3 = {(f"c{a}", f"c{b}"): f"c{(a + b) % 3}" for a in range(3) for b in range(3)}


def eckmann_hilton():
    """One 0-cell, one 1-cell ``e`` and the 2-cells ``c0``, ``c1``, ``c2``, with
    ``comp[(2,1)]`` fixed to Z/3 and ``unit[1]`` its identity ``c0``: every
    ``comp[(2,0)]``; 19,683 structures.  Where ``comp[(2,0)]`` is a monoid with
    identity ``c0``, exchange's preconditions at ``(2, 1, 0)`` hold, and by the
    Eckmann-Hilton argument exchange holds only for Z/3 itself.  ``assoc``,
    ``exchange`` and exchange past its preconditions must fail on some member."""
    threes = ("c0", "c1", "c2")
    base = validate_globular_set([["*"], ["e"], threes], [{"e": "*"}, {u: "e" for u in threes}],
                                 [{"e": "*"}, {u: "e" for u in threes}])
    inverse = {f"c{a}": f"c{-a % 3}" for a in range(3)}
    for comp20 in _tables(product(threes, repeat=2), threes):
        comp = {(1, 0): {("e", "e"): "e"}, (2, 0): comp20, (2, 1): Z3}
        inv = {(1, 0): {"e": "e"}, (2, 0): inverse, (2, 1): inverse}
        yield omega.OmegaStructure(base, comp, ({"*": "e"}, {"e": "c0"}), inv)


def _other_monoid(table) -> bool:
    """Whether ``table`` on ``c0``, ``c1``, ``c2`` is a monoid with identity ``c0`` other than Z/3."""
    cells = ("c0", "c1", "c2")
    unital = all(table[("c0", u)] == u == table[(u, "c0")] for u in cells)
    associative = all(table[(table[(u, v)], w)] == table[(u, table[(v, w)])]
                      for u, v, w in product(cells, repeat=3))
    return unital and associative and table != Z3


def compare_eckmann_hilton(x) -> tuple[str | None, list[str]]:
    """:func:`compare` on the boundary laws, associativity and exchange, the two laws
    decided at generators, and a disagreement where ``comp[(2,0)]`` is a monoid with
    identity ``c0`` other than Z/3 and exchange does not fail; such a member also
    counts as failing ``exchange-past-preconditions``."""
    found, failed = compare(x, axioms=(omega.ASSOC, omega.EXCHANGE))
    if found is None and _other_monoid(x.comp[(2, 0)]):
        if omega.EXCHANGE not in failed:
            return "a monoid at (2,0) other than Z/3 passes exchange", failed
        failed = failed + ["exchange-past-preconditions"]
    return found, failed


def _entry_changes(x):
    """Each change of one entry of ``comp[(1,0)]``, ``comp[(2,0)]``, ``comp[(2,1)]``,
    ``comp[(3,2)]`` or a unit table of ``x`` to another cell of its dimension, or to
    None for a deleted entry, as ``(table, key, value)``; a table is a comp subscript
    or a unit index."""
    tables = [(key, x.comp[key], key[0]) for key in ((1, 0), (2, 0), (2, 1), (3, 2))]
    tables += [(i, table, i + 1) for i, table in enumerate(x.unit)]
    return [(where, key, value) for where, table, dim in tables for key, old in table.items()
            for value in x.base.cells[dim] + (None,) if value != old]


def _changed(x, changes):
    """``x`` with each of ``changes`` (see :func:`_entry_changes`) made."""
    comp = {key: dict(table) for key, table in x.comp.items()}
    units = [dict(table) for table in x.unit]
    for where, key, value in changes:
        table = comp[where] if isinstance(where, tuple) else units[where]
        if value is None:
            del table[key]
        else:
            table[key] = value
    return omega.OmegaStructure(x.base, comp, tuple(units), x.inv)


def decalage_scope():
    """The pair groupoid truncated at 3 (``conftest.pair_groupoid``), each change
    of one entry of ``comp[(1,0)]``, ``comp[(2,0)]``, ``comp[(2,1)]``,
    ``comp[(3,2)]`` and ``unit[0..2]`` (136), then each change of two different
    unit entries (720); 857 structures.  Its 1-cells ``f`` and ``g`` have
    distinct sources and targets, so a source read for a target moves an
    endpoint, and a closed form compared on the wrong side first shows."""
    x = pair_groupoid()
    changes = _entry_changes(x)
    yield x
    for change in changes:
        yield _changed(x, [change])
    units = [change for change in changes if not isinstance(change[0], tuple)]
    for a, b in combinations(units, 2):
        if a[:2] != b[:2]:
            yield _changed(x, [a, b])


compare = partial(omega_differs, caps=CAPS)


DECALAGE_CHECKS = ("apex-naturality", "endpoint-naturality", "unit-closed-form", "section")


def compare_decalage(x) -> tuple[str | None, list[str]]:
    """Where the décalage checks on ``x`` first differ from their oracles by
    :func:`differential.cut_results_differ` (None where never), and the checks the oracles
    fail: a naturality or closed-form check once, the section check once per failing table
    of ``all_tables(3, 2)``."""
    runs = [(sweep, reference, (x,), True) for sweep, reference in (
        (decalage.check_apex_naturality, ref_apex_naturality),
        (decalage.check_endpoint_naturality, ref_endpoint_naturality),
        (decalage.check_unit_closed_forms, ref_unit_closed_forms))]
    runs += [(decalage.check_section, ref_check_section, (x, table), False) for table in all_tables(3, 2)]
    failed = []
    for sweep, reference, args, one_block in runs:
        found, full = cut_results_differ(sweep, reference, args, CAPS, one_block)
        if found is not None:
            return found, failed
        if full[0] == "value":
            failed += {r.check for r in full[1] if r.status == "FAIL"}
    return None, failed


SCOPES = {"2-truncated": (two_truncated, compare), "1-truncated": (one_truncated, compare),
          "unit-compat": (unit_compat, compare), "decalage": (decalage_scope, compare_decalage),
          "magma": (unital_magmas, compare_category),
          "eckmann-hilton": (eckmann_hilton, compare_eckmann_hilton)}

# checks each scope must see fail on some member, or it could not catch a fault in them
MUST_FAIL = {"2-truncated": omega.AXIOMS,
             "1-truncated": tuple(a for a in omega.AXIOMS if a not in (omega.UNIT_COMPAT, omega.EXCHANGE)),
             "unit-compat": ("structure", *omega.AXIOMS), "decalage": DECALAGE_CHECKS,
             "eckmann-hilton": (omega.ASSOC, omega.EXCHANGE, "exchange-past-preconditions")}


def _describe(member) -> str:
    """The tables of a scope member, for a disagreement's report."""
    if isinstance(member, omega.OmegaStructure):
        return f"comp={member.comp} unit={member.unit} inv={member.inv}"
    return repr(member)


def run(name: str, members, compare=compare) -> Counter | None:
    """Compare ``members`` of scope ``name`` by ``compare`` and print its size, time,
    PASS count (members that fail no check) and failures per check; those failures,
    or None at the first disagreement, after printing it."""
    start, size, passes, failing = time.perf_counter(), 0, 0, Counter()
    for x in members:
        size += 1
        found, failed = compare(x)
        if found is not None:
            print(f"{name}: member {size} disagrees: {found}\n  {_describe(x)}")
            return None
        passes += not failed
        failing.update(failed)
    print(f"{name}: {size} structures, {time.perf_counter() - start:.1f} s, {passes} PASS, 0 disagreements; "
          f"failing: {dict(failing)}")
    return failing


def main() -> int:
    for name, (scope, check) in SCOPES.items():
        failing = run(name, scope(), check)
        if failing is None:
            return 1
        silent = [c for c in MUST_FAIL.get(name, ()) if not failing[c]]
        if silent:
            print(f"{name}: no member fails {', '.join(silent)}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
