"""Small-scope exhaustive differential: the sweeps against the brute oracles on
every structure of a bounded scope.

A hypothesis sample can miss the one table that fools a fast path, so each
scope below is enumerated in full.  Every member runs through
``check_structure`` and every ``check_axiom`` at caps 1 and 100, and each
report must give the oracle's violations cut at the cap, flag the cut
exactly, and count the oracle's instances (at most that many when the cap
cut the sweep short).  The script prints each scope's size, its time and
how many members are lawful (every report clean), and exits 1 on the first
disagreement.  It needs only the standard library::

    PYTHONPATH=src python tests/small_scope.py
"""

from __future__ import annotations

import sys
import time
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from globkernel import omega  # noqa: E402
from globkernel.errors import NotAGroup  # noqa: E402
from globkernel.fixtures import GroupTable, validate_group  # noqa: E402
from globkernel.globular import validate_globular_set  # noqa: E402

from oracles import (  # noqa: E402
    brute_axiom_instances,
    brute_axiom_violations,
    brute_structure_instances,
    brute_structure_violations,
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
    have instances, and the composite laws read the faces of each pair."""
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
    so that lawful structures are swept too; 19,813 structures."""
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


SCOPES = {"2-truncated": two_truncated, "1-truncated": one_truncated}


def compare(x) -> tuple[str | None, bool]:
    """Where the sweeps on ``x`` first differ from the oracles (None where they
    agree throughout), and whether ``x`` is lawful: every oracle list empty."""
    sweeps = [("structure", brute_structure_violations(x), brute_structure_instances(x),
               lambda cap: omega.check_structure(x, cap))]
    sweeps += [(name, brute_axiom_violations(x, name), brute_axiom_instances(x, name),
                lambda cap, name=name: omega.check_axiom(x, name, None, cap)) for name in omega.AXIOMS]
    for name, full, count, sweep in sweeps:
        for cap in CAPS:
            got = sweep(cap)
            truncated = len(full) > cap
            if got.violations != full[:cap] or got.truncated != truncated:
                return f"{name} at cap {cap}: {got} (truncated={got.truncated}), oracle {full[:cap]}", False
            if got.instances > count or (not truncated and got.instances != count):
                return f"{name} at cap {cap}: {got.instances} instances, oracle {count}", False
    return None, not any(full for _, full, _, _ in sweeps)


def run(name: str, members) -> bool:
    """Sweep ``members`` of scope ``name`` and print its size, time and lawful count;
    False at the first disagreement, after printing it."""
    start, size, passes = time.perf_counter(), 0, 0
    for x in members:
        size += 1
        found, clean = compare(x)
        if found is not None:
            print(f"{name}: member {size} disagrees: {found}\n  comp={x.comp} unit={x.unit} inv={x.inv}")
            return False
        passes += clean
    print(f"{name}: {size} structures, {time.perf_counter() - start:.1f} s, {passes} PASS, 0 disagreements")
    return True


def main() -> int:
    for name, scope in SCOPES.items():
        if not run(name, scope()):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
