"""The interned twisted complex against the name-based reference, on faulted tables.

Each example sets or deletes one entry of a ``comp``, ``unit`` or ``inv``
table (``conftest.faulted``), so twisted sources, composites, units and
inverses may name no twisted cell, or no cell at all.  The structures are
``conftest.POOL``: the corpus and one twisted suspension.
Every twisted operation must give the value the reference in
``tests/oracles.py`` gives, or raise the same error with the same message;
the enumerations must equal the brute-force ones, in order.
"""

from __future__ import annotations

import itertools
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import omega, twist
from globkernel.globular import all_tables

from conftest import CORPUS, GHOST, POOL, faulted
from oracles import (
    brute_mixed_product,
    brute_segment_cells,
    brute_twisted_cells,
    brute_twisted_product,
    ref_build_twisted,
    ref_contract_product,
    ref_expand_product,
    ref_twisted_boundary,
    ref_twisted_cell,
    ref_twisted_cells,
    ref_twisted_compose,
    ref_twisted_inverse,
    ref_twisted_segment,
    ref_twisted_source,
    ref_twisted_target,
    ref_twisted_unit,
)

# per operation and (level, subscript), how many drawn inputs are compared
SAMPLE = 40


def outcome(fn, *args):
    """The value of ``fn(*args)``, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except Exception as exc:  # compared, never swallowed: a mismatch fails the test
        return "raises", type(exc), str(exc)


def same(got, want, *args):
    assert outcome(got, *args) == outcome(want, *args), (got.__name__, args)


def structure_json(x):
    """A built structure as the bytes ``twist`` would write, key order included."""
    return json.dumps(omega.omega_to_json(x), indent=2)


def check_against_reference(x, table, rng: random.Random):
    n = x.truncation
    levels = [ref_twisted_cells(x, level) for level in range(n)]

    # enumerations
    for level in range(n):
        assert [c.entries for c in twist.twisted_cells(x, level)] == brute_twisted_cells(x.base, level)
        for low in range(level + 1):
            got = [s.entries for s in twist.segment_cells(x, low, level)]
            assert got == brute_segment_cells(x.base, low, level)

    # validation: shapes out of range, every cell, and tuples drawn with a
    # ghost or a wrong gluing
    for low, high in ((0, -1), (-1, 0), (1, 0), (0, n), (n, n)):
        same(twist.twisted_segment, ref_twisted_segment, x, low, high, ("0",) * max(high - low + 1, 1))
    for level in range(n):
        for cell in levels[level]:
            same(twist.twisted_cell, ref_twisted_cell, x, level, cell.entries)
        for _ in range(SAMPLE // 4):
            entries = [rng.choice(x.base.cells[d] + (GHOST,)) for d in range(1, level + 2)]
            same(twist.twisted_cell, ref_twisted_cell, x, level, entries)

    # boundaries, units and inverses, cell by cell
    for level, cells in enumerate(levels):
        for cell in rng.sample(cells, min(SAMPLE, len(cells))):
            same(twist.twisted_source, ref_twisted_source, x, cell)
            same(twist.twisted_target, ref_twisted_target, x, cell)
            for below in range(level + 1):
                same(twist.twisted_boundary, ref_twisted_boundary, x, "src", cell, below)
                same(twist.twisted_boundary, ref_twisted_boundary, x, "tgt", cell, below)
            same(twist.twisted_unit, ref_twisted_unit, x, cell)
            for j in range(level):
                same(twist.twisted_inverse, ref_twisted_inverse, x, j, cell)

    # composition on drawn pairs, composable or not
    for level in range(1, n):
        for j in range(level):
            for _ in range(SAMPLE):
                left, right = rng.choice(levels[level]), rng.choice(levels[level])
                same(twist.twisted_compose, ref_twisted_compose, x, j, left, right)

    # products, and the contraction/expansion between them
    paired = check_twisted_product(x, table)
    mixed = twist.mixed_product(x, table)
    assert list(mixed) == brute_mixed_product(x, table), str(table)
    if paired[0] == "value":
        for tup in rng.sample(paired[1], min(SAMPLE, len(paired[1]))):
            same(twist.contract_product, ref_contract_product, x, table, tup)
    for m in rng.sample(mixed, min(SAMPLE, len(mixed))):
        same(twist.expand_product, ref_expand_product, x, m)
        expanded = outcome(ref_expand_product, x, m)
        if expanded[0] == "value":
            same(twist.contract_product, ref_contract_product, x, table, expanded[1])
    # tuples of cells of the right levels, mostly not glued
    for _ in range(SAMPLE // 4):
        tup = tuple(rng.choice(levels[level]) for level in table.outer)
        same(twist.contract_product, ref_contract_product, x, table, tup)

    check_build_twisted(x)


def check_twisted_product(x, table):
    """The product equals the brute force, or both raise the same first error."""
    got = outcome(lambda: list(twist.twisted_product(x, table)))
    assert got == outcome(brute_twisted_product, x, table), str(table)
    return got


def check_build_twisted(x):
    built, ref = outcome(twist.build_twisted, x), outcome(ref_build_twisted, x)
    if built[0] == ref[0] == "value":
        assert built[1] == ref[1]
        assert structure_json(built[1]) == structure_json(ref[1])
    else:
        assert built == ref


@st.composite
def faulted_with_table(draw):
    x = draw(faulted(POOL))
    table = draw(st.sampled_from(all_tables(3, min(3, x.truncation - 1))))
    return x, table, draw(st.randoms(use_true_random=False))


@settings(max_examples=60, deadline=None)
@given(faulted_with_table())
def test_twisted_complex_matches_reference_on_single_faults(case):
    x, table, rng = case
    check_against_reference(x, table, rng)


def test_twisted_complex_matches_reference_on_clean_pool():
    rng = random.Random(0)
    for x in POOL.values():
        for table in all_tables(2, min(2, x.truncation - 1)):
            check_against_reference(x, table, rng)


def test_every_tuple_on_missing_entries():
    # each comp entry missing alone, and each pair of comp (1, 0) entries:
    # twisted sources fail at every level, with messages that name the entry;
    # with two, the error raised is the first one the enumeration evaluates
    x = CORPUS["delooping_z2_3"]
    rng = random.Random(0)
    faults = [((i, j), (key,)) for (i, j), t in sorted(x.comp.items()) for key in sorted(t)]
    faults += [((1, 0), pair) for pair in itertools.combinations(sorted(x.comp[(1, 0)]), 2)]
    for sub, missing in faults:
        comp = {key: dict(t) for key, t in x.comp.items()}
        for key in missing:
            del comp[sub][key]
        y = omega.OmegaStructure(x.base, comp, x.unit, x.inv)
        for table in all_tables(3, 2):
            paired = check_twisted_product(y, table)
            for tup in paired[1] if paired[0] == "value" else ():
                same(twist.contract_product, ref_contract_product, y, table, tup)
            for m in twist.mixed_product(y, table):
                same(twist.expand_product, ref_expand_product, y, m)
        check_against_reference(y, rng.choice(all_tables(3, 2)), rng)
