"""The interned twisted complex against the name-based reference, on faulted tables.

Each example sets or deletes one entry of a ``comp``, ``unit`` or ``inv``
table (``conftest.faulted``), so twisted sources, composites, units and
inverses may name no twisted cell, or no cell at all.  The structures are
``conftest.POOL``: the corpus and one twisted suspension.
Every twisted operation must give the value the reference in
``tests/oracles.py`` gives, or raise the same error with the same message;
the enumerations must equal the brute-force ones, in order.  The
contraction and expansion are compared on every member of each product,
once before the product is enumerated and once after, when the maps the
complex holds answer them.  The faulted comparisons run again with blocks
of one and of three rows, so rows sit at every block edge of the joiner,
and on a pinned fault whose twisted source is no row, where reading the id
-1 as the last row would give a wrong boundary and a wrong expansion.  The
held maps answer members passed as themselves, as copies and as lists, and
give the same answers when members are found by equality alone.
"""

from __future__ import annotations

import copy
import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import globular, omega, twist
from globkernel.globular import SRC, TGT, TableOfDimensions, all_tables

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

    # boundaries, units and inverses, cell by cell, and on some cells with
    # their entries in a list
    for level, cells in enumerate(levels):
        sample = rng.sample(cells, min(SAMPLE, len(cells)))
        listed = [twist.TwistedCell(level, list(cell.entries)) for cell in sample[: SAMPLE // 4]]
        for cell in sample + listed:
            same(twist.twisted_source, ref_twisted_source, x, cell)
            same(twist.twisted_target, ref_twisted_target, x, cell)
            # at its own level the reference returns a cell as given, lists and all
            top = level if isinstance(cell.entries, tuple) else level - 1
            for below in range(top + 1):
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


@pytest.mark.parametrize("chunk", (1, 3))
@settings(max_examples=30, deadline=None)
@given(case=faulted_with_table())
def test_twisted_complex_matches_reference_across_blocks(chunk, case):
    # levels, products and composable pairs enumerated one or three rows at a
    # time, so the first and last row of every link bucket sit on block edges
    x, table, rng = case
    with mock.patch.object(globular, "_CHUNK", chunk):
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
        check_bijection_against_reference(y, all_tables(3, 2), rng)


def test_one_glue_feeds_the_id_path_and_the_name_path(monkeypatch):
    # the gluing over the source of the top entry instead of its target: it
    # composes on lawful data, but gives another cell wherever the top
    # entry's source and target differ, as the twisted suspension's 2-cells do
    def glue_over_source(ops, k, a, b):
        return ops.compose(k, k - 1, a, ops.boundary(SRC, k + 1, k, b))

    monkeypatch.setattr(twist, "_glue", glue_over_source)
    x = POOL["twisted_suspension_z2_2_4"]
    cells = [cell for level in range(1, x.truncation) for cell in ref_twisted_cells(x, level)]

    def sources_disagree(y) -> bool:
        return any(outcome(twist.twisted_source, y, cell) != outcome(ref_twisted_source, y, cell)
                   for cell in cells)

    # fresh copies, so the complex is built again under the mutant
    ids, names = (omega.OmegaStructure(x.base, x.comp, x.unit, x.inv) for _ in range(2))
    assert outcome(twist.build_twisted, ids) != outcome(ref_build_twisted, ids)
    assert sources_disagree(ids)
    # with no interned boundary to read, twisted_source evaluates on names
    monkeypatch.setattr(twist, "_interned_boundary", lambda *args: None)
    assert sources_disagree(names)


# -- the held bijection of a product ---------------------------------------------------


def non_members(x, table, product, rng: random.Random):
    """Inputs to contract/expand that no held map answers, each with its reference.

    Tuples of cells and mixed tuples of the table's shapes (mostly
    unglued), a cell of the wrong level, lists and unhashable entries, and
    tuples tagged with a table of another shape.
    """
    levels = [twist.twisted_cells(x, level) for level in range(x.truncation)]
    other = next(o for o in all_tables(3, x.truncation - 1) if o.outer != table.outer)
    calls = []

    def contract(table_, cells):
        calls.append((twist.contract_product, ref_contract_product, (x, table_, cells)))

    def expand(mixed):
        calls.append((twist.expand_product, ref_expand_product, (x, mixed)))

    segments = [twist.segment_cells(x, seam + 1, high) for seam, high in zip(table.inner, table.outer[1:])]
    for _ in range(4):
        contract(table, tuple(rng.choice(levels[level]) for level in table.outer))
        expand(twist.MixedTuple(table, rng.choice(levels[table.outer[0]]),
                                tuple(rng.choice(shape) for shape in segments)))
    for wrong in range(len(levels)):
        if wrong != table.outer[0] and levels[wrong]:
            contract(table, (levels[wrong][0],) + (levels[table.outer[-1]][0],) * (table.width - 1))
    for tup in product.paired[:2]:
        contract(table, list(tup))
        contract(table, tuple(twist.TwistedCell(cell.level, list(cell.entries)) for cell in tup))
        contract(other, tup)
    for m in product.mixed[:2]:
        expand(twist.MixedTuple(table, m.head, list(m.segments)))
        expand(twist.MixedTuple(table, twist.TwistedCell(m.head.level, list(m.head.entries)), m.segments))
        if m.segments:
            s = m.segments[0]
            segment = twist.TwistedSegment(s.low, s.high, list(s.entries))
            expand(twist.MixedTuple(table, m.head, (segment,) + m.segments[1:]))
        expand(twist.MixedTuple(other, m.head, m.segments))
    return calls


def check_bijection_against_reference(x, tables, rng: random.Random):
    """contract/expand on every member of every table, and on non-members, against the reference.

    The calls run on a copy of ``x`` with a complex of its own, on each table
    before its products are enumerated there, when the scalar code answers,
    and after, when the held maps answer members.  The members come from a
    second copy, so they are found by equality; after the enumeration the
    members of the copy's own products, found by identity, get the same
    answers.
    """
    source, y = (omega.OmegaStructure(x.base, x.comp, x.unit, x.inv) for _ in range(2))
    complex_ = twist._complex(y)
    for table in tables:
        product = twist._complex(source).product(table)
        calls = [(twist.contract_product, ref_contract_product, (y, table, tup)) for tup in product.paired]
        calls += [(twist.expand_product, ref_expand_product, (y, m)) for m in product.mixed]
        calls += non_members(y, table, product, rng)
        want = [outcome(ref, *args) for _, ref, args in calls]
        for enumerated in (False, True):
            if enumerated:
                outcome(twist.twisted_product, y, table)
                twist.mixed_product(y, table)
            assert (complex_.held(table) is not None) == enumerated
            for (fn, _, args), expected in zip(calls, want):
                assert outcome(fn, *args) == expected, (fn.__name__, str(table), args[1:])
        own = complex_.held(table)
        members = [(twist.contract_product, (y, table, tup)) for tup in own.paired]
        members += [(twist.expand_product, (y, m)) for m in own.mixed]
        assert len(members) == len(product.paired) + len(product.mixed)
        for (fn, args), expected in zip(members, want):
            assert outcome(fn, *args) == expected, (fn.__name__, str(table), args[1:])


def test_product_bijection_matches_reference_on_clean_corpus():
    rng = random.Random(0)
    for x in CORPUS.values():
        tables = all_tables(3, min(3, x.truncation - 1))
        check_bijection_against_reference(x, tables, rng)
        # on lawful structures every step succeeds, so the maps answer every member,
        # and they are inverse bijections
        for table in tables:
            product = twist._complex(x).product(table)
            rows = list(range(len(product.paired)))
            assert len(product.mixed) == len(rows)
            assert sorted(product.to_mixed[:-1]) == rows and product.to_mixed[-1] == -1
            assert [product.to_paired[k] for k in product.to_mixed[:-1]] == rows
            assert product.to_paired[-1] == -1


@st.composite
def faulted_with_tables(draw):
    x = draw(faulted(POOL))
    tables = all_tables(3, min(3, x.truncation - 1))
    return x, draw(st.lists(st.sampled_from(tables), min_size=2, max_size=2, unique=True))


@settings(max_examples=50, deadline=None)
@given(faulted_with_tables(), st.randoms(use_true_random=False))
def test_product_bijection_matches_reference_on_single_faults(case, rng):
    check_bijection_against_reference(*case, rng)


@pytest.mark.parametrize("chunk", (1, 3))
@settings(max_examples=25, deadline=None)
@given(case=faulted_with_tables(), rng=st.randoms(use_true_random=False))
def test_product_bijection_matches_reference_across_blocks(chunk, case, rng):
    with mock.patch.object(globular, "_CHUNK", chunk):
        check_bijection_against_reference(*case, rng)


@pytest.mark.parametrize("where", ((1, 0), (2, 1)))
def test_twisted_source_that_is_no_row_is_not_read_as_the_last_row(where):
    # 1 *_j 1 is no cell, so each level-i cell whose twisted source composes
    # it has a source that is no row.  A gather that read that -1 as the last
    # row would give such a cell a source boundary: at (2, 1), its iterated
    # boundary to level 0, through the level-1 ones.  At (1, 0) it would also
    # rebuild, in the expansion across a seam at 0, a cell from the last
    # level-0 row's entries; in a delooping every 1-cell glues, so that cell
    # exists, and the held map would answer with it
    i, j = where
    x = CORPUS["delooping_z3_3"]
    comp = {key: dict(t) for key, t in x.comp.items()}
    comp[where][("1", "1")] = GHOST
    y = omega.OmegaStructure(x.base, comp, x.unit, x.inv)
    complex_ = twist._complex(y)
    no_source = [cell for cell, row in zip(twist.twisted_cells(y, i), complex_.source(i)) if row < 0]
    assert no_source

    for level in range(y.truncation):
        for cell in ref_twisted_cells(y, level):
            for kind in (SRC, TGT):
                for below in range(level + 1):
                    same(twist.twisted_boundary, ref_twisted_boundary, y, kind, cell, below)
    tables = all_tables(3, 2)
    for table in tables:
        check_twisted_product(y, table)
    # the members whose expansion passes through such a source each raise
    table = TableOfDimensions((i, i), (i - 1,))
    product = complex_.product(table)
    unexpanded = [m for m, row in zip(product.mixed, product.to_paired) if row < 0]
    assert {m.head for m in unexpanded} == set(no_source)
    assert all(outcome(ref_expand_product, y, m)[0] == "raises" for m in unexpanded)
    check_bijection_against_reference(y, tables, random.Random(0))


def test_product_bijection_check_catches_a_rolled_segment_column(monkeypatch):
    # the contraction map of each enumerated product gets its first segment
    # column rolled by one row, so members map to the members, where there are
    # such, with the segments of their neighbours
    enumerate_product = twist._enumerate_product

    def rolled(complex_, table):
        product = enumerate_product(complex_, table)
        values = [product.mixed[row] for row in product.to_mixed[:-1]]
        values = [twist.MixedTuple(v.table, v.head, (values[k - 1].segments[0],) + v.segments[1:])
                  if v.segments else v for k, v in enumerate(values)]
        rows = {m: k for k, m in enumerate(product.mixed)}
        to_mixed = [rows.get(v, -1) for v in values] + [-1]
        return twist.Product(product.table, product.paired, product.mixed, to_mixed, product.to_paired)

    monkeypatch.setattr(twist, "_enumerate_product", rolled)
    x = CORPUS["delooping_z2_3"]
    with pytest.raises(AssertionError, match="contract_product"):
        check_bijection_against_reference(x, all_tables(2, 1), random.Random(0))


def test_product_bijection_matches_reference_on_wrong_composites():
    # each (2, 1) composite of the twisted suspension set to each 2-cell in
    # turn; where its target is wrong, the source of a level-2 twisted cell
    # has a source other than that of its target, so an expansion across a
    # seam at 0 from a level-2 cell through the wrong boundary shows
    x = POOL["twisted_suspension_z2_2_4"]
    tables = [TableOfDimensions((2, 1), (0,)), TableOfDimensions((2, 2), (0,))]
    rng = random.Random(0)
    for key in sorted(x.comp[(2, 1)]):
        for value in x.base.cells[2]:
            comp = {sub: dict(t) for sub, t in x.comp.items()}
            comp[(2, 1)][key] = value
            y = omega.OmegaStructure(x.base, comp, x.unit, x.inv)
            check_bijection_against_reference(y, tables, rng)


@pytest.mark.parametrize("by_id", (True, False), ids=("by_id", "by_value"))
def test_held_products_answer_members_as_themselves_as_copies_and_as_lists(by_id):
    # a member passed as itself gets the held member of the other product; a
    # deep copy, found by equality, the same member; a list, which has no
    # hash, the scalar answer.  With the identity maps emptied every member
    # is found by equality, with the same answers
    for x in POOL.values():
        y = omega.OmegaStructure(x.base, x.comp, x.unit, x.inv)
        for table in all_tables(2, min(2, x.truncation - 1)):
            product = twist._complex(y).product(table)
            if not by_id:
                product.paired_rows.by_id.clear()
                product.mixed_rows.by_id.clear()
            for tup, row in zip(product.paired, product.to_mixed):
                want = ref_contract_product(y, table, tup)
                for given in (tup, copy.deepcopy(tup)):
                    got = twist.contract_product(y, table, given)
                    assert got is product.mixed[row] and got == want
                assert twist.contract_product(y, table, list(tup)) == want
            for m, row in zip(product.mixed, product.to_paired):
                want = ref_expand_product(y, m)
                for given in (m, copy.deepcopy(m)):
                    got = twist.expand_product(y, given)
                    assert got is product.paired[row] and got == want
                as_list = twist.MixedTuple(m.table, m.head, list(m.segments))
                assert twist.expand_product(y, as_list) == want
            assert twist._complex(y).held(table) is product
