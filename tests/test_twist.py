from __future__ import annotations

import itertools

import pytest

from globkernel import fixtures, omega, twist
from globkernel.errors import (
    DimOutOfRange,
    GluingViolation,
    InversesAbsent,
    MissingCell,
    NotComposable,
)
from globkernel.globular import (
    all_tables,
    globular_product,
    parse_table,
    validate_globular_set,
)
from globkernel.omega import check_all, check_axiom, check_structure
from globkernel.twist import (
    MixedTuple,
    TwistedCell,
    build_twisted,
    contract_product,
    expand_product,
    iter_twisted_unit,
    lemma_identities_hold,
    mixed_product,
    segment_cells,
    twisted_boundary,
    twisted_cell,
    twisted_cells,
    twisted_compose,
    twisted_inverse,
    twisted_name,
    twisted_product,
    twisted_segment,
    twisted_source,
    twisted_target,
    twisted_unit,
)

from conftest import pair_groupoid
from oracles import brute_segment_cells, brute_twisted_cells


def chain_table(level: int):
    """The table (1, 2, .., level+1; 0, 1, .., level-1)."""
    outer = tuple(range(1, level + 2))
    inner = tuple(range(level))
    return outer, inner


# -- enumeration ------------------------------------------------------------------


def test_level_zero_is_the_arrow_set(z2):
    cells = twisted_cells(z2, 0)
    assert [c.entries for c in cells] == [("0",), ("1",)]


def test_level_one_of_delooping_z2(z2):
    cells = twisted_cells(z2, 1)
    assert len(cells) == 4  # one object: gluing is vacuous
    assert {c.entries for c in cells} == set(itertools.product("01", repeat=2))


def test_twisted_cells_match_brute_force(fixture_corpus):
    for name, x in fixture_corpus.items():
        for level in range(x.truncation):
            got = sorted(c.entries for c in twisted_cells(x, level))
            want = sorted(brute_twisted_cells(x.base, level))
            assert got == want, (name, level)


def test_segment_cells_match_brute_force(fixture_corpus):
    x = fixture_corpus["delooping_s3_3"]
    for low in range(0, 3):
        for high in range(low, 3):
            got = sorted(s.entries for s in segment_cells(x, low, high))
            want = sorted(brute_segment_cells(x.base, low, high))
            assert got == want, (low, high)


def test_twisted_cells_match_globular_product_on_chain_table(fixture_corpus):
    for x in fixture_corpus.values():
        for level in range(1, x.truncation):
            outer, inner = chain_table(level)
            from globkernel.globular import TableOfDimensions

            table = TableOfDimensions(outer, inner)
            product_count = len(globular_product(x.base, table))
            assert len(twisted_cells(x, level)) == product_count


def test_twisted_cells_dim_out_of_range(z2):
    with pytest.raises(DimOutOfRange):
        twisted_cells(z2, 3)  # would need dimension 4


def test_lemma_identities_exhaustive(fixture_corpus):
    for name, x in fixture_corpus.items():
        for level in range(x.truncation):
            for cell in twisted_cells(x, level):
                assert lemma_identities_hold(x, cell), (name, level, cell)


def test_lemma_identities_fail_on_tuples_that_are_no_twisted_cells():
    # built directly, so nothing validates them; in the pair groupoid a 1-cell's
    # source and target differ, so either identity can break
    x = pair_groupoid()
    assert all(lemma_identities_hold(x, cell) for level in range(3) for cell in twisted_cells(x, level))
    # s^2_0(f) = a, but s^3_0(g) = b: the first identity fails at l = 0
    assert not lemma_identities_hold(x, TwistedCell(2, ("f", "f", "g")))
    # the first identity holds at l = 0 and 1, but s_1(g) = b and t^3_0(ia) = a
    assert not lemma_identities_hold(x, TwistedCell(2, ("g", "ia", "ia")))


def test_twisted_cell_validation_rejects_bad_entries(sus_z2):
    with pytest.raises(MissingCell):
        twisted_cell(sus_z2, 1, ("0", "zzz"))
    # gluing failure needs distinct boundaries; the discrete structure has them
    x = fixtures.discrete(("a", "b"), 2)
    with pytest.raises(GluingViolation):
        twisted_cell(x, 1, ("a", "b"))
    assert twisted_cell(x, 1, ("a", "a")).entries == ("a", "a")


# -- boundaries --------------------------------------------------------------------


def test_twisted_target_drops_last(z2):
    cell = twisted_cell(z2, 1, ("1", "0"))
    assert twisted_target(z2, cell).entries == ("1",)


def test_twisted_source_composes(z2):
    # source of (g, unit-cell over h) is g * h
    for g, h in itertools.product("01", repeat=2):
        cell = twisted_cell(z2, 1, (g, h))
        want = str((int(g) + int(h)) % 2)
        assert twisted_source(z2, cell).entries == (want,)


def test_twisted_globular_relations(fixture_corpus):
    x = fixture_corpus["suspension_z2_1_3"]
    for level in range(2, x.truncation):
        for cell in twisted_cells(x, level):
            ss = twisted_source(x, twisted_source(x, cell))
            st_ = twisted_source(x, twisted_target(x, cell))
            ts = twisted_target(x, twisted_source(x, cell))
            tt = twisted_target(x, twisted_target(x, cell))
            assert ss == st_
            assert ts == tt


def test_twisted_boundary_iterates(z2_deep):
    cell = twisted_cells(z2_deep, 3)[3]
    assert twisted_boundary(z2_deep, "tgt", cell, 1).entries == cell.entries[:2]
    assert twisted_boundary(z2_deep, "src", cell, 3) == cell


# -- canonical contraction and expansion --------------------------------------------


def test_contract_width_one_is_identity(z2):
    table = parse_table("1")
    cell = twisted_cells(z2, 1)[2]
    mixed = contract_product(z2, table, (cell,))
    assert mixed.head == cell and mixed.segments == ()
    assert expand_product(z2, mixed) == (cell,)


def test_expand_rebuilds_width_two(z2):
    # table (1, 1; 0): prefix of the second cell is x_1 * t(x_2)
    table = parse_table("1 0 1")
    for pair in twisted_product(z2, table):
        mixed = contract_product(z2, table, pair)
        x1, x2 = mixed.head.entries
        y2 = mixed.segments[0].entries[0]
        rebuilt = expand_product(z2, mixed)[1]
        want_y1 = str((int(x1) + int(x2)) % 2)  # x_1 * t(unit cell over x_2)
        assert rebuilt.entries == (want_y1, y2)
        assert rebuilt == pair[1]


def test_contract_expand_round_trip_on_suspensions(sus_z2, sus_z3):
    for x in (sus_z2, sus_z3):
        for table in all_tables(3, min(3, x.truncation - 1)):
            for tup in twisted_product(x, table):
                mixed = contract_product(x, table, tup)
                assert expand_product(x, mixed) == tup
            for mixed in mixed_product(x, table):
                tup = expand_product(x, mixed)
                assert contract_product(x, table, tup) == mixed


def test_mixed_and_paired_products_same_size(fixture_corpus):
    for name, x in fixture_corpus.items():
        for table in all_tables(3, min(3, x.truncation - 1)):
            assert len(twisted_product(x, table)) == len(mixed_product(x, table)), (
                name,
                str(table),
            )


def test_contract_gluing_violation_reports_position(z2):
    table = parse_table("1 0 1")
    cells = twisted_cells(z2, 1)
    # find a non-glued pair: twisted source of left != twisted target of right
    bad = None
    for left, right in itertools.product(cells, repeat=2):
        if twisted_boundary(z2, "src", left, 0) != twisted_boundary(z2, "tgt", right, 0):
            bad = (left, right)
            break
    assert bad is not None
    with pytest.raises(GluingViolation) as err:
        contract_product(z2, table, bad)
    assert err.value.position == 1


# -- operations ---------------------------------------------------------------------


def test_twisted_compose_target_law(z2_deep):
    # over the top level the target of a composite is the target of the left factor
    for i in (1, 2, 3):
        cells = twisted_cells(z2_deep, i)
        for left in cells:
            for right in cells:
                try:
                    out = twisted_compose(z2_deep, i - 1, left, right)
                except NotComposable:
                    continue
                assert twisted_target(z2_deep, out) == twisted_target(z2_deep, left)


def test_twisted_compose_grid_matches_formula(z2):
    # level 1 over 0 on the one-object structure: entrywise group addition
    cells = twisted_cells(z2, 1)
    composable = 0
    for left, right in itertools.product(cells, repeat=2):
        src_b = twisted_boundary(z2, "src", left, 0)
        tgt_b = twisted_boundary(z2, "tgt", right, 0)
        if src_b != tgt_b:
            with pytest.raises(NotComposable):
                twisted_compose(z2, 0, left, right)
            continue
        composable += 1
        out = twisted_compose(z2, 0, left, right)
        want_top = str((int(left.entries[1]) + int(right.entries[1])) % 2)
        assert out.entries == (left.entries[0], want_top)
    assert composable == 8  # 16 pairs bucketed over the 2 level-0 cells


def test_twisted_compose_associativity_instance(sus_z3):
    level, j = 2, 0
    cells = twisted_cells(sus_z3, level)
    triples = 0
    for a, b, c in itertools.product(cells, repeat=3):
        if twisted_boundary(sus_z3, "src", a, j) != twisted_boundary(sus_z3, "tgt", b, j):
            continue
        if twisted_boundary(sus_z3, "src", b, j) != twisted_boundary(sus_z3, "tgt", c, j):
            continue
        triples += 1
        lhs = twisted_compose(sus_z3, j, twisted_compose(sus_z3, j, a, b), c)
        rhs = twisted_compose(sus_z3, j, a, twisted_compose(sus_z3, j, b, c))
        assert lhs == rhs
    assert triples > 0


def test_twisted_unit_laws(z2):
    # target of the unit is the cell itself always; source needs the right-unit law
    for level in (0, 1):
        for cell in twisted_cells(z2, level):
            up = twisted_unit(z2, cell)
            assert twisted_target(z2, up) == cell
            assert twisted_source(z2, up) == cell
    with pytest.raises(DimOutOfRange):
        twisted_unit(z2, twisted_cells(z2, 2)[0])


def test_iterated_unit_closed_form(z2_deep):
    # the iterate equals (y_1, .., y_{j+1}, k^{j+2}_j s(y_{j+1}), .., k^{i+1}_j s(y_{j+1}))
    x = z2_deep
    for j in (0, 1):
        for cell in twisted_cells(x, j):
            for i in range(j + 1, x.truncation):
                got = iter_twisted_unit(x, cell, i)
                bottom = x.base.src[j + 1][cell.entries[j]]
                want = list(cell.entries)
                for d in range(j + 2, i + 2):
                    want.append(omega.iter_unit(x, j, d, bottom))
                assert got.entries == tuple(want), (j, i, cell)


def test_twisted_inverse_formula(z2):
    # (g, unit over h) -> (g * h, unit over -h)
    for g, h in itertools.product("01", repeat=2):
        cell = twisted_cell(z2, 1, (g, h))
        out = twisted_inverse(z2, 0, cell)
        assert out.entries == (str((int(g) + int(h)) % 2), str((-int(h)) % 2))


def test_twisted_inverse_involution_top_level(z2):
    # observed on the enumeration, not assumed: over j = i-1 it is involutive here
    for level in (1, 2):
        for cell in twisted_cells(z2, level):
            once = twisted_inverse(z2, level - 1, cell)
            assert twisted_inverse(z2, level - 1, once) == cell


def test_twisted_inverse_source_is_target(fixture_corpus):
    # over the top level the twisted inverse swaps source and target
    for name in ("delooping_z3_3", "suspension_z2_1_3"):
        x = fixture_corpus[name]
        for level in range(1, x.truncation):
            for cell in twisted_cells(x, level):
                flipped = twisted_inverse(x, level - 1, cell)
                assert twisted_source(x, flipped) == twisted_target(x, cell)
                assert twisted_target(x, flipped) == twisted_source(x, cell)


def test_twisted_inverse_needs_tables(z2):
    no_inv = omega.OmegaStructure(z2.base, z2.comp, z2.unit, None)
    with pytest.raises(InversesAbsent):
        twisted_inverse(no_inv, 0, twisted_cells(no_inv, 1)[0])


def test_bad_entries_raise_kernel_errors_and_list_entries_read_as_tuples(sus_z2):
    # a top entry that is no cell is a MissingCell, not a bare KeyError; a
    # cell whose entries are a list gives what its tuple gives
    for level in (1, 2):
        ops = [twisted_source, twisted_unit]
        ops += [lambda x, c, j=j: twisted_inverse(x, j, c) for j in range(level)]
        for cell in twisted_cells(sus_z2, level):
            ghost = TwistedCell(level, cell.entries[:-1] + ("ghost",))
            listed = TwistedCell(level, list(cell.entries))
            for op in ops:
                with pytest.raises(MissingCell, match="'ghost' is not a"):
                    op(sus_z2, ghost)
                assert op(sus_z2, listed) == op(sus_z2, cell)


# -- assembly -----------------------------------------------------------------------


def test_build_twisted_discrete():
    x = fixtures.discrete(("a",), 3)
    tx = build_twisted(x)
    assert tx.base.sizes() == (1, 1, 1)
    assert check_structure(tx).ok
    assert all(r.ok for r in check_all(tx).values())


def test_build_twisted_delooping_z2(z2):
    tx = build_twisted(z2)
    assert tx.truncation == 2
    assert tx.base.sizes() == (2, 4, 4)
    assert check_structure(tx).ok
    assert all(r.ok for r in check_all(tx).values())
    assert check_axiom(tx, omega.INVERSE_COMPAT).violations == []


def test_build_twisted_names(z2):
    tx = build_twisted(z2)
    assert tx.base.cells[1] == ("(0|0)", "(0|1)", "(1|0)", "(1|1)")
    assert twisted_name(("(0|1)", "(1|1)")) == "((0|1)|(1|1))"


def test_double_twist(z2_deep):
    once = build_twisted(z2_deep)
    twice = build_twisted(once)
    assert twice.truncation == 2
    assert check_structure(twice).ok
    assert all(r.ok for r in check_all(twice).values())


def test_double_twist_suspension(sus_z2):
    once = build_twisted(sus_z2)
    assert check_structure(once).ok
    assert all(r.ok for r in check_all(once).values())
    twice = build_twisted(once)
    assert check_structure(twice).ok
    assert all(r.ok for r in check_all(twice).values())


def test_build_twisted_degenerate_truncations():
    with pytest.raises(DimOutOfRange):
        build_twisted(fixtures.discrete(("a",), 0))
    x = fixtures.delooping(fixtures.cyclic_table(2), 1)
    tx = build_twisted(x)
    assert tx.truncation == 0
    assert tx.base.sizes() == (2,)
    assert check_structure(tx).ok


def test_build_twisted_serializes(z2):
    tx = build_twisted(z2)
    back = omega.omega_from_json(omega.omega_to_json(tx))
    assert back == tx


# -- conditional transport -----------------------------------------------------------


def left_projection_tower(trunc: int):
    """x * y = x: associativity, exchange, right units hold; left units fail."""
    elems = ("0", "1", "2")
    mul = {(a, b): a for a in elems for b in elems}
    return fixtures.one_object_tower(elems, mul, "0", 1, trunc)


def min_monoid_tower(trunc: int):
    """min with top element: all categorical axioms hold, no inverses exist."""
    elems = ("0", "1", "2")
    mul = {(a, b): min(a, b) for a in elems for b in elems}
    return fixtures.one_object_tower(elems, mul, "2", 1, trunc)


def test_left_projection_hypotheses():
    x = left_projection_tower(3)
    assert check_structure(x).ok
    for name in (omega.ASSOC, omega.EXCHANGE, omega.RIGHT_UNIT, omega.UNIT_COMPAT):
        assert check_axiom(x, name).violations == [], name
    assert check_axiom(x, omega.LEFT_UNIT).violations != []


def test_transport_without_left_units():
    # associativity, exchange, right units and unit functoriality transport
    # even though the left-unit law fails on the input
    x = left_projection_tower(3)
    tx = build_twisted(x)
    assert check_structure(tx).ok
    for name in (omega.ASSOC, omega.EXCHANGE, omega.RIGHT_UNIT, omega.UNIT_COMPAT):
        assert check_axiom(tx, name).violations == [], name


def test_transport_monoid_all_categorical_axioms():
    x = min_monoid_tower(3)
    assert x.inv is None
    assert check_structure(x).ok
    assert all(r.ok for r in check_all(x, omega.CATEGORICAL_FLAGS).values())
    tx = build_twisted(x)
    assert tx.inv is None
    assert check_structure(tx).ok
    assert all(r.ok for r in check_all(tx, omega.CATEGORICAL_FLAGS).values())


def test_twisted_structure_mutation_is_caught(z2):
    # the green transported suite is not vacuous: corrupt one twisted entry
    tx = build_twisted(z2)
    comp = {key: dict(t) for key, t in tx.comp.items()}
    (u, v), w = next(iter(comp[(2, 0)].items()))
    other = next(c for c in tx.base.cells[2] if c != w)
    comp[(2, 0)][(u, v)] = other
    mutated = omega.OmegaStructure(tx.base, comp, tx.unit, tx.inv)
    bad = check_structure(mutated)
    broken = not bad.ok or not all(r.ok for r in check_all(mutated).values())
    assert broken


def test_check_axiom_subscript_validation(z2):
    with pytest.raises(DimOutOfRange):
        check_axiom(z2, omega.ASSOC, (5, 0))
    with pytest.raises(DimOutOfRange):
        check_axiom(z2, omega.EXCHANGE, (2, 0, 1))
    with pytest.raises(Exception):
        check_axiom(z2, "bogus")


def relabel_structure(x, renames):
    """Apply per-dimension cell bijections to every table of a structure."""
    n = x.truncation

    def r(i, u):
        return renames[i][u]

    cells = [tuple(r(i, u) for u in x.base.cells[i]) for i in range(n + 1)]
    src = [{r(i, u): r(i - 1, v) for u, v in x.base.src[i].items()} for i in range(1, n + 1)]
    tgt = [{r(i, u): r(i - 1, v) for u, v in x.base.tgt[i].items()} for i in range(1, n + 1)]
    base = validate_globular_set(cells, src, tgt)
    comp = {
        (i, j): {(r(i, u), r(i, v)): r(i, w) for (u, v), w in table.items()}
        for (i, j), table in x.comp.items()
    }
    unit = [
        {r(i, u): r(i + 1, w) for u, w in x.unit[i].items()} for i in range(n)
    ]
    inv = None
    if x.inv is not None:
        inv = {
            (i, j): {r(i, u): r(i, w) for u, w in table.items()}
            for (i, j), table in x.inv.items()
        }
    return omega.validate_omega(base, comp, unit, inv)


def test_build_twisted_commutes_with_relabeling(z3):
    # an isomorphism of structures induces the entrywise isomorphism of the
    # twisted complexes: twisting does not depend on names or declared order
    renames = [
        {u: f"c{i}_{u}" for u in z3.base.cells[i]} for i in range(z3.truncation + 1)
    ]
    t_first = build_twisted(relabel_structure(z3, renames))

    def rename_twisted(cell):
        # entry at index k has dimension k + 1
        return twisted_name(renames[k + 1][e] for k, e in enumerate(cell.entries))

    mapping = [
        {twisted_name(c.entries): rename_twisted(c) for c in twisted_cells(z3, i)}
        for i in range(z3.truncation)
    ]
    expected = relabel_structure(build_twisted(z3), mapping)
    assert expected == t_first


def test_transport_full_groupoid_axioms(fixture_corpus):
    # every fully grouplike fixture transports the whole axiom suite
    for name, x in fixture_corpus.items():
        if x.truncation < 2:
            continue
        tx = build_twisted(x)
        assert check_structure(tx).ok, name
        assert all(r.ok for r in check_all(tx).values()), name


def test_twisted_cell_and_segment_name_only_their_row():
    # validating a cell or a segment finds its row and names that row alone, so no
    # level of the complex is wrapped as named records on the way
    x = fixtures.delooping(fixtures.cyclic_table(4), 4)
    rows = twist._complex(x).rows(0, 2)
    entries = tuple(x.base.cells[1 + c][column[5]] for c, column in enumerate(rows))
    cell = twist.twisted_cell(x, 2, entries)
    assert (cell.level, cell.entries) == (2, entries) and cell == twisted_cells(x, 2)[5]
    segment = twist.twisted_segment(x, 1, 2, entries[1:])
    assert (segment.low, segment.high, segment.entries) == (1, 2, entries[1:])
    x = fixtures.delooping(fixtures.cyclic_table(4), 4)
    twist.twisted_cell(x, 2, entries)
    twist.twisted_segment(x, 1, 2, entries[1:])
    assert not [key for key in twist._complex(x)._cache if key[0] in ("cells", "segments")]
