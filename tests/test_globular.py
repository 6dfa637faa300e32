from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import fixtures
from globkernel.errors import (
    DimOutOfRange,
    GlobularViolation,
    GluingViolation,
    IndexOutOfRange,
    MissingCell,
    ParseError,
    ShapeViolation,
)
from globkernel.globular import (
    GlobularTuple,
    TableOfDimensions,
    all_tables,
    globular_product,
    globular_tuple,
    globular_set_from_json,
    globular_set_to_json,
    parse_table,
    projection,
    table_to_tree,
    tree_to_table,
    validate_globular_set,
)

from oracles import brute_globular_product, raw_boundary


def disk_two():
    # a --f--> b with a 2-cell m: f => f
    return validate_globular_set(
        [["a", "b"], ["f"], ["m"]],
        [{"f": "a"}, {"m": "f"}],
        [{"f": "b"}, {"m": "f"}],
    )


def test_validate_single_object():
    gs = validate_globular_set([["x"]], [], [])
    assert gs.truncation == 0
    assert gs.sizes() == (1,)


def test_validate_disk_two():
    gs = disk_two()
    assert gs.truncation == 2
    assert gs.source(1, "f") == "a"
    assert gs.target(2, "m") == "f"


def test_validate_missing_cell():
    with pytest.raises(MissingCell):
        validate_globular_set(
            [["a", "b"], ["f"], ["m"]],
            [{"f": "a"}, {"m": "f"}],
            [{"f": "b"}, {"m": "g"}],
        )


def test_validate_reports_every_globular_violation():
    # two parallel arrows and two bad 2-cells: every relation broken is listed
    with pytest.raises(GlobularViolation) as err:
        validate_globular_set(
            [["a", "b"], ["f", "g"], ["m", "n"]],
            [{"f": "a", "g": "b"}, {"m": "f", "n": "f"}],
            [{"f": "b", "g": "a"}, {"m": "g", "n": "g"}],
        )
    spots = {(i, u) for i, u, _ in err.value.violations}
    assert spots == {(2, "m"), (2, "n")}
    assert len(err.value.violations) == 4  # both relations fail for both cells


def test_boundary_identity_and_iterates():
    gs = disk_two()
    assert gs.boundary("src", 2, 2, "m") == "m"
    assert gs.boundary("src", 2, 0, "m") == "a"  # s(s(m)) = s(f) = a
    assert gs.boundary("tgt", 2, 0, "m") == "b"


def test_boundary_unfolding_matches_single_steps():
    gs = fixtures.suspension(fixtures.cyclic_table(3), 2, 4).base
    for i in range(1, gs.truncation + 1):
        for j in range(i):
            for u in gs.cells[i]:
                for kind in ("src", "tgt"):
                    step = gs.boundary(kind, i, j + 1, u) if j + 1 <= i else u
                    assert gs.boundary(kind, i, j, u) == gs.boundary(
                        kind, j + 1, j, step
                    )


def test_boundary_composition_general(fixture_corpus):
    # boundary(k -> j) after boundary(i -> k) equals boundary(i -> j)
    gs = fixture_corpus["delooping_s3_3"].base
    for i in range(gs.truncation + 1):
        for k in range(i + 1):
            for j in range(k + 1):
                for u in gs.cells[i]:
                    for kind in ("src", "tgt"):
                        via = gs.boundary(kind, k, j, gs.boundary(kind, i, k, u))
                        assert via == gs.boundary(kind, i, j, u)


def test_width_one_product_is_cell_set(fixture_corpus):
    for x in fixture_corpus.values():
        for dim in range(x.truncation + 1):
            tuples = globular_product(x.base, TableOfDimensions((dim,), ()))
            assert [tp.entries[0] for tp in tuples] == list(x.base.cells[dim])


def test_boundary_range_errors():
    gs = disk_two()
    with pytest.raises(DimOutOfRange):
        gs.boundary("src", 3, 0, "m")
    with pytest.raises(DimOutOfRange):
        gs.boundary("src", 1, 2, "f")
    with pytest.raises(MissingCell):
        gs.boundary("src", 1, 0, "zzz")


def test_parse_table_examples():
    t = parse_table("1 0 2")
    assert t.width == 2
    assert t.outer == (1, 2)
    assert t.inner == (0,)

    t = parse_table("2 1 2 0 1")
    assert t.width == 3
    assert t.outer == (2, 2, 1)
    assert t.inner == (1, 0)

    with pytest.raises(ShapeViolation) as err:
        parse_table("1 1 2")
    assert err.value.position == 1


def test_table_entries_must_be_natural_ints():
    for outer, inner in (((2.9, 1.5), (0.2,)), ((2, 1), (0.0,)), (("2",), ()), ((True,), ()),
                         (None, ()), (3, ()), ((1,), None)):
        with pytest.raises(ShapeViolation):
            TableOfDimensions(outer, inner)


def test_parse_table_errors():
    with pytest.raises(ParseError):
        parse_table("")
    with pytest.raises(ParseError):
        parse_table("1 0")
    with pytest.raises(ParseError):
        parse_table("1 x 2")
    with pytest.raises(ParseError):
        parse_table("1 -1 2")


def test_table_str_round_trip():
    for text in ("0", "3", "1 0 2", "2 1 2 0 1", "3 0 1 0 3"):
        assert str(parse_table(text)) == text


def test_globular_product_width_one_is_cell_set():
    gs = disk_two()
    t = parse_table("1")
    tuples = globular_product(gs, t)
    assert [tp.entries for tp in tuples] == [("f",)]


def test_globular_product_delooping_z2():
    x = fixtures.delooping(fixtures.cyclic_table(2), 2)
    tuples = globular_product(x.base, parse_table("1 0 1"))
    assert len(tuples) == 4  # one object, so no gluing constraint


def test_globular_product_matches_brute_force(fixture_corpus):
    for x in fixture_corpus.values():
        for table in all_tables(3, min(3, x.truncation)):
            got = [tp.entries for tp in globular_product(x.base, table)]
            want = brute_globular_product(x.base, table.outer, table.inner)
            assert sorted(got) == sorted(want), str(table)


def test_globular_product_suspension_pair_count():
    x = fixtures.suspension(fixtures.cyclic_table(2), 2, 3)
    table = parse_table("2 1 2")
    want = brute_globular_product(x.base, (2, 2), (1,))
    assert len(want) == 4  # frozen from the brute-force enumeration
    assert len(globular_product(x.base, table)) == 4


def test_globular_product_dim_out_of_range():
    gs = disk_two()
    with pytest.raises(DimOutOfRange):
        globular_product(gs, parse_table("3"))


def test_globular_tuple_gluing_violation():
    x = fixtures.suspension(fixtures.cyclic_table(2), 1, 2)
    table = parse_table("1 0 1")
    ok = globular_tuple(x.base, table, ("0", "1"))
    assert ok.entries == ("0", "1")
    two = validate_globular_set(
        [["a", "b"], ["f", "g"]],
        [{"f": "a", "g": "b"}],
        [{"f": "b", "g": "a"}],
    )
    with pytest.raises(GluingViolation):
        # s(f) = a but t(f) = b: (f, f) does not glue over dimension 0
        globular_tuple(two, table, ("f", "f"))
    assert globular_tuple(two, table, ("f", "g")).entries == ("f", "g")


def test_projection():
    x = fixtures.delooping(fixtures.cyclic_table(2), 2)
    table = parse_table("1 0 1")
    tuples = globular_product(x.base, table)
    tp = tuples[1]
    assert projection(tp, 1) == tp.entries[0]
    assert projection(tp, 2) == tp.entries[1]
    with pytest.raises(IndexOutOfRange):
        projection(tp, 3)
    with pytest.raises(IndexOutOfRange):
        projection(tp, 0)


def test_projection_gluing_consistency(fixture_corpus):
    x = fixture_corpus["delooping_s3_3"]
    table = parse_table("2 1 2")
    for tp in globular_product(x.base, table):
        left = x.base.boundary("src", 2, 1, projection(tp, 1))
        right = x.base.boundary("tgt", 2, 1, projection(tp, 2))
        assert left == right


# -- trees ------------------------------------------------------------------


def test_tree_single_node():
    assert table_to_tree(parse_table("0")) == ()
    assert str(tree_to_table(())) == "0"


def test_tree_two_leaves():
    tree = table_to_tree(parse_table("1 0 1"))
    assert tree == ((), ())
    assert str(tree_to_table(tree)) == "1 0 1"


def test_tree_chain_and_mixed():
    # chain of height 2: root - node - leaf
    assert table_to_tree(parse_table("2")) == (((),),)
    # root with a height-2 branch and a height-1 leaf
    assert table_to_tree(parse_table("2 0 1")) == (((),), ())
    # "2 1 2" branches above a unary trunk
    assert table_to_tree(parse_table("2 1 2")) == (((), ()),)


def test_tree_round_trip_exhaustive():
    for table in all_tables(4, 4):
        tree = table_to_tree(table)
        assert tree_to_table(tree) == table


@st.composite
def random_trees(draw, max_children=3, max_depth=4):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return ()
    n = draw(st.integers(0, max_children))
    return tuple(
        draw(random_trees(max_children=max_children, max_depth=depth - 1))
        for _ in range(n)
    )


@settings(max_examples=80, deadline=None)
@given(random_trees())
def test_tree_table_round_trip_random(tree):
    assert table_to_tree(tree_to_table(tree)) == tree


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.data())
def test_table_tree_round_trip_random(width, data):
    outer = [data.draw(st.integers(0, 6))]
    inner = []
    for _ in range(width - 1):
        low = data.draw(st.integers(0, max(0, outer[-1] - 1)))
        if outer[-1] == 0:
            return  # cannot extend past a 0-dimensional factor
        nxt = data.draw(st.integers(low + 1, 7))
        inner.append(low)
        outer.append(nxt)
    table = TableOfDimensions(tuple(outer), tuple(inner))
    assert tree_to_table(table_to_tree(table)) == table


# -- serialization ------------------------------------------------------------


def test_globular_set_json_round_trip():
    gs = disk_two()
    data = globular_set_to_json(gs)
    back = globular_set_from_json(data)
    assert back == gs


def test_globular_set_json_truncation_mismatch():
    data = globular_set_to_json(disk_two())
    data["truncation"] = 7
    with pytest.raises(Exception):
        globular_set_from_json(data)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validator_agrees_with_relations_oracle(data):
    # random boundary maps over small cell sets: the validator accepts exactly
    # when the brute-force relations scan finds nothing
    sizes = [data.draw(st.integers(1, 3), label=f"size{i}") for i in range(3)]
    cells = [tuple(f"d{i}c{k}" for k in range(sizes[i])) for i in range(3)]
    src, tgt = [], []
    for i in (1, 2):
        src.append({
            u: data.draw(st.sampled_from(cells[i - 1]), label=f"s{i}({u})")
            for u in cells[i]
        })
        tgt.append({
            u: data.draw(st.sampled_from(cells[i - 1]), label=f"t{i}({u})")
            for u in cells[i]
        })
    broken = [
        (2, u)
        for u in cells[2]
        if src[0][src[1][u]] != src[0][tgt[1][u]]
        or tgt[0][src[1][u]] != tgt[0][tgt[1][u]]
    ]
    if broken:
        with pytest.raises(GlobularViolation) as err:
            validate_globular_set(cells, src, tgt)
        assert {(i, u) for i, u, _ in err.value.violations} == set(broken)
    else:
        gs = validate_globular_set(cells, src, tgt)
        assert gs.truncation == 2


def test_oracle_raw_boundary_agrees():
    gs = fixtures.delooping(fixtures.symmetric3_table(), 3).base
    for i in range(1, 4):
        for j in range(i + 1):
            for u in gs.cells[i]:
                for kind in ("src", "tgt"):
                    assert raw_boundary(gs, kind, i, j, u) == gs.boundary(kind, i, j, u)
