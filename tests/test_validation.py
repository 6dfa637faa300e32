"""The validators that run on ids against the name-keyed loops they replaced.

Every case must give the same return value, or the same exception type and
text, as the verbatim copies in ``tests/oracles.py``: group tables, globular
sets, operation tables and presheaves, clean and with faults.  Last, a table
of the input guards of the API that no other test reaches, each with the
type and text of its error.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import decalage, finsets, fixtures, globular, omega, testcat, twist
from globkernel.errors import (
    DimOutOfRange,
    MissingCell,
    NotAGroup,
    NotComposable,
    NotNatural,
    ShapeViolation,
    ValidationError,
)
from globkernel.fixtures import GroupTable, validate_group
from globkernel.globular import TableOfDimensions, parse_table, validate_globular_set
from globkernel.omega import validate_omega
from globkernel.testcat import validate_presheaf

from conftest import GHOST, POOL
from differential import outcome
from oracles import (
    raw_boundary,
    ref_validate_globular_set,
    ref_validate_group,
    ref_validate_omega,
    ref_validate_presheaf,
)


def assert_same(validate, reference, *args):
    assert outcome(validate, *args) == outcome(reference, *args)


# -- group tables ---------------------------------------------------------------------

GROUPS = {**{f"z{n}": fixtures.cyclic_table(n) for n in range(1, 6)},
          **{name: make() for name, make in fixtures.NAMED_GROUPS.items()}}


@st.composite
def group_tables(draw):
    """A group, a semigroup on its elements, or a random magma, in any order,
    with up to two entries changed or deleted and maybe a repeated element.

    The semigroups are associative: ``min`` has an identity (its last element)
    that only the identity has an inverse for, ``left_zero`` and ``zero`` have
    no identity once there are two elements.
    """
    kind = draw(st.sampled_from(["group", "min", "left_zero", "zero", "magma"]))
    if kind == "magma":
        elems = [f"m{k}" for k in range(draw(st.integers(0, 4)))]
        mul = {(a, b): draw(st.sampled_from(elems)) for a in elems for b in elems}
    else:
        group = GROUPS[draw(st.sampled_from(sorted(GROUPS)))]
        elems = list(group.elements)
        mul = {
            "group": lambda i, j: group.mul[(elems[i], elems[j])],
            "min": lambda i, j: elems[min(i, j)],
            "left_zero": lambda i, j: elems[i],
            "zero": lambda i, j: elems[0],
        }[kind]
        mul = {(a, b): mul(i, j) for i, a in enumerate(elems) for j, b in enumerate(elems)}
    for _ in range(draw(st.integers(0, 2))):
        if mul:
            key = draw(st.sampled_from(sorted(mul)))
            value = draw(st.sampled_from(elems + [GHOST, None]))
            if value is None:
                del mul[key]
            else:
                mul[key] = value
    order = draw(st.permutations(elems))
    return GroupTable(tuple(order + order[:draw(st.integers(0, 1))]), mul)


@settings(max_examples=400, deadline=None)
@given(group_tables())
def test_validate_group_matches_reference(table):
    assert_same(validate_group, ref_validate_group, table)


def test_validate_group_matches_reference_on_groups():
    for table in [*GROUPS.values(), fixtures.cyclic_table(24)]:
        assert validate_group(table) == ref_validate_group(table)


def magma(elems: str, products: str) -> GroupTable:
    """The table whose row ``a`` reads the products of ``a`` with each element, in order."""
    rows = products.split()
    return GroupTable(tuple(elems), {(a, b): rows[i][j] for i, a in enumerate(elems)
                                     for j, b in enumerate(elems)})


@pytest.mark.parametrize("table, message", [
    (GroupTable(("0", "1"), {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1"}),
     "table not closed/total at ('1', '1')"),
    (magma("ab", "ba aa"), "not associative at ('a', 'a', 'b')"),
    (magma("ab", "aa bb"), "no two-sided identity"),
    (magma("ea", "ea aa"), "'a' has no inverse"),
])
def test_validate_group_messages(table, message):
    with pytest.raises(NotAGroup) as caught:
        validate_group(table)
    assert str(caught.value) == message
    assert_same(validate_group, ref_validate_group, table)


# -- globular sets --------------------------------------------------------------------

BAD_NAMES = ["", "a|b", "(a", "a)", 7, GHOST, "(a|b)"]


@st.composite
def globular_tables(draw):
    """The cells and boundary maps of a pool structure with up to three faults:
    a map entry changed or deleted, a key that is no cell, a cell renamed, a
    repeated cell, or a map table too many or too few."""
    gs = POOL[draw(st.sampled_from(sorted(POOL)))].base
    n = gs.truncation
    cells = [list(layer) for layer in gs.cells]
    maps = {"src": [dict(gs.src[i]) for i in range(1, n + 1)],
            "tgt": [dict(gs.tgt[i]) for i in range(1, n + 1)]}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["entry", "entry", "entry", "key", "name", "repeat", "count"]))
        kind = draw(st.sampled_from(["src", "tgt"]))
        i = draw(st.integers(1, n))
        table = maps[kind][i - 1] if i <= len(maps[kind]) else {}
        if fault == "entry" and table:
            key = draw(st.sampled_from(sorted(table)))
            value = draw(st.sampled_from(cells[i - 1] + [GHOST, None]))
            if value is None:
                del table[key]
            else:
                table[key] = value
        elif fault == "key":
            table[GHOST] = draw(st.sampled_from(cells[i - 1]))
        elif fault == "name":
            layer = cells[draw(st.integers(0, n))]
            layer[draw(st.integers(0, len(layer) - 1))] = draw(st.sampled_from(BAD_NAMES))
        elif fault == "repeat":
            layer = cells[draw(st.integers(0, n))]
            layer.append(layer[0])
        elif fault == "count":
            if draw(st.booleans()):
                maps[kind].append({})
            elif maps[kind]:
                maps[kind].pop()
    return cells, maps["src"], maps["tgt"]


@settings(max_examples=300, deadline=None)
@given(globular_tables())
def test_validate_globular_set_matches_reference(args):
    assert_same(validate_globular_set, ref_validate_globular_set, *args)


# -- operation tables -----------------------------------------------------------------


@st.composite
def omega_tables(draw):
    """The tables of a pool structure with up to three faults.

    A ``comp``, unit or inverse entry is set on a held key or any key, to a
    cell of the right dimension or to a name that is no cell, or deleted; a
    ``comp`` entry is set on a pair that does not compose; a table is added
    outside ``0 <= j < i <= N``; an inverse table or the last unit table is
    dropped, or a unit table added; the inverses are dropped.
    """
    x = POOL[draw(st.sampled_from(sorted(POOL)))]
    n, cells = x.truncation, x.base.cells
    comp = {key: dict(table) for key, table in x.comp.items()}
    unit = [dict(table) for table in x.unit]
    inv = {key: dict(table) for key, table in x.inv.items()}
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["comp", "unit", "inv"] * 2 + ["non_composable"] * 3 + [
            "comp_dims", "inv_dims", "inv_table", "unit_count", "no_inv"]))
        if fault in ("comp", "unit", "inv"):
            if fault == "comp":
                i, j = draw(st.sampled_from(sorted(x.comp)))
                table, dim = comp[(i, j)], i
                names = st.sampled_from(cells[i])
                held = st.sampled_from(sorted(table)) if table else st.nothing()
                anywhere = names | st.just(GHOST)
                key = draw(held | st.tuples(names, names) | st.tuples(anywhere, anywhere))
            elif fault == "unit":
                if not min(len(unit), n):
                    continue
                i = draw(st.integers(0, min(len(unit), n) - 1))
                table, dim = unit[i], i + 1
                key = draw(st.sampled_from(cells[i]) | st.just(GHOST))
            else:
                held = [key for key in sorted(x.inv) if key in (inv or {})]
                if not held:
                    continue
                i, j = draw(st.sampled_from(held))
                table, dim = inv[(i, j)], i
                key = draw(st.sampled_from(cells[i]) | st.just(GHOST))
            value = draw(st.sampled_from(cells[dim]) | st.sampled_from((GHOST, None)))
            if value is None:
                table.pop(key, None)
            else:
                table[key] = value
        elif fault == "non_composable":
            i, j = draw(st.sampled_from(sorted(x.comp)))
            pairs = [(u, v) for u in cells[i] for v in cells[i]
                     if raw_boundary(x.base, "src", i, j, u) != raw_boundary(x.base, "tgt", i, j, v)]
            if pairs:
                comp[(i, j)][draw(st.sampled_from(pairs))] = draw(st.sampled_from(cells[i]))
        elif fault in ("comp_dims", "inv_dims"):
            i, j = draw(st.tuples(st.integers(-1, n + 1), st.integers(-1, n + 1))
                        .filter(lambda ij: not 0 <= ij[1] < ij[0] <= n))
            target = comp if fault == "comp_dims" or inv is None else inv
            target[(i, j)] = {}
        elif fault == "inv_table" and inv:
            del inv[draw(st.sampled_from(sorted(inv)))]
        elif fault == "unit_count":
            if draw(st.booleans()):
                unit.append({})
            elif unit:
                unit.pop()
        elif fault == "no_inv":
            inv = None
    return x.base, comp, unit, inv


@settings(max_examples=400, deadline=None)
@given(omega_tables())
def test_validate_omega_matches_reference(args):
    assert_same(validate_omega, ref_validate_omega, *args)


def test_validate_omega_matches_reference_on_the_pool():
    for x in POOL.values():
        args = (x.base, x.comp, x.unit, x.inv)
        assert validate_omega(*args) == ref_validate_omega(*args)
        gs = x.base
        maps = [[dict(m[i]) for i in range(1, gs.truncation + 1)] for m in (gs.src, gs.tgt)]
        assert validate_globular_set(gs.cells, *maps) == ref_validate_globular_set(gs.cells, *maps)


def test_validate_omega_joins_its_problems_in_sweep_order(z2):
    comp = {key: dict(table) for key, table in z2.comp.items()}
    comp[(2, 1)][("1", "0")] = "1"  # two 2-cells with different 1-boundaries
    comp[(2, 1)][("0", "1")] = "1"
    unit = [dict(table) for table in z2.unit]
    del unit[1]["1"]
    inv = {key: dict(table) for key, table in z2.inv.items()}
    del inv[(3, 0)]
    del inv[(2, 1)]["0"]
    with pytest.raises(ValidationError) as caught:
        validate_omega(z2.base, comp, unit, inv)
    assert str(caught.value) == (
        "comp[2,1] keyed on non-composable pair ('1', '0'); "
        "comp[2,1] keyed on non-composable pair ('0', '1'); "
        "unit[1] undefined on '1'; "
        "inverse table at (3,0) missing; "
        "inv[2,1] undefined on '0'"
    )
    assert_same(validate_omega, ref_validate_omega, z2.base, comp, unit, inv)


# -- presheaves -----------------------------------------------------------------------

CATEGORIES = {
    "delta1": testcat.delta_truncated(1),
    "delta2": testcat.delta_truncated(2),
    "elements": testcat.category_of_elements(
        testcat.representable(testcat.delta_truncated(1), "[1]")),
}


@st.composite
def presheaf_tables(draw):
    """A terminal, representable or product presheaf's tables with up to two
    faults: a value set dropped or given a repeated element, an action dropped,
    an action entry deleted or set to no element, or an entry of any action or
    of an identity's set to another element."""
    base = CATEGORIES[draw(st.sampled_from(sorted(CATEGORIES)))]
    kind = draw(st.sampled_from(["terminal", "representable", "product"]))
    point = draw(st.sampled_from(base.objects))
    pre = {"terminal": lambda: testcat.terminal_presheaf(base),
           "representable": lambda: testcat.representable(base, point),
           "product": lambda: testcat.product_presheaf(testcat.representable(base, point),
                                                       testcat.representable(base, base.objects[0]))
           }[kind]()
    values = {a: list(v) for a, v in pre.values.items()}
    action = {m: dict(t) for m, t in pre.action.items()}
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["values", "repeat", "action", "total"] + ["entry", "identity"] * 3))
        a = draw(st.sampled_from(base.objects))
        m = base.identity[a] if fault == "identity" else draw(st.sampled_from(sorted(base.morphisms)))
        dom, cod = base.morphisms[m]
        if fault == "values":
            values.pop(a, None)
        elif fault == "repeat" and values.get(a):
            values[a].append(values[a][-1])
        elif fault == "action":
            action.pop(m, None)
        elif m in action and values.get(cod) and values.get(dom):
            key = draw(st.sampled_from(values[cod]))
            if fault == "total" and draw(st.booleans()):
                action[m][key] = GHOST
            elif fault == "total":
                action[m].pop(key, None)
            else:
                action[m][key] = draw(st.sampled_from(values[dom]))
    return base, values, action


@settings(max_examples=300, deadline=None)
@given(presheaf_tables())
def test_validate_presheaf_matches_reference(args):
    assert_same(validate_presheaf, ref_validate_presheaf, *args)


def test_validate_presheaf_matches_reference_at_the_last_morphism():
    base = CATEGORIES["delta2"]
    pre = testcat.representable(base, "[2]")
    action = {m: dict(t) for m, t in pre.action.items()}
    last = list(base.morphisms)[-1]  # the last g the sweep walks
    dom, cod = base.morphisms[last]
    key = pre.values[cod][-1]
    action[last][key] = next(e for e in pre.values[dom] if e != action[last][key])
    for tables in ((base, pre.values, pre.action), (base, pre.values, action)):
        assert_same(validate_presheaf, ref_validate_presheaf, *tables)


def test_functoriality_fails_only_at_the_last_morphism():
    # u: a -> b, v: b -> c and w = v u, with v declared last; F(w) is not F(u) F(v)
    morphisms = {"ida": ("a", "a"), "idb": ("b", "b"), "idc": ("c", "c"),
                 "u": ("a", "b"), "w": ("a", "c"), "v": ("b", "c")}
    comp = {(m, f"id{morphisms[m][0]}"): m for m in morphisms}
    comp.update({(f"id{morphisms[m][1]}", m): m for m in morphisms})
    comp[("v", "u")] = "w"
    base = testcat.validate_category("abc", morphisms, {a: f"id{a}" for a in "abc"}, comp)
    values = {"a": ("x1", "x2"), "b": ("y",), "c": ("z",)}
    action = {"ida": {"x1": "x1", "x2": "x2"}, "idb": {"y": "y"}, "idc": {"z": "z"},
              "u": {"y": "x1"}, "v": {"z": "y"}, "w": {"z": "x2"}}
    with pytest.raises(ValidationError) as caught:
        validate_presheaf(base, values, action)
    assert str(caught.value) == "functoriality fails at ('v', 'u') on 'z'"
    assert_same(validate_presheaf, ref_validate_presheaf, base, values, action)


# -- input guards ---------------------------------------------------------------------

X = POOL["delooping_z2_3"]  # one 0-cell "*", and the cells "0", "1" above it
DELTA = {m: testcat.delta_truncated(m) for m in (0, 1)}


def cell(level: int) -> twist.TwistedCell:
    return twist.twisted_cells(X, level)[0]


def misbounded_mixed() -> twist.MixedTuple:
    """A mixed tuple of table ``1 0 1`` whose segment has bounds ``(0,1)``, not ``(1,1)``."""
    mixed = twist.mixed_product(X, parse_table("1 0 1"))[0]
    return twist.MixedTuple(mixed.table, mixed.head, (twist.TwistedSegment(0, 1, ("0", "0")),))


def tower(dim: int, trunc: int):
    return fixtures.one_object_tower(("1",), {("1", "1"): "1"}, "1", dim, trunc)


GUARDS = {
    # globular
    "globular_tuple-width": (lambda: globular.globular_tuple(X.base, parse_table("1 0 1"), ["0"]),
                             ValidationError, "expected 2 entries, got 1"),
    "globular_tuple-truncation": (lambda: globular.globular_tuple(X.base, parse_table("4"), ["0"]),
                                  DimOutOfRange, "table needs dimension 4 but truncation is 3"),
    "globular_tuple-missing-cell": (lambda: globular.globular_tuple(X.base, parse_table("1 0 1"), ["0", GHOST]),
                                    MissingCell, f"entry 2: {GHOST!r} is not a 1-cell"),
    "source-of-0-cell": (lambda: X.base.source(0, "*"), DimOutOfRange, "0-cells have no source"),
    "target-of-0-cell": (lambda: X.base.target(0, "*"), DimOutOfRange, "0-cells have no target"),
    "boundary-kind": (lambda: X.base.boundary("up", 1, 0, "0"),
                      ValidationError, "boundary kind must be 'src' or 'tgt', got 'up'"),
    "validate_globular_set-empty": (lambda: validate_globular_set([], [], []),
                                    ValidationError, "at least dimension 0 must be declared"),
    "table-width-0": (lambda: TableOfDimensions((), ()), ShapeViolation, "at k=0: width must be at least 1"),
    "table-inner-length": (lambda: TableOfDimensions((1, 2), ()),
                           ShapeViolation, "at k=0: 2 outer entries need 1 inner entries"),
    "table-next-leaf-below-meet": (lambda: TableOfDimensions((2, 1), (1,)), ShapeViolation, "at k=1: i_2=1 <= i'_1=1"),
    "tree-node": (lambda: globular.tree_to_table(((), 1)), ValidationError, "tree nodes must be sequences, got 1"),
    "all_tables-width-0": (lambda: globular.all_tables(0, 2), ValidationError, "max_width must be >= 1, got 0"),
    "check_sections-width-0": (lambda: decalage.check_sections(X, 0, 1),
                               ValidationError, "max_width must be >= 1, got 0"),
    # twist
    "twisted_cells-level": (lambda: twist.twisted_cells(X, -1), DimOutOfRange, "twisted level must be >= 0"),
    "segment_cells-bounds": (lambda: twist.segment_cells(X, 1, 0),
                             DimOutOfRange, "segment bounds (1,0) need 0 <= low <= high"),
    "twisted_boundary-level": (lambda: twist.twisted_boundary(X, "src", cell(1), 2),
                               DimOutOfRange, "boundary level 2 outside 0..1"),
    "twisted_boundary-kind": (lambda: twist.twisted_boundary(X, "up", cell(1), 0),
                              ValidationError, "boundary kind must be 'src' or 'tgt', got 'up'"),
    "expand_product-segment-bounds": (lambda: twist.expand_product(X, misbounded_mixed()),
                                      ValidationError, "segment 1 has bounds (0,1), table wants (1,1)"),
    "twisted_compose-level": (lambda: twist.twisted_compose(X, 1, cell(1), cell(1)),
                              DimOutOfRange, "composition level 1 outside 0 <= j < 1"),
    "twisted_compose-levels-differ": (lambda: twist.twisted_compose(X, 0, cell(1), cell(0)),
                                      NotComposable, "levels differ: 1 vs 0"),
    "twisted_inverse-level": (lambda: twist.twisted_inverse(X, 1, cell(1)),
                              DimOutOfRange, "inverse level 1 outside 0 <= j < 1"),
    "iter_twisted_unit-down": (lambda: twist.iter_twisted_unit(X, cell(1), 0),
                               DimOutOfRange, "iterated unit cannot go down to 0"),
    "twisted_product-level": (lambda: twist.twisted_product(X, parse_table("3")),
                              DimOutOfRange, "twisted level 3 needs truncation >= 4"),
    "mixed_product-level": (lambda: twist.mixed_product(X, parse_table("1 0 3")),
                            DimOutOfRange, "twisted level 3 needs truncation >= 4"),
    # omega
    "iter_unit-range": (lambda: omega.iter_unit(X, 2, 1, "0"), DimOutOfRange, "iterated unit 2->1 outside 0..3"),
    "inverse-range": (lambda: omega.inverse(X, 1, 1, "0"),
                      DimOutOfRange, "inverse at (1,1) outside 0 <= j < i <= 3"),
    "composable_pairs-range": (lambda: list(omega.composable_pairs(X, 1, 2)),
                               DimOutOfRange, "composable pairs at (1,2) outside 0 <= j <= i <= 3"),
    # finsets
    "check_shift_decalage-6": (lambda: finsets.check_shift_decalage(6),
                               ValidationError, "max_n above 5 is combinatorially out of reach"),
    # fixtures
    "cyclic_table-0": (lambda: fixtures.cyclic_table(0), ValidationError, "cyclic group order must be >= 1"),
    "tower-dim-0": (lambda: tower(0, 2), ValidationError, "tower dimension must be >= 1"),
    "tower-truncation-below-dim": (lambda: tower(2, 1), ValidationError, "truncation 1 below tower dimension 2"),
    "discrete-no-names": (lambda: fixtures.discrete([], 1),
                          ValidationError, "discrete structure needs at least one cell"),
    "discrete-truncation": (lambda: fixtures.discrete(["a"], -1), ValidationError, "truncation must be >= 0"),
    "product-truncations": (lambda: fixtures.product(fixtures.discrete(["a"], 1), fixtures.discrete(["a"], 2)),
                            ValidationError, "truncations differ: 1 vs 2"),
    # testcat
    "representable-object": (lambda: testcat.representable(DELTA[1], "[9]"),
                             ValidationError, "'[9]' is not an object"),
    "product_presheaf-bases": (lambda: testcat.product_presheaf(testcat.terminal_presheaf(DELTA[0]),
                                                                testcat.terminal_presheaf(DELTA[1])),
                               ValidationError, "presheaf product needs a shared base"),
    "nerve-depth": (lambda: testcat.nerve(DELTA[1], -1), ValidationError, "depth must be >= 0"),
    "delta_truncated-m": (lambda: testcat.delta_truncated(-1), ValidationError, "m must be >= 0"),
    "separating-point-undefined": (
        lambda: testcat.check_separating_interval(testcat.representable(DELTA[1], "[1]"), {}, {}),
        NotNatural, "first point undefined or out of range at '[0]'"),
    "compose-not-composable": (lambda: DELTA[1].compose("0>1:0", "0>1:0"), KeyError, "('0>1:0', '0>1:0')"),
    "presheaf-unhashable-value": (
        lambda: validate_presheaf(DELTA[0], {"[0]": ("*",)}, {"0>0:0": {"*": ["*"]}}),
        ValidationError, "action of '0>0:0' not total into values('[0]')"),
}


@pytest.mark.parametrize("name", GUARDS)
def test_input_guard(name):
    call, error, message = GUARDS[name]
    with pytest.raises(Exception) as caught:
        call()
    assert (type(caught.value), str(caught.value)) == (error, message)
