from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import decalage, finsets, fixtures, globular, omega, report, twist
from globkernel.decalage import (
    apex_source,
    apex_tuple,
    base_endpoint,
    check_apex_naturality,
    check_endpoint_naturality,
    check_lift_non_naturality,
    check_section,
    check_sections,
    check_unit_closed_forms,
    find_lift_naturality_failure,
    unit_lift,
    unit_lift_segment,
    unit_lift_tuple,
)
from globkernel.errors import DimOutOfRange, KernelError, NotComposable, ValidationError
from globkernel.finsets import (
    SimplexMap,
    base_point,
    check_shift_decalage,
    clamp_retraction,
    compose_maps,
    identity_map,
    shift_map,
    standard_generators,
    top_inclusion,
)
from globkernel.globular import all_tables, globular_product, parse_table
from globkernel.report import Report, collect
from globkernel.testcat import delta_truncated
from globkernel.twist import twisted_cell, twisted_cells

from conftest import GHOST, POOL, faulted
from oracles import (
    all_functions,
    ref_apex_naturality,
    ref_check_section,
    ref_composition_sweep,
    ref_endpoint_naturality,
    ref_shift_squares,
    ref_unit_closed_forms,
)


# -- projections and lifts -----------------------------------------------------


def test_level_zero_projections(z2):
    # a level-0 twisted cell is an arrow: apex is its source, endpoint its target
    cell = twisted_cell(z2, 0, ("1",))
    assert apex_source(z2, cell) == z2.base.src[1]["1"]
    assert base_endpoint(z2, cell) == z2.base.tgt[1]["1"]


def test_endpoint_constant_on_one_object(z2):
    for level in range(z2.truncation):
        for cell in twisted_cells(z2, level):
            assert base_endpoint(z2, cell) == "*"


def test_unit_lift_level_zero(z2):
    # lifting a 0-cell is just its unit arrow
    lifted = unit_lift(z2, 0, "*")
    assert lifted.entries == ("0",)


def test_unit_lift_level_one(z2):
    # lift of an arrow g: (unit of target, unit cell over g)
    for g in ("0", "1"):
        lifted = unit_lift(z2, 1, g)
        assert lifted.entries == ("0", g)


def test_unit_lift_segments(sus_z2):
    for x_top in sus_z2.base.cells[3]:
        seg = unit_lift_segment(sus_z2, 2, 3, x_top)
        assert seg.low == 2 and seg.high == 3
        assert seg.entries == (sus_z2.unit[2][sus_z2.base.boundary("tgt", 3, 2, x_top)],
                               sus_z2.unit[3][x_top])
    single = unit_lift_segment(sus_z2, 3, 3, "1")
    assert single.entries == (sus_z2.unit[3]["1"],)


def test_unit_lift_dim_out_of_range(z2):
    with pytest.raises(DimOutOfRange):
        unit_lift(z2, 3, "0")
    # the lift's own guard names the truncation, before any unit is looked up
    for lift in (lambda: unit_lift(z2, 3, "0"), lambda: unit_lift_segment(z2, 2, 3, "0")):
        with pytest.raises(DimOutOfRange, match=r"^lift of a 3-cell needs dimension 4 <= truncation 3$"):
            lift()


def test_apex_after_lift_is_identity(fixture_corpus):
    for x in fixture_corpus.values():
        for i in range(x.truncation):
            for u in x.base.cells[i]:
                assert apex_source(x, unit_lift(x, i, u)) == u


def test_check_section_width_one(sus_z2):
    res = check_section(sus_z2, parse_table("3"))
    assert res.ok


def test_check_section_sweep(sus_z2):
    results = check_sections(sus_z2, 3, 3)
    assert len(results) == 88
    assert report.all_pass(results)


def test_check_section_dim_out_of_range(z2):
    with pytest.raises(DimOutOfRange):
        check_section(z2, parse_table("3"))  # lifting a 3-cell needs dimension 4


def test_check_section_on_whole_corpus():
    # each table's count is the length of its brute-force product
    for name, x in POOL.items():
        results = check_sections(x, 3, min(3, x.truncation - 1))
        assert report.all_pass(results), name
        assert results == [ref_check_section(x, table) for table in all_tables(3, min(3, x.truncation - 1))]


def _failing_section_tuples(x, table):
    out = set()
    for tup in globular_product(x.base, table):
        try:
            back = apex_tuple(x, unit_lift_tuple(x, table, tup))
        except Exception:
            out.add(tup.entries)
            continue
        if back != tup:
            out.add(tup.entries)
    return out


def test_check_section_fault_injection(sus_z2):
    # corrupt the unit 3-cell over the 2-cell "0": exactly the product tuples
    # with a "0" entry in a slot of dimension >= 2 route through that unit
    units = [dict(t) for t in sus_z2.unit]
    units[2]["0"] = "1"
    bad = omega.OmegaStructure(sus_z2.base, sus_z2.comp, tuple(units), sus_z2.inv)
    for table in all_tables(3, 3):
        expected_bad = {
            tup.entries
            for tup in globular_product(bad.base, table)
            if any(
                dim >= 2 and entry == "0"
                for dim, entry in zip(table.outer, tup.entries)
            )
        }
        assert _failing_section_tuples(bad, table) == expected_bad, str(table)
        res = check_section(bad, table)
        assert res.ok == (not expected_bad), str(table)
        if expected_bad:
            assert len(res.failures) == len(expected_bad), str(table)


def _outcome(check, *args):
    """``check(*args)``, or the type and text of the kernel error it raises.

    Any other exception escapes and fails the test.
    """
    try:
        return check(*args)
    except KernelError as exc:
        return type(exc), str(exc)


UNCAPPED = 10**9
CAPS = (1, 3)


def _cuts_exactly(sweep, reference, *args, one_block=True):
    """``sweep(*args, UNCAPPED)`` equals ``reference(*args)``, or raises the same
    error; and at each of ``CAPS`` every result holds the reference's failures
    cut at the cap, is ``capped`` exactly when the reference has more, and
    counts the reference's instances.  A cut sweep of several blocks may stop
    before its last block, so unless ``one_block`` it counts no more of them."""
    full = _outcome(reference, *args)
    assert _outcome(sweep, *args, UNCAPPED) == full
    for cap in CAPS:
        got = _outcome(sweep, *args, cap)
        if isinstance(full, tuple):  # the error
            assert got == full
            continue
        for g, f in zip(*(r if isinstance(r, list) else [r] for r in (got, full)), strict=True):
            cut = len(f.failures) > cap
            assert (g.check, g.scope, g.status, g.witness) == (f.check, f.scope, f.status, f.witness)
            assert (g.failures, g.capped) == (f.failures[:cap], cut), (f.scope, cap)
            assert (g.instances == f.instances) if one_block or not cut else (g.instances <= f.instances)


@settings(max_examples=80, deadline=None)
@given(faulted(POOL))
def test_check_section_matches_reference_on_faulted_structures(x):
    # same status, failures and order as the per-tuple loop, or the same error, cut exactly at each cap
    for table in all_tables(3, min(3, x.truncation - 1)):
        _cuts_exactly(check_section, ref_check_section, x, table, one_block=False)


def _unit_faults(x):
    """``x`` with one unit entry set to another cell of its dimension, to ``GHOST``,
    or deleted, each in turn, as ``((i, u, w), structure)``; w is None where deleted."""
    for i in range(x.truncation):
        for u in x.base.cells[i]:
            for w in x.base.cells[i + 1] + (GHOST, None):
                units = [dict(t) for t in x.unit]
                units[i].pop(u)
                if w is not None:
                    units[i][u] = w
                yield (i, u, w), omega.OmegaStructure(x.base, x.comp, tuple(units), x.inv)


def test_check_section_matches_reference_on_every_unit_fault():
    # the sweep reads no comp or inv table; the twisted suspension has 2-cells
    # whose source is not their target, so a top entry's source is tested
    x = POOL["twisted_suspension_z2_2_4"]
    for fault, y in _unit_faults(x):
        for table in all_tables(3, x.truncation - 1):
            got = _outcome(check_section, y, table, UNCAPPED)
            assert got == _outcome(ref_check_section, y, table), (fault, str(table))


def test_section_screen_fails_exactly_the_failing_rows():
    # the judge names only the rows the screen fails, so a screen that also fails
    # lawful rows shows in no verdict; in the pair groupoid a 1-cell's source and
    # target differ, so a seam compared on swapped sides fails lawful rows
    x = POOL["pair_groupoid_3"]
    for fault, y in [(None, x), *_unit_faults(x)]:
        for table in all_tables(3, x.truncation - 1):
            rows, screened, start = globular_product(y.base, table), set(), 0
            for block in globular.product_ids(y.base, table):
                screened.update(rows[start + k].entries for k in decalage._lifts_back(y, table, block))
                start += len(block[0])
            assert screened == _failing_section_tuples(y, table), (fault, str(table))


def test_check_section_matches_reference_across_blocks(monkeypatch):
    # products enumerated three rows at a time, so failing rows sit in later blocks
    monkeypatch.setattr(globular, "_CHUNK", 3)
    x = POOL["twisted_suspension_z2_2_4"]
    for i in range(x.truncation):
        units = [dict(t) for t in x.unit]
        units[i][x.base.cells[i][-1]] = GHOST
        y = omega.OmegaStructure(x.base, x.comp, tuple(units), x.inv)
        for table in all_tables(3, x.truncation - 1):
            _cuts_exactly(check_section, ref_check_section, y, table, one_block=False)


# -- naturality -------------------------------------------------------------------


def test_apex_naturality_unfolds(z3):
    # the target-side square written out on raw entries
    for cell in twisted_cells(z3, 2):
        lhs = apex_source(z3, twist.twisted_target(z3, cell))
        rhs = z3.base.tgt[2][apex_source(z3, cell)]
        assert lhs == rhs


_SWEEPS = (
    (check_apex_naturality, ref_apex_naturality),
    (check_endpoint_naturality, ref_endpoint_naturality),
    (check_unit_closed_forms, ref_unit_closed_forms),
)


def test_naturality_sweeps_clean():
    # each level counts its twisted cells, as many as the brute-force enumeration has
    for name, x in POOL.items():
        for sweep, reference in _SWEEPS:
            results = sweep(x)
            assert report.all_pass(results), (name, sweep.__name__)
            assert results == reference(x), (name, sweep.__name__)


def test_clean_sweeps_name_no_level():
    # each sweep screens a whole level on its id rows and judges on names only
    # what fails, so on a lawful structure no level of twisted cells is named
    x = fixtures.delooping(fixtures.cyclic_table(4), 4)
    for sweep, _ in _SWEEPS:
        assert report.all_pass(sweep(x))
    assert not [key for key in twist._complex(x)._cache if key[0] in ("cells", "segments")]


def test_naturality_trivial_on_discrete():
    x = fixtures.discrete(("a", "b"), 3)
    results = check_apex_naturality(x)
    assert len(results) == 2 and report.all_pass(results)


def test_lift_non_naturality_witness(z2):
    found = find_lift_naturality_failure(z2)
    assert found is not None
    u, lhs, rhs = found
    assert u == "1"
    assert lhs.entries == ("0",)  # lift of the source object
    assert rhs.entries == ("1",)  # twisted source of the lift
    result = check_lift_non_naturality(z2)
    # the search tried "0", then found "1"
    assert result.ok and (result.instances, result.capped) == (2, False)


def test_lift_non_naturality_missing_on_discrete():
    # on a discrete structure the lift is natural: nothing to witness, no violation
    x = fixtures.discrete(("a",), 3)
    assert find_lift_naturality_failure(x) is None
    result = check_lift_non_naturality(x)
    assert (result.status, result.witness) == ("SKIP", "lift is natural on this structure")
    assert (result.instances, result.capped) == (len(x.base.cells[1]), False)
    assert not result.ok
    assert report.all_pass([result])


def test_unit_closed_forms_clean(z2_deep):
    for name, x in POOL.items():
        assert report.all_pass(check_unit_closed_forms(x)), name
    assert report.all_pass(check_unit_closed_forms(z2_deep))


def test_unit_closed_forms_cover_all_levels(z2_deep):
    results = check_unit_closed_forms(z2_deep)
    scopes = {r.scope for r in results}
    assert scopes == {"i=1,j=0", "i=2,j=0", "i=2,j=1", "i=3,j=0", "i=3,j=1", "i=3,j=2"}


@settings(max_examples=150, deadline=None)
@given(faulted(POOL))
def test_naturality_and_closed_form_sweeps_match_reference_on_faulted_structures(x):
    # same statuses and failures in order as the sweeps on names, or the same error, cut exactly at each cap
    for sweep, reference in _SWEEPS:
        _cuts_exactly(sweep, reference, x)


def _with_comp_entry(x, key, pair, value):
    comp = {k: dict(t) for k, t in x.comp.items()}
    comp[key][pair] = value
    return omega.OmegaStructure(x.base, comp, x.unit, x.inv)


@pytest.mark.parametrize("sweep, reference, name, key, pair, value, scope, witness", [
    # in the delooping of Z/2, a 2-cell composite over level 1 that names the
    # other cell moves the glued entry of the twisted source
    (check_apex_naturality, ref_apex_naturality, "delooping_z2_3", (2, 1), ("0", "0"), "1",
     "level=2", "src side at ('0', '0', '0')"),
    (check_unit_closed_forms, ref_unit_closed_forms, "delooping_z2_3", (2, 1), ("0", "0"), "1",
     "i=2,j=0", "src at ('0', '0', '0'): ('1', '0', '0') != ('0', '0', '0')"),
    # on two discrete objects, a composite of 1-cells over a that lands on b
    # moves the endpoint of the twisted source
    (check_endpoint_naturality, ref_endpoint_naturality, "discrete_ab_3", (1, 0), ("a", "a"), "b",
     "level=1", "src side at ('a', 'a')"),
    # a composite that names no cell: the twisted boundary cannot be taken,
    # and the cell fails with the error's text
    (check_apex_naturality, ref_apex_naturality, "delooping_z2_3", (1, 0), ("0", "0"), "ghost",
     "level=1", "('0', '0'): entry 1: 'ghost' is not a 1-cell"),
    (check_endpoint_naturality, ref_endpoint_naturality, "delooping_z2_3", (1, 0), ("0", "0"),
     "ghost", "level=1", "('0', '0'): entry 1: 'ghost' is not a 1-cell"),
])
def test_sweep_fails_on_a_hand_built_fault(sweep, reference, name, key, pair, value, scope,
                                           witness):
    x = _with_comp_entry(POOL[name], key, pair, value)
    results = sweep(x, UNCAPPED)
    assert results == reference(x)
    first = next(r for r in results if r.status == "FAIL")
    assert (first.scope, first.witness) == (scope, witness)


# -- the finite shift category -------------------------------------------------------


def test_simplex_map_validation():
    with pytest.raises(ValidationError):
        SimplexMap(1, 1, (0,))
    with pytest.raises(ValidationError):
        SimplexMap(1, 1, (0, 2))
    m = SimplexMap(1, 2, (0, 2))
    assert m(1) == 2
    # sizes and values are ints, not floats, strings or bools, and nothing is coerced
    for dom, cod, table in ((1, 2, (0, 2.7)), (1.0, 2, (0, 1)), (1, 2.0, (0, 1)),
                            (1, 2, (0, "x")), (1, 2, (0, True)), (True, 2, (0, 1)),
                            (1, 2, None), (1, 2, 5)):
        with pytest.raises(ValidationError):
            SimplexMap(dom, cod, table)


def test_reader_gathers_any_number_of_indices():
    # an empty gather gives (): testcat.validate_presheaf gathers over empty value sets
    assert finsets._reader(())("abc") == ()
    assert finsets._reader((2,))("abc") == ("c",)
    assert finsets._reader((2, 0, 2))("abc") == ("c", "a", "c")


def test_decalage_names_the_one_shift_check():
    assert decalage.check_shift_decalage is finsets.check_shift_decalage


def test_every_sweep_rejects_a_cap_below_one(monkeypatch):
    # a cap of 0 kept no violation, which read as a PASS, and -1 removed the cap
    z2 = fixtures.cyclic_table(2)
    tower = fixtures.one_object_tower(z2.elements, z2.mul, "1", 1, 2)
    assert len(omega.check_axiom(tower, omega.LEFT_UNIT)) == 4
    monkeypatch.setattr(finsets, "_shift", lambda row, n: row + (0,))  # every shift check fails
    x = POOL["delooping_z2_3"]
    sweeps = {
        "check_structure": lambda cap: omega.check_structure(tower, cap),
        "check_axiom": lambda cap: omega.check_axiom(tower, omega.LEFT_UNIT, cap=cap),
        "check_all": lambda cap: omega.check_all(tower, omega.CATEGORICAL_FLAGS, cap),
        "check_section": lambda cap: check_section(x, parse_table("1"), cap),
        "check_sections": lambda cap: check_sections(x, 3, 2, cap),
        "check_apex_naturality": lambda cap: check_apex_naturality(x, cap),
        "check_endpoint_naturality": lambda cap: check_endpoint_naturality(x, cap),
        "check_unit_closed_forms": lambda cap: check_unit_closed_forms(x, cap),
        "check_shift_decalage": lambda cap: check_shift_decalage(3, cap),
    }
    for name, sweep in sweeps.items():
        for cap in (0, -1):
            with pytest.raises(ValidationError, match="cap must be >= 1"):
                sweep(cap)
                pytest.fail(f"{name} accepted cap {cap}")
    # truncated at 1, the naturality and closed-form sweeps have no level to sweep
    y = fixtures.delooping(z2, 1)
    for sweep in (check_apex_naturality, check_endpoint_naturality, check_unit_closed_forms):
        assert sweep(y) == []
        for cap in (0, -5, -1):
            with pytest.raises(ValidationError, match=f"^cap must be >= 1, got {cap}$"):
                sweep(y, cap)
    # a cap that is no int: 2.5 was never met, so every violation came back uncut,
    # and None or "3" ended in a TypeError from the comparison
    for cap in (2.5, None, "3", True, False, 3.0):
        for name, sweep in sweeps.items():
            with pytest.raises(ValidationError, match=f"^cap must be an int, got {re.escape(repr(cap))}$"):
                sweep(cap)
                pytest.fail(f"{name} accepted cap {cap!r}")
        for sweep in (check_apex_naturality, check_endpoint_naturality, check_unit_closed_forms):
            with pytest.raises(ValidationError, match="^cap must be an int"):
                sweep(y, cap)
    zeros = fixtures.one_object_tower(("0", "1", "2"), {(a, b): "0" for a in "012" for b in "012"}, "0", 1, 2)
    assert len(omega.check_axiom(zeros, omega.LEFT_UNIT)) == 4
    with pytest.raises(ValidationError, match=r"^cap must be an int, got 2\.5$"):
        omega.check_axiom(zeros, omega.LEFT_UNIT, cap=2.5)


def test_compose_maps():
    f = SimplexMap(1, 2, (0, 2))
    g = SimplexMap(2, 1, (0, 0, 1))
    assert compose_maps(g, f).table == (0, 1)
    with pytest.raises(NotComposable):
        compose_maps(f, f)


def test_generator_tables_frozen():
    gens = standard_generators()
    assert gens["comp"].table == (0, 2)
    assert gens["unit"].table == (0, 0)
    assert gens["inv"].table == (1, 0)
    assert gens["comp_shift"].table == (0, 2, 3)
    assert gens["unit_shift"].table == (0, 0, 1)
    assert gens["inv_shift"].table == (1, 0, 2)
    assert (gens["comp"].dom, gens["comp"].cod) == (1, 2)
    assert (gens["unit"].dom, gens["unit"].cod) == (1, 0)
    assert (gens["inv"].dom, gens["inv"].cod) == (1, 1)


def test_shift_sends_generators_to_shifted_tables():
    gens = standard_generators()
    assert shift_map(gens["comp"]) == gens["comp_shift"]
    assert shift_map(gens["unit"]) == gens["unit_shift"]
    assert shift_map(gens["inv"]) == gens["inv_shift"]


def test_inclusion_and_point_components():
    alpha2 = top_inclusion(2)
    assert (alpha2.dom, alpha2.cod, alpha2.table) == (2, 3, (0, 1, 2))
    beta2 = base_point(2)
    assert (beta2.dom, beta2.cod, beta2.table) == (0, 3, (3,))


def test_clamp_retraction_identity():
    rho1 = clamp_retraction(1)
    assert rho1.table == (0, 1, 1)
    assert compose_maps(rho1, top_inclusion(1)) == identity_map(1)


def test_shift_decalage_small():
    results = check_shift_decalage(1)
    assert report.all_pass(results)
    checks = {r.check for r in results}
    assert checks == {
        "shift-identity",
        "shift-composition",
        "shift-inclusion-square",
        "shift-point-square",
        "shift-retraction",
    }


def test_shift_decalage_rejects_bad_bound():
    with pytest.raises(ValidationError):
        check_shift_decalage(0)


def test_function_counts_against_oracle():
    # |maps [m] -> [n]| = (n+1)^(m+1), cross-checked by raw enumeration; the
    # tuples of finsets' enumeration and the morphisms of delta_truncated
    # come in the enumeration's lexicographic order
    names = []
    for m in range(4):
        for n in range(4):
            maps = all_functions(m, n)
            assert len(maps) == (n + 1) ** (m + 1)
            assert list(finsets._maps(m, n)) == maps
            names += [f"{m}>{n}:" + "".join(map(str, values)) for values in maps]
    assert list(delta_truncated(3).morphisms) == names


def test_shift_squares_match_reference_on_faulty_structure_maps(monkeypatch):
    # an inclusion that sends 0 to the top, and a point that lands on 0 for odd n
    monkeypatch.setattr(finsets, "top_inclusion",
                        lambda n: SimplexMap(n, n + 1, (n + 1,) + tuple(range(1, n + 1))))
    monkeypatch.setattr(finsets, "base_point",
                        lambda n: SimplexMap(0, n + 1, (0 if n % 2 else n + 1,)))
    incl, point = ref_shift_squares(3)
    assert incl and point
    for cap in (1, 7, 100, UNCAPPED):
        results = {r.check: r for r in check_shift_decalage(3, cap)}
        for check, full in (("shift-inclusion-square", incl), ("shift-point-square", point)):
            assert results[check].failures == tuple(full[:cap]), (check, cap)
            assert results[check].capped == (len(full) > cap), (check, cap)
            # one block per (m, n): a cut sweep stops before its last block
            count = results[check].instances
            assert (count <= _MAPS_UP_TO_3) if len(full) > cap else (count == _MAPS_UP_TO_3), (check, cap)


_SHIFT = finsets._shift
_GENERATORS = finsets._generators
# the maps {0..m} -> {0..n}, for m, n <= 3; and the pairs of them that compose, by (m, n, p)
_MAPS_UP_TO_3 = sum(len(all_functions(m, n)) for m in range(4) for n in range(4))
_PAIRS_UP_TO_3 = sum(len(all_functions(m, n)) * len(all_functions(n, p))
                     for m in range(4) for n in range(4) for p in range(4))


def _shift_new_top_to_zero(row, n):
    """A shift that sends the new top to 0 on maps whose first value is 0."""
    return _SHIFT(row, n)[:-1] + ((0 if row[0] == 0 else n + 1),)


def _shift_first_value_to_top(row, n):
    """A shift that also moves the first value to the new top on maps ending in ``n``."""
    out = _SHIFT(row, n)
    return (n + 1,) + out[1:] if row[-1] == n else out


def _shift_one_map_top_to_zero(row, n):
    """A shift that sends the new top to 0 on the map ``(0, 1, 1)`` into ``{0..2}`` alone."""
    return _SHIFT(row, n)[:-1] + ((0 if (row, n) == ((0, 1, 1), 2) else n + 1),)


def _shift_identity_top_down(row, n):
    """A shift with ``D(id) != id``: the new top goes to ``n`` on the identity of ``{0..n}``, ``n >= 1``."""
    return _SHIFT(row, n)[:-1] + ((n if n and row == tuple(range(n + 1)) else n + 1),)


def _shift_non_injective_top_to_zero(row, n):
    """A shift that sends the new top to 0 on the maps that are not injective."""
    return _SHIFT(row, n)[:-1] + ((0 if len(set(row)) < len(row) else n + 1),)


def _without_collapses(max_n):
    """G without the maps ``{0..k} -> {0..k-1}``: its closure holds only injective maps."""
    return {cod: [g for g in gens if len(g) <= cod + 1] for cod, gens in _GENERATORS(max_n).items()}


def _compose(g, f):
    return tuple(g[v] for v in f)


@pytest.mark.parametrize("shift, generators", [
    pytest.param(shift, generators, id=shift.__name__) for shift, generators in (
        (_shift_new_top_to_zero, _GENERATORS),
        (_shift_first_value_to_top, _GENERATORS),
        (_shift_one_map_top_to_zero, _GENERATORS),
        (_shift_identity_top_down, _GENERATORS),
        (_shift_non_injective_top_to_zero, _without_collapses),
    )
])
def test_composition_sweep_matches_reference_under_faulty_shifts(monkeypatch, shift, generators):
    monkeypatch.setattr(finsets, "_shift", shift)
    monkeypatch.setattr(finsets, "_generators", generators)
    assert finsets._functor_at_generators(3) is None  # so the pair sweep runs
    full = ref_composition_sweep(3, UNCAPPED)
    assert len(full) > 100
    for cap in (1, 7, 100):
        got = collect(finsets._composition_sweep(3), cap)
        assert got.violations == ref_composition_sweep(3, cap) == full[:cap], cap
        assert got.truncated and got.instances <= _PAIRS_UP_TO_3, cap
    assert collect(finsets._composition_sweep(3), UNCAPPED) == Report(full, False, _PAIRS_UP_TO_3)


def test_faulty_shifts_fail_where_the_generators_cannot_tell():
    # the first failing pair of the one-map fault is of two maps outside G
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finsets, "_shift", _shift_one_map_top_to_zero)
        first = ref_composition_sweep(3, 1)
    assert first == ["phi=(0,):[0]->[2] psi=(0, 1, 1):[2]->[2]"]
    assert {(0,), (0, 1, 1)}.isdisjoint(_GENERATORS(3)[2])  # G's maps into {0..2}
    # under G without the collapses, the non-injective fault holds on every pair of
    # an injective psi and a generator, and the identities shift to identities: only
    # the closure, which reaches no other map, says that this G does not generate
    shift = _shift_non_injective_top_to_zero
    for cod, gens in _without_collapses(3).items():
        for p in range(4):
            assert shift(tuple(range(p + 1)), p) == tuple(range(p + 2))
            for psi in all_functions(cod, p):
                if len(set(psi)) == len(psi):
                    for g in gens:
                        assert shift(_compose(psi, g), p) == _compose(shift(psi, p), shift(g, cod))


def test_real_shift_is_decided_at_generators(monkeypatch):
    # each of the 18 generators is paired once with each map out of its
    # codomain, and the pair sweep, which enumerates maps, never runs
    gens = _GENERATORS(4)
    assert sum(map(len, gens.values())) == 18
    pairs = sum(len(gs) * len(all_functions(cod, p)) for cod, gs in gens.items() for p in range(5))
    assert finsets._functor_at_generators(4) == pairs == 28_100
    # the check counts the pairs it compared, never the 18,966,741 composable pairs
    (composition,) = [r for r in check_shift_decalage(4) if r.check == "shift-composition"]
    assert (composition.status, composition.instances, composition.capped) == ("PASS", 28_100, False)
    monkeypatch.setattr(finsets, "_maps", None)
    for max_n in range(1, 5):
        assert list(finsets._composition_sweep(max_n)) == [(finsets._functor_at_generators(max_n), ())]


@pytest.mark.parametrize("shift", [_shift_new_top_to_zero, _shift_first_value_to_top])
def test_every_shift_check_applies_the_one_shift(monkeypatch, shift):
    # a faulty shift shows alike in the identity check, both squares and the sweep
    monkeypatch.setattr(finsets, "_shift", shift)
    failures = {r.check: r.failures for r in check_shift_decalage(3, UNCAPPED)}
    incl, point = ref_shift_squares(3)
    assert incl or point
    assert failures["shift-identity"] == ("n=0", "n=1", "n=2", "n=3")
    assert failures["shift-inclusion-square"] == tuple(incl)
    assert failures["shift-point-square"] == tuple(point)
    assert failures["shift-composition"] == tuple(ref_composition_sweep(3, UNCAPPED))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shift_functoriality_random(data):
    m = data.draw(st.integers(0, 3))
    n = data.draw(st.integers(0, 3))
    p = data.draw(st.integers(0, 3))
    phi = SimplexMap(m, n, tuple(data.draw(st.integers(0, n)) for _ in range(m + 1)))
    psi = SimplexMap(n, p, tuple(data.draw(st.integers(0, p)) for _ in range(n + 1)))
    assert shift_map(compose_maps(psi, phi)) == compose_maps(shift_map(psi), shift_map(phi))
    assert compose_maps(shift_map(phi), top_inclusion(m)) == compose_maps(top_inclusion(n), phi)
    assert compose_maps(shift_map(phi), base_point(m)) == base_point(n)
