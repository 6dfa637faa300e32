from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import fixtures, omega
from globkernel.errors import (
    DimOutOfRange,
    InversesAbsent,
    MissingCell,
    NotAbelian,
    NotAGroup,
    NotComposable,
    ValidationError,
)
from globkernel.omega import (
    ASSOC,
    EXCHANGE,
    INVERSE_COMPAT,
    LEFT_INVERSE,
    LEFT_UNIT,
    RIGHT_INVERSE,
    RIGHT_UNIT,
    UNIT_COMPAT,
    AxiomFlags,
    FULL_FLAGS,
    check_all,
    check_axiom,
    check_structure,
    compose,
    composable_pairs,
    inverse,
    iter_unit,
    omega_from_json,
    omega_to_json,
    unit,
    validate_omega,
)

from oracles import axiom_subscripts


_KEEP = object()


def rebuild(x, comp=None, unit_tables=None, inv=_KEEP):
    """Copy a structure with some tables swapped out (for fault injection)."""
    return omega.OmegaStructure(
        x.base,
        comp if comp is not None else x.comp,
        tuple(unit_tables) if unit_tables is not None else x.unit,
        x.inv if inv is _KEEP else inv,
    )


def with_comp_fault(x, i, j, u, v, value):
    comp = {key: dict(table) for key, table in x.comp.items()}
    comp[(i, j)][(u, v)] = value
    return rebuild(x, comp=comp)


def with_inv_fault(x, i, j, u, value):
    inv = {key: dict(table) for key, table in x.inv.items()}
    inv[(i, j)][u] = value
    return rebuild(x, inv=inv)


# -- fixtures and basic operations ---------------------------------------------


def test_discrete_sizes():
    x = fixtures.discrete(("a", "b"), 3)
    assert x.base.sizes() == (2, 2, 2, 2)
    assert check_structure(x).ok


def test_delooping_sizes():
    x = fixtures.delooping(fixtures.cyclic_table(2), 2)
    assert x.base.sizes() == (1, 2, 2)


def test_suspension_sizes():
    x = fixtures.suspension(fixtures.cyclic_table(3), 2, 3)
    assert x.base.sizes() == (1, 1, 3, 3)


def test_compose_z2(z2):
    assert compose(z2, 1, 0, "1", "1") == "0"
    assert compose(z2, 1, 0, "1", "0") == "1"


def test_compose_left_unit_instance(z3):
    for u in z3.base.cells[1]:
        k = iter_unit(z3, 0, 1, z3.base.boundary("tgt", 1, 0, u))
        assert compose(z3, 1, 0, k, u) == u


def test_compose_not_composable(sus_z3):
    # distinct top cells at dimension 3 have distinct 2-boundaries
    with pytest.raises(NotComposable) as err:
        compose(sus_z3, 3, 2, "0", "1")
    assert err.value.left_boundary == "0"
    assert err.value.right_boundary == "1"


def test_compose_dim_out_of_range(z2):
    with pytest.raises(DimOutOfRange):
        compose(z2, 4, 0, "0", "0")
    with pytest.raises(DimOutOfRange):
        compose(z2, 1, 1, "0", "0")


def test_eckmann_hilton_on_suspension(sus_z3):
    # both compositions at the group dimension agree with the addition
    for a, b in itertools.product(sus_z3.base.cells[2], repeat=2):
        want = str((int(a) + int(b)) % 3)
        assert compose(sus_z3, 2, 0, a, b) == want
        assert compose(sus_z3, 2, 1, a, b) == want


def test_unit_and_iter_unit(z2):
    assert iter_unit(z2, 1, 1, "1") == "1"
    assert unit(z2, 0, "*") == "0"
    assert z2.base.source(1, unit(z2, 0, "*")) == "*"
    # iterated unit over the object reaches every degenerate level
    assert iter_unit(z2, 0, 2, "*") == unit(z2, 1, unit(z2, 0, "*"))
    with pytest.raises(DimOutOfRange):
        unit(z2, 3, "0")


def test_inverse_tables(z2, sus_z3):
    assert inverse(z2, 1, 0, "1") == "1"
    for a in sus_z3.base.cells[2]:
        assert inverse(sus_z3, 2, 0, a) == str((-int(a)) % 3)
    with pytest.raises(InversesAbsent):
        inverse(rebuild(z2, inv=None), 1, 0, "1")


def test_missing_unit_and_inverse_entries_are_validation_errors():
    # a hole in the unit table fails the section check with its text, as a hole in comp does
    from globkernel.decalage import check_section
    from globkernel.globular import parse_table

    x = fixtures.suspension(fixtures.cyclic_table(2), 1, 4)
    units = [dict(table) for table in x.unit]
    del units[2]["0"]
    res = check_section(rebuild(x, unit_tables=units), parse_table("2"))
    assert res.status == "FAIL"
    assert res.witness == "('0',): unit table (2) has no entry for '0'"
    inv = {key: dict(table) for key, table in x.inv.items()}
    del inv[(2, 1)]["0"]
    with pytest.raises(ValidationError, match=r"inverse table \(2,1\) has no entry for '0'"):
        inverse(rebuild(x, inv=inv), 2, 1, "0")


def test_inverse_involution(fixture_corpus):
    for x in fixture_corpus.values():
        for i in range(1, x.truncation + 1):
            for j in range(i):
                for u in x.base.cells[i]:
                    assert inverse(x, i, j, inverse(x, i, j, u)) == u


# -- structure checking ----------------------------------------------------------


def test_check_structure_clean_on_corpus(fixture_corpus):
    for name, x in fixture_corpus.items():
        assert check_structure(x).ok, name


def test_check_structure_detects_corrupt_unit(z2):
    # send the unit 2-cell over "1" to the one over "0": unit law breaks
    bad_units = [dict(t) for t in z2.unit]
    bad_units[1]["1"] = "0"
    bad = rebuild(z2, unit_tables=bad_units)
    rep = check_structure(bad)
    assert not rep.ok
    assert all(v.law == "unit_law" for v in rep.violations)
    assert any(v.witness == ("1",) for v in rep.violations)


def test_check_structure_detects_missing_comp_entry(z2):
    comp = {key: dict(table) for key, table in z2.comp.items()}
    del comp[(1, 0)][("1", "1")]
    rep = check_structure(rebuild(z2, comp=comp))
    assert any(v.law == "comp_total" for v in rep.violations)


def test_validate_omega_rejects_bad_keys(z2):
    comp = {key: dict(table) for key, table in z2.comp.items()}
    comp[(3, 2)][("0", "1")] = "0"  # 0 and 1 differ at their 2-boundary
    with pytest.raises(ValidationError):
        validate_omega(z2.base, comp, z2.unit, z2.inv)

    comp = {key: dict(table) for key, table in z2.comp.items()}
    comp[(1, 0)][("1", "zzz")] = "0"
    with pytest.raises(MissingCell):
        validate_omega(z2.base, comp, z2.unit, z2.inv)


def test_validate_omega_requires_total_units(z2):
    units = [dict(t) for t in z2.unit]
    del units[0]["*"]
    with pytest.raises(ValidationError):
        validate_omega(z2.base, z2.comp, units, z2.inv)


# -- axiom checking ---------------------------------------------------------------


def test_all_axioms_hold_on_suspension_z2(fixture_corpus):
    x = fixture_corpus["suspension_z2_1_3"]
    for name in omega.AXIOMS:
        assert check_axiom(x, name).violations == [], name


def test_suspension_z4_clean():
    x = fixtures.suspension(fixtures.cyclic_table(4), 2, 3)
    assert check_structure(x).ok
    assert all(r.ok for r in check_all(x, FULL_FLAGS).values())


def test_axiom_flags_parse():
    flags = AxiomFlags.parse("l,r,f,li,ri")
    assert flags == FULL_FLAGS
    assert set(flags.axioms()) == set(omega.AXIOMS) - {INVERSE_COMPAT}
    assert AxiomFlags.parse("").axioms() == (ASSOC, EXCHANGE)
    assert AxiomFlags.parse("l,r").axioms() == (ASSOC, EXCHANGE, LEFT_UNIT, RIGHT_UNIT)
    with pytest.raises(ValidationError):
        AxiomFlags.parse("l,bogus")


_TOKEN_AXIOMS = (("l", LEFT_UNIT), ("r", RIGHT_UNIT), ("f", UNIT_COMPAT),
                 ("li", LEFT_INVERSE), ("ri", RIGHT_INVERSE))


def test_axiom_flags_round_trip_every_subset():
    # every subset, in any order and with blanks, prints in canonical token order
    for size in range(len(_TOKEN_AXIOMS) + 1):
        for subset in itertools.combinations(_TOKEN_AXIOMS, size):
            text = ",".join(token for token, _ in subset)
            flags = AxiomFlags.parse(text)
            assert str(flags) == text
            assert AxiomFlags.parse(str(flags)) == flags
            assert AxiomFlags.parse(" , ".join(reversed(text.split(","))) + ",") == flags
            assert flags.axioms() == (ASSOC, EXCHANGE) + tuple(name for _, name in subset)
            assert flags.needs_inverses() == any(t in ("li", "ri") for t, _ in subset)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_check_axiom_accepts_exactly_the_listed_subscripts(n):
    x = fixtures.delooping(fixtures.cyclic_table(2), n)
    for name in omega.AXIOMS:
        listed = omega._axiom_subscripts(x, name)
        assert listed == axiom_subscripts(n, name), name
        arity = 3 if name in (EXCHANGE, INVERSE_COMPAT) else 2
        for sub in itertools.product(range(-1, 6), repeat=arity):
            if sub in listed:
                assert check_axiom(x, name, sub).violations == [], (name, sub)
            else:
                with pytest.raises(DimOutOfRange):
                    check_axiom(x, name, sub)
        for wrong in set(range(5)) - {arity}:
            with pytest.raises(ValidationError):
                check_axiom(x, name, (1,) * wrong)


def test_check_all_needs_inverses_for_inverse_flags(z2):
    no_inv = rebuild(z2, inv=None)
    with pytest.raises(InversesAbsent):
        check_all(no_inv, FULL_FLAGS)
    assert all(r.ok for r in check_all(no_inv, AxiomFlags.parse("l,r,f")).values())
    with pytest.raises(InversesAbsent):
        check_axiom(no_inv, INVERSE_COMPAT)


def test_assoc_violation_on_subtraction_magma():
    # x * y = x - y mod 3 is not associative; unit row "0" keeps rights units
    elems = tuple(str(k) for k in range(3))
    mul = {
        (a, b): str((int(a) - int(b)) % 3)
        for a in elems
        for b in elems
    }
    x = fixtures.one_object_tower(elems, mul, "0", 1, 1)
    violations = check_axiom(x, ASSOC).violations
    assert violations
    u, v, w = (int(c) for c in violations[0].witness)
    assert ((u - v) - w) % 3 != (u - (v - w)) % 3
    # and right units hold while left units fail
    assert check_axiom(x, RIGHT_UNIT).violations == []
    assert check_axiom(x, LEFT_UNIT).violations != []


def test_inverse_compat_abelian_case(z2):
    # at j = j' the inverse reverses the factors; abelian, so both orders agree
    assert check_axiom(z2, INVERSE_COMPAT, (1, 0, 0)).violations == []


def test_inverse_compat_full_sweep_on_s3(fixture_corpus):
    assert check_axiom(fixture_corpus["delooping_s3_3"], INVERSE_COMPAT).violations == []


def test_exchange_requires_commutativity():
    s3 = fixtures.symmetric3_table()
    with pytest.raises(NotAbelian):
        fixtures.suspension(s3, 2, 3)
    # bypass the guard: the exchange sweep must find the non-commuting pair
    identity, _ = fixtures.validate_group(s3)
    tower = fixtures.one_object_tower(s3.elements, s3.mul, identity, 2, 3)
    assert check_structure(tower).ok
    assert not check_axiom(tower, EXCHANGE).ok


def test_not_a_group():
    elems = ("0", "1", "2")
    mul = {(a, b): str((int(a) - int(b)) % 3) for a in elems for b in elems}
    with pytest.raises(NotAGroup):
        fixtures.delooping(fixtures.GroupTable(elems, mul), 2)


def test_cap_limits_violations(z3):
    bad = with_comp_fault(z3, 1, 0, "1", "1", "0")
    capped = check_axiom(bad, ASSOC, cap=1)
    assert len(capped.violations) == 1
    full = check_axiom(bad, ASSOC, cap=1000)
    assert len(full.violations) > 1
    # a cut sweep screened no more instances than the whole one
    assert capped.instances <= full.instances


def test_report_truncated_exactly_when_more_than_cap(z3):
    bad = with_comp_fault(z3, 1, 0, "1", "1", "0")
    total = len(check_structure(bad, cap=1000).violations)
    assert total >= 2
    assert check_structure(bad, cap=1).truncated
    assert check_structure(bad, cap=total - 1).truncated
    assert not check_structure(bad, cap=total).truncated
    capped = check_axiom(bad, ASSOC, cap=1)
    assert capped.truncated and len(capped.violations) == 1
    total = len(check_axiom(bad, ASSOC, cap=1000).violations)
    assert not check_axiom(bad, ASSOC, cap=total).truncated


def test_report_text_lists_its_violations_and_the_cut(z3):
    assert str(check_axiom(z3, ASSOC)) == "clean"
    bad = with_comp_fault(z3, 1, 0, "1", "1", "0")
    assert str(check_axiom(bad, ASSOC, cap=2)) == (
        "assoc(1,0) on [1, 1, 2]: 2 != 1\nassoc(1,0) on [1, 2, 2]: 2 != 0\n... (capped)")
    assert str(check_axiom(bad, ASSOC, cap=4)).splitlines()[2:] == ["assoc(1,0) on [2, 1, 1]: 1 != 2",
                                                                     "assoc(1,0) on [2, 2, 1]: 0 != 2"]


def test_entry_on_pair_that_does_not_compose_is_not_evaluable():
    # the unit over "a" is the loop "b", which does not compose with "a";
    # an entry for ("b", "a") must not make the left unit law look evaluable
    x = fixtures.discrete(("a", "b"), 1)
    comp = {key: dict(table) for key, table in x.comp.items()}
    comp[(1, 0)][("b", "a")] = "a"
    bad = rebuild(x, comp=comp, unit_tables=[{"a": "b", "b": "b"}])
    (violation,) = check_axiom(bad, LEFT_UNIT, (1, 0)).violations
    assert violation.witness == ("a",)
    assert violation.detail.startswith("not evaluable: s^1_0(b) = b but t^1_0(a) = a")


# -- fault injection: each axiom's checker catches its own fault ------------------


def test_fault_left_unit(z3):
    # corrupt the composite of the identity with "2"
    bad = with_comp_fault(z3, 1, 0, "0", "2", "1")
    found = check_axiom(bad, LEFT_UNIT).violations
    assert found
    assert all(v.law == LEFT_UNIT for v in found)


def test_fault_right_unit(z3):
    bad = with_comp_fault(z3, 1, 0, "2", "0", "1")
    assert not check_axiom(bad, RIGHT_UNIT).ok


def test_fault_assoc(z3):
    bad = with_comp_fault(z3, 1, 0, "1", "1", "0")
    assert not check_axiom(bad, ASSOC).ok


def test_fault_exchange(sus_z3):
    bad = with_comp_fault(sus_z3, 2, 1, "1", "1", "0")
    assert not check_axiom(bad, EXCHANGE).ok


def test_fault_unit_compat(z3):
    # 2-cells over 1 + 1 should compose to the unit cell over 2
    bad = with_comp_fault(z3, 2, 0, "1", "1", "0")
    assert not check_axiom(bad, UNIT_COMPAT).ok


def test_fault_inverses(z3):
    bad = with_inv_fault(z3, 1, 0, "1", "1")  # true inverse of 1 is 2
    assert not check_axiom(bad, LEFT_INVERSE).ok
    assert not check_axiom(bad, RIGHT_INVERSE).ok


def test_faults_do_not_silence_other_reports(z3):
    # the corrupted axiom never comes back clean alongside a clean twin
    bad = with_comp_fault(z3, 1, 0, "0", "2", "1")
    results = check_all(bad, FULL_FLAGS)
    assert not results[LEFT_UNIT].ok
    clean = check_all(z3, FULL_FLAGS)
    assert all(r.ok for r in clean.values())


# -- the derived inverse-compatibility implication --------------------------------


def satisfies_hypotheses(x) -> bool:
    if x.inv is None:
        return False
    if not check_structure(x).ok:
        return False
    flags = AxiomFlags.parse("l,r,ri")
    return all(r.ok for r in check_all(x, flags).values())


def test_inverse_compat_follows_on_corpus(fixture_corpus):
    hit = 0
    for x in fixture_corpus.values():
        if satisfies_hypotheses(x):
            hit += 1
            assert check_axiom(x, INVERSE_COMPAT).violations == []
    assert hit == len(fixture_corpus)


def test_inverse_compat_follows_on_randomized_structures():
    # random corruptions of group towers: whenever associativity, exchange,
    # units and right inverses all pass, inverse compatibility must too
    rng = random.Random(7)
    tables = [fixtures.cyclic_table(2), fixtures.cyclic_table(3),
              fixtures.cyclic_table(4)]
    checked_hypothesis_true = 0
    for trial in range(60):
        table = rng.choice(tables)
        trunc = rng.choice((2, 3))
        x = fixtures.delooping(table, trunc)
        if rng.random() < 0.7:
            i = rng.choice(range(1, trunc + 1))
            j = rng.randrange(i)
            pairs = list(x.comp[(i, j)])
            u, v = rng.choice(pairs)
            value = rng.choice(x.base.cells[i])
            x = with_comp_fault(x, i, j, u, v, value)
        if rng.random() < 0.3 and x.inv is not None:
            i = rng.choice(range(1, trunc + 1))
            j = rng.randrange(i)
            u = rng.choice(x.base.cells[i])
            value = rng.choice(x.base.cells[i])
            x = with_inv_fault(x, i, j, u, value)
        if satisfies_hypotheses(x):
            checked_hypothesis_true += 1
            assert check_axiom(x, INVERSE_COMPAT).violations == []
    assert checked_hypothesis_true >= 5  # the unperturbed draws at least


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.data())
def test_inverse_compat_follows_on_random_magmas(size, data):
    # arbitrary magma + arbitrary inverse candidate on a 1-truncated tower
    elems = tuple(str(k) for k in range(size))
    mul = {
        (a, b): data.draw(st.sampled_from(elems), label=f"mul({a},{b})")
        for a in elems
        for b in elems
    }
    e = data.draw(st.sampled_from(elems), label="unit")
    inv_map = {a: data.draw(st.sampled_from(elems), label=f"inv({a})") for a in elems}
    x = fixtures.one_object_tower(elems, mul, e, 1, 2, inv_map)
    if satisfies_hypotheses(x):
        assert check_axiom(x, INVERSE_COMPAT).violations == []


# -- serialization -----------------------------------------------------------------


def test_omega_json_round_trip(fixture_corpus):
    for name, x in fixture_corpus.items():
        back = omega_from_json(omega_to_json(x))
        assert back == x, name


def test_omega_json_requires_tables(z2):
    data = omega_to_json(z2)
    del data["comp"]
    with pytest.raises(ValidationError):
        omega_from_json(data)


def test_composable_pairs_bucketing(sus_z3):
    pairs = list(composable_pairs(sus_z3, 3, 2))
    # only equal top cells are composable over the group dimension
    assert sorted(pairs) == sorted((a, a) for a in sus_z3.base.cells[3])
    pairs = list(composable_pairs(sus_z3, 2, 0))
    assert len(pairs) == 9
