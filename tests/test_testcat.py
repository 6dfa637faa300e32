from __future__ import annotations

import copy
import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import testcat
from globkernel.errors import NotNatural, ValidationError
from globkernel.testcat import (
    FunctorData,
    Presheaf,
    SmallCategory,
    category_from_json,
    category_of_elements,
    category_to_json,
    check_separating_interval,
    delta_truncated,
    has_terminal,
    nerve,
    presheaf_from_json,
    presheaf_to_json,
    product_category,
    product_comparison,
    product_presheaf,
    representable,
    terminal_presheaf,
    validate_category,
    validate_functor,
    validate_presheaf,
)

from differential import category_differs, outcome, tables
from oracles import (
    all_functions,
    brute_chain_count,
    ref_category_of_elements,
    ref_delta_truncated,
    ref_light_generators,
    ref_product_category,
    ref_validate_functor,
)


def arrow_category():
    """Two objects, one non-identity arrow a -> b."""
    return validate_category(
        ["a", "b"],
        {"ida": ("a", "a"), "idb": ("b", "b"), "f": ("a", "b")},
        {"a": "ida", "b": "idb"},
        {
            ("ida", "ida"): "ida",
            ("idb", "idb"): "idb",
            ("f", "ida"): "f",
            ("idb", "f"): "f",
        },
    )


def one_object_group(n: int):
    """Z/n as a one-object category."""
    objects = ["*"]
    morphisms = {str(k): ("*", "*") for k in range(n)}
    comp = {
        (str(a), str(b)): str((a + b) % n)
        for a in range(n)
        for b in range(n)
    }
    return validate_category(objects, morphisms, {"*": "0"}, comp)


def test_validate_category_laws():
    cat = arrow_category()
    assert cat.hom("a", "b") == ("f",)
    assert (cat.dom("f"), cat.cod("f"), cat.dom("idb")) == ("a", "b", "b")
    with pytest.raises(ValidationError):
        validate_category(["a"], {"ida": ("a", "a")}, {"a": "ida"}, {})
    bad_comp = {
        ("ida", "ida"): "ida",
        ("idb", "idb"): "idb",
        ("f", "ida"): "f",
        ("idb", "f"): "idb",  # breaks endpoints
    }
    with pytest.raises(ValidationError):
        validate_category(
            ["a", "b"],
            {"ida": ("a", "a"), "idb": ("b", "b"), "f": ("a", "b")},
            {"a": "ida", "b": "idb"},
            bad_comp,
        )


def test_undeclared_composite_is_a_validation_error():
    with pytest.raises(ValidationError, match="composite 'zzz' of 'ida' after 'ida'"):
        validate_category(["a"], {"ida": ("a", "a")}, {"a": "ida"}, {("ida", "ida"): "zzz"})


# -- validation on ids against the name-keyed reference --------------------------


BASES = {
    "arrow": arrow_category(),
    "z3": one_object_group(3),
    "delta1": delta_truncated(1),
    "delta2": delta_truncated(2),
}
GHOST = "zzz"


@st.composite
def mutated(draw):
    """The tables of a small category with one or two entries redirected or deleted.

    A ``comp`` entry (held, or on any pair of names) is redirected to a
    morphism, half the time one with the old composite's endpoints so that
    only the unit or associativity law can catch it; an identity is
    redirected; a morphism gets another endpoint.  Any of them may instead
    be deleted, or redirected to a name nothing declares.
    """
    objects, morphisms, identity, comp = (
        dict(t) if isinstance(t, dict) else list(t)
        for t in tables(BASES[draw(st.sampled_from(sorted(BASES)))])
    )
    names = list(morphisms) + [GHOST]
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("comp", "identity", "endpoint")))
        if kind == "comp":
            key = draw(st.sampled_from(sorted(comp)) | st.tuples(*[st.sampled_from(names)] * 2))
            old = morphisms.get(comp.get(key))
            twins = [n for n in morphisms if morphisms[n] == old] or names
            value = draw(st.sampled_from(twins) | st.sampled_from(names) | st.none())
            table = comp
        elif kind == "identity":
            key = draw(st.sampled_from(objects))
            value = draw(st.sampled_from(names) | st.none())
            table = identity
        else:
            key = draw(st.sampled_from(sorted(morphisms)))
            end = draw(st.sampled_from(objects + ["[ghost]"]))
            dom, cod = morphisms[key]
            value = draw(st.sampled_from([(end, cod), (dom, end), None]))
            table = morphisms
        if value is None:
            table.pop(key, None)
        else:
            table[key] = value
    return objects, morphisms, identity, comp


@settings(max_examples=300, deadline=None)
@given(mutated())
def test_validate_category_matches_reference_on_mutants(args):
    assert category_differs(args)[0] is None


def test_validate_category_matches_reference_on_edge_cases():
    objects, morphisms, identity, comp = tables(arrow_category())
    for case in (
        tables(BASES["delta2"]),
        ([], {}, {}, {}),
        ([], {}, {}, {("f", "g"): "h"}),
        (["a", "a"], {}, {}, {}),
        (objects, morphisms, identity, {**comp, ("f", "ida"): ["f"]}),  # unhashable
        (objects, morphisms, identity, {**comp, ("ida", "ida"): GHOST, ("f", "ida"): ["f"]}),
        (objects, morphisms, identity, {**comp, ("f", "ida"): None}),
        (objects, morphisms, identity, {**comp, ("f",): "f"}),  # a key that is no pair
        (objects, {**morphisms, "f": (["a"], "b")}, identity, comp),
        (objects, morphisms, {"a": "ida"}, comp),
        (objects, morphisms, {**identity, "b": "f"}, comp),
    ):
        assert category_differs(case)[0] is None


@st.composite
def reassociated(draw):
    """The tables of a small category with one or two composites of non-identities
    sent to another morphism with the same endpoints: only associativity can fail."""
    objects, morphisms, identity, comp = tables(BASES[draw(st.sampled_from(["z3", "delta1", "delta2"]))])
    comp, units = dict(comp), set(identity.values())
    for key in draw(st.lists(st.sampled_from(sorted(k for k in comp if not units & set(k))),
                             min_size=1, max_size=2)):
        comp[key] = draw(st.sampled_from([m for m in morphisms if morphisms[m] == morphisms[comp[key]]]))
    return objects, morphisms, identity, comp


@settings(max_examples=200, deadline=None)
@given(reassociated())
def test_validate_category_matches_reference_on_reassociated(args):
    assert category_differs(args)[0] is None


def fails_as_middle(g, morphisms, comp):
    """Whether ``(h g) f != h (g f)`` for some composable ``h`` and ``f``, on names."""
    return any(
        comp[(comp[(h, g)], f)] != comp[(h, comp[(g, f)])]
        for h, (dom, _) in morphisms.items() if dom == morphisms[g][1]
        for f, (_, cod) in morphisms.items() if cod == morphisms[g][0]
    )


def test_associativity_fails_at_the_least_failing_middle():
    # 1>1:11 after 1>1:10 sent to 1>1:00: the least failing middle is the third
    # generator, 1>0:00, a later generator fails too, and the witness at 1>0:00 has
    # the last h of its rows
    objects, morphisms, identity, comp = tables(BASES["delta1"])
    comp = {**comp, ("1>1:11", "1>1:10"): "1>1:00"}
    generators = ref_light_generators(morphisms, identity, comp)
    failing = [g for g in morphisms if fails_as_middle(g, morphisms, comp)]
    assert [g for g in generators if g in failing] == ["1>0:00", "1>1:10"]
    assert failing[0] == generators[2] == "1>0:00"
    with pytest.raises(ValidationError, match=re.escape("at ('0>1:1', '1>0:00', '1>1:10')")):
        validate_category(objects, morphisms, identity, comp)
    assert category_differs((objects, morphisms, identity, comp))[0] is None


def test_light_checks_only_the_generators_as_middles(monkeypatch):
    middles, middle = [], testcat._middle
    monkeypatch.setattr(testcat, "_middle",
                        lambda rows, g, *rest: middles.append(g) or middle(rows, g, *rest))
    for cat in (*BASES.values(), one_object_group(5), delta_truncated(3)):
        middles.clear()
        testcat._category(cat.objects, cat.morphisms, cat.identity, cat.rows)
        names = list(cat.morphisms)
        assert [names[g] for g in middles] == ref_light_generators(cat.morphisms, cat.identity, cat.comp)
        assert len(middles) < len(cat.morphisms)
    middles.clear()
    elements = category_of_elements(representable(cat, "[1]"))
    assert len(elements.morphisms) == 6528 and len(middles) < len(elements.morphisms)


def test_law_core_peak_memory_is_bounded():
    # the whole-table masks of the exhaustive check peaked at 5.0 MB on these tables
    cat = delta_truncated(3)
    tracemalloc.start()
    try:
        testcat._category(cat.objects, cat.morphisms, cat.identity, cat.rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_presheaf_validation_peak_memory_is_bounded():
    # one mask over the whole table and every composable pair as int64 peaked at 4.5 MB here
    base = delta_truncated(3)
    pre = representable(base, "[1]")
    tracemalloc.start()
    try:
        validate_presheaf(base, pre.values, pre.action)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_delta_truncated_matches_reference():
    for m in range(4):
        got = tables(delta_truncated(m))
        want = ref_delta_truncated(m)
        assert got[0] == want[0]
        for got_table, want_table in zip(got[1:], want[1:]):
            assert list(got_table.items()) == list(want_table.items()), m


def ordered(tables):
    """The four tables with every dict as its ordered item list: the order fixes the ids."""
    return tuple(list(t.items()) if isinstance(t, dict) else t for t in tables)


def empty_presheaf(cat):
    return validate_presheaf(cat, {"a": (), "b": ()}, {"ida": {}, "idb": {}, "f": {}})


def test_category_of_elements_matches_reference():
    presheaves = [empty_presheaf(BASES["arrow"])]
    for base in (BASES["arrow"], one_object_group(3), BASES["delta1"], BASES["delta2"]):
        presheaves += [representable(base, at) for at in base.objects] + [terminal_presheaf(base)]
    for pre in presheaves:
        assert ordered(tables(category_of_elements(pre))) == ordered(ref_category_of_elements(pre))


def test_product_category_matches_reference():
    arrow, z3 = BASES["arrow"], one_object_group(3)
    empty = category_of_elements(empty_presheaf(arrow))
    assert empty.objects == ()
    for c, d in ((arrow, z3), (z3, arrow), (arrow, BASES["delta1"]), (empty, arrow), (arrow, empty)):
        assert ordered(tables(product_category(c, d))) == ordered(ref_product_category(c, d))


def test_product_category_rows_share_their_ids():
    # past 256 the interpreter caches no ints, so equal entries are one object
    # only when the rows index one list of ids
    arrow, group = BASES["arrow"], one_object_group(90)
    prod = product_category(arrow, group)
    assert len(prod.morphisms) > 256
    first = {}
    for row in prod.rows:
        assert all(first.setdefault(h, h) is h for h in row)
    assert ordered(tables(prod)) == ordered(ref_product_category(arrow, group))


def test_constructors_are_checked_by_the_law_core():
    # one composite of the triple [1] -> [1] -> [1] ranked onto another map [1] -> [1]:
    # 1>1:00 after 1>1:10 is 1>1:00, not 1>1:01
    cat = delta_truncated(2)
    names, rows = list(cat.morphisms), list(cat.rows)
    into = [f for f in names if cat.morphisms[f][1] == "[1]"]
    g = names.index("1>1:00")
    row = list(rows[g])
    assert names[row[into.index("1>1:10")]] == "1>1:00"
    row[into.index("1>1:10")] = names.index("1>1:01")
    rows[g] = tuple(row)
    with pytest.raises(ValidationError):
        testcat._category(cat.objects, cat.morphisms, cat.identity, rows)


def test_separating_interval_path_never_names_the_composites():
    cat = delta_truncated(3)
    representable(cat, "[1]")
    has_terminal(cat)
    nerve(cat, 3)
    assert "comp" not in cat.__dict__
    assert cat.comp[("1>0:00", "0>1:1")] == "0>0:0"  # made on first use, and read-only
    with pytest.raises(TypeError):
        cat.comp[("1>0:00", "0>1:1")] = "0>0:0"


def test_equality_compares_composites_whatever_the_ids():
    def monoid(square, names=("e", "a")):
        """One object, an identity ``e`` and ``a`` with ``a a = square``; ids in ``names`` order."""
        comp = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): square}
        return validate_category(["*"], {m: ("*", "*") for m in names}, {"*": "e"}, comp)

    idempotent, reordered = monoid("a"), monoid("a", ("a", "e"))
    assert idempotent.rows != reordered.rows  # other ids, the same composites
    assert idempotent == reordered
    assert monoid("e") != idempotent and monoid("e", ("a", "e")) != idempotent
    assert idempotent.comp and copy.deepcopy(idempotent) == idempotent  # a made view copies too
    assert pickle.loads(pickle.dumps(idempotent)) == idempotent


def test_has_terminal_basics():
    assert has_terminal(one_object_group(1)) == "*"
    assert has_terminal(one_object_group(2)) is None  # two endomorphisms
    discrete2 = validate_category(
        ["a", "b"],
        {"ida": ("a", "a"), "idb": ("b", "b")},
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb"},
    )
    assert has_terminal(discrete2) is None
    assert has_terminal(arrow_category()) == "b"


def test_delta_truncated_counts():
    cat = delta_truncated(1)
    # hom-set sizes are (b+1)^(a+1); the brute-force count gives 8 in total
    want = sum(
        len(all_functions(a, b)) for a in range(2) for b in range(2)
    )
    assert want == 8
    assert len(cat.morphisms) == 8
    assert has_terminal(cat) == "[0]"


def test_delta_truncated_terminal_object():
    for m in range(4):
        assert has_terminal(delta_truncated(m)) == "[0]"
    # m = 4 exceeds the explicit-table representation (millions of composites);
    # the terminal property needs only hom-set counts, checked by raw enumeration
    assert all(len(all_functions(n, 0)) == 1 for n in range(5))


def test_delta_truncated_m0():
    cat = delta_truncated(0)
    assert cat.objects == ("[0]",)
    assert len(cat.morphisms) == 1


# -- presheaves and elements ---------------------------------------------------


def test_category_of_elements_of_terminal_is_base():
    cat = arrow_category()
    elements = category_of_elements(terminal_presheaf(cat))
    assert len(elements.objects) == len(cat.objects)
    assert len(elements.morphisms) == len(cat.morphisms)
    # and it composes the same way up to renaming
    assert has_terminal(elements) == "(b,*)"


def test_category_of_elements_object_count(fixture_corpus=None):
    cat = delta_truncated(2)
    pre = representable(cat, "[1]")
    elements = category_of_elements(pre)
    assert len(elements.objects) == sum(len(pre.values[a]) for a in cat.objects)


def test_representable_elements_have_terminal():
    for base in (arrow_category(), delta_truncated(2), one_object_group(3)):
        for at in base.objects:
            pre = representable(base, at)
            term = has_terminal(category_of_elements(pre))
            assert term == f"({at},{base.identity[at]})"


def test_presheaf_validation_catches_nonfunctorial():
    cat = arrow_category()
    values = {"a": ("x", "y"), "b": ("u",)}
    action = {
        "ida": {"x": "x", "y": "y"},
        "idb": {"u": "u"},
        "f": {"u": "y"},
    }
    pre = validate_presheaf(cat, values, action)
    assert pre.apply("f", "u") == "y"
    assert (pre.value("a"), pre.value("b")) == (("x", "y"), ("u",))
    bad_action = dict(action)
    bad_action["ida"] = {"x": "y", "y": "x"}
    with pytest.raises(ValidationError):
        validate_presheaf(cat, values, bad_action)


def test_presheaf_validation_reports_the_first_fault_g_major():
    # on Z/3, 1 and 2 both act as the constant p: 1 after 2 and 2 after 1 both fail on q
    const = {"p": "p", "q": "p"}
    action = {"0": {"p": "p", "q": "q"}, "1": const, "2": const}
    with pytest.raises(ValidationError, match=re.escape("fails at ('1', '2') on 'q'")):
        validate_presheaf(one_object_group(3), {"*": ("p", "q")}, action)


# -- nerve ----------------------------------------------------------------------


def test_nerve_of_group_counts():
    cat = one_object_group(3)
    counts = nerve(cat, 4)
    assert counts.total == (1, 3, 9, 27, 81)


def test_nerve_of_arrow_category():
    counts = nerve(arrow_category(), 3)
    assert counts.total == (2, 3, 4, 5)
    assert counts.nondegenerate == (2, 1, 0, 0)


def test_nerve_matches_brute_force():
    for cat in (arrow_category(), one_object_group(2), delta_truncated(1)):
        counts = nerve(cat, 3)
        for d in range(4):
            assert counts.total[d] == brute_chain_count(
                cat.objects, cat.morphisms, d
            ), d


def test_nerve_chain_recurrence():
    # chains of length d = composable (chain of length d-1, extra morphism) pairs
    cat = delta_truncated(1)
    counts = nerve(cat, 4)
    ends: dict[str, int] = {a: 1 for a in cat.objects}
    for d in range(1, 5):
        nxt: dict[str, int] = {}
        for end, count in ends.items():
            for m, (dom, cod) in cat.morphisms.items():
                if dom == end:
                    nxt[cod] = nxt.get(cod, 0) + count
        ends = nxt
        assert counts.total[d] == sum(ends.values())


def test_nerve_of_elements_of_representable():
    # the slice has a terminal object, so its chain counts match brute force
    cat = arrow_category()
    elements = category_of_elements(representable(cat, "b"))
    counts = nerve(elements, 3)
    for d in range(4):
        assert counts.total[d] == brute_chain_count(
            elements.objects, elements.morphisms, d
        )


# -- separating intervals ----------------------------------------------------------


def constant_point(cat: SmallCategory, pre: Presheaf, value_at: dict):
    return dict(value_at)


def test_separating_interval_on_delta():
    cat = delta_truncated(3)
    interval = representable(cat, "[1]")
    # the two constant maps [n] -> [1] are natural in n and differ everywhere
    point0 = {f"[{n}]": f"{n}>1:" + "0" * (n + 1) for n in range(4)}
    point1 = {f"[{n}]": f"{n}>1:" + "1" * (n + 1) for n in range(4)}
    assert check_separating_interval(interval, point0, point1) is True
    assert check_separating_interval(interval, point0, point0) is False


def test_separating_interval_two_element_set():
    cat = one_object_group(1)
    interval = validate_presheaf(
        cat, {"*": ("p", "q")}, {"0": {"p": "p", "q": "q"}}
    )
    assert check_separating_interval(interval, {"*": "p"}, {"*": "q"}) is True
    assert check_separating_interval(interval, {"*": "p"}, {"*": "p"}) is False


def test_separating_interval_rejects_non_natural_points():
    cat = one_object_group(2)
    # the swap action has no fixed points, so constants are not natural
    interval = validate_presheaf(
        cat, {"*": ("p", "q")}, {"0": {"p": "p", "q": "q"}, "1": {"p": "q", "q": "p"}}
    )
    with pytest.raises(NotNatural):
        check_separating_interval(interval, {"*": "p"}, {"*": "q"})


def test_separating_interval_monotone_over_truncations():
    for m in (1, 2, 3):
        cat = delta_truncated(m)
        interval = representable(cat, "[1]")
        point0 = {f"[{n}]": f"{n}>1:" + "0" * (n + 1) for n in range(m + 1)}
        point1 = {f"[{n}]": f"{n}>1:" + "1" * (n + 1) for n in range(m + 1)}
        assert check_separating_interval(interval, point0, point1) is True


# -- product comparison --------------------------------------------------------------


def test_product_comparison_with_terminal_factor():
    cat = arrow_category()
    f = representable(cat, "b")
    g = terminal_presheaf(cat)
    functor = product_comparison(f, g)
    # with a terminal second factor both sides have the same object count
    assert len(functor.source.objects) == len(category_of_elements(f).objects)
    assert sorted(functor.object_map) == sorted(functor.source.objects)


def test_product_comparison_representables():
    cat = arrow_category()
    f = representable(cat, "a")
    g = representable(cat, "b")
    functor = product_comparison(f, g)
    fg = product_presheaf(f, g)
    assert len(functor.source.objects) == sum(
        len(fg.values[a]) for a in cat.objects
    )
    target = functor.target
    assert len(target.objects) == len(category_of_elements(f).objects) * len(
        category_of_elements(g).objects
    )


def test_product_comparison_empty_factor():
    cat = arrow_category()
    empty = validate_presheaf(
        cat, {"a": (), "b": ()}, {"ida": {}, "idb": {}, "f": {}}
    )
    functor = product_comparison(empty, terminal_presheaf(cat))
    assert functor.source.objects == ()


def test_validate_functor_catches_bad_maps():
    cat = arrow_category()
    data = FunctorData(cat, cat, {"a": "a", "b": "b"}, {
        "ida": "ida", "idb": "idb", "f": "idb",
    })
    with pytest.raises(ValidationError):
        validate_functor(data)


def identity_functor(cat: SmallCategory) -> FunctorData:
    return FunctorData(cat, cat, {a: a for a in cat.objects}, {m: m for m in cat.morphisms})


FUNCTORS = {
    **{name: identity_functor(BASES[name]) for name in ("arrow", "z3", "delta1")},
    "comparison": product_comparison(representable(BASES["delta1"], "[0]"),
                                     representable(BASES["delta1"], "[1]")),
}
FUNCTOR_FAILURES = ("object map undefined or out of range", "morphism map undefined",
                    "morphism map breaks endpoints", "identity not preserved",
                    "composition not preserved")


def redirected(data: FunctorData):
    """``data`` with one entry of its object or morphism map sent to each other value, or dropped."""
    for field, values in (("object_map", data.target.objects),
                          ("morphism_map", tuple(data.target.morphisms))):
        for key, old in getattr(data, field).items():
            for value in (*values, None):
                if value != old:
                    table = {k: v for k, v in getattr(data, field).items() if k != key}
                    if value is not None:
                        table[key] = value
                    yield FunctorData(data.source, data.target, **{
                        "object_map": data.object_map, "morphism_map": data.morphism_map, field: table})


def test_validate_functor_matches_reference_on_redirected_maps():
    # each of the five failures must be met at the first failing object, morphism
    # or pair the reference meets, and a redirect that keeps a functor must pass
    seen = set()
    for name, data in FUNCTORS.items():
        assert outcome(validate_functor, data) == ("value", data), name
        for bad in redirected(data):
            got = outcome(validate_functor, bad)
            assert got == outcome(ref_validate_functor, bad), name
            if got[0] == "raises":
                seen.add((got[1], got[2].split(" at ", 1)[0]))
    assert seen == {(ValidationError, kind) for kind in FUNCTOR_FAILURES}


def test_validate_functor_names_the_first_pair_not_preserved():
    # 1 sent to 2 keeps endpoints and the identity, but 1 + 1 = 2 goes to 2 and 2 + 2 = 1
    data = identity_functor(BASES["z3"])
    bad = FunctorData(data.source, data.target, data.object_map, {**data.morphism_map, "1": "2"})
    with pytest.raises(ValidationError, match=re.escape("composition not preserved at ('1', '1')")):
        validate_functor(bad)


def test_product_category_counts():
    cat = arrow_category()
    prod = product_category(cat, cat)
    assert len(prod.objects) == 4
    assert len(prod.morphisms) == 9


# -- serialization ---------------------------------------------------------------------


def test_category_json_round_trip():
    cat = arrow_category()
    assert category_from_json(category_to_json(cat)) == cat


def test_presheaf_json_round_trip():
    cat = arrow_category()
    pre = representable(cat, "b")
    assert presheaf_from_json(presheaf_to_json(pre)) == pre


def test_category_json_rejects_malformed():
    with pytest.raises(ValidationError):
        category_from_json({"objects": ["a"]})
    data = category_to_json(arrow_category())
    for ends in (["a", "a", "a"], []):  # a morphism that is no (dom, cod) pair
        with pytest.raises(ValidationError, match="^malformed category data: "):
            category_from_json({**data, "morphisms": {**data["morphisms"], "f": ends}})
    good = presheaf_to_json(representable(arrow_category(), "b"))
    for bad in ({"action": {**good["action"], "f": [["a", "b", "c"]]}},  # an action entry of three
                {"values": [["x"]]}):  # values as a list of one-element lists
        with pytest.raises(ValidationError, match="^malformed presheaf data: "):
            presheaf_from_json({**good, **bad})


def test_category_json_round_trips_names_holding_a_bar():
    cat = validate_category(
        ["a", "b"],
        {"ida": ("a", "a"), "idb": ("b", "b"), "f|g": ("a", "b")},
        {"a": "ida", "b": "idb"},
        {("ida", "ida"): "ida", ("idb", "idb"): "idb", ("f|g", "ida"): "f|g", ("idb", "f|g"): "f|g"},
    )
    data = category_to_json(cat)
    assert sorted(data["comp"]) == ["f|g|ida", "ida|ida", "idb|f|g", "idb|idb"]
    assert category_from_json(data) == cat
    # a key with no declared morphism on both sides of any '|' splits at its first
    data["comp"]["x|y|z"] = "ida"
    with pytest.raises(ValidationError, match=re.escape("undeclared morphisms ('x', 'y|z')")):
        category_from_json(data)


def test_category_json_refuses_keys_that_collide():
    # Z/5 with elements named so that ("1", "2|3") and ("1|2", "3") both write "1|2|3"
    names = ["0", "1", "2|3", "1|2", "3"]
    z5 = validate_category(["*"], {m: ("*", "*") for m in names}, {"*": "0"},
                           {(names[a], names[b]): names[(a + b) % 5] for a in range(5) for b in range(5)})
    with pytest.raises(ValidationError, match=re.escape(
            "composition key '1|2|3' of ('1|2', '3') would read back as ('1', '2|3')")):
        category_to_json(z5)


def test_comp_key_without_separator_is_a_validation_error():
    data = category_to_json(arrow_category())
    with pytest.raises(ValidationError, match="'comp' must be an object"):
        category_from_json({**data, "comp": []})
    data["comp"]["ida"] = "ida"
    with pytest.raises(ValidationError, match="composition key 'ida' has no '\\|'"):
        category_from_json(data)
    with pytest.raises(ValidationError, match="composition key 'ida' has no '\\|'"):
        presheaf_from_json({"category": data, "values": {"a": [], "b": []}, "action": {}})
