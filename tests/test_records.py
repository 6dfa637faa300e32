"""Every record of the package behaves as the frozen dataclass it replaces.

Each record class has a twin here, a ``dataclasses`` class with the same
name and fields, frozen but for ``Report``.  On corpus instances, and deep
copies of them, ``==``, ``!=``, ``hash`` (or the ``TypeError`` a dict or
list field gives), ``repr``, and assigning or deleting an attribute must
come out as on the twins.  ``SmallCategory`` keeps its own ``__eq__``, so
only its hash, repr and assignment are compared.  ``GlobularSet.index`` is
derived and out of equality and repr, so its twin has no such field.

Equality must not be fooled: a record never equals a tuple or list of its
field values, nor a record of another class with the same field values.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools

import pytest

from globkernel import decalage, finsets, fixtures, globular, omega, report, testcat, twist
from globkernel.errors import Record
from globkernel.globular import TableOfDimensions, all_tables

from conftest import CORPUS, POOL


def twin(name: str, fields: str, frozen: bool = True):
    return dataclasses.make_dataclass(name, fields.split(), frozen=frozen)


TWINS = {
    globular.GlobularSet: twin("GlobularSet", "truncation cells src tgt"),
    globular.TableOfDimensions: twin("TableOfDimensions", "outer inner"),
    globular.GlobularTuple: twin("GlobularTuple", "table entries"),
    omega.AxiomFlags: twin("AxiomFlags", "optional"),
    omega.OmegaStructure: twin("OmegaStructure", "base comp unit inv"),
    omega.Violation: twin("Violation", "law where witness detail"),
    omega.Report: twin("Report", "violations cap truncated", frozen=False),
    report.CheckResult: twin("CheckResult", "check scope status witness failures"),
    twist.TwistedCell: twin("TwistedCell", "level entries"),
    twist.TwistedSegment: twin("TwistedSegment", "low high entries"),
    twist.MixedTuple: twin("MixedTuple", "table head segments"),
    twist.Product: twin("Product", "table paired mixed to_mixed to_paired"),
    finsets.SimplexMap: twin("SimplexMap", "dom cod table"),
    fixtures.GroupTable: twin("GroupTable", "elements mul"),
    testcat.SmallCategory: twin("SmallCategory", "objects morphisms identity rows"),
    testcat.Presheaf: twin("Presheaf", "base values action"),
    testcat.NerveCounts: twin("NerveCounts", "total nondegenerate"),
    testcat.FunctorData: twin("FunctorData", "source target object_map morphism_map"),
}
CUSTOM_EQ = {testcat.SmallCategory}


def to_twin(record):
    cls = TWINS[type(record)]
    return cls(*(getattr(record, f.name) for f in dataclasses.fields(cls)))


def corpus_records() -> dict[type, list]:
    """A few distinct instances of every record class, each followed by deep copies.

    The structures are copies, so the complexes they cache are their own."""
    z3, sus = (omega.OmegaStructure(x.base, x.comp, x.unit, x.inv)
               for x in (CORPUS["delooping_z3_3"], POOL["twisted_suspension_z2_2_4"]))
    tables = [TableOfDimensions((1,), ()), TableOfDimensions((1, 1), (0,)),
              TableOfDimensions((2, 1), (0,))]
    faulted = omega.OmegaStructure(z3.base, {**z3.comp, (1, 0): {**z3.comp[(1, 0)], ("1", "2"): "1"}},
                                   z3.unit, z3.inv)
    delta = testcat.delta_truncated(1)
    point = testcat.terminal_presheaf(delta)
    simplex = testcat.representable(delta, delta.objects[-1])
    found = {
        globular.GlobularSet: [z3.base, sus.base, CORPUS["discrete_ab_3"].base],
        globular.TableOfDimensions: tables,
        globular.GlobularTuple: [*globular.globular_product(z3.base, tables[1])[:2],
                                 *globular.globular_product(sus.base, tables[2])[:2]],
        omega.AxiomFlags: [omega.FULL_FLAGS, omega.CATEGORICAL_FLAGS, omega.AxiomFlags(),
                           omega.AxiomFlags.parse("r,l")],
        omega.OmegaStructure: [z3, sus, faulted],
        omega.Violation: omega.check_structure(faulted, cap=3).violations,
        omega.Report: [omega.check_structure(faulted, cap=3), omega.check_structure(faulted, cap=1),
                       omega.check_structure(z3)],
        report.CheckResult: [report.passed("structure", "all"),
                             report.failed("axiom:assoc", "all", ["a", "b"]),
                             report.verdict("axiom:assoc", "all", ["a"]),
                             decalage.check_lift_non_naturality(z3)],
        twist.TwistedCell: [*twist.twisted_cells(z3, 1)[:2], *twist.twisted_cells(sus, 2)[:2]],
        twist.TwistedSegment: [*twist.segment_cells(z3, 1, 2)[:2], *twist.segment_cells(sus, 1, 2)[:2]],
        twist.MixedTuple: [*twist.mixed_product(z3, tables[1])[:2], *twist.mixed_product(sus, tables[2])[:2]],
        twist.Product: [twist._complex(z3).product(tables[1]), twist._complex(sus).product(tables[2])],
        finsets.SimplexMap: [finsets.identity_map(2), finsets.clamp_retraction(1),
                             *finsets.standard_generators().values()],
        fixtures.GroupTable: [fixtures.cyclic_table(2), fixtures.cyclic_table(3), fixtures.symmetric3_table()],
        testcat.SmallCategory: [delta, testcat.delta_truncated(0), testcat.category_of_elements(simplex)],
        testcat.Presheaf: [point, simplex, testcat.product_presheaf(point, simplex)],
        testcat.NerveCounts: [testcat.nerve(delta, 2), testcat.nerve(testcat.delta_truncated(0), 2)],
        testcat.FunctorData: [testcat.product_comparison(point, simplex),
                              testcat.product_comparison(simplex, simplex)],
    }
    return {cls: records + [copy.deepcopy(r) for r in records] for cls, records in found.items()}


RECORDS = corpus_records()


def outcome(fn, *args):
    """The value of ``fn(*args)``, or whether what it raises is an ``AttributeError``
    or a ``TypeError``, and its message."""
    try:
        return "value", fn(*args)
    except (AttributeError, TypeError) as exc:
        return "raises", isinstance(exc, AttributeError), isinstance(exc, TypeError), str(exc)


def test_every_record_class_has_a_twin_and_instances():
    assert set(TWINS) == set(Record.__subclasses__()) == set(RECORDS)
    assert len(TWINS) == 18
    for cls, records in RECORDS.items():
        assert len(records) >= 4, cls.__name__
        assert all(type(r) is cls for r in records)


@pytest.mark.parametrize("cls", list(TWINS), ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls):
    records = RECORDS[cls]
    twins = [to_twin(r) for r in records]
    if cls not in CUSTOM_EQ:
        for (a, ta), (b, tb) in itertools.product(zip(records, twins), repeat=2):
            assert (a == b) == (ta == tb)
            assert (a != b) == (ta != tb)
        # the deep copies are equal, not identical
        half = len(records) // 2
        assert all(a == b and a is not b for a, b in zip(records[:half], records[half:]))
    for record, double in zip(records, twins):
        assert outcome(hash, record) == outcome(hash, double)
        assert repr(record) == repr(double)
        for name in (*(f.name for f in dataclasses.fields(double)), "other"):
            assert outcome(setattr, copy.copy(record), name, 0) == outcome(setattr, copy.copy(double), name, 0)
            if hasattr(double, name):
                assert outcome(delattr, copy.copy(record), name) == outcome(delattr, copy.copy(double), name)


def test_equality_is_not_fooled():
    cell = twist.twisted_cells(CORPUS["delooping_z3_3"], 1)[0]
    for other in ((cell.level, cell.entries), [cell.level, cell.entries], cell.entries,
                  twist.TwistedSegment(0, cell.level, cell.entries),
                  twist.MixedTuple(TableOfDimensions((cell.level,), ()), cell, ())):
        assert cell != other and other != cell and not cell == other
    for table in all_tables(2, 2):
        for other in ((table.outer, table.inner), [table.outer, table.inner]):
            assert table != other and other != table and not table == other
    # a record of another class with the very same field values
    for a_cls, b_cls in itertools.permutations(set(TWINS) - CUSTOM_EQ, 2):
        if len(a_cls._fields) != len(b_cls._fields):
            continue
        for a in RECORDS[a_cls][:2]:
            impostor = object.__new__(b_cls)
            impostor.__dict__.update(zip(b_cls._fields, (getattr(a, f) for f in a_cls._fields)))
            assert a != impostor and impostor != a and not a == impostor, (a_cls, b_cls)
