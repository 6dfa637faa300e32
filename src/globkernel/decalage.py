"""Retraction data on the twisted complex.

Every twisted cell projects to a base cell (source of its top entry) and to
a 0-cell (target of its bottom entry); every base cell lifts into the twisted
complex through unit padding.  The lift is a section of the projection,
componentwise over every globular product; it is not natural in the level,
and the checker for that fact must exhibit a witness.

Every sweep screens on interned ids and judges on names, by the scalar code
that gives the failure text, only what the screen fails.  The section sweep
lifts, looks up, seam-checks and projects each product block as rows of ids.
Apex naturality, endpoint naturality and the closed form of iterated twisted
units are each written once, as a function of an evaluator ``ops`` and a
hook ``find(low, high, entries)``: the screen runs them over the id rows of
a level, where ``find`` hands the entries back and fails every row that
``TwistedComplex.lookup`` maps to -1, and the judge on the names of each
failing cell, where ``find`` is ``twisted_segment``.  Every sweep is cut at
its cap, and counted, by ``report.collect``.
"""

from __future__ import annotations

from operator import eq

from . import finsets
from .errors import (
    DimOutOfRange,
    GluingViolation,
    MissingCell,
    NotComposable,
    ValidationError,
)
from .globular import (
    SRC,
    TGT,
    GlobularTuple,
    TableOfDimensions,
    all_tables,
    check_seam,
    globular_product,
    globular_tuple,
    product_ids,
)
from .omega import OmegaStructure, _failing, _Named
from .report import CheckResult, check_cap, collect, verdict
from .twist import (
    MixedTuple,
    TwistedCell,
    TwistedSegment,
    _complex,
    _face,
    _segment_bounds,
    _unit_entries,
    twisted_cell,
    twisted_segment,
    twisted_source,
)

_EVAL_ERRORS = (GluingViolation, NotComposable, ValidationError, MissingCell)

check_shift_decalage = finsets.check_shift_decalage  # bench/tracing.py traces it by this name


# -- projections and unit lifts -------------------------------------------------


def apex_source(x: OmegaStructure, cell: TwistedCell) -> str:
    """Source of the top entry: lands in dimension ``level``."""
    return x.base.src[cell.level + 1][cell.top()]


def apex_source_segment(x: OmegaStructure, segment: TwistedSegment) -> str:
    return x.base.src[segment.high + 1][segment.entries[-1]]


def base_endpoint(x: OmegaStructure, cell: TwistedCell) -> str:
    """Target of the bottom entry: a 0-cell."""
    return x.base.tgt[1][cell.entries[0]]


def _lift_entries(ops, low: int, high: int, u) -> list:
    """Entries ``low+1 .. high+1`` of the lift of a ``high``-cell: the unit over each iterated target."""
    if high + 1 > ops.x.truncation:
        raise DimOutOfRange(
            f"lift of a {high}-cell needs dimension {high + 1} <= truncation {ops.x.truncation}"
        )
    return [ops.unit(d, ops.boundary(TGT, high, d, u)) for d in range(low, high + 1)]


def unit_lift(x: OmegaStructure, i: int, u: str) -> TwistedCell:
    """Lift of an ``i``-cell: units over its iterated targets, then its unit."""
    return twisted_cell(x, i, _lift_entries(_Named(x), 0, i, u))


def unit_lift_segment(x: OmegaStructure, low: int, high: int, u: str) -> TwistedSegment:
    return twisted_segment(x, low, high, _lift_entries(_Named(x), low, high, u))


def unit_lift_tuple(x: OmegaStructure, table: TableOfDimensions, gtuple: GlobularTuple) -> MixedTuple:
    """Componentwise lift of a globular product element into the mixed form."""
    globular_tuple(x.base, table, gtuple.entries)
    head = unit_lift(x, table.outer[0], gtuple.entries[0])
    segments = tuple(unit_lift_segment(x, low, high, u)
                     for (low, high), u in zip(_segment_bounds(table), gtuple.entries[1:]))
    top, top_dim = head.top(), head.level + 1
    for l, segment in enumerate(segments):
        check_seam(x.base, l + 1, table.inner[l], top_dim, top, segment.low + 1, segment.entries[0])
        top, top_dim = segment.entries[-1], segment.high + 1
    return MixedTuple(table, head, segments)


def apex_tuple(x: OmegaStructure, mixed: MixedTuple) -> GlobularTuple:
    """Componentwise projection of a mixed tuple back to the globular product."""
    entries = [apex_source(x, mixed.head)]
    entries.extend(apex_source_segment(x, seg) for seg in mixed.segments)
    return globular_tuple(x.base, mixed.table, entries)


# -- element-side checks ---------------------------------------------------------


def _lifts_back(x: OmegaStructure, table: TableOfDimensions, block: list) -> list[int]:
    """Positions of the rows of the :func:`product_ids` block ``block`` that do
    not lift, glue and project back to themselves: the steps of
    :func:`unit_lift_tuple` and :func:`apex_tuple` on ids, where each lift is
    a row of the twisted complex and a step that gives -1 fails.
    """
    t, complex_ = x.tables, _complex(x)
    tests = []
    # component l lifts into the entries of dimensions low+1 .. high+1
    for l, (low, high) in enumerate([(0, table.outer[0]), *_segment_bounds(table)]):
        lift = _lift_entries(t, low, high, block[l])
        tests.append([row >= 0 for row in complex_.lookup(low, high, lift)])
        if l:
            # cannot fail once the lookups and projections hold on a validated
            # globular base; compared because unit_lift_tuple compares it
            seam = low - 1
            tests.append(map(eq, t.boundary(SRC, top_dim, seam, top),
                             t.boundary(TGT, low + 1, seam, lift[0])))
        top, top_dim = lift[-1], high + 1
        tests.append(map(eq, t.boundary(SRC, top_dim, high, top), block[l]))
    return [k for k, passed in enumerate(zip(*tests)) if not all(passed)]


def _judged(items, judge, *args):
    """The failures ``judge(item, *args)`` yields for each of ``items`` in turn, judged
    as they are read; an error ends the item with its text."""
    for item in items:
        try:
            yield from judge(item, *args)
        except _EVAL_ERRORS as exc:
            yield f"{item.entries}: {exc}"


def _projects_back(gtuple: GlobularTuple, x: OmegaStructure, table: TableOfDimensions):
    """The scalar lift and projection of ``gtuple``, where they do not give it back."""
    back = apex_tuple(x, unit_lift_tuple(x, table, gtuple))
    if back != gtuple:
        yield f"{gtuple.entries} -> {back.entries}"


def check_section(x: OmegaStructure, table: TableOfDimensions, cap: int = 100) -> CheckResult:
    """Projection after lift is the identity on the globular product of ``table``.

    Every product row is lifted, looked up, seam-checked and projected on ids
    by :func:`_lifts_back`, a :func:`product_ids` block at a time; a row that
    fails there goes through the scalar lift and projection on its tuple from
    :func:`globular_product`, which give the failure text, up to ``cap``.
    """
    if table.max_dim() + 1 > x.truncation:
        raise DimOutOfRange(
            f"table {table} needs truncation >= {table.max_dim() + 1}"
        )
    gtuples = globular_product(x.base, table)

    def blocks():
        start = 0
        for block in product_ids(x.base, table):
            failing = [gtuples[start + k] for k in _lifts_back(x, table, block)]
            yield len(block[0]), _judged(failing, _projects_back, x, table)
            start += len(block[0])
    return verdict("section", str(table), collect(blocks(), cap))


def check_sections(x: OmegaStructure, max_width: int, max_dim: int, cap: int = 100) -> list[CheckResult]:
    """Section check over every table bounded by width and dimension, each cut at ``cap``."""
    if max_dim + 1 > x.truncation:
        raise DimOutOfRange(
            f"dimension bound {max_dim} needs truncation >= {max_dim + 1}"
        )
    return [
        check_section(x, table, cap)
        for table in all_tables(max_width, max_dim)
    ]


def _apex_naturality(ops, find, i: int, entries):
    """The source of the top entry of each twisted boundary, and that side's boundary of the cell's own."""
    apex = ops.boundary(SRC, i + 1, i, entries[i])
    for kind in (SRC, TGT):
        face = find(0, i - 1, _face(ops, kind, i, entries))
        yield kind, [ops.boundary(SRC, i, i - 1, face[-1])], [ops.boundary(kind, i, i - 1, apex)]


def _endpoint_naturality(ops, find, i: int, entries):
    """The target of the bottom entry of each twisted boundary, and of the cell's own."""
    endpoint = ops.boundary(TGT, 1, 0, entries[0])
    for kind in (SRC, TGT):
        face = find(0, i - 1, _face(ops, kind, i, entries))
        yield kind, [ops.boundary(TGT, 1, 0, face[0])], [endpoint]


def _closed_unit_form(ops, find, i: int, entries, j: int):
    """Each twisted boundary at level ``j`` taken back to level ``i`` by twisted units, and its closed
    form: the boundary's entries up to dimension ``j + 1`` (glued at ``j + 1`` on the source side),
    then at each dimension ``d`` above, the iterated unit over that side's ``j``-boundary of entry ``d``."""
    for kind in (SRC, TGT):
        iterated = entries
        for d in range(i, j, -1):
            iterated = find(0, d - 1, _face(ops, kind, d, iterated))
        for d in range(j, i):
            iterated = find(0, d + 1, _unit_entries(ops, d, iterated))
        above = (ops.iter_unit(j, d, ops.boundary(kind, d, j, entries[d - 1])) for d in range(j + 2, i + 2))
        yield kind, iterated, find(0, i, [*_face(ops, kind, j + 1, entries), *above])


def _cell_sweep(x: OmegaStructure, i: int, law, text: str, *args):
    """The twisted ``i``-cells as one block.  ``law(ops, find, i, entries, *args)`` gives, per side of
    a cell, the side and two lists, equal where the law holds.  It is screened on the level's id rows;
    each cell it fails is judged on names, a side whose lists differ failing with ``text``."""
    complex_, names = _complex(x), x.base.cells
    rows = [column[:-1] for column in complex_.rows(0, i)]
    found, lhs, rhs = [], [], []

    def lookup(low: int, high: int, entries):
        found.append(complex_.lookup(low, high, entries))
        return entries
    for _, left, right in law(x.tables, lookup, i, rows, *args):
        lhs += left
        rhs += right
    failing = [TwistedCell(i, tuple(names[d][column[k]] for d, column in enumerate(rows, 1)))
               for k in _failing(lhs + found, rhs + found)]
    segment = lambda low, high, entries: twisted_segment(x, low, high, entries).entries  # noqa: E731

    def judge(cell: TwistedCell):
        for kind, left, right in law(_Named(x), segment, i, cell.entries, *args):
            if left != right:
                yield text.format(kind=kind, entries=cell.entries, lhs=left, rhs=right)
    return [(len(rows[0]), _judged(failing, judge))]


def _naturality(x: OmegaStructure, check: str, law, cap: int) -> list[CheckResult]:
    """Per level ``i``: ``law`` on every twisted ``i``-cell, a failing side named by its kind."""
    check_cap(cap)  # also where there is no level
    return [verdict(check, f"level={i}", collect(_cell_sweep(x, i, law, "{kind} side at {entries}"), cap))
            for i in range(1, x.truncation)]


def check_apex_naturality(x: OmegaStructure, cap: int = 100) -> list[CheckResult]:
    """The apex projection commutes with twisted and plain boundaries."""
    return _naturality(x, "apex-naturality", _apex_naturality, cap)


def check_endpoint_naturality(x: OmegaStructure, cap: int = 100) -> list[CheckResult]:
    """The 0-cell endpoint is constant along twisted boundaries."""
    return _naturality(x, "endpoint-naturality", _endpoint_naturality, cap)


def find_lift_naturality_failure(x: OmegaStructure):
    """Witness that the unit lift is not natural in the level.

    Searches for a 1-cell ``u`` whose lifted source differs from the twisted
    source of its lift.  Returns ``(u, lift_of_source, source_of_lift)`` or
    ``None``.
    """
    if x.truncation < 2:
        return None
    for u in x.base.cells[1]:
        lhs = unit_lift(x, 0, x.base.src[1][u])
        rhs = twisted_source(x, unit_lift(x, 1, u))
        if lhs != rhs:
            return u, lhs, rhs
    return None


def check_lift_non_naturality(x: OmegaStructure) -> CheckResult:
    """Negative test: PASS means a non-naturality witness was found.

    A lift that is natural on ``x`` breaks no law, so finding no witness is
    a SKIP, not a FAIL.  ``instances`` counts the 1-cells the search tried.
    """
    witness = find_lift_naturality_failure(x)
    scope = "level 0 vs 1"
    if witness is None:
        return CheckResult("lift-non-naturality", scope, "SKIP", "lift is natural on this structure", (),
                           len(x.base.cells[1]) if x.truncation >= 2 else 0, False)
    u, lhs, rhs = witness
    return CheckResult("lift-non-naturality", scope, "PASS", f"witness {u}: {lhs.entries} != {rhs.entries}",
                       (), x.base.index[1][u] + 1, False)


def check_unit_closed_forms(x: OmegaStructure, cap: int = 100) -> list[CheckResult]:
    """Iterated twisted units over twisted boundaries match their closed forms."""
    check_cap(cap)  # also where there is no level
    text = "{kind} at {entries}: {lhs} != {rhs}"
    return [verdict("unit-closed-form", f"i={i},j={j}",
                    collect(_cell_sweep(x, i, _closed_unit_form, text, j), cap))
            for i in range(1, x.truncation) for j in range(i)]
