"""Retraction data on the twisted complex.

Every twisted cell projects to a base cell (source of its top entry) and to
a 0-cell (target of its bottom entry); every base cell lifts into the twisted
complex through unit padding.  The lift is a section of the projection,
componentwise over every globular product; it is not natural in the level,
and the checker for that fact must exhibit a witness.  The section sweep
runs on interned ids: each product is enumerated as rows of cell ids, each
component's lift is a row of unit and boundary gathers validated by one
lookup in the twisted complex, and seams and projections are compared on the
base boundary maps, all on plain lists.  Only a row where some step fails
goes through the scalar lift and projection on names, for the failure text.
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
    globular_product,
    globular_tuple,
    product_ids,
)
from .omega import OmegaStructure, _Named
from .report import CheckResult, verdict
from .twist import (
    MixedTuple,
    TwistedCell,
    TwistedSegment,
    _complex,
    _source_entries,
    check_seam,
    iter_twisted_unit,
    twisted_boundary,
    twisted_cell,
    twisted_cells,
    twisted_segment,
    twisted_source,
    twisted_target,
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
    return [ops.unit(d, ops.boundary(TGT, high, d, u)) for d in range(low, high + 1)]


def unit_lift(x: OmegaStructure, i: int, u: str) -> TwistedCell:
    """Lift of an ``i``-cell: units over its iterated targets, then its unit."""
    return twisted_cell(x, i, unit_lift_segment(x, 0, i, u).entries)


def unit_lift_segment(x: OmegaStructure, low: int, high: int, u: str) -> TwistedSegment:
    if high + 1 > x.truncation:
        raise DimOutOfRange(
            f"lift of a {high}-cell needs dimension {high + 1} <= truncation {x.truncation}"
        )
    return twisted_segment(x, low, high, _lift_entries(_Named(x), low, high, u))


def unit_lift_tuple(x: OmegaStructure, table: TableOfDimensions, gtuple: GlobularTuple) -> MixedTuple:
    """Componentwise lift of a globular product element into the mixed form."""
    globular_tuple(x.base, table, gtuple.entries)
    head = unit_lift(x, table.outer[0], gtuple.entries[0])
    segments = tuple(
        unit_lift_segment(x, table.inner[l] + 1, table.outer[l + 1], gtuple.entries[l + 1])
        for l in range(table.width - 1)
    )
    top, top_dim = head.top(), head.level + 1
    for l, segment in enumerate(segments):
        check_seam(x, l + 1, table.inner[l], top_dim, top, segment.low + 1, segment.entries[0])
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
    bounds = zip((0,) + tuple(seam + 1 for seam in table.inner), table.outer)
    for l, (low, high) in enumerate(bounds):
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


def check_section(x: OmegaStructure, table: TableOfDimensions) -> CheckResult:
    """Projection after lift is the identity on the globular product of ``table``.

    Every product row is lifted, looked up, seam-checked and projected on ids
    by :func:`_lifts_back`; a row that fails there goes through the scalar
    lift and projection on its tuple from :func:`globular_product`, which give
    the failure text, in enumeration order.
    """
    if table.max_dim() + 1 > x.truncation:
        raise DimOutOfRange(
            f"table {table} needs truncation >= {table.max_dim() + 1}"
        )
    gtuples = globular_product(x.base, table)
    failures = []
    start = 0
    for block in product_ids(x.base, table):
        for k in _lifts_back(x, table, block):
            gtuple = gtuples[start + k]
            try:
                back = apex_tuple(x, unit_lift_tuple(x, table, gtuple))
            except _EVAL_ERRORS as exc:
                failures.append(f"{gtuple.entries}: {exc}")
                continue
            if back != gtuple:
                failures.append(f"{gtuple.entries} -> {back.entries}")
        start += len(block[0])
    return verdict("section", str(table), failures)


def check_sections(x: OmegaStructure, max_width: int, max_dim: int) -> list[CheckResult]:
    """Section check over every table bounded by width and dimension."""
    if max_dim + 1 > x.truncation:
        raise DimOutOfRange(
            f"dimension bound {max_dim} needs truncation >= {max_dim + 1}"
        )
    return [
        check_section(x, table)
        for table in all_tables(max_width, max_dim)
    ]


def _naturality(x: OmegaStructure, check: str, project, along) -> list[CheckResult]:
    """Per level ``i``: ``project`` of each twisted boundary of a cell against
    ``along(kind, i, -)`` of the cell's ``project``; an error ends the cell
    with its text."""
    results = []
    for i in range(1, x.truncation):
        failures = []
        for cell in twisted_cells(x, i):
            try:
                here = project(x, cell)
                for kind, boundary in ((SRC, twisted_source), (TGT, twisted_target)):
                    if project(x, boundary(x, cell)) != along(kind, i, here):
                        failures.append(f"{kind} side at {cell.entries}")
            except _EVAL_ERRORS as exc:
                failures.append(f"{cell.entries}: {exc}")
        results.append(verdict(check, f"level={i}", failures))
    return results


def check_apex_naturality(x: OmegaStructure) -> list[CheckResult]:
    """The apex projection commutes with twisted and plain boundaries."""
    return _naturality(x, "apex-naturality", apex_source,
                       lambda kind, i, u: x.base.boundary(kind, i, i - 1, u))


def check_endpoint_naturality(x: OmegaStructure) -> list[CheckResult]:
    """The 0-cell endpoint is constant along twisted boundaries."""
    return _naturality(x, "endpoint-naturality", base_endpoint, lambda kind, i, u: u)


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
    a SKIP, not a FAIL.
    """
    witness = find_lift_naturality_failure(x)
    scope = "level 0 vs 1"
    if witness is None:
        return CheckResult("lift-non-naturality", scope, "SKIP", "lift is natural on this structure")
    u, lhs, rhs = witness
    return CheckResult(
        "lift-non-naturality", scope, "PASS",
        f"witness {u}: {lhs.entries} != {rhs.entries}",
    )


def _closed_unit_form(x: OmegaStructure, kind: str, j: int, cell: TwistedCell) -> TwistedCell:
    """Closed form of the iterated twisted unit over a twisted boundary.

    For the source side the entry at dimension ``j+1`` is glued; above it
    every entry is the iterated unit over the corresponding iterated
    boundary of the original entry.
    """
    ops = _Named(x)
    entries = _source_entries(ops, j + 1, cell.entries) if kind == SRC else list(cell.entries[: j + 1])
    for d in range(j + 2, cell.level + 2):
        entries.append(ops.iter_unit(j, d, ops.boundary(kind, d, j, cell.entries[d - 1])))
    return twisted_cell(x, cell.level, entries)


def check_unit_closed_forms(x: OmegaStructure) -> list[CheckResult]:
    """Iterated twisted units over twisted boundaries match their closed forms."""
    results = []
    for i in range(1, x.truncation):
        for j in range(i):
            failures = []
            for cell in twisted_cells(x, i):
                try:
                    for kind in ("src", "tgt"):
                        iterated = iter_twisted_unit(
                            x, twisted_boundary(x, kind, cell, j), i
                        )
                        closed = _closed_unit_form(x, kind, j, cell)
                        if iterated != closed:
                            failures.append(
                                f"{kind} at {cell.entries}: "
                                f"{iterated.entries} != {closed.entries}"
                            )
                except _EVAL_ERRORS as exc:
                    failures.append(f"{cell.entries}: {exc}")
            scope = f"i={i},j={j}"
            results.append(verdict("unit-closed-form", scope, failures))
    return results
