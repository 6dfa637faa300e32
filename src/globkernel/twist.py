"""The twisted complex of a structure: cells, boundaries, operations.

A twisted cell of level ``i`` over a structure ``X`` is a tuple
``(x_1, .., x_{i+1})`` with ``x_k`` of dimension ``k``, glued by
``s_k(x_k) = t_k t_{k+1}(x_{k+1})``.  Segments are the same datum starting
at a higher dimension: entries of dimensions ``low+1 .. high+1``.  Level
``i`` consumes base dimension ``i + 1``, so the twisted complex of a
structure truncated at ``N`` is truncated at ``N - 1``.

Boundaries, composition, units and inverses on twisted cells are computed
entrywise, each by one function of an evaluator ``ops``, which
``omega.IntTables`` runs on columns of ids and ``omega._Named`` on names:

* source composes the next-to-top entry with the target of the top one,
  ``(x_1, .., x_{i-1}, x_i *_{i-1} t(x_{i+1}))``; target drops the top entry;
* composition over level ``j`` composes entries ``j+2 .. i+1`` over ``j``;
* the unit appends the double unit over the source of the top entry;
* the inverse over level ``j`` composes entry ``j+1`` with ``t(x_{j+2})``
  and inverts every entry above.

``build_twisted`` assembles all of this into a new ``OmegaStructure`` whose
laws can be checked by the generic ``omega`` sweeps.  Every operation
returns a validated twisted cell.  Composition, contraction and expansion
validate their inputs too; boundaries, units and inverses compute from the
entries given, so on a tuple that is no twisted cell they raise or return
what those entries give.

The complex runs on interned ids (:class:`TwistedComplex`): each level is
enumerated once, by the joiner of ``globular``, into rows of base-cell ids,
and a tuple is a valid cell exactly when it is a row, so validating a cell
is one index lookup.  Rows, sources, targets and iterated boundaries are id
maps, plain lists with -1 appended (see :func:`globular._gather`), computed
a level at a time with the column evaluators of ``omega.IntTables``; a row
is found from its parent and its last entry by one dict lookup.  Wherever
an id step gives -1, or a tuple that is no row, the scalar code on names
runs instead and raises the error that describes the failure.  Nothing
here needs numpy.

The paired and mixed products of the most recently enumerated table are
held with the canonical bijection between them (:class:`Product`), computed
on the rows, each direction on its own, as maps from row to row.
``contract_product`` and ``expand_product`` answer a member of a held
product with a member of the other: membership of an enumerated product is
the validation, as a row is for a cell.  A member passed as itself is found
by its ``id``, so a round trip hashes nothing.  Any other input runs the
scalar checks and gets their error.
"""

from __future__ import annotations

from itertools import repeat

from .errors import (
    DimOutOfRange,
    GluingViolation,
    InversesAbsent,
    MissingCell,
    NotComposable,
    Record,
    ValidationError,
)
from .globular import (
    SRC,
    TGT,
    TableOfDimensions,
    _gather,
    _glued,
    _link,
    validate_globular_set,
)
from .omega import OmegaStructure, _Named, validate_omega


def _stack(blocks, width: int) -> list[list[int]]:
    """The :func:`globular._glued` blocks ``blocks`` joined into ``width`` columns."""
    columns = [[] for _ in range(width)]
    for block in blocks:
        for column, part in zip(columns, block):
            column += part
    return columns


def _first_failure(ids: list, stop: int | None = None):
    """Position of the first -1 among the first ``stop`` of ``ids`` (all of them by default), or None."""
    try:
        return ids.index(-1, 0, len(ids) if stop is None else stop)
    except ValueError:
        return None


def _glue(ops, k: int, a, b):
    """``a *_{k-1} t(b)``: entry ``k`` glued to the target of entry ``k + 1``."""
    return ops.compose(k, k - 1, a, ops.boundary(TGT, k + 1, k, b))


def _source_entries(ops, i: int, entries) -> list:
    """Entries of the twisted source of a level-``i`` cell: glue its top two."""
    return [*entries[: i - 1], _glue(ops, i, entries[i - 1], entries[i])]


def _compose_entries(ops, i: int, j: int, left, right) -> list:
    """Entries of a composite over level ``j``: entries ``j+2 .. i+1`` compose over ``j``."""
    return [*left[: j + 1], *(ops.compose(c + 1, j, left[c], right[c]) for c in range(j + 1, i + 1))]


def _unit_entries(ops, i: int, entries) -> list:
    """Entries of the twisted unit of a level-``i`` cell: the double unit over its top's source."""
    top = ops.boundary(SRC, i + 1, i, entries[-1])
    return [*entries, ops.unit(i + 1, ops.unit(i, top))]


def _inverse_entries(ops, i: int, j: int, entries) -> list:
    """Entries of the inverse over level ``j``: glue at ``j + 1``, invert every entry above."""
    glued = _glue(ops, j + 1, entries[j], entries[j + 1])
    return [*entries[:j], glued, *(ops.inverse(c + 1, j, entries[c]) for c in range(j + 1, i + 1))]


class TwistedCell(Record):
    """Tuple ``(x_1, .., x_{i+1})`` of level ``i = len(entries) - 1``."""

    _fields = ("level", "entries")

    def __init__(self, level: int, entries: tuple[str, ...]):
        self.__dict__.update(level=level, entries=entries)

    def top(self) -> str:
        return self.entries[-1]


class TwistedSegment(Record):
    """Entries of dimensions ``low+1 .. high+1``, same gluing, shifted."""

    _fields = ("low", "high", "entries")

    def __init__(self, low: int, high: int, entries: tuple[str, ...]):
        self.__dict__.update(low=low, high=high, entries=entries)


class MixedTuple(Record):
    """A twisted product with the rebuildable prefixes dropped.

    ``head`` is a full twisted cell of level ``i_1``; segment ``l`` keeps
    the entries of dimensions ``i'_l + 2 .. i_{l+1} + 1`` of factor ``l + 1``.
    """

    _fields = ("table", "head", "segments")

    def __init__(self, table: TableOfDimensions, head: TwistedCell, segments: tuple[TwistedSegment, ...]):
        self.__dict__.update(table=table, head=head, segments=segments)


class _Rows:
    """Row of an object among ``members``, -1 when it is none.

    A member passed as itself is found by its ``id``; anything else by
    equality, through a dict built at the first such lookup.
    """

    def __init__(self, members: tuple):
        self.members = members
        self.by_id = dict(zip(map(id, members), range(len(members))))
        self.by_value = None

    def __call__(self, obj) -> int:
        row = self.by_id.get(id(obj))
        if row is not None and self.members[row] is obj:
            return row
        if self.by_value is None:
            self.by_value = dict(zip(self.members, range(len(self.members))))
        try:
            return self.by_value.get(obj, -1)
        except TypeError:  # unhashable, so no member
            return -1


class Product(Record):
    """The paired and mixed products of one table, and the canonical bijection between them.

    ``to_mixed[k]`` is the row in ``mixed`` of the contraction of
    ``paired[k]``, and ``to_paired[k]`` the row in ``paired`` of the
    expansion of ``mixed[k]``: id maps, with -1 appended, that hold -1 where
    the id computation fails or gives no member.  ``paired_rows`` and
    ``mixed_rows`` find the row of a member.
    """

    _fields = ("table", "paired", "mixed", "to_mixed", "to_paired")

    def __init__(self, table: TableOfDimensions, paired: tuple[tuple[TwistedCell, ...], ...],
                 mixed: tuple[MixedTuple, ...], to_mixed: list[int], to_paired: list[int]):
        self.__dict__.update(table=table, paired=paired, mixed=mixed, to_mixed=to_mixed,
                             to_paired=to_paired, paired_rows=_Rows(paired), mixed_rows=_Rows(mixed))


class TwistedComplex:
    """The twisted complex of one structure over base-cell ids, built per level on first use.

    The segments of shape ``(low, high)`` (twisted cells are ``(0, level)``)
    are rows, in lexicographic order, held as a list of columns: column
    ``c`` is an id map over the rows into the ``(low + 1 + c)``-cells, so a
    row id of -1 gathers -1 in every column.  A segment's id is its row.  A
    row of two or more entries extends its *parent*, the row of its entries
    but the last, so a tuple is found from its parent and its last entry in
    the dict ``{(parent, last): row}`` of its shape, which holds no key with
    a -1.  The enumeration is exhaustive: a tuple that is not a row is not a
    segment.
    """

    def __init__(self, x: OmegaStructure):
        self.x = x
        self.t = x.tables
        self._cache: dict = {}
        self._product: Product | None = None

    def product(self, table: TableOfDimensions) -> Product:
        """The products of ``table``, enumerated on first use.

        Only the latest table is held: a sweep over tables uses each in
        turn, so holding more would only cost memory.
        """
        if self.held(table) is None:
            self._product = None  # let the previous table go before enumerating the next
            self._product = _enumerate_product(self, table)
        return self._product

    def held(self, table) -> Product | None:
        """The held products when they are those of ``table``."""
        product = self._product
        same = product is not None and (product.table is table or product.table == table)
        return product if same else None

    def _memo(self, key, build, *args):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build(*args)
        return value

    def _shape(self, low: int, high: int):
        """Rows, parent ids and lookup dict of the segments of shape ``(low, high)``."""
        return self._memo(("shape", low, high), self._enumerate, low, high)

    def _enumerate(self, low: int, high: int):
        if high + 1 > self.x.truncation:
            raise DimOutOfRange(
                f"level {high} needs dimension {high + 1} <= truncation {self.x.truncation}"
            )
        if high == low:
            return [[*range(self.t.sizes[high + 1]), -1]], None, None
        prev = self.rows(low, high - 1)
        # the gluing s_k(x_k) = t_k t_{k+1}(x_{k+1}) at k = high
        link = _link(_gather(self.t.face(SRC, high), prev[-1]),
                     self.x.base.boundary_ids(TGT, high + 1, high - 1))
        parent, last = _stack(_glued(range(self.count(low, high - 1)), [link]), 2)
        keys = dict(zip(zip(parent, last), range(len(last))))
        parent.append(-1)
        last.append(-1)
        return [*(_gather(column, parent) for column in prev), last], parent, keys

    def rows(self, low: int, high: int) -> list[list[int]]:
        return self._shape(low, high)[0]

    def count(self, low: int, high: int) -> int:
        """How many segments of shape ``(low, high)`` there are."""
        return len(self.rows(low, high)[0]) - 1

    def lookup(self, low: int, high: int, columns) -> list[int]:
        """Row ids of shape ``(low, high)`` of the id tuples whose entries at each
        position are ``columns[c]``; -1 where one is no segment."""
        found = list(columns[0])
        for c in range(1, high - low + 1):
            keys = self._shape(low, low + c)[2]
            found = list(map(keys.get, zip(found, columns[c]), repeat(-1)))
        return found

    def index(self, low: int, high: int) -> dict:
        """Entries, as a tuple of names, to row id."""
        return self._memo(("index", low, high), self._index, low, high)

    def _index(self, low: int, high: int) -> dict:
        cells = self.x.base.cells
        columns = (map(cells[low + 1 + c].__getitem__, column)
                   for c, column in enumerate(self.rows(low, high)))
        return {entries: k for k, entries in zip(range(self.count(low, high)), zip(*columns))}

    def find(self, low: int, high: int, entries) -> int | None:
        """Row id of ``entries`` in shape ``(low, high)``, or None when it is no segment."""
        index = self._cache.get(("index", low, high))
        if index is None:
            if not 0 <= low <= high < self.x.truncation:
                return None
            index = self.index(low, high)
        try:
            return index.get(tuple(entries))
        except TypeError:  # not iterable, or an unhashable entry
            return None

    def cells(self, level: int) -> tuple[TwistedCell, ...]:
        return self._memo(("cells", level), self._wrap, TwistedCell, 0, level)

    def segments(self, low: int, high: int) -> tuple[TwistedSegment, ...]:
        return self._memo(("segments", low, high), self._wrap, TwistedSegment, low, high)

    def _wrap(self, kind, low: int, high: int) -> tuple:
        """The rows of shape ``(low, high)`` as ``kind`` objects, in row order."""
        head = (high,) if kind is TwistedCell else (low, high)
        return tuple(kind(*head, entries) for entries in self.index(low, high))

    def source(self, i: int) -> list[int]:
        """Twisted source of each level-``i`` cell as a level ``i - 1`` row id, -1 for
        none, as an id map over the level-``i`` rows."""
        return self._memo(("src", i), self._source, i)

    def _source(self, i: int) -> list[int]:
        # the rows' trailing -1 evaluates to -1, so the result is an id map
        return self.lookup(0, i - 1, _source_entries(self.t, i, self.rows(0, i)))

    def boundary(self, kind: str, i: int, j: int) -> list[int]:
        """Iterated twisted boundary from level ``i`` down to ``j``, as an id map over
        the level-``i`` rows."""
        return self._memo(("boundary", kind, i, j), self._boundary, kind, i, j)

    def _boundary(self, kind: str, i: int, j: int) -> list[int]:
        if i == j:
            return [*range(self.count(0, i)), -1]
        step = self.source(i) if kind == SRC else self._shape(0, i)[1]
        return _gather(self.boundary(kind, i - 1, j), step)


def _complex(x: OmegaStructure) -> TwistedComplex:
    """The interned twisted complex of ``x``, derived once and cached on it."""
    complex_ = x.__dict__.get("_twisted")
    if complex_ is None:
        complex_ = TwistedComplex(x)
        object.__setattr__(x, "_twisted", complex_)
    return complex_


def _raise_scalar(op, *args):
    """Run a scalar operation the id path could not evaluate; it raises the error that says why."""
    op(*args)
    raise AssertionError(f"{op.__name__}{args!r} holds on names but failed on ids")


def _check_segment_entries(x: OmegaStructure, low: int, high: int, entries) -> tuple[str, ...]:
    """Entries at dimensions ``low+1 .. high+1`` with the gluing equations, on names."""
    entries = tuple(entries)
    base = x.base
    if low < 0 or high < low:
        raise DimOutOfRange(f"segment bounds ({low},{high}) need 0 <= low <= high")
    if high + 1 > base.truncation:
        raise DimOutOfRange(
            f"segment top dimension {high + 1} exceeds truncation {base.truncation}"
        )
    if len(entries) != high - low + 1:
        raise ValidationError(
            f"segment ({low},{high}) needs {high - low + 1} entries, got {len(entries)}"
        )
    for offset, u in enumerate(entries):
        d = low + 1 + offset
        if not base.has_cell(d, u):
            raise MissingCell(f"entry {offset + 1}: {u!r} is not a {d}-cell")
    for offset in range(len(entries) - 1):
        k = low + 1 + offset
        left = base.src[k][entries[offset]]
        right = base.tgt[k][base.tgt[k + 1][entries[offset + 1]]]
        if left != right:
            raise GluingViolation(
                offset + 1,
                f"s_{k}({entries[offset]}) = {left} but "
                f"t_{k} t_{k + 1}({entries[offset + 1]}) = {right}",
            )
    return entries


def _row(complex_: TwistedComplex, low: int, high: int, entries) -> int:
    """Row id of a segment, validated by one index lookup.

    A tuple that is no row goes through the scalar checks, which raise the
    error that describes it.
    """
    row = complex_.find(low, high, entries)
    if row is None:
        _check_segment_entries(complex_.x, low, high, entries)
        raise AssertionError(f"segment {entries!r} passes the checks but is not enumerated")
    return row


def twisted_cell(x: OmegaStructure, level: int, entries) -> TwistedCell:
    """Validate entries into a twisted cell."""
    complex_ = _complex(x)
    row = _row(complex_, 0, level, entries)
    return complex_.cells(level)[row]


def twisted_segment(x: OmegaStructure, low: int, high: int, entries) -> TwistedSegment:
    complex_ = _complex(x)
    row = _row(complex_, low, high, entries)
    return complex_.segments(low, high)[row]


def lemma_identities_hold(x: OmegaStructure, cell: TwistedCell) -> bool:
    """Structural identities every twisted cell satisfies.

    For ``0 <= l <= i-1``: ``s^{l+2}_l(x_{l+2}) = s^{i+1}_l(x_{i+1})`` and
    ``s_{l+1}(x_{l+1}) = t^{i+1}_l(x_{i+1})``.
    """
    base = x.base
    i = cell.level
    top = cell.top()
    for l in range(i):
        if base.boundary("src", l + 2, l, cell.entries[l + 1]) != base.boundary(
            "src", i + 1, l, top
        ):
            return False
        if base.src[l + 1][cell.entries[l]] != base.boundary("tgt", i + 1, l, top):
            return False
    return True


def twisted_cells(x: OmegaStructure, level: int) -> tuple[TwistedCell, ...]:
    """All twisted cells of the given level, in lexicographic order."""
    if level < 0:
        raise DimOutOfRange("twisted level must be >= 0")
    return _complex(x).cells(level)


def segment_cells(x: OmegaStructure, low: int, high: int) -> tuple[TwistedSegment, ...]:
    if low < 0 or high < low:
        raise DimOutOfRange(f"segment bounds ({low},{high}) need 0 <= low <= high")
    return _complex(x).segments(low, high)


def _interned_boundary(x: OmegaStructure, kind: str, cell: TwistedCell, level: int):
    """The iterated twisted boundary read off the arrays, or None where they cannot give it."""
    complex_ = _complex(x)
    row = complex_.find(0, cell.level, cell.entries)
    if row is None:
        return None
    found = complex_.boundary(kind, cell.level, level)[row]
    return complex_.cells(level)[found] if found >= 0 else None


def twisted_source(x: OmegaStructure, cell: TwistedCell) -> TwistedCell:
    """Level ``i - 1``: compose the entry below the top into the boundary."""
    i = cell.level
    if i < 1:
        raise DimOutOfRange("level-0 twisted cells have no source")
    found = _interned_boundary(x, SRC, cell, i - 1)
    if found is not None:
        return found
    return twisted_cell(x, i - 1, _source_entries(_Named(x), i, cell.entries))


def twisted_target(x: OmegaStructure, cell: TwistedCell) -> TwistedCell:
    """Level ``i - 1``: drop the top entry."""
    if cell.level < 1:
        raise DimOutOfRange("level-0 twisted cells have no target")
    found = _interned_boundary(x, TGT, cell, cell.level - 1)
    if found is not None:
        return found
    return twisted_cell(x, cell.level - 1, cell.entries[:-1])


def twisted_boundary(x: OmegaStructure, kind: str, cell: TwistedCell, level: int) -> TwistedCell:
    """Iterated twisted boundary down to the given level."""
    if not 0 <= level <= cell.level:
        raise DimOutOfRange(f"boundary level {level} outside 0..{cell.level}")
    if kind not in ("src", "tgt"):
        raise ValidationError(f"boundary kind must be 'src' or 'tgt', got {kind!r}")
    found = _interned_boundary(x, kind, cell, level)
    if found is not None:
        return found
    step = twisted_source if kind == "src" else twisted_target
    for _ in range(cell.level - level):
        cell = step(x, cell)
    return cell


# -- canonical contraction/expansion of twisted products ----------------------


def check_seam(x: OmegaStructure, position: int, seam: int,
               top_dim: int, top: str, first_dim: int, first: str) -> None:
    """Raise unless ``s^{top_dim}_{seam}(top) = t^{first_dim}_{seam}(first)``.

    The seam between a cell (or segment) ending in ``top`` and the next
    segment, starting with ``first``, of a mixed tuple; both must be cells.
    """
    base = x.base
    left = base.boundary_ids(SRC, top_dim, seam)[base.index[top_dim][top]]
    right = base.boundary_ids(TGT, first_dim, seam)[base.index[first_dim][first]]
    if left != right:
        raise GluingViolation(
            position,
            f"s^{top_dim}_{seam}({top}) = {base.cells[seam][left]} but "
            f"t^{first_dim}_{seam}({first}) = {base.cells[seam][right]}",
        )


def contract_product(x: OmegaStructure, table: TableOfDimensions, cells) -> MixedTuple:
    """Drop the rebuildable prefixes from a tuple of twisted cells.

    Input: cells of levels ``i_1, .., i_n`` glued by iterated twisted
    boundaries over levels ``i'_l``.  Output keeps the first cell whole and,
    of each later cell, only the entries above the gluing level.
    """
    held = _complex(x).held(table)
    if held is not None:
        row = held.to_mixed[held.paired_rows(cells)]
        if row >= 0:
            return held.mixed[row]
    cells = tuple(cells)
    outer, inner = table.outer, table.inner
    if len(cells) != len(outer):
        raise ValidationError(f"expected {len(outer)} cells, got {len(cells)}")
    for k, cell in enumerate(cells):
        if cell.level != outer[k]:
            raise ValidationError(
                f"cell {k + 1} has level {cell.level}, table wants {outer[k]}"
            )
        twisted_cell(x, cell.level, cell.entries)
    for l, seam in enumerate(inner):
        left = twisted_boundary(x, "src", cells[l], seam)
        right = twisted_boundary(x, "tgt", cells[l + 1], seam)
        if left != right:
            raise GluingViolation(
                l + 1,
                f"twisted s-boundary {left.entries} != t-boundary {right.entries}",
            )
    # entries of dimensions seam+2 .. i_{l+1}+1 sit at indices seam+1 ..
    segments = (twisted_segment(x, low, high, cells[l + 1].entries[low:])
                for l, (low, high) in enumerate(_segment_bounds(table)))
    return MixedTuple(table, cells[0], tuple(segments))


def expand_product(x: OmegaStructure, mixed: MixedTuple) -> tuple[TwistedCell, ...]:
    """Rebuild the dropped prefixes; inverse of :func:`contract_product`.

    Each next cell repeats the previous one below the gluing level ``m`` and
    takes ``x_{m+1} *_m t(x_{m+2})`` of the previous cell at dimension
    ``m + 1``: those are the entries of the twisted source of the previous
    cell's level ``m + 1`` target.
    """
    table = mixed.table
    held = _complex(x).held(table)
    if held is not None:
        row = held.to_paired[held.mixed_rows(mixed)]
        if row >= 0:
            return held.paired[row]
    outer, inner = table.outer, table.inner
    if len(mixed.segments) != len(inner):
        raise ValidationError(
            f"expected {len(inner)} segments, got {len(mixed.segments)}"
        )
    head = twisted_cell(x, mixed.head.level, mixed.head.entries)
    if head.level != outer[0]:
        raise ValidationError(
            f"head has level {head.level}, table wants {outer[0]}"
        )
    cells = [head]
    for l, segment in enumerate(mixed.segments):
        seam = inner[l]
        low, high = seam + 1, outer[l + 1]
        if (segment.low, segment.high) != (low, high):
            raise ValidationError(
                f"segment {l + 1} has bounds ({segment.low},{segment.high}), "
                f"table wants ({low},{high})"
            )
        twisted_segment(x, low, high, segment.entries)
        current = cells[-1]
        check_seam(x, l + 1, seam, current.level + 1, current.top(), low + 1, segment.entries[0])
        glued = _glue(_Named(x), seam + 1, current.entries[seam], current.entries[seam + 1])
        cells.append(twisted_cell(x, high, current.entries[:seam] + (glued,) + segment.entries))
    return tuple(cells)


# -- twisted operations --------------------------------------------------------


def twisted_compose(x: OmegaStructure, j: int, left: TwistedCell, right: TwistedCell) -> TwistedCell:
    """Compose two twisted cells of level ``i`` over level ``j < i``.

    Accepts the pair form; its contraction onto the mixed form checks the
    twisted composability condition.
    """
    i = left.level
    if right.level != i:
        raise NotComposable(f"levels differ: {left.level} vs {right.level}")
    if not 0 <= j < i:
        raise DimOutOfRange(f"composition level {j} outside 0 <= j < {i}")
    table = TableOfDimensions((i, i), (j,))
    try:
        contract_product(x, table, (left, right))
    except GluingViolation:
        src_b = twisted_boundary(x, "src", left, j)
        tgt_b = twisted_boundary(x, "tgt", right, j)
        raise NotComposable(
            f"twisted s-boundary {src_b.entries} != t-boundary {tgt_b.entries}",
            left_boundary=src_b.entries,
            right_boundary=tgt_b.entries,
        ) from None
    return twisted_cell(x, i, _compose_entries(_Named(x), i, j, left.entries, right.entries))


def twisted_unit(x: OmegaStructure, cell: TwistedCell) -> TwistedCell:
    """Level ``i + 1``: append the double unit over the source of the top entry."""
    i = cell.level
    if i + 2 > x.truncation:
        raise DimOutOfRange(
            f"twisted unit at level {i} needs dimension {i + 2} <= truncation {x.truncation}"
        )
    return twisted_cell(x, i + 1, _unit_entries(_Named(x), i, cell.entries))


def iter_twisted_unit(x: OmegaStructure, cell: TwistedCell, level: int) -> TwistedCell:
    """Iterated twisted unit from ``cell.level`` up to ``level``."""
    if level < cell.level:
        raise DimOutOfRange(f"iterated unit cannot go down to {level}")
    for _ in range(level - cell.level):
        cell = twisted_unit(x, cell)
    return cell


def twisted_inverse(x: OmegaStructure, j: int, cell: TwistedCell) -> TwistedCell:
    """Inverse over level ``j``: glue at ``j+1``, invert every entry above."""
    if x.inv is None:
        raise InversesAbsent("twisted inverse needs inverse tables on the base")
    i = cell.level
    if not 0 <= j < i:
        raise DimOutOfRange(f"inverse level {j} outside 0 <= j < {i}")
    return twisted_cell(x, i, _inverse_entries(_Named(x), i, j, cell.entries))


# -- products of twisted cells --------------------------------------------------


def _check_level(x: OmegaStructure, table: TableOfDimensions) -> None:
    max_level = table.max_dim()
    if max_level + 1 > x.truncation:
        raise DimOutOfRange(
            f"twisted level {max_level} needs truncation >= {max_level + 1}"
        )


def _raise_first_unglued(x: OmegaStructure, table: TableOfDimensions, ends, links) -> None:
    """Raise the error of the first cell, in enumeration order, whose gluing boundary fails.

    ``ends[k]`` is the twisted source boundary that glues position ``k`` to
    the next one, an id map; it is -1 where the scalar boundary raises.
    Positions are visited depth first, so the first failure is the least
    such prefix.
    """
    first = None
    for k, end in enumerate(ends):
        if _first_failure(end, len(end) - 1) is None:
            continue
        for block in _glued(range(len(ends[0]) - 1), links[:k]):
            bad = _first_failure(_gather(end, block[-1]))
            if bad is not None:
                prefix = tuple(column[bad] for column in block)
                if first is None or prefix < first:
                    first = prefix
                break
    if first is not None:
        k = len(first) - 1
        cell = _complex(x).cells(table.outer[k])[first[-1]]
        _raise_scalar(twisted_boundary, x, "src", cell, table.inner[k])


def _paired_links(complex_: TwistedComplex, table: TableOfDimensions):
    """Twisted source boundaries that glue each position to the next, and their links."""
    outer, inner = table.outer, table.inner
    ends = [complex_.boundary(SRC, outer[k], inner[k]) for k in range(table.width - 1)]
    return ends, [_link(end, complex_.boundary(TGT, outer[k + 1], inner[k]))
                  for k, end in enumerate(ends)]


def _segment_bounds(table: TableOfDimensions) -> list[tuple[int, int]]:
    """Shapes of the mixed segments: segment ``l`` holds dimensions ``i'_l + 2 .. i_{l+1} + 1``."""
    return [(seam + 1, table.outer[l + 1]) for l, seam in enumerate(table.inner)]


def _mixed_links(complex_: TwistedComplex, table: TableOfDimensions):
    """Links of the seams of the mixed product, on base boundaries of the outermost entries."""
    base = complex_.x.base
    last = complex_.rows(0, table.outer[0])[-1]
    top_dim = table.outer[0] + 1
    links = []
    for low, high in _segment_bounds(table):
        rows = complex_.rows(low, high)
        links.append(_link(_gather(base.boundary_ids(SRC, top_dim, low - 1), last),
                           _gather(base.boundary_ids(TGT, low + 1, low - 1), rows[0])))
        last, top_dim = rows[-1], high + 1
    return links


def _enumerate_product(complex_: TwistedComplex, table: TableOfDimensions) -> Product:
    """Both products of ``table``, each enumerated once, and the maps between them.

    The contraction looks up the entries of each later cell above its seam
    as a segment.  The expansion is computed on its own: each next cell is
    the twisted source of the previous cell's target at level ``seam + 1``,
    followed by the segment.  Every step gathers through id maps, so a -1
    stays -1 to the end, and a row where a step gives -1, or ids of no
    member, maps to -1: the scalar code answers it.
    """
    outer, bounds = table.outer, _segment_bounds(table)
    first = range(complex_.count(0, outer[0]))
    paired_ids = _stack(_glued(first, _paired_links(complex_, table)[1]), table.width)
    mixed_ids = _stack(_glued(first, _mixed_links(complex_, table)), table.width)
    contracted, expanded = [paired_ids[0]], [mixed_ids[0]]
    for l, (low, high) in enumerate(bounds):
        above = complex_.rows(0, high)[low:]
        contracted.append(complex_.lookup(low, high, [_gather(c, paired_ids[l + 1]) for c in above]))
        # the cell expanded last, its target at level low = seam + 1, and that target's source
        below = _gather(complex_.boundary(TGT, outer[l], low), expanded[-1])
        prefix = _gather(complex_.source(low), below)
        entries = [_gather(c, prefix) for c in complex_.rows(0, low - 1)]
        entries += [_gather(c, mixed_ids[l + 1]) for c in complex_.rows(low, high)]
        expanded.append(complex_.lookup(0, high, entries))

    columns = [complex_.cells(level) for level in outer]
    parts = columns[:1] + [complex_.segments(low, high) for low, high in bounds]
    paired = tuple(zip(*map(_gather, columns, paired_ids)))
    mixed = tuple(MixedTuple(table, head, tuple(segments))
                  for head, *segments in zip(*map(_gather, parts, mixed_ids)))
    return Product(table, paired, mixed, _row_map(contracted, mixed_ids), _row_map(expanded, paired_ids))


def _row_map(ids, rows) -> list[int]:
    """Id map from the tuples with columns ``ids`` to their rows among the columns ``rows``."""
    where = dict(zip(zip(*rows), range(len(rows[0]))))
    return [*map(where.get, zip(*ids), repeat(-1)), -1]


def twisted_product(x: OmegaStructure, table: TableOfDimensions):
    """All tuples of twisted cells glued by iterated twisted boundaries."""
    _check_level(x, table)
    complex_ = _complex(x)
    _raise_first_unglued(x, table, *_paired_links(complex_, table))
    return complex_.product(table).paired


def mixed_product(x: OmegaStructure, table: TableOfDimensions) -> tuple[MixedTuple, ...]:
    """All mixed tuples: head cells and segments glued at the seams."""
    _check_level(x, table)
    return _complex(x).product(table).mixed


# -- assembly -------------------------------------------------------------------


def twisted_name(entries) -> str:
    return "(" + "|".join(entries) + ")"


def build_twisted(x: OmegaStructure) -> OmegaStructure:
    """Assemble the twisted complex of ``x`` as a structure truncated at N - 1.

    The new tables are exactly the entrywise operations above, evaluated a
    level at a time on ids; when one gives no cell, the scalar operation on
    that cell raises the error.  When ``x`` satisfies the full axiom set, so
    does the result (checkable with the generic ``omega`` sweeps).
    """
    n = x.truncation
    if n == 0:
        raise DimOutOfRange("twisting needs truncation >= 1")
    complex_ = _complex(x)
    t = x.tables
    names = [[twisted_name(e) for e in complex_.index(0, i)] for i in range(n)]
    cells = [tuple(layer) for layer in names]

    def table(level: int, into: int, ids: list[int], op, *args) -> dict:
        """Level-``level`` names to the level-``into`` names of the id map ``ids``.

        At the first -1 before the trailing one, the scalar ``op(*args, cell)``
        raises the error.
        """
        bad = _first_failure(ids, len(cells[level]))
        if bad is not None:
            _raise_scalar(op, *args, complex_.cells(level)[bad])
        return dict(zip(cells[level], map(names[into].__getitem__, ids)))

    src, tgt = [], []
    for i in range(1, n):
        src.append(table(i, i - 1, complex_.source(i), twisted_source, x))
        tgt.append(table(i, i - 1, complex_.boundary(TGT, i, i - 1), twisted_target, x))
    base = validate_globular_set(cells, src, tgt)

    # every twisted source is a cell by now, so every iterated boundary is too
    comp = {}
    for i in range(1, n):
        rows, named = complex_.rows(0, i), names[i].__getitem__
        for j in range(i):
            pairs = {}
            link = _link(complex_.boundary(SRC, i, j), complex_.boundary(TGT, i, j))
            for u, v in _glued(range(len(cells[i])), [link]):
                left, right = [_gather(c, u) for c in rows], [_gather(c, v) for c in rows]
                ids = complex_.lookup(0, i, _compose_entries(t, i, j, left, right))
                bad = _first_failure(ids)
                if bad is not None:
                    cells_i = complex_.cells(i)
                    _raise_scalar(twisted_compose, x, j, cells_i[u[bad]], cells_i[v[bad]])
                pairs.update(zip(zip(map(named, u), map(named, v)), map(named, ids)))
            comp[(i, j)] = pairs

    unit_tables = []
    for i in range(n - 1):
        ids = complex_.lookup(0, i + 1, _unit_entries(t, i, complex_.rows(0, i)))
        unit_tables.append(table(i, i + 1, ids, twisted_unit, x))

    inv = None
    if x.inv is not None:
        inv = {}
        for i in range(1, n):
            for j in range(i):
                ids = complex_.lookup(0, i, _inverse_entries(t, i, j, complex_.rows(0, i)))
                inv[(i, j)] = table(i, i, ids, twisted_inverse, x, j)

    return validate_omega(base, comp, unit_tables, inv)
