"""Finite truncated globular sets, dimension tables, and globular products.

A globular set is a graded family of finite cell sets ``X_0 .. X_N`` with
source and target maps ``X_i -> X_{i-1}`` satisfying ``s s = s t`` and
``t s = t t``.  A table of dimensions ``(i_1, .., i_n; i'_1, .., i'_{n-1})``
indexes a globular product: the set of tuples ``(x_1, .., x_n)`` with
``x_k`` of dimension ``i_k`` glued along iterated boundaries in dimension
``i'_k``.  Tables are in bijection with finite planar rooted trees (leaf
heights ``i_k``, consecutive-leaf meet heights ``i'_k``).

All values are immutable after validation; enumeration order is declaration
order everywhere, so output is deterministic.

Glued tuples of every kind (globular products here, axiom instances in
``omega``, twisted cells and their products in ``twist``) are enumerated by
one joiner, :func:`_glued`, over links built by :func:`_link` from boundary
maps of dense cell ids.  Everything here runs on plain Python lists.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .errors import (
    DimOutOfRange,
    GlobularViolation,
    GluingViolation,
    IndexOutOfRange,
    MissingCell,
    ParseError,
    Record,
    ShapeViolation,
    ValidationError,
)

SRC = "src"
TGT = "tgt"


def _check_cell_name(name) -> str:
    if not isinstance(name, str) or not name:
        raise ValidationError(f"cell names must be non-empty strings, got {name!r}")
    # "|" is the separator of serialized composition keys; it is only allowed
    # inside balanced parentheses (the shape of generated tuple names).
    depth = 0
    for ch in name:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValidationError(f"unbalanced parentheses in cell name {name!r}")
        elif ch == "|" and depth == 0:
            raise ValidationError(f"top-level '|' not allowed in cell name {name!r}")
    if depth != 0:
        raise ValidationError(f"unbalanced parentheses in cell name {name!r}")
    return name


def split_pair_key(key: str) -> tuple[str, str]:
    """Split a serialized ``"u|v"`` key at its top-level separator."""
    depth = 0
    for pos, ch in enumerate(key):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            return key[:pos], key[pos + 1 :]
    raise ValidationError(f"composition key {key!r} has no top-level '|'")


class GlobularSet(Record):
    """Validated globular set, truncated at dimension ``truncation``.

    ``src[i]`` and ``tgt[i]`` are the boundary maps ``X_i -> X_{i-1}`` for
    ``1 <= i <= truncation``; index 0 holds an empty placeholder.
    ``index[i]`` interns the ``i``-cells: it maps each name to its position
    in ``cells[i]``, the dense id the integer tables use; it is derived, so
    it stays out of equality and repr.  :meth:`boundary_ids` gives the
    boundary maps over those ids.
    """

    _fields = ("truncation", "cells", "src", "tgt")

    def __init__(self, truncation: int, cells: tuple[tuple[str, ...], ...],
                 src: tuple[dict[str, str], ...], tgt: tuple[dict[str, str], ...]):
        self.__dict__.update(truncation=truncation, cells=cells, src=src, tgt=tgt,
                             index=tuple({u: k for k, u in enumerate(layer)} for layer in cells),
                             _boundary_ids={})

    def check_dim(self, i: int) -> int:
        if not 0 <= i <= self.truncation:
            raise DimOutOfRange(
                f"dimension {i} outside 0..{self.truncation}"
            )
        return i

    def has_cell(self, i: int, u: str) -> bool:
        self.check_dim(i)
        return u in self.index[i]

    def source(self, i: int, u: str) -> str:
        self.check_dim(i)
        if i == 0:
            raise DimOutOfRange("0-cells have no source")
        return self.src[i][u]

    def target(self, i: int, u: str) -> str:
        self.check_dim(i)
        if i == 0:
            raise DimOutOfRange("0-cells have no target")
        return self.tgt[i][u]

    def boundary(self, kind: str, i: int, j: int, u: str) -> str:
        """Iterated boundary of ``u`` from dimension ``i`` down to ``j``."""
        self.check_dim(i)
        if not 0 <= j <= i:
            raise DimOutOfRange(f"boundary target dimension {j} outside 0..{i}")
        if u not in self.index[i]:
            raise MissingCell(f"{u!r} is not a {i}-cell")
        if kind not in (SRC, TGT):
            raise ValidationError(f"boundary kind must be 'src' or 'tgt', got {kind!r}")
        table = self.src if kind == SRC else self.tgt
        for d in range(i, j, -1):
            u = table[d][u]
        return u

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.cells)

    def boundary_ids(self, kind: str, i: int, j: int) -> list[int]:
        """The iterated boundary from dimension ``i`` down to ``j`` as an id map
        over the ``i``-cells (see :func:`_gather`), built once; -1 where a map
        has no cell."""
        memo = self._boundary_ids
        key = (kind, i, j)
        if key not in memo:
            if i == j:
                memo[key] = [*range(len(self.cells[i])), -1]
            else:
                table = (self.src if kind == SRC else self.tgt)[i]
                below = self.index[i - 1]
                face = [below.get(table.get(u), -1) for u in self.cells[i]] + [-1]
                memo[key] = _gather(self.boundary_ids(kind, i - 1, j), face)
        return memo[key]


def validate_globular_set(cells, src, tgt) -> GlobularSet:
    """Validate raw cell sets and boundary tables into a :class:`GlobularSet`.

    ``cells`` is a sequence of per-dimension name sequences; ``src`` and
    ``tgt`` are sequences of maps for dimensions ``1..N``.  Raises
    :class:`MissingCell` if any map mentions an undeclared cell, and
    :class:`GlobularViolation` listing every broken globular relation.
    """
    cells = tuple(tuple(_check_cell_name(u) for u in layer) for layer in cells)
    if not cells:
        raise ValidationError("at least dimension 0 must be declared")
    truncation = len(cells) - 1
    for i, layer in enumerate(cells):
        if len(set(layer)) != len(layer):
            raise ValidationError(f"duplicate cell names in dimension {i}")

    src = [dict(m) for m in src]
    tgt = [dict(m) for m in tgt]
    if len(src) != truncation or len(tgt) != truncation:
        raise ValidationError(
            f"need exactly {truncation} source and target tables, "
            f"got {len(src)} and {len(tgt)}"
        )

    gs = GlobularSet(truncation, cells, ({},) + tuple(src), ({},) + tuple(tgt))
    missing: list[str] = []
    for i in range(1, truncation + 1):
        here, below = gs.index[i], gs.index[i - 1]
        for label, table in (("src", src[i - 1]), ("tgt", tgt[i - 1])):
            for u in cells[i]:
                if u not in table:
                    missing.append(f"{label}_{i} undefined on {u!r}")
            for u, v in table.items():
                if u not in here:
                    missing.append(f"{label}_{i} keyed on undeclared cell {u!r}")
                elif v not in below:
                    missing.append(f"{label}_{i}({u!r}) = {v!r} not a {i - 1}-cell")
    if missing:
        raise MissingCell("; ".join(missing))

    violations = []
    for i in range(2, truncation + 1):
        src_i, tgt_i = gs.src[i], gs.tgt[i]
        sb, tb = gs.src[i - 1], gs.tgt[i - 1]
        for u in cells[i]:
            s_u, t_u = src_i[u], tgt_i[u]
            if sb[s_u] != sb[t_u]:
                violations.append((i, u, "s s != s t"))
            if tb[s_u] != tb[t_u]:
                violations.append((i, u, "t s != t t"))
    if violations:
        raise GlobularViolation(violations)
    return gs


def globular_set_to_json(gs: GlobularSet) -> dict:
    return {
        "truncation": gs.truncation,
        "cells": [list(layer) for layer in gs.cells],
        "src": [dict(gs.src[i]) for i in range(1, gs.truncation + 1)],
        "tgt": [dict(gs.tgt[i]) for i in range(1, gs.truncation + 1)],
    }


def globular_set_from_json(data: dict) -> GlobularSet:
    try:
        cells = data["cells"]
        src = data["src"]
        tgt = data["tgt"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"missing field in globular set data: {exc}") from exc
    gs = validate_globular_set(cells, src, tgt)
    declared = data.get("truncation")
    if declared is not None and declared != gs.truncation:
        raise ValidationError(
            f"declared truncation {declared} but {len(cells)} cell layers"
        )
    return gs


# -- the joiner for glued tuples -------------------------------------------------

# Glued tuples per block: bounds the memory of an enumeration.
_CHUNK = 1 << 13


def _gather(table: list[int], ids) -> list[int]:
    """``table[a]`` for each ``a`` of ``ids``.

    An id map (:meth:`GlobularSet.boundary_ids`, the maps of
    ``omega.IntTables``) is a list over the cells of one dimension with -1
    appended, so the id -1 gathers that -1, never the entry of the last cell.
    """
    return list(map(table.__getitem__, ids))


def _link(left, right) -> list:
    """Join each id ``a`` to the ids ``b`` with ``left[a] == right[b]``.

    Entry ``a`` is the bucket of ``left[a]`` in ``{boundary id: [b ascending]}``.
    A key of -1 (a boundary that is no cell, or the appended -1 of an id map)
    is no bucket, so it matches nothing.
    """
    buckets: dict[int, list[int]] = {}
    for b, key in enumerate(right):
        if key >= 0:
            buckets.setdefault(key, []).append(b)
    return [buckets.get(key, ()) for key in left]


def _glued(first, links):
    """Glued tuples of ids, lexicographic, in blocks of at most ``_CHUNK`` rows.

    Column 0 runs over ``first``; link ``k`` (see :func:`_link`) extends a
    row ending in ``a`` by each id of ``links[k][a]``.  A block is a list of
    columns, one list of ids per position, and is made only when asked for.
    """
    first = list(first)
    for start in range(0, len(first), _CHUNK):
        yield from _extend([first[start:start + _CHUNK]], links)


def _stack(blocks, width: int) -> list[list[int]]:
    """The :func:`_glued` blocks ``blocks`` joined into ``width`` columns."""
    columns = [[] for _ in range(width)]
    for block in blocks:
        for column, part in zip(columns, block):
            column += part
    return columns


def _extend(columns: list[list[int]], links):
    """The rows of ``columns`` extended through ``links``, in blocks of at most ``_CHUNK`` rows."""
    if not links:
        for start in range(0, len(columns[0]), _CHUNK):
            yield [column[start:start + _CHUNK] for column in columns]
        return
    link, last = links[0], columns[-1]
    ends = list(accumulate(map(len, map(link.__getitem__, last))))
    start = 0
    while start < len(last):
        done = ends[start - 1] if start else 0
        stop = max(bisect_right(ends, done + _CHUNK, start), start + 1)
        parents = [p for p in range(start, stop) for _ in link[last[p]]]
        if parents:
            matches = [b for a in last[start:stop] for b in link[a]]
            yield from _extend([_gather(column, parents) for column in columns] + [matches],
                               links[1:])
        start = stop


class TableOfDimensions(Record):
    """Shape datum ``(i_1, .., i_n; i'_1, .., i'_{n-1})`` of a globular product."""

    _fields = ("outer", "inner")

    def __init__(self, outer, inner):
        try:
            outer, inner = tuple(outer), tuple(inner)
        except TypeError:
            raise ShapeViolation(0, "outer and inner dimensions must be sequences") from None
        self.__dict__.update(outer=outer, inner=inner)
        if len(outer) < 1:
            raise ShapeViolation(0, "width must be at least 1")
        if len(inner) != len(outer) - 1:
            raise ShapeViolation(0, f"{len(outer)} outer entries need {len(outer) - 1} inner entries")
        if any(type(v) is not int or v < 0 for v in outer + inner):  # bool too
            raise ShapeViolation(0, "dimensions must be naturals")
        for k in range(len(inner)):
            if outer[k] <= inner[k]:
                raise ShapeViolation(k + 1, f"i_{k + 1}={outer[k]} <= i'_{k + 1}={inner[k]}")
            if outer[k + 1] <= inner[k]:
                raise ShapeViolation(k + 1, f"i_{k + 2}={outer[k + 1]} <= i'_{k + 1}={inner[k]}")

    @property
    def width(self) -> int:
        return len(self.outer)

    def max_dim(self) -> int:
        return max(self.outer)

    def __str__(self) -> str:
        parts = [str(self.outer[0])]
        for k in range(len(self.inner)):
            parts.append(str(self.inner[k]))
            parts.append(str(self.outer[k + 1]))
        return " ".join(parts)


def parse_table(text: str) -> TableOfDimensions:
    """Parse ``"i_1 i'_1 i_2 .. i_n"`` into a validated table of dimensions."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty table string")
    if len(tokens) % 2 == 0:
        raise ParseError(
            f"table string needs an odd number of entries, got {len(tokens)}"
        )
    try:
        values = [int(tok) for tok in tokens]
    except ValueError as exc:
        raise ParseError(f"non-integer entry in table string: {exc}") from exc
    if any(v < 0 for v in values):
        raise ParseError("table entries must be naturals")
    return TableOfDimensions(tuple(values[0::2]), tuple(values[1::2]))


class GlobularTuple(Record):
    """Element of a globular product: entries glued along iterated boundaries."""

    _fields = ("table", "entries")

    def __init__(self, table: TableOfDimensions, entries: tuple[str, ...]):
        self.__dict__.update(table=table, entries=entries)


def globular_tuple(gs: GlobularSet, table: TableOfDimensions, entries) -> GlobularTuple:
    """Validate entries against the table's gluing conditions."""
    entries = tuple(entries)
    if len(entries) != table.width:
        raise ValidationError(
            f"expected {table.width} entries, got {len(entries)}"
        )
    if table.max_dim() > gs.truncation:
        raise DimOutOfRange(
            f"table needs dimension {table.max_dim()} but truncation is {gs.truncation}"
        )
    for k, (dim, u) in enumerate(zip(table.outer, entries)):
        if not gs.has_cell(dim, u):
            raise MissingCell(f"entry {k + 1}: {u!r} is not a {dim}-cell")
    for k in range(table.width - 1):
        check_seam(gs, k + 1, table.inner[k], table.outer[k], entries[k], table.outer[k + 1], entries[k + 1])
    return GlobularTuple(table, entries)


def check_seam(gs: GlobularSet, position: int, seam: int,
               top_dim: int, top: str, first_dim: int, first: str) -> None:
    """Raise unless ``s^{top_dim}_{seam}(top) = t^{first_dim}_{seam}(first)``: seam ``position``
    of a named glued tuple (globular, or mixed in ``twist``) between the cells it joins."""
    left = gs.boundary_ids(SRC, top_dim, seam)[gs.index[top_dim][top]]
    right = gs.boundary_ids(TGT, first_dim, seam)[gs.index[first_dim][first]]
    if left != right:
        raise GluingViolation(position, f"s^{top_dim}_{seam}({top}) = {gs.cells[seam][left]} but "
                                        f"t^{first_dim}_{seam}({first}) = {gs.cells[seam][right]}")


def product_ids(gs: GlobularSet, table: TableOfDimensions):
    """The globular product of ``gs`` over ``table`` as blocks of :func:`_glued`.

    Column ``k`` holds ids of ``i_k``-cells.  Exhaustive, in lexicographic
    order of per-dimension cell indices.
    """
    if table.max_dim() > gs.truncation:
        raise DimOutOfRange(
            f"table needs dimension {table.max_dim()} but truncation is {gs.truncation}"
        )
    outer, inner = table.outer, table.inner
    links = [
        _link(gs.boundary_ids(SRC, outer[k], inner[k]), gs.boundary_ids(TGT, outer[k + 1], inner[k]))
        for k in range(table.width - 1)
    ]
    return _glued(range(len(gs.cells[outer[0]])), links)


def globular_product(gs: GlobularSet, table: TableOfDimensions) -> tuple[GlobularTuple, ...]:
    """Enumerate the globular product of ``gs`` over ``table``.

    Exhaustive, in lexicographic order of per-dimension cell indices.
    """
    blocks = product_ids(gs, table)
    names = [gs.cells[d] for d in table.outer]
    results: list[GlobularTuple] = []
    for block in blocks:
        columns = (map(names[k].__getitem__, column) for k, column in enumerate(block))
        results.extend(GlobularTuple(table, entries) for entries in zip(*columns))
    return tuple(results)


def projection(gtuple: GlobularTuple, k: int) -> str:
    """Entry ``x_k`` of a globular tuple, 1-based."""
    if not 1 <= k <= gtuple.table.width:
        raise IndexOutOfRange(f"position {k} outside 1..{gtuple.table.width}")
    return gtuple.entries[k - 1]


# -- planar rooted trees -----------------------------------------------------
#
# A tree is a nested tuple: () is a single node, (c1, .., cr) a node with
# ordered children.  Leaf heights read off the outer dimensions, heights of
# consecutive-leaf meets the inner dimensions.


def _normalize_tree(tree):
    if isinstance(tree, (list, tuple)):
        return tuple(_normalize_tree(child) for child in tree)
    raise ValidationError(f"tree nodes must be sequences, got {tree!r}")


def table_to_tree(table: TableOfDimensions) -> tuple:
    """Planar rooted tree with leaf heights ``i_k`` and meet heights ``i'_k``."""

    def build(outer: tuple[int, ...], inner: tuple[int, ...], base: int) -> tuple:
        if len(outer) == 1:
            node: tuple = ()
            for _ in range(outer[0] - base):
                node = (node,)
            return node
        meet = min(inner)
        groups: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        start = 0
        for k, v in enumerate(inner):
            if v == meet:
                groups.append((outer[start : k + 1], inner[start:k]))
                start = k + 1
        groups.append((outer[start:], inner[start:]))
        node = tuple(build(o, i, meet + 1) for o, i in groups)
        for _ in range(meet - base):
            node = (node,)
        return node

    return build(table.outer, table.inner, 0)


def tree_to_table(tree) -> TableOfDimensions:
    """Inverse of :func:`table_to_tree`."""
    tree = _normalize_tree(tree)
    leaves: list[int] = []
    meets: list[int] = []

    def walk(node: tuple, height: int):
        if not node:
            leaves.append(height)
            return
        for idx, child in enumerate(node):
            if idx > 0:
                meets.append(height)
            walk(child, height + 1)

    walk(tree, 0)
    return TableOfDimensions(tuple(leaves), tuple(meets))


def all_tables(max_width: int, max_dim: int):
    """Every table of dimensions with width <= max_width and entries <= max_dim."""
    if max_width < 1:
        raise ValidationError(f"max_width must be >= 1, got {max_width}")
    tables: list[TableOfDimensions] = []

    def extend(outer: list[int], inner: list[int]):
        tables.append(TableOfDimensions(tuple(outer), tuple(inner)))
        if len(outer) == max_width:
            return
        for low in range(0, outer[-1]):
            for nxt in range(low + 1, max_dim + 1):
                outer.append(nxt)
                inner.append(low)
                extend(outer, inner)
                outer.pop()
                inner.pop()

    for first in range(0, max_dim + 1):
        extend([first], [])
    return tuple(tables)
