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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    DimOutOfRange,
    GlobularViolation,
    GluingViolation,
    IndexOutOfRange,
    MissingCell,
    ParseError,
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


@dataclass(frozen=True)
class GlobularSet:
    """Validated globular set, truncated at dimension ``truncation``.

    ``src[i]`` and ``tgt[i]`` are the boundary maps ``X_i -> X_{i-1}`` for
    ``1 <= i <= truncation``; index 0 holds an empty placeholder.
    ``index[i]`` interns the ``i``-cells: it maps each name to its position
    in ``cells[i]``, the dense id the integer tables use.
    """

    truncation: int
    cells: tuple[tuple[str, ...], ...]
    src: tuple[dict[str, str], ...]
    tgt: tuple[dict[str, str], ...]
    index: tuple[dict[str, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = tuple({u: k for k, u in enumerate(layer)} for layer in self.cells)
        object.__setattr__(self, "index", index)

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

    missing: list[str] = []
    for i in range(1, truncation + 1):
        here = set(cells[i])
        below = set(cells[i - 1])
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

    padded_src = ({},) + tuple(src)
    padded_tgt = ({},) + tuple(tgt)

    violations = []
    for i in range(2, truncation + 1):
        for u in cells[i]:
            s_u, t_u = padded_src[i][u], padded_tgt[i][u]
            if padded_src[i - 1][s_u] != padded_src[i - 1][t_u]:
                violations.append((i, u, "s s != s t"))
            if padded_tgt[i - 1][s_u] != padded_tgt[i - 1][t_u]:
                violations.append((i, u, "t s != t t"))
    if violations:
        raise GlobularViolation(violations)

    return GlobularSet(truncation, cells, padded_src, padded_tgt)


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


@dataclass(frozen=True)
class TableOfDimensions:
    """Shape datum ``(i_1, .., i_n; i'_1, .., i'_{n-1})`` of a globular product."""

    outer: tuple[int, ...]
    inner: tuple[int, ...]

    def __post_init__(self):
        outer = tuple(int(v) for v in self.outer)
        inner = tuple(int(v) for v in self.inner)
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)
        if len(outer) < 1:
            raise ShapeViolation(0, "width must be at least 1")
        if len(inner) != len(outer) - 1:
            raise ShapeViolation(0, f"{len(outer)} outer entries need {len(outer) - 1} inner entries")
        if any(v < 0 for v in outer + inner):
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


@dataclass(frozen=True)
class GlobularTuple:
    """Element of a globular product: entries glued along iterated boundaries."""

    table: TableOfDimensions
    entries: tuple[str, ...]


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
        low = table.inner[k]
        left = gs.boundary(SRC, table.outer[k], low, entries[k])
        right = gs.boundary(TGT, table.outer[k + 1], low, entries[k + 1])
        if left != right:
            raise GluingViolation(
                k + 1,
                f"s^{table.outer[k]}_{low}({entries[k]}) = {left} but "
                f"t^{table.outer[k + 1]}_{low}({entries[k + 1]}) = {right}",
            )
    return GlobularTuple(table, entries)


def globular_product(gs: GlobularSet, table: TableOfDimensions) -> tuple[GlobularTuple, ...]:
    """Enumerate the globular product of ``gs`` over ``table``.

    Exhaustive, in lexicographic order of per-dimension cell indices.
    """
    if table.max_dim() > gs.truncation:
        raise DimOutOfRange(
            f"table needs dimension {table.max_dim()} but truncation is {gs.truncation}"
        )
    results: list[GlobularTuple] = []
    width = table.width

    # bucket candidates for position k+1 by their target boundary in dim i'_k
    buckets: list[dict[str, list[str]]] = []
    for k in range(width - 1):
        low = table.inner[k]
        dim = table.outer[k + 1]
        bucket: dict[str, list[str]] = {}
        for u in gs.cells[dim]:
            bucket.setdefault(gs.boundary(TGT, dim, low, u), []).append(u)
        buckets.append(bucket)

    def extend(prefix: list[str], k: int):
        if k == width:
            results.append(GlobularTuple(table, tuple(prefix)))
            return
        if k == 0:
            candidates = gs.cells[table.outer[0]]
        else:
            low = table.inner[k - 1]
            glue = gs.boundary(SRC, table.outer[k - 1], low, prefix[-1])
            candidates = buckets[k - 1].get(glue, ())
        for u in candidates:
            prefix.append(u)
            extend(prefix, k + 1)
            prefix.pop()

    extend([], 0)
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
