"""Stock structures used by the test suites and the command line.

Every public fixture passes ``check_structure`` and the full axiom sweep:

* ``discrete(names, trunc)``: one cell per name in every dimension, all
  operations degenerate.
* ``delooping(group, trunc)``: one object, the group in dimension 1, unit
  cells above.
* ``suspension(abelian, dim, trunc)``: a single cell per dimension below
  ``dim``, the group at ``dim``, unit cells above.  Exchange forces the
  group to be commutative whenever ``dim >= 2``.
* ``product(x, y)``: componentwise product of two structures of equal
  truncation.
"""

from __future__ import annotations

import itertools

from .errors import NotAbelian, NotAGroup, Record, ValidationError
from .globular import validate_globular_set
from .omega import OmegaStructure, validate_omega


class GroupTable(Record):
    """Finite multiplication table; validated by :func:`validate_group`."""

    _fields = ("elements", "mul")

    def __init__(self, elements: tuple[str, ...], mul: dict[tuple[str, str], str]):
        self.__dict__.update(elements=elements, mul=mul)


def validate_group(table: GroupTable) -> tuple[str, dict[str, str]]:
    """Return the identity element and inverse map, or raise ``NotAGroup``.

    The laws are checked on the ``n x n`` table of element ids, a row at a
    time; each failure names the first failing elements in declaration order.
    """
    names = list(dict.fromkeys(table.elements))  # a repeated name is checked once
    index = {a: k for k, a in enumerate(names)}
    mul = table.mul
    rows = []
    for a in names:
        row = [index.get(mul.get((a, b)), -1) for b in names]
        if -1 in row:
            raise NotAGroup(f"table not closed/total at ({a!r}, {names[row.index(-1)]!r})")
        rows.append(row)
    for a, row in enumerate(rows):
        left = [rows[ab] for ab in row]  # (a b) c, over all b and c
        right = [[row[bc] for bc in r] for r in rows]  # a (b c)
        if left != right:
            b, c = next((b, c) for b, r in enumerate(right) for c, abc in enumerate(r)
                        if left[b][c] != abc)
            raise NotAGroup(f"not associative at ({names[a]!r}, {names[b]!r}, {names[c]!r})")
    ids = list(range(len(names)))
    identity = next((e for e in ids if rows[e] == ids and [r[e] for r in rows] == ids), None)
    if identity is None:
        raise NotAGroup("no two-sided identity")
    inverse: dict[str, str] = {}
    for a, row in enumerate(rows):
        b = next((b for b, ab in enumerate(row) if ab == identity and rows[b][a] == identity), None)
        if b is None:
            raise NotAGroup(f"{names[a]!r} has no inverse")
        inverse[names[a]] = names[b]
    return names[identity], inverse


def is_abelian(table: GroupTable) -> bool:
    return all(
        table.mul[(a, b)] == table.mul[(b, a)]
        for a, b in itertools.product(table.elements, repeat=2)
    )


def cyclic_table(n: int) -> GroupTable:
    """Z/n with elements named "0".."n-1"."""
    if n < 1:
        raise ValidationError("cyclic group order must be >= 1")
    elems = tuple(str(k) for k in range(n))
    mul = {
        (str(a), str(b)): str((a + b) % n)
        for a in range(n)
        for b in range(n)
    }
    return GroupTable(elems, mul)


def symmetric3_table() -> GroupTable:
    """The 6 permutations of 3 points, composed right-to-left."""
    perms = {
        "e": (0, 1, 2),
        "(12)": (1, 0, 2),
        "(13)": (2, 1, 0),
        "(23)": (0, 2, 1),
        "(123)": (1, 2, 0),
        "(132)": (2, 0, 1),
    }
    by_perm = {p: name for name, p in perms.items()}
    mul = {}
    for a, pa in perms.items():
        for b, pb in perms.items():
            composite = tuple(pa[pb[k]] for k in range(3))
            mul[(a, b)] = by_perm[composite]
    return GroupTable(tuple(perms), mul)


def group_product_table(a: GroupTable, b: GroupTable) -> GroupTable:
    elems = tuple(f"{x}.{y}" for x in a.elements for y in b.elements)
    mul = {}
    for x1, y1 in itertools.product(a.elements, b.elements):
        for x2, y2 in itertools.product(a.elements, b.elements):
            mul[(f"{x1}.{y1}", f"{x2}.{y2}")] = f"{a.mul[(x1, x2)]}.{b.mul[(y1, y2)]}"
    return GroupTable(elems, mul)


NAMED_GROUPS = {
    "z2": lambda: cyclic_table(2),
    "z3": lambda: cyclic_table(3),
    "z4": lambda: cyclic_table(4),
    "z2xz2": lambda: group_product_table(cyclic_table(2), cyclic_table(2)),
    "s3": symmetric3_table,
}


def _tower(low, high, dim, trunc, mul=None, unit_elem=None, inv_map=None) -> OmegaStructure:
    """The tower rule behind every stock structure but ``product``.

    Every layer is discrete: each cell has itself as both faces, composes
    only with itself, and is its own unit and inverse.  The exception is the group
    layer at ``dim``: there ``high`` replaces ``low``, every cell has
    ``low[0]`` as both faces, cells compose under ``mul`` along every
    dimension below ``dim``, ``unit_elem`` is the unit of ``low[0]`` and
    ``inv_map`` gives the inverses.  Above ``dim`` the layers are discrete on
    ``high``.  With ``dim`` above ``trunc`` there is no group layer; without
    ``inv_map`` there are no inverse tables.
    """
    cells = [low if i < dim else high for i in range(trunc + 1)]
    faces = [{u: low[0] if i == dim else u for u in cells[i]} for i in range(1, trunc + 1)]
    base = validate_globular_set(cells, faces, faces)
    products = {(g, h): mul[(g, h)] for g in high for h in high}
    pairs = [(i, j) for i in range(1, trunc + 1) for j in range(i)]
    comp = {(i, j): products if j < dim <= i else {(u, u): u for u in cells[i]}
            for i, j in pairs}  # validate_omega copies each table
    unit = [{u: unit_elem if i == dim - 1 else u for u in cells[i]} for i in range(trunc)]
    inv = None if inv_map is None else {
        (i, j): inv_map if j < dim <= i else {u: u for u in cells[i]} for i, j in pairs}
    return validate_omega(base, comp, unit, inv)


def one_object_tower(elements, mul, unit_elem, dim, trunc, inv_map=None) -> OmegaStructure:
    """Tower with a single cell per dimension below ``dim``, the given
    multiplication at ``dim``, and unit-degenerate copies above.

    This is the raw builder behind ``delooping`` and ``suspension``; it does
    not validate any algebraic law of ``mul`` beyond table shape, so tests
    can feed it magmas and monoids.
    """
    if dim < 1:
        raise ValidationError("tower dimension must be >= 1")
    if trunc < dim:
        raise ValidationError(f"truncation {trunc} below tower dimension {dim}")
    return _tower(("*",), tuple(elements), dim, trunc, mul, unit_elem, inv_map)


def discrete(names, trunc: int) -> OmegaStructure:
    """Discrete structure: the same cells in every dimension, all maps identity."""
    names = tuple(names)
    if not names:
        raise ValidationError("discrete structure needs at least one cell")
    if trunc < 0:
        raise ValidationError("truncation must be >= 0")
    return _tower(names, (), trunc + 1, trunc, inv_map={})  # no group layer


def delooping(group: GroupTable, trunc: int = 2) -> OmegaStructure:
    """One object whose arrows form the given group; unit cells above."""
    return suspension(group, 1, trunc)


def suspension(group: GroupTable, dim: int, trunc: int) -> OmegaStructure:
    """The group placed in dimension ``dim`` over a single lower cell.

    Requires commutativity: with two distinct lower dimensions available the
    exchange law collapses the two compositions to one commutative operation.
    """
    identity, inverse_map = validate_group(group)
    if dim >= 2 and not is_abelian(group):
        raise NotAbelian(f"suspension to dimension {dim} needs an abelian group")
    return one_object_tower(group.elements, group.mul, identity, dim, trunc, inverse_map)


def _pair(u: str, v: str) -> str:
    return f"({u},{v})"


def product(x: OmegaStructure, y: OmegaStructure) -> OmegaStructure:
    """Componentwise product of two structures of equal truncation."""
    if x.truncation != y.truncation:
        raise ValidationError(f"truncations differ: {x.truncation} vs {y.truncation}")
    n = x.truncation

    def both(i, fx, fy):
        """The map ``(u, v) -> (fx[u], fy[v])`` on the pairs of ``i``-cells."""
        return {_pair(u, v): _pair(fx[u], fy[v])
                for u in x.base.cells[i] for v in y.base.cells[i]}

    cells = [tuple(_pair(u, v) for u in x.base.cells[i] for v in y.base.cells[i])
             for i in range(n + 1)]
    base = validate_globular_set(
        cells,
        [both(i, x.base.src[i], y.base.src[i]) for i in range(1, n + 1)],
        [both(i, x.base.tgt[i], y.base.tgt[i]) for i in range(1, n + 1)],
    )
    comp = {
        key: {(_pair(u1, u2), _pair(v1, v2)): _pair(w1, w2)
              for (u1, v1), w1 in table.items()
              for (u2, v2), w2 in y.comp.get(key, {}).items()}
        for key, table in x.comp.items()
    }
    unit = [both(i, x.unit[i], y.unit[i]) for i in range(n)]
    inv = None
    if x.inv is not None and y.inv is not None:
        inv = {key: both(key[0], x.inv[key], y.inv[key]) for key in x.inv}
    return validate_omega(base, comp, unit, inv)
