"""Operation tables over a globular set and exhaustive law checkers.

An :class:`OmegaStructure` carries, on top of a globular set truncated at N:

* partial compositions ``comp[(i, j)]`` defined exactly on pairs ``(u, v)``
  with matching iterated boundaries ``s^i_j(u) = t^i_j(v)``,
* total unit maps ``unit[i] : X_i -> X_{i+1}`` for ``0 <= i < N``,
* optional total inverse maps ``inv[(i, j)] : X_i -> X_i``.

``check_structure`` verifies the boundary laws every such structure must
satisfy; ``check_axiom``/``check_all`` enumerate the coherence axioms
(associativity, exchange, units, unit functoriality, inverses) and return
every counterexample up to a configurable cap.  Violations are data, never
exceptions.

The sweeps run on the structure's tables over interned integer cell ids
(:class:`IntTables`): instances are enumerated as sort/``searchsorted`` joins
on boundary arrays and both sides of each law are evaluated as numpy
gathers.  Only the instances that do not pass go through the scalar
evaluators, which build the violations, so witnesses keep declaration order
and their text is that of the scalar code.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimOutOfRange,
    InversesAbsent,
    MissingCell,
    NotComposable,
    ValidationError,
)
from .globular import (
    SRC,
    TGT,
    GlobularSet,
    globular_set_from_json,
    globular_set_to_json,
    split_pair_key,
)

ASSOC = "assoc"
EXCHANGE = "exchange"
LEFT_UNIT = "left_unit"
RIGHT_UNIT = "right_unit"
UNIT_COMPAT = "unit_compat"
LEFT_INVERSE = "left_inverse"
RIGHT_INVERSE = "right_inverse"
INVERSE_COMPAT = "inverse_compat"

AXIOMS = (
    ASSOC,
    EXCHANGE,
    LEFT_UNIT,
    RIGHT_UNIT,
    UNIT_COMPAT,
    LEFT_INVERSE,
    RIGHT_INVERSE,
    INVERSE_COMPAT,
)

_FLAG_TOKENS = {
    "l": LEFT_UNIT,
    "r": RIGHT_UNIT,
    "f": UNIT_COMPAT,
    "li": LEFT_INVERSE,
    "ri": RIGHT_INVERSE,
}
_INVERSE_AXIOMS = (LEFT_INVERSE, RIGHT_INVERSE, INVERSE_COMPAT)


@dataclass(frozen=True)
class AxiomFlags:
    """Selection of optional axioms; associativity and exchange always run."""

    left_unit: bool = False
    right_unit: bool = False
    unit_compat: bool = False
    left_inverse: bool = False
    right_inverse: bool = False

    @classmethod
    def parse(cls, text: str) -> "AxiomFlags":
        selected: set[str] = set()
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if token not in _FLAG_TOKENS:
                raise ValidationError(
                    f"unknown axiom flag {token!r}; expected l, r, f, li, ri"
                )
            selected.add(_FLAG_TOKENS[token])
        return cls(
            left_unit=LEFT_UNIT in selected,
            right_unit=RIGHT_UNIT in selected,
            unit_compat=UNIT_COMPAT in selected,
            left_inverse=LEFT_INVERSE in selected,
            right_inverse=RIGHT_INVERSE in selected,
        )

    def axioms(self) -> tuple[str, ...]:
        selected = [ASSOC, EXCHANGE]
        if self.left_unit:
            selected.append(LEFT_UNIT)
        if self.right_unit:
            selected.append(RIGHT_UNIT)
        if self.unit_compat:
            selected.append(UNIT_COMPAT)
        if self.left_inverse:
            selected.append(LEFT_INVERSE)
        if self.right_inverse:
            selected.append(RIGHT_INVERSE)
        return tuple(selected)

    def needs_inverses(self) -> bool:
        return self.left_inverse or self.right_inverse

    def __str__(self) -> str:
        tokens = [tok for tok, axiom in _FLAG_TOKENS.items() if axiom in self.axioms()]
        return ",".join(tokens)


FULL_FLAGS = AxiomFlags(True, True, True, True, True)
CATEGORICAL_FLAGS = AxiomFlags(True, True, True, False, False)


@dataclass(frozen=True)
class OmegaStructure:
    base: GlobularSet
    comp: dict[tuple[int, int], dict[tuple[str, str], str]]
    unit: tuple[dict[str, str], ...]
    inv: dict[tuple[int, int], dict[str, str]] | None = None

    @property
    def truncation(self) -> int:
        return self.base.truncation

    @property
    def has_inverses(self) -> bool:
        return self.inv is not None

    @property
    def tables(self) -> "IntTables":
        """The operation tables over interned cell ids, derived once and cached."""
        tables = self.__dict__.get("_tables")
        if tables is None:
            tables = IntTables(self)
            object.__setattr__(self, "_tables", tables)
        return tables

    def boundary(self, kind: str, i: int, j: int, u: str) -> str:
        return self.base.boundary(kind, i, j, u)


@dataclass(frozen=True)
class Violation:
    """One counterexample: which law, at which subscripts, on which cells."""

    law: str
    where: tuple[int, ...]
    witness: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        subs = ",".join(map(str, self.where))
        cells = ", ".join(self.witness)
        return f"{self.law}({subs}) on [{cells}]: {self.detail}"


@dataclass
class Report:
    """Violations gathered by a checker, truncated at ``cap`` entries.

    ``truncated`` is set exactly when more than ``cap`` violations exist.
    """

    violations: list[Violation] = field(default_factory=list)
    cap: int = 100
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, violation: Violation) -> bool:
        """Record a violation; when ``cap`` are already held, mark truncated, return False."""
        if len(self.violations) >= self.cap:
            self.truncated = True
            return False
        self.violations.append(violation)
        return True

    def __str__(self) -> str:
        if self.ok:
            return "clean"
        lines = [str(v) for v in self.violations]
        if self.truncated:
            lines.append("... (capped)")
        return "\n".join(lines)


def validate_omega(base: GlobularSet, comp, unit, inv=None) -> OmegaStructure:
    """Shape-check raw operation tables against their declared domains.

    Law checking is left to :func:`check_structure`; this only rejects
    structurally malformed data: undeclared cells, composition keys outside
    the composable domain, non-total unit or inverse tables.
    """
    n = base.truncation
    comp = {tuple(key): dict(table) for key, table in comp.items()}
    problems: list[str] = []

    for (i, j), table in comp.items():
        if not (0 <= j < i <= n):
            raise DimOutOfRange(f"composition table at ({i},{j}) outside 0 <= j < i <= {n}")
        for (u, v), w in table.items():
            for name in (u, v, w):
                if not base.has_cell(i, name):
                    raise MissingCell(f"comp[{i},{j}] mentions {name!r}, not a {i}-cell")
            if base.boundary(SRC, i, j, u) != base.boundary(TGT, i, j, v):
                problems.append(
                    f"comp[{i},{j}] keyed on non-composable pair ({u!r}, {v!r})"
                )
    unit = tuple(dict(m) for m in unit)
    if len(unit) != n:
        raise ValidationError(f"need {n} unit tables (dims 0..{n - 1}), got {len(unit)}")
    for i, table in enumerate(unit):
        for u in base.cells[i]:
            if u not in table:
                problems.append(f"unit[{i}] undefined on {u!r}")
        for u, w in table.items():
            if not base.has_cell(i, u):
                raise MissingCell(f"unit[{i}] keyed on {u!r}, not a {i}-cell")
            if not base.has_cell(i + 1, w):
                raise MissingCell(f"unit[{i}]({u!r}) = {w!r}, not a {i + 1}-cell")

    if inv is not None:
        inv = {tuple(key): dict(table) for key, table in inv.items()}
        for i in range(1, n + 1):
            for j in range(i):
                if (i, j) not in inv:
                    problems.append(f"inverse table at ({i},{j}) missing")
        for (i, j), table in inv.items():
            if not (0 <= j < i <= n):
                raise DimOutOfRange(f"inverse table at ({i},{j}) outside 0 <= j < i <= {n}")
            for u in base.cells[i]:
                if u not in table:
                    problems.append(f"inv[{i},{j}] undefined on {u!r}")
            for u, w in table.items():
                if not base.has_cell(i, u) or not base.has_cell(i, w):
                    raise MissingCell(f"inv[{i},{j}] mentions a non-{i}-cell on {u!r}")

    if problems:
        raise ValidationError("; ".join(problems))
    return OmegaStructure(base, comp, unit, inv)


def compose(x: OmegaStructure, i: int, j: int, u: str, v: str) -> str:
    """Table lookup of ``u *^i_j v``; requires ``s^i_j(u) = t^i_j(v)``."""
    if not 0 <= j < i <= x.truncation:
        raise DimOutOfRange(f"composition at ({i},{j}) outside 0 <= j < i <= {x.truncation}")
    left = x.base.boundary(SRC, i, j, u)
    right = x.base.boundary(TGT, i, j, v)
    if left != right:
        raise NotComposable(
            f"s^{i}_{j}({u}) = {left} but t^{i}_{j}({v}) = {right}",
            left_boundary=left,
            right_boundary=right,
        )
    try:
        return x.comp[(i, j)][(u, v)]
    except KeyError as exc:
        raise ValidationError(
            f"composition table ({i},{j}) has no entry for ({u!r}, {v!r})"
        ) from exc


def unit(x: OmegaStructure, i: int, u: str) -> str:
    """Table lookup of the unit over ``u`` in dimension ``i + 1``."""
    if i + 1 > x.truncation:
        raise DimOutOfRange(f"unit lands in dimension {i + 1} > truncation {x.truncation}")
    if not x.base.has_cell(i, u):
        raise MissingCell(f"{u!r} is not a {i}-cell")
    return x.unit[i][u]


def iter_unit(x: OmegaStructure, j: int, i: int, u: str) -> str:
    """Iterated unit from dimension ``j`` up to ``i``; identity when equal."""
    if not 0 <= j <= i <= x.truncation:
        raise DimOutOfRange(f"iterated unit {j}->{i} outside 0..{x.truncation}")
    for d in range(j, i):
        u = unit(x, d, u)
    return u


def inverse(x: OmegaStructure, i: int, j: int, u: str) -> str:
    if x.inv is None:
        raise InversesAbsent("structure carries no inverse tables")
    if not 0 <= j < i <= x.truncation:
        raise DimOutOfRange(f"inverse at ({i},{j}) outside 0 <= j < i <= {x.truncation}")
    if not x.base.has_cell(i, u):
        raise MissingCell(f"{u!r} is not a {i}-cell")
    return x.inv[(i, j)][u]


# -- integer tables -------------------------------------------------------------
#
# The sweeps run on int32 cell ids.  Every vector operation below mirrors one
# scalar evaluator above and yields -1 exactly where its input is -1, or where
# the scalar evaluator would raise or return a name that is no cell of its
# dimension.  So an instance whose two sides are both >= 0 and equal is one
# the scalar evaluators pass, and every other instance is handed back to them.

# Glued tuples evaluated per numpy pass: bounds the memory of a sweep.
_CHUNK = 1 << 13


def _gather(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table[ids]``, with -1 wherever ``ids`` is -1."""
    if not table.size:
        return np.full(ids.shape, -1, dtype=np.int32)
    return np.where(ids < 0, -1, table[ids])


class IntTables:
    """The tables of one structure over dense cell ids, built on first use.

    Cell ``k`` of dimension ``i`` is ``base.cells[i][k]``.  A table entry
    that is missing, or that names no cell of its dimension, reads as -1.
    """

    def __init__(self, x: OmegaStructure):
        self.x = x
        self.sizes = x.base.sizes()
        self._cache: dict = {}

    def _memo(self, key, build):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build()
        return value

    def _ids(self, table: dict, i: int, k: int) -> np.ndarray:
        """``table`` on the ``i``-cells, as ids of ``k``-cells."""
        index = self.x.base.index[k]
        return np.array([index.get(table.get(u), -1) for u in self.x.base.cells[i]],
                        dtype=np.int32)

    def face(self, kind: str, i: int) -> np.ndarray:
        """``src_i`` or ``tgt_i`` as an array over the ``i``-cells."""
        tables = self.x.base.src if kind == SRC else self.x.base.tgt
        return self._memo((kind, i), lambda: self._ids(tables[i], i, i - 1))

    def boundary_map(self, kind: str, i: int, j: int) -> np.ndarray:
        """The iterated boundary from dimension ``i`` down to ``j``."""
        if i == j:
            return np.arange(self.sizes[i], dtype=np.int32)
        return self._memo(
            (kind, i, j), lambda: self.boundary_map(kind, i - 1, j)[self.face(kind, i)]
        )

    def unit_map(self, i: int) -> np.ndarray:
        return self._memo(("unit", i), lambda: self._ids(self.x.unit[i], i, i + 1))

    def inverse_map(self, i: int, j: int) -> np.ndarray:
        return self._memo(("inv", i, j),
                          lambda: self._ids(self.x.inv.get((i, j), {}), i, i))

    def _comp_entries(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Table ``(i, j)`` as sorted keys ``u * n_i + v`` and the values under them."""
        index = self.x.base.index[i]
        rows = [
            (index.get(u, -1), index.get(v, -1), index.get(w, -1))
            for (u, v), w in self.x.comp.get((i, j), {}).items()
        ]
        rows = np.array(rows, dtype=np.int64).reshape(-1, 3)
        rows = rows[(rows[:, 0] >= 0) & (rows[:, 1] >= 0)]
        keys = rows[:, 0] * self.sizes[i] + rows[:, 1]
        order = np.argsort(keys)
        return keys[order], rows[order, 2].astype(np.int32)

    def entry(self, i: int, j: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The raw value of table ``(i, j)`` at each pair, composable or not."""
        keys, values = self._memo(("comp", i, j), lambda: self._comp_entries(i, j))
        if not keys.size:
            return np.full(u.shape, -1, dtype=np.int32)
        want = u.astype(np.int64) * self.sizes[i] + v
        pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        hit = (u >= 0) & (v >= 0) & (keys[pos] == want)
        return np.where(hit, values[pos], -1)

    def link(self, i: int, j: int):
        """Join of ``i``-cells ``a`` to the ``b`` with ``s^i_j(a) = t^i_j(b)``.

        Returns ``(order, lo, count)``: the matches of ``a`` are
        ``order[lo[a] : lo[a] + count[a]]``, in declaration order.
        """
        def build():
            right = self.boundary_map(TGT, i, j)
            order = np.argsort(right, kind="stable").astype(np.int32)
            ends = right[order]
            left = self.boundary_map(SRC, i, j)
            lo = np.searchsorted(ends, left, "left")
            return order, lo, np.searchsorted(ends, left, "right") - lo
        return self._memo(("link", i, j), build)

    # the vector evaluators, with the signatures of _Named's

    def compose(self, i: int, j: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        glued = (_gather(self.boundary_map(SRC, i, j), u)
                 == _gather(self.boundary_map(TGT, i, j), v))
        return np.where(glued, self.entry(i, j, u, v), -1)

    def unit(self, i: int, u: np.ndarray) -> np.ndarray:
        return _gather(self.unit_map(i), u)

    def iter_unit(self, j: int, i: int, u: np.ndarray) -> np.ndarray:
        for d in range(j, i):
            u = self.unit(d, u)
        return u

    def inverse(self, i: int, j: int, u: np.ndarray) -> np.ndarray:
        return _gather(self.inverse_map(i, j), u)

    def boundary(self, kind: str, i: int, j: int, u: np.ndarray) -> np.ndarray:
        return _gather(self.boundary_map(kind, i, j), u)


class _Named:
    """The scalar evaluators over cell names; they raise where a vector one gives -1."""

    def __init__(self, x: OmegaStructure):
        self.x = x

    def compose(self, i, j, u, v):
        return compose(self.x, i, j, u, v)

    def unit(self, i, u):
        return unit(self.x, i, u)

    def iter_unit(self, j, i, u):
        return iter_unit(self.x, j, i, u)

    def inverse(self, i, j, u):
        return inverse(self.x, i, j, u)

    def boundary(self, kind, i, j, u):
        return self.x.base.boundary(kind, i, j, u)


def _glued(first: np.ndarray, links):
    """Glued tuples of cell ids, lexicographic, in blocks of about ``_CHUNK`` rows.

    Column 0 runs over ``first``; link ``k`` (see :meth:`IntTables.link`)
    extends a row ending in ``a`` by each match of ``a``.
    """
    def extend(rows: np.ndarray, k: int):
        if k == len(links):
            yield rows
            return
        order, lo, count = links[k]
        last = rows[:, -1]
        counts = count[last]
        ends = np.cumsum(counts)
        start = 0
        while start < len(rows):
            done = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, done + _CHUNK, "right")), start + 1)
            part = counts[start:stop]
            total = int(part.sum())
            if total:
                offsets = np.arange(total) - np.repeat(np.cumsum(part) - part, part)
                matches = order[np.repeat(lo[last[start:stop]], part) + offsets]
                parents = np.repeat(rows[start:stop], part, axis=0)
                yield from extend(np.column_stack([parents, matches]), k + 1)
            start = stop

    for start in range(0, len(first), _CHUNK):
        yield from extend(first[start:start + _CHUNK, None], 0)


def composable_pairs(x: OmegaStructure, i: int, j: int):
    """All pairs ``(u, v)`` with ``s^i_j(u) = t^i_j(v)``, in declaration order."""
    if not 0 <= j <= i <= x.truncation:
        raise DimOutOfRange(f"composable pairs at ({i},{j}) outside 0 <= j <= i <= {x.truncation}")
    t = x.tables
    names = x.base.cells[i]
    for block in _glued(np.arange(t.sizes[i], dtype=np.int32), [t.link(i, j)]):
        for a, b in block.tolist():
            yield names[a], names[b]


# -- structure laws -------------------------------------------------------------


def _comp_laws(x: OmegaStructure, i: int, j: int, u: str, v: str) -> list[Violation]:
    base = x.base
    w = x.comp.get((i, j), {}).get((u, v))
    if w is None:
        return [Violation("comp_total", (i, j), (u, v), "composable pair has no table entry")]
    s_w, t_w = base.src[i][w], base.tgt[i][w]
    if j == i - 1:
        want_s, want_t = base.src[i][v], base.tgt[i][u]
    else:
        below = x.comp.get((i - 1, j), {})
        want_s = below.get((base.src[i][u], base.src[i][v]))
        want_t = below.get((base.tgt[i][u], base.tgt[i][v]))
    found = []
    if s_w != want_s:
        found.append(Violation("comp_src_law", (i, j), (u, v),
                               f"s({w}) = {s_w}, expected {want_s}"))
    if t_w != want_t:
        found.append(Violation("comp_tgt_law", (i, j), (u, v),
                               f"t({w}) = {t_w}, expected {want_t}"))
    return found


def _unit_laws(x: OmegaStructure, i: int, u: str) -> list[Violation]:
    base = x.base
    w = x.unit[i][u]
    if base.src[i + 1][w] != u or base.tgt[i + 1][w] != u:
        return [Violation(
            "unit_law", (i,), (u,),
            f"unit {w} has boundaries "
            f"({base.src[i + 1][w]}, {base.tgt[i + 1][w]}), expected ({u}, {u})",
        )]
    return []


def _inv_laws(x: OmegaStructure, i: int, j: int, u: str) -> list[Violation]:
    base = x.base
    w = x.inv[(i, j)][u]
    s_w, t_w = base.src[i][w], base.tgt[i][w]
    if j == i - 1:
        want_s, want_t = base.tgt[i][u], base.src[i][u]
    else:
        want_s = x.inv[(i - 1, j)][base.src[i][u]]
        want_t = x.inv[(i - 1, j)][base.tgt[i][u]]
    if s_w != want_s or t_w != want_t:
        return [Violation("inv_law", (i, j), (u,),
                          f"inverse {w} has boundaries ({s_w}, {t_w}), "
                          f"expected ({want_s}, {want_t})")]
    return []


def _collect(violations, cap: int) -> Report:
    """The first ``cap`` of ``violations``, reading one more to set ``truncated``."""
    report = Report(cap=cap)
    for violation in violations:
        if not report.add(violation):
            break
    return report


def _structure_violations(x: OmegaStructure):
    """Every violation of a boundary law, in sweep order.

    Instances are screened on ids; only those that may fail are judged on names.
    """
    t = x.tables
    n = x.truncation
    names = x.base.cells
    for i in range(1, n + 1):
        src, tgt = t.face(SRC, i), t.face(TGT, i)
        for j in range(i):
            for block in _glued(np.arange(t.sizes[i], dtype=np.int32), [t.link(i, j)]):
                u, v = block.T
                w = t.entry(i, j, u, v)
                if j == i - 1:
                    want_s, want_t = src[v], tgt[u]
                else:
                    want_s = t.entry(i - 1, j, src[u], src[v])
                    want_t = t.entry(i - 1, j, tgt[u], tgt[v])
                bad = (w < 0) | (_gather(src, w) != want_s) | (_gather(tgt, w) != want_t)
                for k in np.flatnonzero(bad):
                    yield from _comp_laws(x, i, j, names[i][u[k]], names[i][v[k]])

    for i in range(n):
        u = np.arange(t.sizes[i], dtype=np.int32)
        w = t.unit_map(i)
        bad = (_gather(t.face(SRC, i + 1), w) != u) | (_gather(t.face(TGT, i + 1), w) != u)
        for k in np.flatnonzero(bad):
            yield from _unit_laws(x, i, names[i][k])

    if x.inv is not None:
        for i in range(1, n + 1):
            src, tgt = t.face(SRC, i), t.face(TGT, i)
            for j in range(i):
                w = t.inverse_map(i, j)
                if j == i - 1:
                    want_s, want_t = tgt, src
                else:
                    below = t.inverse_map(i - 1, j)
                    want_s, want_t = _gather(below, src), _gather(below, tgt)
                bad = (w < 0) | (_gather(src, w) != want_s) | (_gather(tgt, w) != want_t)
                for k in np.flatnonzero(bad):
                    yield from _inv_laws(x, i, j, names[i][k])


def check_structure(x: OmegaStructure, cap: int = 100) -> Report:
    """Exhaustively verify the boundary laws of the operation tables."""
    return _collect(_structure_violations(x), cap)


# -- axioms -----------------------------------------------------------------------


def _axiom_subscripts(x: OmegaStructure, name: str):
    n = x.truncation
    if name in (ASSOC, LEFT_UNIT, RIGHT_UNIT, LEFT_INVERSE, RIGHT_INVERSE):
        return [(i, j) for i in range(1, n + 1) for j in range(i)]
    if name == UNIT_COMPAT:
        return [(i, j) for i in range(1, n) for j in range(i)]
    if name == EXCHANGE:
        return [
            (i, j, k)
            for i in range(2, n + 1)
            for j in range(1, i)
            for k in range(j)
        ]
    if name == INVERSE_COMPAT:
        return [
            (i, j, jp)
            for i in range(1, n + 1)
            for j in range(i)
            for jp in range(i)
        ]
    raise ValidationError(f"unknown axiom {name!r}; expected one of {AXIOMS}")


def _instances(t: IntTables, name: str, sub: tuple[int, ...]):
    """The instances of an axiom at fixed subscripts: blocks of ``i``-cell tuples."""
    i, j = sub[0], sub[1]
    cells = np.arange(t.sizes[i], dtype=np.int32)
    if name == ASSOC:
        return _glued(cells, [t.link(i, j), t.link(i, j)])
    if name == EXCHANGE:
        return _glued(cells, [t.link(i, j), t.link(i, sub[2]), t.link(i, j)])
    if name in (UNIT_COMPAT, INVERSE_COMPAT):
        return _glued(cells, [t.link(i, j)])
    return _glued(cells, [])


def _sides(ops, name: str, sub: tuple[int, ...], cells):
    """Both sides of an axiom instance, with the evaluators ``ops`` supplies.

    ``ops`` is :class:`_Named` on a tuple of names or :class:`IntTables` on
    columns of ids.
    """
    i, j = sub[0], sub[1]
    c = ops.compose
    if name == ASSOC:
        u, v, w = cells
        return c(i, j, c(i, j, u, v), w), c(i, j, u, c(i, j, v, w))
    if name == EXCHANGE:
        k = sub[2]
        u, up, v, vp = cells
        return (
            c(i, k, c(i, j, u, up), c(i, j, v, vp)),
            c(i, j, c(i, k, u, v), c(i, k, up, vp)),
        )
    if name == LEFT_UNIT:
        (u,) = cells
        return c(i, j, ops.iter_unit(j, i, ops.boundary(TGT, i, j, u)), u), u
    if name == RIGHT_UNIT:
        (u,) = cells
        return c(i, j, u, ops.iter_unit(j, i, ops.boundary(SRC, i, j, u))), u
    if name == UNIT_COMPAT:
        u, v = cells
        return ops.unit(i, c(i, j, u, v)), c(i + 1, j, ops.unit(i, u), ops.unit(i, v))
    if name == LEFT_INVERSE:
        (u,) = cells
        return c(i, j, ops.inverse(i, j, u), u), ops.iter_unit(j, i, ops.boundary(SRC, i, j, u))
    if name == RIGHT_INVERSE:
        (u,) = cells
        return c(i, j, u, ops.inverse(i, j, u)), ops.iter_unit(j, i, ops.boundary(TGT, i, j, u))
    if name == INVERSE_COMPAT:
        jp = sub[2]
        u, v = cells
        lhs = ops.inverse(i, jp, c(i, j, u, v))
        if j == jp:
            return lhs, c(i, j, ops.inverse(i, jp, v), ops.inverse(i, jp, u))
        return lhs, c(i, j, ops.inverse(i, jp, u), ops.inverse(i, jp, v))
    raise ValidationError(f"unknown axiom {name!r}")


def _judge(x: OmegaStructure, name: str, sub: tuple[int, ...], witness) -> Violation | None:
    """Evaluate one instance on names; its violation, or None when it holds."""
    # a NotComposable or missing entry inside an axiom instance means the
    # structure is lawless enough that the instance cannot be evaluated;
    # report it rather than crash the sweep
    try:
        lhs, rhs = _sides(_Named(x), name, sub, witness)
    except (NotComposable, ValidationError, KeyError) as exc:
        return Violation(name, sub, witness, f"not evaluable: {exc}")
    if lhs != rhs:
        return Violation(name, sub, witness, f"{lhs} != {rhs}")
    return None


def _validate_subscripts(x: OmegaStructure, name: str, sub: tuple[int, ...]) -> None:
    expected = 3 if name in (EXCHANGE, INVERSE_COMPAT) else 2
    if len(sub) != expected:
        raise ValidationError(f"axiom {name} takes {expected} subscripts")
    i = sub[0]
    top = x.truncation - 1 if name == UNIT_COMPAT else x.truncation
    if not 1 <= i <= top:
        raise DimOutOfRange(f"axiom {name} subscript i={i} outside 1..{top}")
    if name == EXCHANGE:
        if not i > sub[1] > sub[2] >= 0:
            raise DimOutOfRange(f"axiom {name} needs i > j > k >= 0, got {sub}")
    elif name == INVERSE_COMPAT:
        if not (0 <= sub[1] < i and 0 <= sub[2] < i):
            raise DimOutOfRange(f"axiom {name} needs i > j, j' >= 0, got {sub}")
    elif not 0 <= sub[1] < i:
        raise DimOutOfRange(f"axiom {name} needs i > j >= 0, got {sub}")


def _axiom_violations(x: OmegaStructure, name: str, subs):
    """Every violation of one axiom at the given subscripts, in sweep order.

    Each block of instances is evaluated on ids; only the instances it does
    not pass are evaluated again on names, which builds their violations.
    """
    t = x.tables
    for sub in subs:
        names = x.base.cells[sub[0]]
        for block in _instances(t, name, sub):
            lhs, rhs = _sides(t, name, sub, block.T)
            for k in np.flatnonzero((lhs < 0) | (rhs < 0) | (lhs != rhs)):
                violation = _judge(x, name, sub, tuple(names[a] for a in block[k]))
                if violation is not None:
                    yield violation


def axiom_report(x: OmegaStructure, name: str, subscripts=None, cap: int = 100) -> Report:
    """Counterexamples to one axiom, in declaration order, as a capped report."""
    if name not in AXIOMS:
        raise ValidationError(f"unknown axiom {name!r}; expected one of {AXIOMS}")
    if name in _INVERSE_AXIOMS and x.inv is None:
        raise InversesAbsent(f"axiom {name} needs inverse tables")
    if subscripts is not None:
        subs = [tuple(subscripts)]
        _validate_subscripts(x, name, subs[0])
    else:
        subs = _axiom_subscripts(x, name)
    return _collect(_axiom_violations(x, name, subs), cap)


def check_axiom(x: OmegaStructure, name: str, subscripts=None, cap: int = 100) -> list[Violation]:
    """All counterexamples to one axiom, at given or all meaningful subscripts."""
    return axiom_report(x, name, subscripts, cap).violations


def check_all(x: OmegaStructure, flags: AxiomFlags = FULL_FLAGS,
              cap: int = 100) -> dict[str, list[Violation]]:
    """Run associativity, exchange, and every flagged axiom.

    Returns a map from axiom name to its violation list, in axiom order.
    """
    if flags.needs_inverses() and x.inv is None:
        raise InversesAbsent("flags request inverse axioms but structure has no inverses")
    return {name: check_axiom(x, name, None, cap) for name in flags.axioms()}


def all_clean(results: dict[str, list[Violation]]) -> bool:
    return all(not v for v in results.values())


# -- serialization ------------------------------------------------------------


def omega_to_json(x: OmegaStructure) -> dict:
    data = globular_set_to_json(x.base)
    data["comp"] = {
        f"{i},{j}": {f"{u}|{v}": w for (u, v), w in sorted(table.items())}
        for (i, j), table in sorted(x.comp.items())
    }
    data["unit"] = [dict(table) for table in x.unit]
    if x.inv is not None:
        data["inv"] = {
            f"{i},{j}": dict(table) for (i, j), table in sorted(x.inv.items())
        }
    return data


def _parse_dim_pair(key: str) -> tuple[int, int]:
    try:
        i, j = key.split(",")
        return int(i), int(j)
    except ValueError as exc:
        raise ValidationError(f"bad dimension pair key {key!r}") from exc


def _check_json_shape(data) -> None:
    """Reject a field of the wrong JSON type before any table is built from it."""
    if not isinstance(data, dict):
        raise ValidationError("a structure file must hold a JSON object")
    for key, kind in (("cells", list), ("src", list), ("tgt", list), ("unit", list),
                      ("comp", dict), ("inv", dict)):
        if key not in data or (key == "inv" and data[key] is None):
            continue
        value = data[key]
        if not isinstance(value, kind):
            shape = "an array" if kind is list else "an object"
            raise ValidationError(f"'{key}' must be {shape}")
        for entry in value if kind is list else value.values():
            if key == "cells":
                ok = isinstance(entry, list)
            else:
                ok = isinstance(entry, dict) and all(isinstance(w, str) for w in entry.values())
            if not ok:
                shape = "an array" if key == "cells" else "an object of cell names"
                raise ValidationError(f"every entry of '{key}' must be {shape}")


def omega_from_json(data: dict) -> OmegaStructure:
    _check_json_shape(data)
    base = globular_set_from_json(data)
    if "comp" not in data or "unit" not in data:
        raise ValidationError("structure file needs 'comp' and 'unit' fields")
    comp = {
        _parse_dim_pair(key): {split_pair_key(pair): w for pair, w in table.items()}
        for key, table in data["comp"].items()
    }
    inv = None
    if "inv" in data and data["inv"] is not None:
        inv = {_parse_dim_pair(key): dict(table) for key, table in data["inv"].items()}
    return validate_omega(base, comp, data["unit"], inv)
