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
(:class:`IntTables`): instances are enumerated by the joiner of ``globular``
as blocks of id columns, and both sides of each law are evaluated a column
at a time, by list gathers and dict lookups.  Only the instances that do not
pass go through the scalar evaluators, which build the violations, so
witnesses keep declaration order and their text is that of the scalar code.
Nothing here needs numpy, so neither does ``check``.
"""

from __future__ import annotations

from itertools import count, repeat

from .errors import (
    DimOutOfRange,
    InversesAbsent,
    MissingCell,
    NotComposable,
    Record,
    ValidationError,
)
from .globular import (
    SRC,
    TGT,
    GlobularSet,
    _gather,
    _glued,
    _link,
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


class AxiomFlags(Record):
    """Selection of optional axioms; associativity and exchange always run.

    ``optional`` holds the selected axioms in the order of ``_FLAG_TOKENS``.
    """

    _fields = ("optional",)

    def __init__(self, optional: tuple[str, ...] = ()):
        self.__dict__["optional"] = optional

    @classmethod
    def parse(cls, text: str) -> "AxiomFlags":
        tokens = [token.strip() for token in text.split(",")]
        for token in tokens:
            if token and token not in _FLAG_TOKENS:
                raise ValidationError(
                    f"unknown axiom flag {token!r}; expected l, r, f, li, ri"
                )
        return cls(tuple(axiom for token, axiom in _FLAG_TOKENS.items() if token in tokens))

    def axioms(self) -> tuple[str, ...]:
        return (ASSOC, EXCHANGE) + self.optional

    def needs_inverses(self) -> bool:
        return any(axiom in _INVERSE_AXIOMS for axiom in self.optional)

    def __str__(self) -> str:
        return ",".join(tok for tok, axiom in _FLAG_TOKENS.items() if axiom in self.optional)


FULL_FLAGS = AxiomFlags(tuple(_FLAG_TOKENS.values()))
CATEGORICAL_FLAGS = AxiomFlags((LEFT_UNIT, RIGHT_UNIT, UNIT_COMPAT))


class OmegaStructure(Record):
    _fields = ("base", "comp", "unit", "inv")

    def __init__(self, base: GlobularSet, comp: dict[tuple[int, int], dict[tuple[str, str], str]],
                 unit: tuple[dict[str, str], ...], inv: dict[tuple[int, int], dict[str, str]] | None = None):
        self.__dict__.update(base=base, comp=comp, unit=unit, inv=inv)

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


class Violation(Record):
    """One counterexample: which law, at which subscripts, on which cells."""

    _fields = ("law", "where", "witness", "detail")

    def __init__(self, law: str, where: tuple[int, ...], witness: tuple[str, ...], detail: str):
        self.__dict__.update(law=law, where=where, witness=witness, detail=detail)

    def __str__(self) -> str:
        subs = ",".join(map(str, self.where))
        cells = ", ".join(self.witness)
        return f"{self.law}({subs}) on [{cells}]: {self.detail}"


class Report(Record):
    """Violations gathered by a checker, truncated at ``cap`` entries.

    ``truncated`` is set exactly when more than ``cap`` violations exist.
    Unlike other records a report is filled in place, so it has no hash.
    """

    _fields = ("violations", "cap", "truncated")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, violations: list[Violation] | None = None, cap: int = 100, truncated: bool = False):
        self.violations = [] if violations is None else violations
        self.cap = cap
        self.truncated = truncated

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
    index = base.index
    comp = {tuple(key): dict(table) for key, table in comp.items()}
    problems: list[str] = []

    for (i, j), table in comp.items():
        if not (0 <= j < i <= n):
            raise DimOutOfRange(f"composition table at ({i},{j}) outside 0 <= j < i <= {n}")
        here = index[i]
        s, t = base.boundary_map(SRC, i, j), base.boundary_map(TGT, i, j)
        for (u, v), w in table.items():
            if u not in here or v not in here or w not in here:
                name = next(name for name in (u, v, w) if name not in here)
                raise MissingCell(f"comp[{i},{j}] mentions {name!r}, not a {i}-cell")
            if s[u] != t[v]:
                problems.append(
                    f"comp[{i},{j}] keyed on non-composable pair ({u!r}, {v!r})"
                )
    unit = tuple(dict(m) for m in unit)
    if len(unit) != n:
        raise ValidationError(f"need {n} unit tables (dims 0..{n - 1}), got {len(unit)}")
    for i, table in enumerate(unit):
        here, above = index[i], index[i + 1]
        for u in base.cells[i]:
            if u not in table:
                problems.append(f"unit[{i}] undefined on {u!r}")
        for u, w in table.items():
            if u not in here:
                raise MissingCell(f"unit[{i}] keyed on {u!r}, not a {i}-cell")
            if w not in above:
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
            here = index[i]
            for u in base.cells[i]:
                if u not in table:
                    problems.append(f"inv[{i},{j}] undefined on {u!r}")
            for u, w in table.items():
                if u not in here or w not in here:
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
    try:
        return x.unit[i][u]
    except KeyError as exc:
        raise ValidationError(f"unit table ({i}) has no entry for {u!r}") from exc


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
    try:
        return x.inv[(i, j)][u]
    except KeyError as exc:
        raise ValidationError(f"inverse table ({i},{j}) has no entry for {u!r}") from exc


# -- integer tables -------------------------------------------------------------
#
# The sweeps run on columns of cell ids.  Every column operation below mirrors
# one scalar evaluator above and yields -1 exactly where its input is -1, or
# where the scalar evaluator would raise or return a name that is no cell of
# its dimension.  So an instance whose two sides are both >= 0 and equal is one
# the scalar evaluators pass, and every other instance is handed back to them.


class IntTables:
    """The tables of one structure over dense cell ids, built on first use.

    Cell ``k`` of dimension ``i`` is ``base.cells[i][k]``.  The maps are id
    maps (see :func:`globular._gather`), so a -1 id gathers -1.  A table
    entry that is missing, or that names no cell of its dimension, reads as
    -1.  The evaluators map columns (lists of ids) to lists.
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

    def _ids(self, table: dict, i: int, k: int) -> list[int]:
        """``table`` on the ``i``-cells, as an id map into the ``k``-cells."""
        index = self.x.base.index[k]
        return [index.get(table.get(u), -1) for u in self.x.base.cells[i]] + [-1]

    def face(self, kind: str, i: int) -> list[int]:
        """``src_i`` or ``tgt_i`` as an id map over the ``i``-cells."""
        return self.x.base.boundary_ids(kind, i, i - 1)

    def unit_map(self, i: int) -> list[int]:
        return self._memo(("unit", i), lambda: self._ids(self.x.unit[i], i, i + 1))

    def inverse_map(self, i: int, j: int) -> list[int]:
        return self._memo(("inv", i, j),
                          lambda: self._ids(self.x.inv.get((i, j), {}), i, i))

    def _comp_entries(self, i: int, j: int) -> dict:
        """Table ``(i, j)`` keyed by pairs of ``i``-cell ids; keys that are no cells are dropped."""
        index = self.x.base.index[i]
        entries = {}
        for (u, v), w in self.x.comp.get((i, j), {}).items():
            key = index.get(u, -1), index.get(v, -1)
            if -1 not in key:
                entries[key] = index.get(w, -1)
        return entries

    def _composites(self, i: int, j: int) -> dict:
        """The entries of table ``(i, j)`` on glued pairs, the only ones :meth:`compose` reads."""
        entries = self._memo(("comp", i, j), lambda: self._comp_entries(i, j))
        s = self.x.base.boundary_ids(SRC, i, j)
        t = self.x.base.boundary_ids(TGT, i, j)
        glued = {key: w for key, w in entries.items() if s[key[0]] == t[key[1]]}
        return entries if len(glued) == len(entries) else glued

    def entry(self, i: int, j: int, u, v) -> list[int]:
        """The raw value of table ``(i, j)`` at each pair, composable or not."""
        entries = self._memo(("comp", i, j), lambda: self._comp_entries(i, j))
        return list(map(entries.get, zip(u, v), repeat(-1)))

    def link(self, i: int, j: int) -> list:
        """Join of ``i``-cells ``a`` to the ``b`` with ``s^i_j(a) = t^i_j(b)``, for :func:`_glued`."""
        return self._memo(("link", i, j), lambda: _link(self.x.base.boundary_ids(SRC, i, j),
                                                         self.x.base.boundary_ids(TGT, i, j)))

    # the column evaluators, with the signatures of _Named's

    def compose(self, i: int, j: int, u, v) -> list[int]:
        glued = self._memo(("glued", i, j), lambda: self._composites(i, j))
        return list(map(glued.get, zip(u, v), repeat(-1)))

    def unit(self, i: int, u) -> list[int]:
        return _gather(self.unit_map(i), u)

    def iter_unit(self, j: int, i: int, u) -> list[int]:
        for d in range(j, i):
            u = self.unit(d, u)
        return u

    def inverse(self, i: int, j: int, u) -> list[int]:
        return _gather(self.inverse_map(i, j), u)

    def boundary(self, kind: str, i: int, j: int, u) -> list[int]:
        return _gather(self.x.base.boundary_ids(kind, i, j), u)


class _Named:
    """The scalar evaluators over cell names; they raise where a column one gives -1."""

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


def composable_pairs(x: OmegaStructure, i: int, j: int):
    """All pairs ``(u, v)`` with ``s^i_j(u) = t^i_j(v)``, in declaration order."""
    if not 0 <= j <= i <= x.truncation:
        raise DimOutOfRange(f"composable pairs at ({i},{j}) outside 0 <= j <= i <= {x.truncation}")
    t = x.tables
    names = x.base.cells[i]
    for u, v in _glued(range(t.sizes[i]), [t.link(i, j)]):
        for a, b in zip(u, v):
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


def _failing(lhs: list[int], rhs: list[int]) -> list[int]:
    """Positions where the two sides differ, or both are -1: the instances an id sweep does not pass."""
    if lhs == rhs and -1 not in lhs:  # the common case, decided without a Python loop
        return []
    return [k for k, a, b in zip(count(), lhs, rhs) if a != b or a < 0]


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

    def broken(w, want_s, want_t, i):
        """Positions where the ``i``-cell ``w`` is -1 or has boundaries other than the wanted ones."""
        src, tgt = t.boundary(SRC, i, i - 1, w), t.boundary(TGT, i, i - 1, w)
        return [k for k, c, s, s0, g, g0 in zip(count(), w, src, want_s, tgt, want_t)
                if c < 0 or s != s0 or g != g0]

    for i in range(1, n + 1):
        for j in range(i):
            for u, v in _glued(range(t.sizes[i]), [t.link(i, j)]):
                w = t.entry(i, j, u, v)
                if j == i - 1:
                    want_s, want_t = t.boundary(SRC, i, j, v), t.boundary(TGT, i, j, u)
                else:
                    want_s = t.entry(i - 1, j, t.boundary(SRC, i, i - 1, u),
                                     t.boundary(SRC, i, i - 1, v))
                    want_t = t.entry(i - 1, j, t.boundary(TGT, i, i - 1, u),
                                     t.boundary(TGT, i, i - 1, v))
                for k in broken(w, want_s, want_t, i):
                    yield from _comp_laws(x, i, j, names[i][u[k]], names[i][v[k]])

    for i in range(n):
        u = range(t.sizes[i])
        for k in broken(t.unit(i, u), u, u, i + 1):
            yield from _unit_laws(x, i, names[i][k])

    if x.inv is not None:
        for i in range(1, n + 1):
            u = range(t.sizes[i])
            src, tgt = t.boundary(SRC, i, i - 1, u), t.boundary(TGT, i, i - 1, u)
            for j in range(i):
                if j == i - 1:
                    want_s, want_t = tgt, src
                else:
                    want_s, want_t = t.inverse(i - 1, j, src), t.inverse(i - 1, j, tgt)
                for k in broken(t.inverse(i, j, u), want_s, want_t, i):
                    yield from _inv_laws(x, i, j, names[i][k])


def check_structure(x: OmegaStructure, cap: int = 100) -> Report:
    """Exhaustively verify the boundary laws of the operation tables."""
    return _collect(_structure_violations(x), cap)


# -- axioms -----------------------------------------------------------------------


def _axiom_subscripts(x: OmegaStructure, name: str):
    """Every subscript tuple of axiom ``name``, in sweep order; the only ones it accepts."""
    n = x.truncation
    if name == EXCHANGE:
        return [
            (i, j, k)
            for i in range(2, n + 1)
            for j in range(1, i)
            for k in range(j)
        ]
    top = n - 1 if name == UNIT_COMPAT else n
    pairs = [(i, j) for i in range(1, top + 1) for j in range(i)]
    if name == INVERSE_COMPAT:
        return [(i, j, jp) for i, j in pairs for jp in range(i)]
    return pairs


def _instances(t: IntTables, name: str, sub: tuple[int, ...]):
    """The instances of an axiom at fixed subscripts: blocks of ``i``-cell tuples."""
    i, j = sub[0], sub[1]
    cells = range(t.sizes[i])
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
    if sub not in _axiom_subscripts(x, name):
        raise DimOutOfRange(
            f"axiom {name} has no subscripts {sub} at truncation {x.truncation}"
        )


def _axiom_violations(x: OmegaStructure, name: str, subs):
    """Every violation of one axiom at the given subscripts, in sweep order.

    Each block of instances is evaluated on ids; only the instances it does
    not pass are evaluated again on names, which builds their violations.
    """
    t = x.tables
    for sub in subs:
        names = x.base.cells[sub[0]]
        for block in _instances(t, name, sub):
            for k in _failing(*_sides(t, name, sub, block)):
                violation = _judge(x, name, sub, tuple(names[column[k]] for column in block))
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
