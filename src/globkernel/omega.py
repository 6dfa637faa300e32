"""Operation tables over a globular set and exhaustive law checkers.

An :class:`OmegaStructure` carries, on top of a globular set truncated at N:

* partial compositions ``comp[(i, j)]`` defined exactly on pairs ``(u, v)``
  with matching iterated boundaries ``s^i_j(u) = t^i_j(v)``,
* total unit maps ``unit[i] : X_i -> X_{i+1}`` for ``0 <= i < N``,
* optional total inverse maps ``inv[(i, j)] : X_i -> X_i``.

``check_structure`` sweeps the boundary laws every such structure must
satisfy, ``check_axiom`` one coherence axiom (associativity, exchange, units,
unit functoriality, inverses), and ``check_all`` every flagged axiom.  Each
sweep gives one ``report.Report`` from ``report.collect``: the
counterexamples up to a configurable cap, whether the cap cut them, and the
instances screened.  Violations are data, never exceptions.

Each law, boundary law or axiom, is written once as a function of an
evaluator, and one sweep runs them all on the tables over interned integer
cell ids (:class:`IntTables`): instances come from the joiner of ``globular``
as blocks of id columns, and each law is evaluated a column at a time, by
list gathers and dict lookups.  Only the instances that do not pass are
evaluated again on names, which builds the violations, so witnesses keep
declaration order and their text is that of the scalar code.
"""

from __future__ import annotations

from itertools import chain, count, islice, repeat

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
    _stack,
    globular_set_from_json,
    globular_set_to_json,
    split_pair_key,
)
from .light import _arrows, _generators, _middle
from .report import Report, collect

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

# the boundary laws check_structure sweeps; _COMP gives comp_total, comp_src_law, comp_tgt_law
_COMP, _UNIT, _INV = "comp", "unit_law", "inv_law"
_BOUNDARY_LAWS = (_COMP, _UNIT, _INV)


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


class Violation(Record):
    """One counterexample: which law, at which subscripts, on which cells."""

    _fields = ("law", "where", "witness", "detail")

    def __init__(self, law: str, where: tuple[int, ...], witness: tuple[str, ...], detail: str):
        self.__dict__.update(law=law, where=where, witness=witness, detail=detail)

    def __str__(self) -> str:
        subs = ",".join(map(str, self.where))
        cells = ", ".join(self.witness)
        return f"{self.law}({subs}) on [{cells}]: {self.detail}"


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
        s, t = base.boundary_ids(SRC, i, j), base.boundary_ids(TGT, i, j)
        for (u, v), w in table.items():
            if u not in here or v not in here or w not in here:
                name = next(name for name in (u, v, w) if name not in here)
                raise MissingCell(f"comp[{i},{j}] mentions {name!r}, not a {i}-cell")
            if s[here[u]] != t[here[v]]:
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
# one name evaluator (``_Named``, ``_Raw``) and yields -1 exactly where its
# input is -1, or where the name evaluator would raise, find no entry or return
# a name that is no cell of its dimension.  So an instance whose two sides are
# both >= 0 and equal is one the name evaluators pass, and every other instance
# is handed back to them.


class IntTables:
    """The tables of one structure over dense cell ids, built on first use.

    Cell ``k`` of dimension ``i`` is ``base.cells[i][k]``.  The maps are id
    maps (see :func:`globular._gather`), so a -1 id gathers -1.  A table
    entry that is missing, or that names no cell of its dimension, reads as
    -1; so does a composition key that is no pair of cells or does not glue,
    since each table is interned once, into the one dict :meth:`compose` reads.
    The evaluators map columns (lists of ids) to lists.
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

    def unit_map(self, i: int) -> list[int]:
        return self._memo(("unit", i), lambda: self._ids(self.x.unit[i], i, i + 1))

    def inverse_map(self, i: int, j: int) -> list[int]:
        return self._memo(("inv", i, j),
                          lambda: self._ids(self.x.inv.get((i, j), {}), i, i))

    def _composites(self, i: int, j: int) -> dict:
        """Table ``(i, j)`` keyed by pairs of ``i``-cell ids, interned once: a key stays
        exactly when both its names are cells and the pair glues, ``s^i_j(a) = t^i_j(b)``."""
        index = self.x.base.index[i]
        s, t = self.x.base.boundary_ids(SRC, i, j), self.x.base.boundary_ids(TGT, i, j)
        composites = {}
        for (u, v), w in self.x.comp.get((i, j), {}).items():
            a, b = index.get(u, -1), index.get(v, -1)
            if a >= 0 and b >= 0 and s[a] == t[b]:
                composites[a, b] = index.get(w, -1)
        return composites

    def category(self, i: int, j: int):
        """The ``i``-cells under ``*_j`` as a category, decided at generators: see :func:`_category`."""
        return self._memo(("category", i, j), lambda: (_category(self, i, j),))[0]

    def link(self, i: int, j: int) -> list:
        """Join of ``i``-cells ``a`` to the ``b`` with ``s^i_j(a) = t^i_j(b)``, for :func:`_glued`."""
        return self._memo(("link", i, j), lambda: _link(self.x.base.boundary_ids(SRC, i, j),
                                                         self.x.base.boundary_ids(TGT, i, j)))

    # the column evaluators, with the signatures of _Named's and _Raw's

    def compose(self, i: int, j: int, u, v) -> list[int]:
        composites = self._memo(("comp", i, j), lambda: self._composites(i, j))
        return list(map(composites.get, zip(u, v), repeat(-1)))

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


class _Raw(_Named):
    """Plain reads of the tables by name for the boundary laws: ``.get`` for a composite (None
    where missing), indexing for a unit or an inverse (KeyError where not total); boundaries as ``_Named``."""

    def compose(self, i, j, u, v):
        return self.x.comp.get((i, j), {}).get((u, v))

    def unit(self, i, u):
        return self.x.unit[i][u]

    def inverse(self, i, j, u):
        return self.x.inv[(i, j)][u]


def composable_pairs(x: OmegaStructure, i: int, j: int):
    """All pairs ``(u, v)`` with ``s^i_j(u) = t^i_j(v)``, in declaration order."""
    if not 0 <= j <= i <= x.truncation:
        raise DimOutOfRange(f"composable pairs at ({i},{j}) outside 0 <= j <= i <= {x.truncation}")
    t = x.tables
    names = x.base.cells[i]
    for u, v in _glued(range(t.sizes[i]), [t.link(i, j)]):
        for a, b in zip(u, v):
            yield names[a], names[b]


def _failing(lhs: list[list[int]], rhs: list[list[int]]) -> list[int]:
    """Rows where a column of ``lhs`` differs from ``rhs`` or holds -1: the instances not passed."""
    rows = set()
    for a, b in zip(lhs, rhs):
        if a != b or -1 in a:  # the common case is decided without a Python loop
            rows.update(k for k, x, y in zip(count(), a, b) if x != y or x < 0)
    return sorted(rows)


# -- the sweep ------------------------------------------------------------------
#
# One loop runs every law, boundary law or axiom: its subscripts, its instances
# at each, its formula on id columns to screen them, and a judge on names.


def _axiom_subscripts(x: OmegaStructure, name: str):
    """Every subscript tuple of law ``name``, in sweep order; the only ones it accepts."""
    n = x.truncation
    if name == _UNIT:
        return [(i,) for i in range(n)]
    if name == EXCHANGE:
        return [(i, j, k) for i in range(2, n + 1) for j in range(1, i) for k in range(j)]
    top = n - 1 if name == UNIT_COMPAT else n
    pairs = [(i, j) for i in range(1, top + 1) for j in range(i)]
    if name == INVERSE_COMPAT:
        return [(i, j, jp) for i, j in pairs for jp in range(i)]
    return pairs


def _instances(t: IntTables, name: str, sub: tuple[int, ...]):
    """The instances of a law at fixed subscripts: blocks of ``i``-cell tuples."""
    i = sub[0]
    cells = range(t.sizes[i])
    if name == ASSOC:
        return _glued(cells, [t.link(i, sub[1]), t.link(i, sub[1])])
    if name == EXCHANGE:
        return _glued(cells, [t.link(i, sub[1]), t.link(i, sub[2]), t.link(i, sub[1])])
    if name in (UNIT_COMPAT, INVERSE_COMPAT, _COMP):
        return _glued(cells, [t.link(i, sub[1])])
    return _glued(cells, [])


def _boundary_law(ops, name: str, sub: tuple[int, ...], cells):
    """One instance of a boundary law: the table value ``w`` it is about, the
    dimension of ``w``, and the source and target the law wants ``w`` to have.

    ``ops`` is :class:`_Raw` on a tuple of names or :class:`IntTables` on columns of ids.
    """
    i = sub[0]
    if name == _UNIT:
        (u,) = cells
        return ops.unit(i, u), i + 1, u, u
    j = sub[1]

    def face(kind, u):
        return ops.boundary(kind, i, i - 1, u)

    if name == _COMP:
        u, v = cells
        w = ops.compose(i, j, u, v)
        if j == i - 1:
            return w, i, face(SRC, v), face(TGT, u)
        # on a globular base the faces of a pair glued at (i, j) glue at (i - 1, j),
        # so IntTables.compose, which drops pairs that do not glue, reads as _Raw does
        return (w, i, ops.compose(i - 1, j, face(SRC, u), face(SRC, v)),
                ops.compose(i - 1, j, face(TGT, u), face(TGT, v)))
    (u,) = cells
    w = ops.inverse(i, j, u)
    if j == i - 1:
        return w, i, face(TGT, u), face(SRC, u)
    return w, i, ops.inverse(i - 1, j, face(SRC, u)), ops.inverse(i - 1, j, face(TGT, u))


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
        return c(i, k, c(i, j, u, up), c(i, j, v, vp)), c(i, j, c(i, k, u, v), c(i, k, up, vp))
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


def _screen(t: IntTables, name: str, sub: tuple[int, ...], block):
    """Both sides of every instance of ``block``, on ids, as lists of columns for :func:`_failing`."""
    if name in _BOUNDARY_LAWS:
        w, d, want_s, want_t = _boundary_law(t, name, sub, block)
        return [t.boundary(SRC, d, d - 1, w), t.boundary(TGT, d, d - 1, w)], [want_s, want_t]
    lhs, rhs = _sides(t, name, sub, block)
    return [lhs], [rhs]


def _judge(x: OmegaStructure, name: str, sub: tuple[int, ...], witness) -> list[Violation]:
    """Evaluate one instance on names: its violations, none when it holds."""
    if name in _BOUNDARY_LAWS:
        w, d, want_s, want_t = _boundary_law(_Raw(x), name, sub, witness)
        if name == _COMP and w is None:
            return [Violation("comp_total", sub, witness, "composable pair has no table entry")]
        s_w, t_w = x.base.src[d][w], x.base.tgt[d][w]
        if name == _COMP:
            return [Violation(law, sub, witness, f"{kind}({w}) = {got}, expected {want}")
                    for law, kind, got, want in (("comp_src_law", "s", s_w, want_s),
                                                 ("comp_tgt_law", "t", t_w, want_t))
                    if got != want]
        what = "unit" if name == _UNIT else "inverse"
        detail = f"{what} {w} has boundaries ({s_w}, {t_w}), expected ({want_s}, {want_t})"
        return [] if (s_w, t_w) == (want_s, want_t) else [Violation(name, sub, witness, detail)]
    # a NotComposable or missing entry inside an axiom instance means the
    # structure is lawless enough that the instance cannot be evaluated;
    # report it rather than crash the sweep
    try:
        lhs, rhs = _sides(_Named(x), name, sub, witness)
    except (NotComposable, ValidationError, KeyError) as exc:
        return [Violation(name, sub, witness, f"not evaluable: {exc}")]
    return [Violation(name, sub, witness, f"{lhs} != {rhs}")] if lhs != rhs else []


def _judge_rows(x: OmegaStructure, name: str, sub: tuple[int, ...], block, rows):
    """The violations of the instances of ``block`` at ``rows``, judged on names as read."""
    names = x.base.cells[sub[0]]
    for k in rows:
        yield from _judge(x, name, sub, tuple(names[column[k]] for column in block))


# -- associativity and exchange at generators -------------------------------------
#
# At each subscript, associativity and exchange are first decided from generators
# on ids.  Where a precondition or a generator fails, the subscript is swept in
# full as above, which alone names witnesses.


def _category(t: IntTables, i: int, j: int):
    """The ``i``-cells under ``*_j`` as a category on ids (see ``light``), with the
    instances compared in deciding that it is associative, or None where that fails.

    Objects are the ``j``-cells; ``f`` runs from ``s^i_j(f)`` to ``t^i_j(f)``; the
    identity of ``a`` is its iterated unit ``1_a``; ``rows`` are read from the glued
    composites.  Preconditions, on ids: each composable pair has a composite from the
    source of the right one to the target of the left one, which on a globular base
    the ``comp`` boundary laws at each ``(i', j)``, ``j < i' <= i``, give; each ``1_a``
    runs from ``a`` to ``a``; and both unit laws, ``1_{t f} f = f = f 1_{s f}``.

    Then associativity holds if ``(h g) f = h (g f)`` for each generator ``g`` of
    ``light._generators``, each ``h`` after ``g`` and each ``f`` before it (Light's
    test).  Proof: call ``g`` a middle when that holds for all such ``h`` and ``f``.
    An identity is a middle, by the unit laws: ``(h 1) f = h f = h (1 f)``.  If ``g``
    and ``g'`` are middles, so is ``g g'``: ``(h (g g')) f = ((h g) g') f =
    (h g) (g' f) = h (g (g' f)) = h ((g g') f)``, using that ``g`` is a middle with
    ``g'`` for ``f``, then ``g'``, then ``g``, then ``g'`` with ``g`` for ``h``.
    Every ``f`` is a word ``g_n (... (g_1 1))`` in the generators, so every ``f`` is
    a middle.  The count is the ``2 n`` unit-law instances screened on the ``n``
    ``i``-cells and the ``(h, g, f)`` triples compared.
    """
    base, n, size = t.x.base, t.sizes[i], t.sizes[j]
    s, tg = base.boundary_ids(SRC, i, j), base.boundary_ids(TGT, i, j)
    objects, cells = list(range(size)), [list(range(n))]
    ident = t.iter_unit(j, i, objects)
    if _gather(s, ident) != objects or _gather(tg, ident) != objects:
        return None
    if any(lhs != rhs for lhs, rhs in (_sides(t, law, (i, j), cells) for law in (LEFT_UNIT, RIGHT_UNIT))):
        return None
    dom, cod = s[:-1], tg[:-1]
    gens = []
    if n > size:  # else every cell is an identity, 1_a 1_a = 1_a, and there is nothing to generate
        link = t.link(i, j)  # link[g]: the cells into dom g, in id order
        left, right = _stack(_glued(range(n), [link]), 2)
        composites = t.compose(i, j, left, right)
        if _gather(s, composites) != _gather(s, right) or _gather(tg, composites) != _gather(tg, left):
            return None
        into = [link[e] for e in ident]
        position = dict(zip(chain.from_iterable(into), chain.from_iterable(map(range, map(len, into)))))
        place = list(map(position.__getitem__, range(n)))
        entries = iter(composites)
        rows = [tuple(islice(entries, len(before))) for before in link]
        out_of = _arrows(dom, size)[0]
        gens = _generators(rows, ident, dom, cod, place)
        if any(_middle(rows, g, place, out_of[cod[g]]) for g in gens):
            return None
    count = 2 * n + sum(len(out_of[cod[g]]) * len(into[dom[g]]) for g in gens)
    return count, (dom, cod, ident)


class _PairRows(dict):
    """Rows of the category ``P`` of :func:`_exchange_at_generators`, each built when
    first read, from the composites of its two components: only those of generators are.

    A composite that is no morphism of ``P`` raises ``KeyError``.  None is, on any base,
    once ``C``'s composites and ``P``'s ends pass their screens: for ``g`` after ``h``,
    ``s^i_k(g_1 h_1) = s^i_k h_1 = t^i_k h_2`` and ``t^i_k(g_2 h_2) = t^i_k g_2 = s^i_k g_1
    = s^j_k t^i_j h_1 = t^i_k h_2``, the last as ``cod h`` is glued.
    """

    def __init__(self, t: IntTables, i: int, j: int, pairs, into, dom, index):
        super().__init__()
        self.t, self.i, self.j, self.pairs, self.into, self.dom, self.index = t, i, j, pairs, into, dom, index

    def __missing__(self, g):
        before = self.into[self.dom[g]]
        sides = [self.t.compose(self.i, self.j, repeat(column[g]), _gather(column, before))
                 for column in self.pairs]
        row = self[g] = tuple(map(self.index.get, zip(*sides), repeat(-1)))
        if -1 in row:
            raise KeyError(g)  # not reached past the screens: see the docstring
        return row


def _exchange_at_generators(t: IntTables, i: int, j: int, k: int):
    """The instances compared in deciding exchange at ``(i, j, k)`` at generators, or
    None where that fails.

    Let ``C`` be the category of :func:`_category` at ``(i, j)``, which must be one,
    and associative.  Let ``P`` be the category of ``k``-glued pairs ``p = (p_1, p_2)``
    of ``i``-cells, from ``(s^i_j p_1, s^i_j p_2)`` to ``(t^i_j p_1, t^i_j p_2)``,
    composed componentwise in ``C``, with identities ``1_o = (1_{a_1}, 1_{a_2})`` at
    each object ``o = (a_1, a_2)``, a ``k``-glued pair of ``j``-cells.  On a globular
    base a ``j``-glued pair of cells has equal ``k``-boundaries and ``C`` keeps them in
    its composites, so ``P``'s composites and identities are ``k``-glued again, and
    ``P`` is an associative category with units, componentwise.  Let
    ``F(p) = p_1 *_k p_2``.  For composable ``g`` and ``h`` of ``P``, the instance
    ``(g_1, h_1, g_2, h_2)`` of exchange says ``F(g h) = F(g) F(h)``: its two sides
    are ``(g_1 *_j h_1) *_k (g_2 *_j h_2)`` and ``(g_1 *_k g_2) *_j (h_1 *_k h_2)``;
    and every instance is one such pair.

    Preconditions, on ids: ``F(1_o)`` is an identity ``1_{c_o}`` of ``C``, at each
    object ``o``; and ``t^i_j F(g) = c_{cod g}`` for each generator ``g`` of ``P``
    (``light._generators``, on rows built only for generators).  Then exchange holds
    if ``F(g h) = F(g) F(h)`` for each generator ``g`` and each ``h`` into ``dom g``.

    Proof, by induction on words, peeled off on the left, where the closure
    composes: every ``p`` is ``1_o`` or ``g p'`` with ``g`` a generator and ``p'`` a
    shorter word.  First, ``t^i_j F(p) = c_{cod p}``: for ``1_o`` it is the
    precondition, and ``F(g p') = F(g) F(p')`` has the target of ``F(g)``, which is
    ``c_{cod g}``.  Then ``F(p q) = F(p) F(q)`` for every ``q`` into ``dom p``:
    ``F(1_o q) = F(q) = 1_{c_o} F(q)`` by the left unit law of ``C``, since ``F(q)``
    ends at ``c_o``; and ``F(g p' q) = F(g) F(p' q) = F(g) F(p') F(q) =
    F(g p') F(q)``, by the generator ``g`` with ``p' q``, the induction on ``p'``,
    associativity in ``C`` and the generator ``g`` with ``p'`` (Mac Lane,
    *Categories for the Working Mathematician*, §§II.7-8; ``finsets`` decides the
    shift the same way).  The count is the objects of ``P`` whose identity was
    screened and the pairs ``(g, h)`` compared; ``P``'s full table is never built.
    """
    category = t.category(i, j)
    if category is None:
        return None
    dom, cod, ident = category[1]
    pairs = _stack(_glued(range(t.sizes[i]), [t.link(i, k)]), 2)
    objects = _stack(_glued(range(t.sizes[j]), [t.link(j, k)]), 2)
    at, index = dict(zip(zip(*objects), count())), dict(zip(zip(*pairs), count()))
    units = [_gather(ident, column) for column in objects]
    pident = list(map(index.get, zip(*units), repeat(-1)))
    f_units = t.compose(i, k, *units)
    if -1 in pident or -1 in f_units or _gather(ident, _gather(cod, f_units)) != f_units:
        return None
    if len(pident) == len(index):  # every pair is an identity: no generator, nothing to compare
        return len(pident)
    pdom, pcod = [list(map(at.get, zip(*(_gather(side, column) for column in pairs)), repeat(-1)))
                  for side in (dom, cod)]
    if -1 in pdom or -1 in pcod:
        return None
    into, place = _arrows(pcod, len(pident))
    try:
        gens = _generators(_PairRows(t, i, j, pairs, into, pdom, index), pident, pdom, pcod, place)
    except KeyError:  # not reached: see _PairRows
        return None
    f_gens = t.compose(i, k, *(_gather(column, gens) for column in pairs))
    if -1 in f_gens or _gather(cod, f_gens) != [cod[f_units[pcod[g]]] for g in gens]:
        return None
    left = [g for g in gens for _ in into[pdom[g]]]
    right = [h for g in gens for h in into[pdom[g]]]
    (u, v), (up, vp) = ([_gather(column, side) for column in pairs] for side in (left, right))
    lhs, rhs = _sides(t, EXCHANGE, (i, j, k), (u, up, v, vp))
    return len(pident) + len(right) if lhs == rhs and -1 not in lhs else None


def _at_generators(t: IntTables, name: str, sub: tuple[int, ...]):
    """The instances compared in deciding axiom ``name`` at ``sub`` at generators, or
    None where that fails or ``name`` is neither associativity nor exchange."""
    if name == ASSOC:
        category = t.category(*sub)
        return None if category is None else category[0]
    if name == EXCHANGE:
        return _exchange_at_generators(t, *sub)
    return None


def _violations(x: OmegaStructure, name: str, subs):
    """Per block of instances of one law at the given subscripts, in sweep order,
    its size and its violations.  Each block is screened on ids; only the instances
    it does not pass are judged again on names, which builds their violations."""
    t = x.tables
    for sub in subs:
        decided = _at_generators(t, name, sub)
        if decided is not None:
            yield decided, ()
            continue
        for block in _instances(t, name, sub):
            yield len(block[0]), _judge_rows(x, name, sub, block, _failing(*_screen(t, name, sub, block)))


def check_structure(x: OmegaStructure, cap: int = 100) -> Report:
    """Exhaustively verify the boundary laws of the operation tables."""
    laws = _BOUNDARY_LAWS if x.inv is not None else _BOUNDARY_LAWS[:2]
    return collect(chain.from_iterable(_violations(x, law, _axiom_subscripts(x, law))
                                        for law in laws), cap)


def _validate_subscripts(x: OmegaStructure, name: str, sub: tuple[int, ...]) -> None:
    expected = 3 if name in (EXCHANGE, INVERSE_COMPAT) else 2
    if len(sub) != expected:
        raise ValidationError(f"axiom {name} takes {expected} subscripts")
    if sub not in _axiom_subscripts(x, name):
        raise DimOutOfRange(f"axiom {name} has no subscripts {sub} at truncation {x.truncation}")


def check_axiom(x: OmegaStructure, name: str, subscripts=None, cap: int = 100) -> Report:
    """Counterexamples to one axiom, at given or all meaningful subscripts, in
    declaration order, as a capped report with its instance count."""
    if name not in AXIOMS:
        raise ValidationError(f"unknown axiom {name!r}; expected one of {AXIOMS}")
    if name in _INVERSE_AXIOMS and x.inv is None:
        raise InversesAbsent(f"axiom {name} needs inverse tables")
    if subscripts is not None:
        subs = [tuple(subscripts)]
        _validate_subscripts(x, name, subs[0])
    else:
        subs = _axiom_subscripts(x, name)
    return collect(_violations(x, name, subs), cap)


def check_all(x: OmegaStructure, flags: AxiomFlags = FULL_FLAGS,
              cap: int = 100) -> dict[str, Report]:
    """Run associativity, exchange, and every flagged axiom.

    Returns a map from axiom name to its report, in axiom order.
    """
    if flags.needs_inverses() and x.inv is None:
        raise InversesAbsent("flags request inverse axioms but structure has no inverses")
    return {name: check_axiom(x, name, None, cap) for name in flags.axioms()}


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
