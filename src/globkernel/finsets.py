"""The category with objects ``{0..n}`` and all maps between them, and its shift.

A map is the tuple of its values, :func:`_maps` enumerates the maps
``{0..m} -> {0..n}`` in lexicographic order, and maps compose by reading,
through :func:`_reader`; ``testcat.delta_truncated`` builds its category from
these.  The shift endofunctor ``D`` appends a fresh top element, with the
inclusion as natural transformation, the constant-top point, and the clamping
retraction ``k -> min(k, n)``.  ``check_shift_decalage`` verifies all of
this; functoriality is decided at a generating set, and swept pair by pair
only where that fails.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .errors import NotComposable, Record, ValidationError
from .report import CheckResult, verdict


class SimplexMap(Record):
    """Total map ``{0..dom} -> {0..cod}``, not necessarily order-preserving."""

    _fields = ("dom", "cod", "table")

    def __init__(self, dom: int, cod: int, table):
        table = tuple(table)
        self.__dict__.update(dom=dom, cod=cod, table=table)
        if any(type(v) is not int for v in (dom, cod, *table)) or min(dom, cod) < 0:  # bool too
            raise ValidationError(f"sizes {dom!r}, {cod!r} and values {table!r} must be natural ints")
        if len(table) != dom + 1:
            raise ValidationError(
                f"map on {{0..{dom}}} needs {dom + 1} values, got {len(table)}"
            )
        if any(not 0 <= v <= cod for v in table):
            raise ValidationError(f"values {table} outside 0..{cod}")

    def __call__(self, k: int) -> int:
        return self.table[k]

    def __str__(self) -> str:
        vals = ",".join(f"{k}>{v}" for k, v in enumerate(self.table))
        return f"[{self.dom}]->[{self.cod}]({vals})"


def identity_map(n: int) -> SimplexMap:
    return SimplexMap(n, n, tuple(range(n + 1)))


def _reader(f: tuple[int, ...]):
    """Composition with ``f`` by reading: ``_reader(f)(g)`` is ``g`` after ``f``, each a
    map given by its values, as a tuple.  For any sequence ``g`` and indices ``f``
    it is the items of ``g`` at ``f``; at no index, ``()``."""
    if len(f) > 1:
        return itemgetter(*f)
    return lambda g: tuple(g[k] for k in f)  # itemgetter gives one item bare


def compose_maps(g: SimplexMap, f: SimplexMap) -> SimplexMap:
    """``g`` after ``f``."""
    if f.cod != g.dom:
        raise NotComposable(f"cannot compose {g} after {f}")
    return SimplexMap(f.dom, g.cod, _reader(f.table)(g.table))


def _shift(row: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The shift of a map into ``{0..n}``: keep its values, send the new top to the new top."""
    return row + (n + 1,)


def shift_map(phi: SimplexMap) -> SimplexMap:
    """The shift endofunctor on maps."""
    return SimplexMap(phi.dom + 1, phi.cod + 1, _shift(phi.table, phi.cod))


def top_inclusion(n: int) -> SimplexMap:
    """Component of the natural transformation into the shift: ``k -> k``."""
    return SimplexMap(n, n + 1, tuple(range(n + 1)))


def base_point(n: int) -> SimplexMap:
    """Constant point at the freshly added top element: ``0 -> n + 1``."""
    return SimplexMap(0, n + 1, (n + 1,))


def clamp_retraction(n: int) -> SimplexMap:
    """Retraction of the inclusion: ``k -> min(k, n)``."""
    return SimplexMap(n + 1, n, tuple(min(k, n) for k in range(n + 2)))


def standard_generators() -> dict[str, SimplexMap]:
    """The structure maps on {0,1} and their images under the shift.

    ``comp`` is dual to binary composition, ``unit`` to the unit, ``inv`` to
    the inverse; the ``*_shift`` entries are their shifts, written out so the
    tables can be compared against an independent computation.
    """
    return {
        "comp": SimplexMap(1, 2, (0, 2)),
        "unit": SimplexMap(1, 0, (0, 0)),
        "inv": SimplexMap(1, 1, (1, 0)),
        "comp_shift": SimplexMap(2, 3, (0, 2, 3)),
        "unit_shift": SimplexMap(2, 1, (0, 0, 1)),
        "inv_shift": SimplexMap(2, 2, (1, 0, 2)),
    }


def _maps(m: int, n: int):
    """Every map ``{0..m} -> {0..n}`` as a tuple of its values, in lexicographic order."""
    return itertools.product(range(n + 1), repeat=m + 1)


def _generators(max_n: int) -> dict[int, list[tuple[int, ...]]]:
    """G by codomain, for ``k <= max_n``: the adjacent transpositions of ``{0..k}``, the map
    ``{0..k} -> {0..k-1}`` sending ``k`` to ``k - 1`` and the inclusion ``{0..k} -> {0..k+1}``."""
    gens = {k: [] for k in range(max_n + 1)}
    for k in gens:
        ident = tuple(range(k + 1))
        gens[k] += [ident[:i] + (i + 1, i) + ident[i + 2:] for i in range(k)]
        if k:
            gens[k - 1].append(ident[:-1] + (k - 1,))
        if k < max_n:
            gens[k + 1].append(ident)
    return gens


def _functor_at_generators(max_n: int) -> int | None:
    """The pairs compared in deciding at G that the shift is a functor on maps
    between the ``{0..k}``, ``k <= max_n``, or None when that fails: ``D(id) = id``,
    the closure of the identities under right composition with G reaches every
    map, and ``D(psi g) = D(psi) D(g)`` for each ``psi`` reached and ``g`` into its
    domain, so ``D(psi phi' g) = D(psi phi') D(g) = D(psi) D(phi' g)`` by induction
    on word length (Mac Lane, *Categories for the Working Mathematician*, §§II.7-8).
    """
    into = {cod: [(_reader(g), _reader(_shift(g, cod))) for g in gs]
            for cod, gs in _generators(max_n).items()}
    pairs = 0
    for p in range(max_n + 1):
        ident = tuple(range(p + 1))
        shifted = {ident: _shift(ident, p)}
        if shifted[ident] != ident + (p + 1,):
            return None
        reached = [ident]
        for psi in reached:
            d_psi = shifted[psi]
            for read_g, read_d_g in into[len(psi) - 1]:
                composite = read_g(psi)
                if composite not in shifted:
                    shifted[composite] = _shift(composite, p)
                    reached.append(composite)
                if shifted[composite] != read_d_g(d_psi):
                    return None
                pairs += 1
        if len(reached) != sum((p + 1) ** (m + 1) for m in range(max_n + 1)):
            return None
    return pairs


def _composition_sweep(max_n: int, cap: int) -> list[str]:
    """The first ``cap`` pairs, by ``(m, n, p)``, ``psi``, ``phi``, where ``shift(psi after phi)``
    is not ``shift(psi) after shift(phi)``; swept only when :func:`_functor_at_generators` fails."""
    failures: list[str] = []
    if _functor_at_generators(max_n) is not None:
        return failures
    for m, n in itertools.product(range(max_n + 1), repeat=2):
        phis = [(phi, _reader(phi), _reader(_shift(phi, n))) for phi in _maps(m, n)]
        for p in range(max_n + 1):
            for psi in _maps(n, p):
                d_psi = _shift(psi, p)
                for phi, read_phi, read_d_phi in phis:
                    if _shift(read_phi(psi), p) != read_d_phi(d_psi):
                        failures.append(f"phi={phi}:[{m}]->[{n}] psi={psi}:[{n}]->[{p}]")
                        if len(failures) >= cap:
                            return failures
    return failures


def check_shift_decalage(max_n: int, cap: int = 100) -> list[CheckResult]:
    """Functoriality of the shift plus the inclusion/point/retraction identities."""
    if max_n < 1:
        raise ValidationError("max_n must be >= 1")
    if max_n > 5:
        # the composition sweep covers ((n+1)^(m+1))^2 pairs per size triple
        raise ValidationError("max_n above 5 is combinatorially out of reach")
    sizes = range(max_n + 1)
    id_failures = [f"n={n}" for n in sizes if shift_map(identity_map(n)) != identity_map(n + 1)]
    incl_failures, point_failures = [], []
    after_incl = [_reader(top_inclusion(m).table) for m in sizes]
    after_point = [_reader(base_point(m).table) for m in sizes]
    for m, n in itertools.product(sizes, repeat=2):
        incl_n, point_n = top_inclusion(n).table, base_point(n).table
        for phi in _maps(m, n):
            shifted = _shift(phi, n)
            if after_incl[m](shifted) != _reader(phi)(incl_n):
                incl_failures.append(str(SimplexMap(m, n, phi)))
            if after_point[m](shifted) != point_n:
                point_failures.append(str(SimplexMap(m, n, phi)))
    retr_failures = [f"n={n}" for n in sizes
                     if compose_maps(clamp_retraction(n), top_inclusion(n)) != identity_map(n)]
    return [
        verdict("shift-identity", f"n<={max_n}", id_failures),
        verdict("shift-composition", f"m,n,p<={max_n}", _composition_sweep(max_n, cap)),
        verdict("shift-inclusion-square", f"m,n<={max_n}", incl_failures),
        verdict("shift-point-square", f"m,n<={max_n}", point_failures),
        verdict("shift-retraction", f"n<={max_n}", retr_failures),
    ]
