"""Finite small categories and set-valued presheaves at desk scale.

A category is held once, as an integer composition table on morphism ids:
names come in through :func:`validate_category` and go out through ``comp``
and JSON.  ``_category`` checks every law on ids in bounded blocks, and
associativity only at generators (Light's test).  Built on it: categories of
elements, products, the finite-set category ``{0..n}`` with all maps, terminal
objects (the sufficient asphericality criterion), nerve counts, separating
intervals and the product comparison functor; no weak equivalences are decided.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotNatural, ValidationError


@dataclass(frozen=True)
class SmallCategory:
    """Finite category: named objects and morphisms, composition on ids.

    Morphism ``k`` is the ``k``-th key of ``morphisms``; ``table[g, f]`` is
    the id of ``g`` after ``f``, and -1 where the pair does not compose.
    """

    objects: tuple[str, ...]
    morphisms: dict[str, tuple[str, str]]  # name -> (dom, cod)
    identity: dict[str, str]
    table: np.ndarray

    @cached_property
    def _names(self) -> np.ndarray:
        return np.array(list(self.morphisms), dtype=object)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.morphisms)}

    @cached_property
    def comp(self) -> dict[tuple[str, str], str]:
        """``(g, f) -> g after f`` by name, g-major: a read-only view of ``table``."""
        g, f = np.nonzero(self.table >= 0)
        names = self._names
        return _ReadOnly(zip(zip(names[g], names[f]), names[self.table[g, f]]))

    def __eq__(self, other):
        if not isinstance(other, SmallCategory):
            return NotImplemented
        fields = ("objects", "morphisms", "identity", "comp")
        return all(getattr(self, k) == getattr(other, k) for k in fields)

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return tuple(
            f for f, (dom, cod) in self.morphisms.items() if dom == a and cod == b
        )

    def dom(self, f: str) -> str:
        return self.morphisms[f][0]

    def cod(self, f: str) -> str:
        return self.morphisms[f][1]

    def compose(self, g: str, f: str) -> str:
        """``g`` after ``f``; ``KeyError`` where the pair does not compose."""
        h = self.table[self._index[g], self._index[f]]
        if h < 0:
            raise KeyError((g, f))
        return self._names[h]


class _ReadOnly(dict):
    def _refuse(self, *args):
        raise TypeError("SmallCategory.comp is a read-only view of its table")
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse
    __reduce__ = lambda self: (_ReadOnly, (dict(self),))  # copies and pickles made whole


_NONE = object()  # a name no category declares, for a ``comp`` key that is no pair


def _id(index: dict, name) -> int:
    try:
        return index.get(name, -1)
    except TypeError:  # not hashable, so not declared
        return -1


def _ids(index: dict, names: list) -> np.ndarray:
    """The id of each name in ``index``, or -1 where it has none."""
    try:
        return np.array([index.get(name, -1) for name in names], dtype=np.int64)
    except TypeError:
        return np.array([_id(index, name) for name in names], dtype=np.int64)


def validate_category(objects, morphisms, identity, comp) -> SmallCategory:
    """Check the names, intern ``comp`` as a table, and check the laws on it.

    Raises the failure the name-keyed loops of ``tests/oracles.py`` meet first.
    """
    objects = tuple(objects)
    morphisms = {name: (dom, cod) for name, (dom, cod) in dict(morphisms).items()}
    identity = dict(identity)
    comp = {tuple(k): v for k, v in dict(comp).items()}

    if len(set(objects)) != len(objects):
        raise ValidationError("duplicate object names")
    names = list(morphisms)
    index = {name: k for k, name in enumerate(names)}
    ends = _ids({a: k for k, a in enumerate(objects)}, [e for p in morphisms.values() for e in p])
    undeclared = (ends.reshape(-1, 2) < 0).any(axis=1)
    if undeclared.any():
        name = names[int(np.argmax(undeclared))]
        raise ValidationError(f"morphism {name!r} has undeclared endpoint")
    for a in objects:
        ident = identity.get(a)
        if ident is None or ident not in morphisms:
            raise ValidationError(f"object {a!r} has no identity morphism")
        if morphisms[ident] != (a, a):
            raise ValidationError(f"identity of {a!r} is not an endomorphism")

    # table[g, f] = g after f, or -1 where comp has no declared morphism
    pairs = [name for k in comp for name in (k if len(k) == 2 else (_NONE, _NONE))]
    key_g, key_f = _ids(index, pairs).reshape(-1, 2).T
    known = (key_g >= 0) & (key_f >= 0)
    values = _ids(index, list(comp.values()))
    table = np.full((len(names), len(names)), -1, dtype=np.int32)
    table[key_g[known], key_f[known]] = values[known]
    return _category(objects, morphisms, identity, table, comp)


_BLOCK = 1 << 15  # table entries gathered per numpy pass: bounds every law check's memory


def _rows(ids: np.ndarray, width: int):
    """``ids`` in slices of at most ``_BLOCK // width`` rows, one row at least."""
    step = max(1, _BLOCK // max(width, 1))
    return (ids[k : k + step] for k in range(0, len(ids), step))


def _ends(objects, morphisms) -> tuple[np.ndarray, np.ndarray]:
    """The ids of each morphism's domain and codomain, in morphism id order."""
    at = {a: k for k, a in enumerate(objects)}
    ends = np.array([at[e] for p in morphisms.values() for e in p], dtype=np.int64)
    return ends[0::2], ends[1::2]


def _category(objects, morphisms, identity, table, comp=None) -> SmallCategory:
    """Check every composition law of ``table``, on ids, in bounded blocks.

    The names must pass the checks of :func:`validate_category`.  ``comp``, the
    name-keyed composites ``table`` was read from, if any, names in the error
    text what the table cannot hold: a name that is no morphism.
    """
    cat = SmallCategory(objects, morphisms, identity, table)
    names, index = cat._names, cat._index
    dom, cod = _ends(objects, morphisms)
    ident = np.array([index[identity[a]] for a in objects], dtype=np.int64)
    into = [np.flatnonzero(cod == b) for b in range(len(objects))]
    out_of = [np.flatnonzero(dom == b) for b in range(len(objects))]

    # every f: _ -> b against every g: b -> _; the least failing pair f-major, as declared
    failing = []
    for firsts, lasts in zip(into, out_of):
        for f in _rows(firsts, len(lasts)):
            h = table[np.ix_(lasts, f)].T
            bad = (h < 0) | (dom[h] != dom[f, None]) | (cod[h] != cod[lasts])
            failing += [(f[i], lasts[j]) for i, j in np.argwhere(bad)[:1]]
    if failing:
        f, g = min(failing)
        gname, fname, h = names[g], names[f], table[g, f]
        if h >= 0:
            raise ValidationError(f"composite {names[h]!r} has wrong endpoints")
        value = (comp or {}).get((gname, fname))
        if value is None:
            raise ValidationError(f"no composite for {gname!r} after {fname!r}")
        raise ValidationError(f"composite {value!r} of {gname!r} after {fname!r} is undeclared")
    # each composable pair has its entry by now, so any other entry or key is stray
    ids = np.arange(len(names))
    strays = ((names[g[k]], names[f]) for g in _rows(ids, len(ids))
              for k, f in np.argwhere((table[g] >= 0) & (dom[g, None] != cod)))
    if comp is not None and len(comp) > sum(len(f) * len(g) for f, g in zip(into, out_of)):
        strays = comp  # in key order, with the keys the table cannot hold
    for g, f in strays:  # a key that is no pair raises here
        if f not in morphisms or g not in morphisms:
            raise ValidationError(f"composite declared on undeclared morphisms ({g!r}, {f!r})")
        if morphisms[f][1] != morphisms[g][0]:
            raise ValidationError(f"composite declared for non-composable {g!r}, {f!r}")

    unit = (table[ids, ident[dom]] != ids) | (table[ident[cod], ids] != ids)
    if unit.any():
        raise ValidationError(f"unit law fails at {names[int(np.argmax(unit))]!r}")

    # associativity by Light's test: the middles g with (h g) f = h (g f) for all h, f
    # contain the identities and are closed under composition, so the generators decide
    # it; the least failing middle is a generator, or smaller ones, which pass, reach it
    for g in _generators(table, ident, dom, cod):
        witness = _middle(table, g, out_of[cod[g]], into[dom[g]])
        if witness:
            raise ValidationError(f"associativity fails at {tuple(names[list(witness)])}")
    return cat


def _generators(table, ident, dom, cod) -> list[int]:
    """Greedy in id order: each id not reached from the identities by the earlier ones."""
    reached, gens = np.zeros(len(table), dtype=bool), []
    reached[ident] = True
    for x in range(len(table)):
        if not reached[x]:
            gens.append(x)
            left, right = [x], np.flatnonzero(reached & (cod == dom[x]))
            while len(right):  # x after all reached, then all taken after each made
                before = reached.copy()
                for g in _rows(np.array(left), len(right)):
                    made = table[np.ix_(g, right)]
                    reached[made[made >= 0]] = True
                right, left = np.flatnonzero(reached & ~before), gens
    return gens


def _middle(table, g, lasts, firsts):
    """The first ``(h, g, f)``, h-major, with ``(h g) f != h (g f)``, or None."""
    for h in _rows(lasts, len(firsts)):
        bad = table[np.ix_(table[h, g], firsts)] != table[np.ix_(h, table[g, firsts])]
        for i, j in np.argwhere(bad)[:1]:
            return h[i], g, firsts[j]
    return None


@dataclass(frozen=True)
class Presheaf:
    """Contravariant set-valued functor on a finite category."""

    base: SmallCategory
    values: dict[str, tuple[str, ...]]  # object -> elements
    action: dict[str, dict[str, str]]  # morphism f: a -> b gives F(b) -> F(a)

    def value(self, a: str) -> tuple[str, ...]:
        return self.values[a]

    def apply(self, f: str, element: str) -> str:
        return self.action[f][element]


def validate_presheaf(base: SmallCategory, values, action) -> Presheaf:
    """Check the names, intern the action on element ids, and check functoriality
    on them, g-major in bounded blocks; raises the failure met first by name."""
    values = {a: tuple(v) for a, v in dict(values).items()}
    action = {f: dict(m) for f, m in dict(action).items()}
    place = {}
    for a in base.objects:
        if a not in values:
            raise ValidationError(f"no value set for object {a!r}")
        place[a] = {e: k for k, e in enumerate(values[a])}
        if len(place[a]) != len(values[a]):
            raise ValidationError(f"duplicate elements at {a!r}")
    # acts[m][k]: the place in F(dom m) of m acting on the k-th element of F(cod m)
    acts = []
    for f, (dom, cod) in base.morphisms.items():
        table = action.get(f)
        if table is None:
            raise ValidationError(f"no action for morphism {f!r}")
        acts.append(_ids(place[dom], [table.get(e) for e in values[cod]]))
        if (acts[-1] < 0).any():
            raise ValidationError(f"action of {f!r} not total into values({dom!r})")
    for a in base.objects:
        act = acts[base._index[base.identity[a]]]
        for k in np.flatnonzero(act != np.arange(len(act)))[:1]:
            raise ValidationError(f"identity action fails at {a!r}:{values[a][k]!r}")

    # the actions of the morphisms into each object b, stacked: one row each, |F(b)| long
    dom, cod = _ends(base.objects, base.morphisms)
    into = [np.flatnonzero(cod == b) for b in range(len(base.objects))]
    rank, stacks = np.zeros(len(acts), dtype=np.int64), []
    for b, a in enumerate(base.objects):
        rank[into[b]] = np.arange(len(into[b]))
        stack = np.array([acts[m] for m in into[b]], dtype=np.int64)
        stacks.append(stack.reshape(len(into[b]), len(values[a])))
    # F(g after f) = F(f) after F(g): g-major, on blocks of the f that g can follow
    names = base._names
    for g, act in enumerate(acts):
        for f in _rows(into[dom[g]], len(act)):
            bad = stacks[cod[g]][rank[base.table[g, f]]] != stacks[dom[g]][rank[f]][:, act]
            for i, k in np.argwhere(bad)[:1]:
                e = values[base.objects[cod[g]]][k]
                raise ValidationError(f"functoriality fails at ({names[g]!r}, {names[f[i]]!r}) on {e!r}")
    return Presheaf(base, values, action)


def terminal_presheaf(base: SmallCategory) -> Presheaf:
    values = {a: ("*",) for a in base.objects}
    action = {f: {"*": "*"} for f in base.morphisms}
    return Presheaf(base, values, action)


def representable(base: SmallCategory, at: str) -> Presheaf:
    """``Hom(-, at)`` with the precomposition action."""
    if at not in base.objects:
        raise ValidationError(f"{at!r} is not an object")
    values = {a: base.hom(a, at) for a in base.objects}
    action = {
        f: {h: base.compose(h, f) for h in values[base.morphisms[f][1]]}
        for f in base.morphisms
    }
    return Presheaf(base, values, action)


def product_presheaf(f: Presheaf, g: Presheaf) -> Presheaf:
    if f.base is not g.base and f.base != g.base:
        raise ValidationError("presheaf product needs a shared base")
    values = {
        a: tuple(f"({x},{y})" for x in f.values[a] for y in g.values[a])
        for a in f.base.objects
    }
    action = {}
    for m, (dom, cod) in f.base.morphisms.items():
        action[m] = {
            f"({x},{y})": f"({f.action[m][x]},{g.action[m][y]})"
            for x in f.values[cod]
            for y in g.values[cod]
        }
    return Presheaf(f.base, values, action)


def category_of_elements(f: Presheaf) -> SmallCategory:
    """Objects ``(a, x in F(a))``; morphisms ``m[x]``, for ``m: a -> b`` and ``x in F(b)``.

    ``m[x]`` has the id of ``m``'s first element morphism plus the place of
    ``x`` in ``F(b)``, and ``m[x]`` after ``n[F(m)(x)]`` is ``(m n)[x]``.
    """
    base = f.base
    objects = tuple(f"({a},{x})" for a in base.objects for x in f.values[a])
    place = {a: {x: k for k, x in enumerate(f.values[a])} for a in base.objects}
    morphisms = {}
    identity = {}
    first, rows = [], []  # a row per m[x]: m's id, x's place, F(m)(x)'s place
    for m, (dom, cod) in base.morphisms.items():
        first.append(len(morphisms))
        for k, x in enumerate(f.values[cod]):
            pulled = f.action[m][x]
            name = f"{m}[{x}]"
            morphisms[name] = (f"({dom},{pulled})", f"({cod},{x})")
            rows.append((len(first) - 1, k, place[dom][pulled]))
    for a in base.objects:
        for x in f.values[a]:
            identity[f"({a},{x})"] = f"{base.identity[a]}[{x}]"
    over, x_at, pulled_at = np.array(rows, dtype=np.int64).reshape(-1, 3).T
    first = np.array(first, dtype=np.int64)
    g, m = np.nonzero(base.table[over] >= 0)  # row g is n[x]; m runs over what n can follow
    table = np.full((len(morphisms), len(morphisms)), -1, dtype=np.int32)
    table[g, first[m] + pulled_at[g]] = first[base.table[over[g], m]] + x_at[g]
    return _category(objects, morphisms, identity, table)


def has_terminal(cat: SmallCategory):
    """The terminal object, or None: exactly one morphism in from everywhere."""
    for candidate in cat.objects:
        if all(len(cat.hom(a, candidate)) == 1 for a in cat.objects):
            return candidate
    return None


@dataclass(frozen=True)
class NerveCounts:
    total: tuple[int, ...]
    nondegenerate: tuple[int, ...]


def nerve(cat: SmallCategory, depth: int) -> NerveCounts:
    """Counts of composable chains up to the given length.

    ``total[d]`` counts all chains of ``d`` morphisms (identities allowed);
    ``nondegenerate[d]`` those containing no identity.
    """
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    identities = set(cat.identity.values())
    out_by_object: dict[str, list[str]] = {a: [] for a in cat.objects}
    for m, (dom, _cod) in cat.morphisms.items():
        out_by_object[dom].append(m)

    total = [len(cat.objects)]
    nondeg = [len(cat.objects)]
    # chains as (endpoint object, contains_identity), extended one morphism at a time
    frontier: dict[tuple[str, bool], int] = {(a, False): 1 for a in cat.objects}
    for _ in range(depth):
        nxt: dict[tuple[str, bool], int] = {}
        for (end, has_id), count in frontier.items():
            for m in out_by_object[end]:
                key = (cat.cod(m), has_id or m in identities)
                nxt[key] = nxt.get(key, 0) + count
        frontier = nxt
        total.append(sum(frontier.values()))
        nondeg.append(sum(c for (_, has_id), c in frontier.items() if not has_id))
    return NerveCounts(tuple(total), tuple(nondeg))


def check_separating_interval(interval: Presheaf, point0, point1) -> bool:
    """True iff the two global points differ at every object.

    Points are per-object element choices; naturality is validated first.
    """
    for label, point in (("first", point0), ("second", point1)):
        for a in interval.base.objects:
            if point.get(a) not in interval.values[a]:
                raise NotNatural(f"{label} point undefined or out of range at {a!r}")
        for f, (dom, cod) in interval.base.morphisms.items():
            if interval.action[f][point[cod]] != point[dom]:
                raise NotNatural(f"{label} point not natural along {f!r}")
    return all(point0[a] != point1[a] for a in interval.base.objects)


def product_category(c: SmallCategory, d: SmallCategory) -> SmallCategory:
    """``(m1,m2)`` has id ``m1 * len(d.morphisms) + m2``; its table pairs the factors'."""
    objects = tuple(f"({a},{b})" for a in c.objects for b in d.objects)
    morphisms = {}
    for m1, (dom1, cod1) in c.morphisms.items():
        for m2, (dom2, cod2) in d.morphisms.items():
            morphisms[f"({m1},{m2})"] = (f"({dom1},{dom2})", f"({cod1},{cod2})")
    identity = {
        f"({a},{b})": f"({c.identity[a]},{d.identity[b]})"
        for a in c.objects
        for b in d.objects
    }
    left, right = c.table[:, None, :, None], d.table[None, :, None, :]
    table = np.where((left >= 0) & (right >= 0), left * len(d.morphisms) + right, -1)
    n = len(morphisms)
    return _category(objects, morphisms, identity, table.reshape(n, n))


@dataclass(frozen=True)
class FunctorData:
    source: SmallCategory
    target: SmallCategory
    object_map: dict[str, str]
    morphism_map: dict[str, str]


def validate_functor(data: FunctorData) -> FunctorData:
    src, tgt = data.source, data.target
    for a in src.objects:
        if data.object_map.get(a) not in tgt.objects:
            raise ValidationError(f"object map undefined or out of range at {a!r}")
    for m, (dom, cod) in src.morphisms.items():
        image = data.morphism_map.get(m)
        if image not in tgt.morphisms:
            raise ValidationError(f"morphism map undefined at {m!r}")
        if tgt.morphisms[image] != (data.object_map[dom], data.object_map[cod]):
            raise ValidationError(f"morphism map breaks endpoints at {m!r}")
    for a in src.objects:
        if data.morphism_map[src.identity[a]] != tgt.identity[data.object_map[a]]:
            raise ValidationError(f"identity not preserved at {a!r}")
    names = src._names
    for g, f in np.argwhere(src.table >= 0):
        lhs = data.morphism_map[names[src.table[g, f]]]
        rhs = tgt.compose(data.morphism_map[names[g]], data.morphism_map[names[f]])
        if lhs != rhs:
            raise ValidationError(f"composition not preserved at ({names[g]!r}, {names[f]!r})")
    return data


def product_comparison(f: Presheaf, g: Presheaf) -> FunctorData:
    """The comparison from elements of ``F x G`` to elements of F times elements of G.

    Validated as a functor; no homotopical claim is made about it.
    """
    fg = product_presheaf(f, g)
    source = category_of_elements(fg)
    target = product_category(category_of_elements(f), category_of_elements(g))
    object_map = {}
    for a in f.base.objects:
        for x in f.values[a]:
            for y in g.values[a]:
                object_map[f"({a},({x},{y}))"] = f"(({a},{x}),({a},{y}))"
    morphism_map = {}
    for m, (dom, cod) in f.base.morphisms.items():
        for x in f.values[cod]:
            for y in g.values[cod]:
                morphism_map[f"{m}[({x},{y})]"] = f"({m}[{x}],{m}[{y}])"
    return validate_functor(FunctorData(source, target, object_map, morphism_map))


def map_table(m: int, n: int) -> np.ndarray:
    """Every map ``{0..m} -> {0..n}`` as a row of its values, in lexicographic order.

    Row ``r`` holds the base-``(n + 1)`` digits of ``r``, most significant
    first, so the rank of a row is its base-``(n + 1)`` value.
    """
    grid = np.indices((n + 1,) * (m + 1), dtype=np.int8)
    return np.ascontiguousarray(grid.reshape(m + 1, -1).T)


def _rank(rows: np.ndarray, n: int) -> np.ndarray:
    """The rank in ``map_table(_, n)`` of each row along the last axis."""
    weights = (n + 1) ** np.arange(rows.shape[-1] - 1, -1, -1, dtype=np.int64)
    return rows.astype(np.int64) @ weights


def delta_truncated(m: int) -> SmallCategory:
    """Objects ``[0] .. [m]``, morphisms all maps between the finite sets.

    The map ``a>b:<values>`` has id ``offset[a, b]`` plus its rank in
    ``map_table(a, b)``; the composites of each triple of objects are ranked
    back from one gather, straight into the table.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    sizes = range(m + 1)
    objects = tuple(f"[{n}]" for n in sizes)
    tables = {(a, b): map_table(a, b) for a in sizes for b in sizes}
    offset, morphisms = {}, {}
    for (a, b), rows in tables.items():
        offset[a, b] = len(morphisms)
        for row in rows.tolist():
            morphisms[f"{a}>{b}:" + "".join(map(str, row))] = (objects[a], objects[b])
    identity = {objects[a]: f"{a}>{a}:" + "".join(map(str, range(a + 1))) for a in sizes}

    table = np.full((len(morphisms), len(morphisms)), -1, dtype=np.int32)
    for a, b, c in itertools.product(sizes, repeat=3):
        # every g: [b] -> [c] after every f: [a] -> [b]
        after, first = tables[b, c], tables[a, b]
        rows = offset[b, c] + np.arange(len(after))
        columns = offset[a, b] + np.arange(len(first))
        table[np.ix_(rows, columns)] = offset[a, c] + _rank(after[:, first], c)
    return _category(objects, morphisms, identity, table)


# serialization ------------------------------------------------------------------


def category_to_json(cat: SmallCategory) -> dict:
    return {
        "objects": list(cat.objects),
        "morphisms": {m: list(ends) for m, ends in cat.morphisms.items()},
        "identity": dict(cat.identity),
        "comp": {f"{g}|{f}": h for (g, f), h in cat.comp.items()},
    }


def _comp_key(key: str) -> tuple[str, str]:
    """A serialized ``"g|f"`` composition key as the pair ``(g, f)``."""
    g, sep, f = key.partition("|")
    if not sep:
        raise ValidationError(f"composition key {key!r} has no '|'")
    return g, f


def category_from_json(data: dict) -> SmallCategory:
    try:
        if not isinstance(data["comp"], dict):
            raise ValidationError("'comp' must be an object")
        comp = {_comp_key(key): v for key, v in data["comp"].items()}
        return validate_category(
            data["objects"], data["morphisms"], data["identity"], comp
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed category data: {exc}") from exc


def presheaf_to_json(f: Presheaf) -> dict:
    return {
        "category": category_to_json(f.base),
        "values": {a: list(v) for a, v in f.values.items()},
        "action": {m: dict(t) for m, t in f.action.items()},
    }


def presheaf_from_json(data: dict) -> Presheaf:
    try:
        base = category_from_json(data["category"])
        return validate_presheaf(base, data["values"], data["action"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed presheaf data: {exc}") from exc
