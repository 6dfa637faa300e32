"""Finite small categories and set-valued presheaves at desk scale.

Supports the handful of constructions the checkers need: categories of
elements, terminal-object detection (the sufficient asphericality criterion),
nerve chain counts, separating intervals, the binary-product comparison
functor, and the finite stand-in for the category of sets ``{0..n}`` with
all maps.  No weak equivalences are decided here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import NotNatural, ValidationError


@dataclass(frozen=True)
class SmallCategory:
    """Finite category: named objects and morphisms, total composition."""

    objects: tuple[str, ...]
    morphisms: dict[str, tuple[str, str]]  # name -> (dom, cod)
    identity: dict[str, str]
    comp: dict[tuple[str, str], str]  # (g, f) -> g after f

    def hom(self, a: str, b: str) -> tuple[str, ...]:
        return tuple(
            f for f, (dom, cod) in self.morphisms.items() if dom == a and cod == b
        )

    def dom(self, f: str) -> str:
        return self.morphisms[f][0]

    def cod(self, f: str) -> str:
        return self.morphisms[f][1]

    def compose(self, g: str, f: str) -> str:
        """``g`` after ``f``."""
        return self.comp[(g, f)]


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
    """Validate every category law on interned ids, as masks over integer tables.

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
    dom, cod = ends[0::2], ends[1::2]
    for a in objects:
        ident = identity.get(a)
        if ident is None or ident not in morphisms:
            raise ValidationError(f"object {a!r} has no identity morphism")
        if morphisms[ident] != (a, a):
            raise ValidationError(f"identity of {a!r} is not an endomorphism")
    ident = _ids(index, [identity[a] for a in objects])

    # table[g, f] = g after f, or -1 where comp has no declared morphism
    keys = list(comp)
    pairs = [name for k in keys for name in (k if len(k) == 2 else (_NONE, _NONE))]
    key_g, key_f = _ids(index, pairs).reshape(-1, 2).T
    known = (key_g >= 0) & (key_f >= 0)
    values = _ids(index, list(comp.values()))
    table = np.full((len(names), len(names)), -1, dtype=np.int32)
    table[key_g[known], key_f[known]] = values[known]

    f, g = np.nonzero(cod[:, None] == dom[None, :])  # f first, then g, as declared
    h = table[g, f]
    bad = (h < 0) | (dom[h] != dom[f]) | (cod[h] != cod[g])
    if bad.any():
        k = int(np.argmax(bad))
        gname, fname = names[g[k]], names[f[k]]
        value = comp.get((gname, fname))
        if value is None:
            raise ValidationError(f"no composite for {gname!r} after {fname!r}")
        if h[k] < 0:
            raise ValidationError(f"composite {value!r} of {gname!r} after {fname!r} is undeclared")
        raise ValidationError(f"composite {value!r} has wrong endpoints")
    stray = ~known
    stray[known] = cod[key_f[known]] != dom[key_g[known]]
    if stray.any():
        g, f = keys[int(np.argmax(stray))]  # a key that is no pair raises here
        if f not in morphisms or g not in morphisms:
            raise ValidationError(f"composite declared on undeclared morphisms ({g!r}, {f!r})")
        raise ValidationError(f"composite declared for non-composable {g!r}, {f!r}")

    ids = np.arange(len(names))
    unit = (table[ids, ident[dom]] != ids) | (table[ident[cod], ids] != ids)
    if unit.any():
        raise ValidationError(f"unit law fails at {names[int(np.argmax(unit))]!r}")

    # associativity, exhaustively over all composable triples; vectorized
    # per middle morphism because hom-sets grow fast for all-maps categories
    into = [np.flatnonzero(cod == a) for a in range(len(objects))]
    out_of = [np.flatnonzero(dom == a) for a in range(len(objects))]
    for g in ids:
        firsts, lasts = into[dom[g]], out_of[cod[g]]  # f: _ -> dom g, h: cod g -> _
        # whole rows first, then columns: much faster than one 2-d gather
        lhs = table[table[lasts, g]][:, firsts]  # (h g) f
        rhs = table[lasts][:, table[g, firsts]]  # h (g f)
        if not np.array_equal(lhs, rhs):
            hi, fi = map(int, np.argwhere(lhs != rhs)[0])
            raise ValidationError(
                f"associativity fails at ({names[lasts[hi]]!r}, "
                f"{names[g]!r}, {names[firsts[fi]]!r})"
            )

    return SmallCategory(objects, morphisms, identity, comp)


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
    values = {a: tuple(v) for a, v in dict(values).items()}
    action = {f: dict(m) for f, m in dict(action).items()}
    for a in base.objects:
        if a not in values:
            raise ValidationError(f"no value set for object {a!r}")
        if len(set(values[a])) != len(values[a]):
            raise ValidationError(f"duplicate elements at {a!r}")
    for f, (dom, cod) in base.morphisms.items():
        table = action.get(f)
        if table is None:
            raise ValidationError(f"no action for morphism {f!r}")
        for e in values[cod]:
            if table.get(e) not in values[dom]:
                raise ValidationError(f"action of {f!r} not total into values({dom!r})")
    for a in base.objects:
        ident = base.identity[a]
        for e in values[a]:
            if action[ident][e] != e:
                raise ValidationError(f"identity action fails at {a!r}:{e!r}")
    for g, f in itertools.product(base.morphisms, repeat=2):
        if base.morphisms[f][1] == base.morphisms[g][0]:
            h = base.comp[(g, f)]
            for e in values[base.morphisms[g][1]]:
                if action[h][e] != action[f][action[g][e]]:
                    raise ValidationError(
                        f"functoriality fails at ({g!r}, {f!r}) on {e!r}"
                    )
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
        f: {h: base.comp[(h, f)] for h in values[base.morphisms[f][1]]}
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
    """Objects ``(a, x in F(a))``; morphisms those of the base acting correctly."""
    base = f.base
    objects = tuple(f"({a},{x})" for a in base.objects for x in f.values[a])
    morphisms = {}
    identity = {}
    for m, (dom, cod) in base.morphisms.items():
        for x in f.values[cod]:
            pulled = f.action[m][x]
            name = f"{m}[{x}]"
            morphisms[name] = (f"({dom},{pulled})", f"({cod},{x})")
    for a in base.objects:
        for x in f.values[a]:
            identity[f"({a},{x})"] = f"{base.identity[a]}[{x}]"
    comp = {}
    for m2, (dom2, cod2) in base.morphisms.items():
        for x in f.values[cod2]:
            g_name = f"{m2}[{x}]"
            mid = f.action[m2][x]
            for m1, (dom1, cod1) in base.morphisms.items():
                if cod1 != dom2:
                    continue
                f_name = f"{m1}[{mid}]"
                comp[(g_name, f_name)] = f"{base.comp[(m2, m1)]}[{x}]"
    return validate_category(objects, morphisms, identity, comp)


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
    comp = {}
    for (g1, f1), h1 in c.comp.items():
        for (g2, f2), h2 in d.comp.items():
            comp[(f"({g1},{g2})", f"({f1},{f2})")] = f"({h1},{h2})"
    return validate_category(objects, morphisms, identity, comp)


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
    for (g, f), h in src.comp.items():
        lhs = data.morphism_map[h]
        rhs = tgt.comp[(data.morphism_map[g], data.morphism_map[f])]
        if lhs != rhs:
            raise ValidationError(f"composition not preserved at ({g!r}, {f!r})")
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
    ``map_table(a, b)``; composites are ranked back from one gather per
    triple of objects, and names are made once, for output.
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
    names = np.array(list(morphisms), dtype=object)
    identity = {objects[a]: names[offset[a, a] + _rank(np.arange(a + 1), a)] for a in sizes}

    gs, fs, hs = [], [], []
    for (b, c), after in tables.items():
        # every g: [b] -> [c], each followed by every f: [a] -> [b], a ascending
        firsts = np.concatenate([offset[a, b] + np.arange(len(tables[a, b])) for a in sizes])
        gs.append(np.repeat(offset[b, c] + np.arange(len(after)), len(firsts)))
        fs.append(np.tile(firsts, len(after)))
        composites = [offset[a, c] + _rank(after[:, tables[a, b]], c) for a in sizes]
        hs.append(np.concatenate(composites, axis=1).ravel())
    g, f, h = (names[np.concatenate(ids)] for ids in (gs, fs, hs))
    comp = dict(zip(zip(g, f), h))
    return validate_category(objects, morphisms, identity, comp)


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
