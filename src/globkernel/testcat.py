"""Finite small categories and set-valued presheaves at desk scale.

A category is held once, as one composition row per morphism on morphism
ids: names come in through :func:`validate_category` and go out through
``comp`` and JSON.  ``_category`` checks every law on the rows, and
associativity only at generators (Light's test).  Built on it: categories of
elements, products, the finite-set category ``{0..n}`` with all maps, terminal
objects (the sufficient asphericality criterion), nerve counts, separating
intervals and the product comparison functor; no weak equivalences are decided.
Everything here runs on plain Python tuples and lists, the maps of the
finite-set category and every gather on the encoding of ``finsets``.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotNatural, Record, ValidationError
from .finsets import _maps
from .light import _arrows, _generators, _middle, _mismatch, _reader


class SmallCategory(Record):
    """Finite category: named objects and morphisms, composition on ids.

    Morphism ``k`` is the ``k``-th key of ``morphisms``, which maps each name
    to its ``(dom, cod)``.  ``rows[g][i]`` is the id of ``g`` after the
    ``i``-th morphism into ``dom g``, in id order: a row holds exactly the
    composable pairs with ``g`` on the left.
    """

    _fields = ("objects", "morphisms", "identity", "rows")

    def __init__(self, objects: tuple[str, ...], morphisms: dict[str, tuple[str, str]],
                 identity: dict[str, str], rows: list[tuple[int, ...]]):
        self.__dict__.update(objects=objects, morphisms=morphisms, identity=identity, rows=rows)

    @cached_property
    def _names(self) -> list[str]:
        return list(self.morphisms)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: k for k, name in enumerate(self.morphisms)}

    @cached_property
    def _layout(self):
        return _layout_of(self.objects, self.morphisms)

    @cached_property
    def comp(self) -> dict[tuple[str, str], str]:
        """``(g, f) -> g after f`` by name, g-major: a read-only view of ``rows``."""
        names, (dom, _, into, _) = self._names, self._layout
        return _ReadOnly(((names[g], names[f]), names[h])
                         for g, row in enumerate(self.rows) for f, h in zip(into[dom[g]], row))

    def __eq__(self, other):
        if not isinstance(other, SmallCategory):
            return NotImplemented
        fields = ("objects", "morphisms", "identity", "comp")
        return all(getattr(self, k) == getattr(other, k) for k in fields)

    __hash__ = Record.__hash__  # a category holds dicts, so this raises TypeError

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
        g_id, f_id = self._index[g], self._index[f]
        dom, cod, _, place = self._layout
        if cod[f_id] != dom[g_id]:
            raise KeyError((g, f))
        return self._names[self.rows[g_id][place[f_id]]]


class _ReadOnly(dict):
    def _refuse(self, *args):
        raise TypeError("SmallCategory.comp is a read-only view of its table")
    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse
    __reduce__ = lambda self: (_ReadOnly, (dict(self),))  # copies and pickles made whole


def _layout_of(objects, morphisms):
    """``dom`` and ``cod`` of each morphism as object ids, the ids ``into`` each object
    in id order, and each morphism's ``place`` there: ``rows[g][place[f]]`` is g after f."""
    at = {a: k for k, a in enumerate(objects)}
    dom = [at[a] for a, _ in morphisms.values()]
    cod = [at[b] for _, b in morphisms.values()]
    return (dom, cod, *_arrows(cod, len(objects)))


def validate_category(objects, morphisms, identity, comp) -> SmallCategory:
    """Check the names, read ``comp`` into rows, and check the laws on them.

    Raises the failure the name-keyed loops of ``tests/oracles.py`` meet first.
    """
    objects = tuple(objects)
    morphisms = {name: (dom, cod) for name, (dom, cod) in dict(morphisms).items()}
    identity = dict(identity)
    comp = {tuple(k): v for k, v in dict(comp).items()}

    if len(set(objects)) != len(objects):
        raise ValidationError("duplicate object names")
    for name, ends in morphisms.items():
        if not all(end in objects for end in ends):
            raise ValidationError(f"morphism {name!r} has undeclared endpoint")
    for a in objects:
        ident = identity.get(a)
        if ident is None or ident not in morphisms:
            raise ValidationError(f"object {a!r} has no identity morphism")
        if morphisms[ident] != (a, a):
            raise ValidationError(f"identity of {a!r} is not an endomorphism")

    # rows[g][place[f]] = g after f, or -1 where comp has no declared morphism
    index = {name: k for k, name in enumerate(morphisms)}
    dom, cod, into, place = _layout_of(objects, morphisms)
    rows = [[-1] * len(into[a]) for a in dom]
    for key, value in comp.items():
        g, f = (index.get(name, -1) for name in key) if len(key) == 2 else (-1, -1)
        if g >= 0 and f >= 0 and cod[f] == dom[g]:
            try:
                rows[g][place[f]] = index.get(value, -1)
            except TypeError:  # an unhashable value names no morphism
                pass
    return _category(objects, morphisms, identity, [tuple(row) for row in rows], comp)


def _category(objects, morphisms, identity, rows, comp=None) -> SmallCategory:
    """Check every composition law of ``rows``, on ids.

    The names must pass the checks of :func:`validate_category`.  ``comp``, the
    name-keyed composites ``rows`` were read from, if any, names in the error
    text what the rows cannot hold: a name that is no morphism, a stray key.
    """
    cat = SmallCategory(objects, morphisms, identity, rows)
    names, index = cat._names, cat._index
    dom, cod, into, place = cat._layout
    ident = [index[identity[a]] for a in objects]

    # g after the i-th f into dom g runs from dom f to cod g; -1, no composite, gathers -1
    doms, cods = dom + [-1], cod + [-1]
    wanted = [_reader(firsts)(dom) for firsts in into]
    failing = []
    for g, row in enumerate(rows):
        ends = _reader(row)
        if ends(doms) != wanted[dom[g]] or ends(cods).count(cod[g]) != len(row):
            i = _mismatch(zip(ends(doms), ends(cods)), [(a, cod[g]) for a in wanted[dom[g]]])
            failing.append((into[dom[g]][i], g))
    if failing:
        f, g = min(failing)  # the least failing pair f-major, as declared
        gname, fname, h = names[g], names[f], rows[g][place[f]]
        if h >= 0:
            raise ValidationError(f"composite {names[h]!r} has wrong endpoints")
        value = (comp or {}).get((gname, fname))
        if value is None:
            raise ValidationError(f"no composite for {gname!r} after {fname!r}")
        raise ValidationError(f"composite {value!r} of {gname!r} after {fname!r} is undeclared")
    # each composable pair has its entry by now, so any other key of comp is stray
    if comp is not None and len(comp) > sum(map(len, rows)):
        for g, f in comp:  # in key order; a key that is no pair raises here
            if f not in morphisms or g not in morphisms:
                raise ValidationError(f"composite declared on undeclared morphisms ({g!r}, {f!r})")
            if morphisms[f][1] != morphisms[g][0]:
                raise ValidationError(f"composite declared for non-composable {g!r}, {f!r}")

    for f, row in enumerate(rows):
        if row[place[ident[dom[f]]]] != f or rows[ident[cod[f]]][place[f]] != f:
            raise ValidationError(f"unit law fails at {names[f]!r}")

    # associativity by Light's test: the middles g with (h g) f = h (g f) for all h, f
    # contain the identities and are closed under composition, so the generators decide
    # it; the least failing middle is a generator, or smaller ones, which pass, reach it
    out_of = _arrows(dom, len(objects))[0]
    for g in _generators(rows, ident, dom, cod, place):
        witness = _middle(rows, g, place, out_of[cod[g]])
        if witness:
            h, i = witness
            raise ValidationError(f"associativity fails at {(names[h], names[g], names[into[dom[g]][i]])}")
    return cat


class Presheaf(Record):
    """Contravariant set-valued functor on a finite category.

    ``values`` maps each object to its elements; ``action`` maps each
    morphism ``f: a -> b`` to its ``F(b) -> F(a)``.
    """

    _fields = ("base", "values", "action")

    def __init__(self, base: SmallCategory, values: dict[str, tuple[str, ...]],
                 action: dict[str, dict[str, str]]):
        self.__dict__.update(base=base, values=values, action=action)

    def value(self, a: str) -> tuple[str, ...]:
        return self.values[a]

    def apply(self, f: str, element: str) -> str:
        return self.action[f][element]


def validate_presheaf(base: SmallCategory, values, action) -> Presheaf:
    """Check the names, read the action as element ids, and check functoriality
    on them, g-major; raises the failure met first by name."""
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
        try:
            act = tuple(map(place[dom].get, map(table.get, values[cod])))
        except TypeError:  # an unhashable value is no element
            act = (None,)
        if None in act:
            raise ValidationError(f"action of {f!r} not total into values({dom!r})")
        acts.append(act)
    for a in base.objects:
        act, ids = acts[base._index[base.identity[a]]], tuple(range(len(values[a])))
        if act != ids:
            raise ValidationError(f"identity action fails at {a!r}:{values[a][_mismatch(act, ids)]!r}")

    # F(g after f) = F(f) after F(g): g-major, over the f that g can follow
    names, (dom, cod, into, _) = base._names, base._layout
    for g, (row, act) in enumerate(zip(base.rows, acts)):
        pull = _reader(act)
        for f, h in zip(into[dom[g]], row):
            if acts[h] != pull(acts[f]):
                e = values[base.objects[cod[g]]][_mismatch(acts[h], pull(acts[f]))]
                raise ValidationError(f"functoriality fails at ({names[g]!r}, {names[f]!r}) on {e!r}")
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
    morphisms = {}
    identity = {}
    first = []
    for m, (dom, cod) in base.morphisms.items():
        first.append(len(morphisms))
        for x in f.values[cod]:
            morphisms[f"{m}[{x}]"] = (f"({dom},{f.action[m][x]})", f"({cod},{x})")
    for a in base.objects:
        for x in f.values[a]:
            identity[f"({a},{x})"] = f"{base.identity[a]}[{x}]"
    # the row of n[x] holds (n m)[x] for each m that n can follow; the (n m)[x] for all x
    # are a run of ids, so the rows of n are the columns of those runs, sharing their ints
    ids = list(range(len(morphisms)))
    rows = []
    for row, (_, cod) in zip(base.rows, base.morphisms.values()):
        size = len(f.values[cod])
        rows += zip(*[ids[first[h]:first[h] + size] for h in row])
    return _category(objects, morphisms, identity, rows)


def has_terminal(cat: SmallCategory):
    """The terminal object, or None: exactly one morphism in from everywhere."""
    for candidate in cat.objects:
        if all(len(cat.hom(a, candidate)) == 1 for a in cat.objects):
            return candidate
    return None


class NerveCounts(Record):
    _fields = ("total", "nondegenerate")

    def __init__(self, total: tuple[int, ...], nondegenerate: tuple[int, ...]):
        self.__dict__.update(total=total, nondegenerate=nondegenerate)


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
    """``(m1,m2)`` has id ``m1 * len(d.morphisms) + m2``; its rows pair the factors'."""
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
    # (g1,g2) after (f1,f2) is (g1 f1, g2 f2), and the (f1,f2) into an object come f1-major;
    # the rows index one list of ids, so equal entries share their ints
    n, ids = len(d.morphisms), list(range(len(morphisms)))
    rows = [tuple(ids[h1 * n + h2] for h1 in row1 for h2 in row2) for row1 in c.rows for row2 in d.rows]
    return _category(objects, morphisms, identity, rows)


class FunctorData(Record):
    _fields = ("source", "target", "object_map", "morphism_map")

    def __init__(self, source: SmallCategory, target: SmallCategory,
                 object_map: dict[str, str], morphism_map: dict[str, str]):
        self.__dict__.update(source=source, target=target, object_map=object_map,
                             morphism_map=morphism_map)


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
    names, (dom, _, into, _) = src._names, src._layout
    for g, row in enumerate(src.rows):
        for f, h in zip(into[dom[g]], row):
            lhs = data.morphism_map[names[h]]
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


def delta_truncated(m: int) -> SmallCategory:
    """Objects ``[0] .. [m]``, morphisms all maps between the finite sets.

    A map ``{0..a} -> {0..b}`` is the tuple of its values, as in ``finsets``,
    named ``a>b:<values>``.  Ids run over the hom-sets ``(a, b)`` a-major, and
    within one in lexicographic order of the values; a composite is read off
    as a tuple and ranked back by one dict per codomain.
    """
    if m < 0:
        raise ValidationError("m must be >= 0")
    sizes = range(m + 1)
    objects = tuple(f"[{n}]" for n in sizes)
    homs = {(a, b): list(_maps(a, b)) for a in sizes for b in sizes}
    morphisms = {f"{a}>{b}:" + "".join(map(str, values)): (objects[a], objects[b])
                 for (a, b), hom in homs.items() for values in hom}
    identity = {objects[a]: f"{a}>{a}:" + "".join(map(str, range(a + 1))) for a in sizes}
    rank, first = [{} for _ in sizes], 0  # rank[b][values]: the id of that map into [b]
    for (_, b), hom in homs.items():
        rank[b].update(zip(hom, range(first, first + len(hom))))
        first += len(hom)
    # g after f is g read at the values of f: per f into [a], a column over the g of a hom-set
    reads = [[_reader(values) for a in sizes for values in homs[a, b]] for b in sizes]
    rows = []
    for (a, b), hom in homs.items():
        rows += zip(*[map(rank[b].__getitem__, map(read, hom)) for read in reads[a]])
    return _category(objects, morphisms, identity, rows)


# serialization ------------------------------------------------------------------


def category_to_json(cat: SmallCategory) -> dict:
    comp = {f"{g}|{f}": h for (g, f), h in cat.comp.items()}
    if any("|" in m for m in cat.morphisms):  # only then can a key read back as another pair
        for g, f in cat.comp:
            key = f"{g}|{f}"
            back = _comp_key(key, cat.morphisms)
            if back != (g, f):
                raise ValidationError(f"composition key {key!r} of {(g, f)} would read back as {back}")
    return {
        "objects": list(cat.objects),
        "morphisms": {m: list(ends) for m, ends in cat.morphisms.items()},
        "identity": dict(cat.identity),
        "comp": comp,
    }


def _comp_key(key: str, morphisms) -> tuple[str, str]:
    """A serialized ``"g|f"`` composition key as the pair ``(g, f)``.

    Names may hold ``|``: the key splits at its first ``|`` with a declared
    morphism on each side, or else at its first ``|``.
    """
    cuts = [k for k, ch in enumerate(key) if ch == "|"]
    if not cuts:
        raise ValidationError(f"composition key {key!r} has no '|'")
    declared = morphisms if isinstance(morphisms, dict) else {}
    k = next((k for k in cuts if key[:k] in declared and key[k + 1:] in declared), cuts[0])
    return key[:k], key[k + 1:]


def category_from_json(data: dict) -> SmallCategory:
    try:
        if not isinstance(data["comp"], dict):
            raise ValidationError("'comp' must be an object")
        comp = {_comp_key(key, data.get("morphisms")): v for key, v in data["comp"].items()}
        return validate_category(
            data["objects"], data["morphisms"], data["identity"], comp
        )
    except (KeyError, TypeError, ValueError) as exc:
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed presheaf data: {exc}") from exc
