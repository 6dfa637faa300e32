"""Light's associativity test on composition rows, shared by ``testcat`` and ``omega``.

A finite category is held on morphism ids: ``dom[f]`` and ``cod[f]`` are
object ids, ``into[a]`` lists the ids with codomain ``a`` in id order,
``place[f]`` is the place of ``f`` there, ``ident[a]`` is the identity of
``a``, and ``rows[g][place[f]]`` is ``g`` after ``f`` for each ``f`` into
``dom g``.  ``testcat`` reads a category's names into such rows;
``omega`` reads the cells of one dimension under one composition, whose
objects are the cells of a lower dimension.

Associativity is decided by Light's test (Clifford and Preston, *The
Algebraic Theory of Semigroups* I, §1.2): once the unit laws hold, the
middles ``g`` with ``(h g) f = h (g f)`` for all ``h`` and ``f`` contain the
identities and are closed under composition, so they are every morphism
when they hold the generators of :func:`_generators`.  :func:`_middle` finds
a failing middle and leaves it to its caller to report it.
"""

from __future__ import annotations

from operator import itemgetter


def _reader(f: tuple[int, ...]):
    """Composition with ``f`` by reading: ``_reader(f)(g)`` is ``g`` after ``f``, each a
    map given by its values, as a tuple.  For any sequence ``g`` and indices ``f``
    it is the items of ``g`` at ``f``; at no index, ``()``."""
    if len(f) > 1:
        return itemgetter(*f)
    return lambda g: tuple(g[k] for k in f)  # itemgetter gives one item bare


def _mismatch(left, right) -> int:
    """The first place where two sequences differ."""
    return next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)


def _arrows(cod, objects: int):
    """``into`` and ``place`` of morphisms with codomains ``cod`` among ``objects`` objects."""
    into, place = [[] for _ in range(objects)], []
    for f, b in enumerate(cod):
        place.append(len(into[b]))
        into[b].append(f)
    return into, place


def _generators(rows, ident, dom, cod, place) -> list[int]:
    """Greedy in id order: each id not reached from the identities by the earlier ones.

    Reached ids are closed under the generators on the left, so each is a word
    ``g_n (... (g_1 e))`` with ``e`` an identity; given the right unit law every
    generator ``x`` is reached as ``x e``, so every id is.  What is reached is the
    subcategory the generators so far generate, so closing on the right would
    choose the same generators.  Only the rows of generators are read.
    """
    reached, gens, todo = [False] * len(dom), [], list(ident)
    reached_into = [[] for _ in ident]  # the reached ids into each object
    gens_out = [[] for _ in ident]  # the generators out of each object
    for x in range(len(dom)):
        while todo:  # close the reached ids under the generators so far, on the left
            h = todo.pop()
            if not reached[h]:
                reached[h] = True
                reached_into[cod[h]].append(h)
                todo += [rows[k][place[h]] for k in gens_out[cod[h]]]
        if not reached[x]:
            gens.append(x)
            gens_out[dom[x]].append(x)
            todo = [rows[x][place[e]] for e in reached_into[dom[x]]]
    return gens


def _middle(rows, g, place, lasts):
    """The first ``h`` of ``lasts`` and place ``i`` with ``(h g) f != h (g f)``, where ``f``
    is the ``i``-th morphism into ``dom g``, or None."""
    at, k = _reader(_reader(rows[g])(place)), place[g]  # h (g f) reads row h at g f
    for h in lasts:
        row = rows[h]
        left, right = rows[row[k]], at(row)
        if left != right:
            return h, _mismatch(left, right)
    return None
