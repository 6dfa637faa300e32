"""Independent brute-force oracles.

Everything here works directly on the raw dicts of a structure: no call into
the library's enumeration or boundary helpers, so these stay independent of
the code paths they are used to check.  The law sweeps evaluate each
instance with the library's scalar evaluators (``compose``, ``unit``,
``inverse``, ``iter_unit``), which define the detail text of a violation.
The twisted complex is rebuilt the same way, on names, from those
evaluators and the brute-force enumerations.
"""

from __future__ import annotations

import itertools

from globkernel import finsets
from globkernel.errors import (
    DimOutOfRange,
    GlobularViolation,
    GluingViolation,
    InversesAbsent,
    MissingCell,
    NotAGroup,
    NotComposable,
    ValidationError,
)
from globkernel.fixtures import GroupTable
from globkernel.globular import (
    SRC,
    TGT,
    GlobularSet,
    GlobularTuple,
    TableOfDimensions,
    _check_cell_name,
    globular_tuple,
)
from globkernel.omega import (
    ASSOC,
    EXCHANGE,
    INVERSE_COMPAT,
    LEFT_INVERSE,
    LEFT_UNIT,
    RIGHT_INVERSE,
    RIGHT_UNIT,
    UNIT_COMPAT,
    OmegaStructure,
    Violation,
    compose,
    inverse,
    iter_unit,
    unit,
)
from globkernel.report import Report, verdict
from globkernel.testcat import Presheaf, SmallCategory
from globkernel.twist import MixedTuple, TwistedCell, TwistedSegment

# what evaluating a cell or tuple can raise; each sweep reports it as that instance's failure
_EVAL_ERRORS = (GluingViolation, NotComposable, ValidationError, MissingCell)


def raw_boundary(gs, kind, i, j, u):
    table = gs.src if kind == "src" else gs.tgt
    for d in range(i, j, -1):
        u = table[d][u]
    return u


def brute_globular_product(gs, outer, inner):
    """Filter the full cartesian product by the gluing equations."""
    out = []
    for combo in itertools.product(*(gs.cells[d] for d in outer)):
        ok = True
        for k in range(len(outer) - 1):
            low = inner[k]
            if raw_boundary(gs, "src", outer[k], low, combo[k]) != raw_boundary(
                gs, "tgt", outer[k + 1], low, combo[k + 1]
            ):
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def brute_twisted_cells(gs, level):
    """Raw tuples (x_1, .., x_{level+1}) with s_k(x_k) = t_k t_{k+1}(x_{k+1})."""
    dims = list(range(1, level + 2))
    out = []
    for combo in itertools.product(*(gs.cells[d] for d in dims)):
        ok = True
        for k in range(1, level + 1):
            if gs.src[k][combo[k - 1]] != gs.tgt[k][gs.tgt[k + 1][combo[k]]]:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def brute_segment_cells(gs, low, high):
    dims = list(range(low + 1, high + 2))
    out = []
    for combo in itertools.product(*(gs.cells[d] for d in dims)):
        ok = True
        for offset in range(len(dims) - 1):
            k = dims[offset]
            if gs.src[k][combo[offset]] != gs.tgt[k][gs.tgt[k + 1][combo[offset + 1]]]:
                ok = False
                break
        if ok:
            out.append(combo)
    return out


def all_functions(m, n):
    """All total maps {0..m} -> {0..n} as value tuples."""
    return list(itertools.product(range(n + 1), repeat=m + 1))


def ref_shift_squares(max_n):
    """Failures of the shift's inclusion and point squares, checked map by map.

    Each failing map is named by its ``str``.  The structure maps are read
    from ``finsets`` at call time, so a test may replace them.
    """
    incl, point = [], []
    for m in range(max_n + 1):
        for n in range(max_n + 1):
            for values in all_functions(m, n):
                phi = finsets.SimplexMap(m, n, values)
                shifted = finsets.shift_map(phi)
                if finsets.compose_maps(shifted, finsets.top_inclusion(m)) != (
                    finsets.compose_maps(finsets.top_inclusion(n), phi)
                ):
                    incl.append(str(phi))
                if finsets.compose_maps(shifted, finsets.base_point(m)) != finsets.base_point(n):
                    point.append(str(phi))
    return incl, point


def ref_composition_sweep(max_n, cap):
    """The shift's composition sweep over every composable pair, on whole shifted rows.

    Pairs come by ``(m, n, p)``, then ``psi``, then ``phi``, and both sides
    are shifted and composed for each pair on its own.  ``_shift`` is read
    from ``finsets`` at call time, so a test may replace it.
    """
    failures = []
    for m, n, p in itertools.product(range(max_n + 1), repeat=3):
        for psi in all_functions(n, p):
            for phi in all_functions(m, n):
                lhs = finsets._shift(tuple(psi[v] for v in phi), p)  # shift(psi after phi)
                shift_psi, shift_phi = finsets._shift(psi, p), finsets._shift(phi, n)
                rhs = tuple(shift_psi[v] for v in shift_phi)  # shift psi after shift phi
                if lhs != rhs:
                    failures.append(f"phi={phi}:[{m}]->[{n}] psi={psi}:[{n}]->[{p}]")
                    if len(failures) >= cap:
                        return failures
    return failures


def ref_unit_lift_tuple(x, table, gtuple):
    """``decalage.unit_lift_tuple`` written out on names.

    Component ``l`` lifts to the units over the iterated targets of its cell,
    validated as a segment; then each seam is compared on raw boundaries.
    """
    globular_tuple(x.base, table, gtuple.entries)
    bounds = [(0, table.outer[0])] + _segment_bounds(table)
    parts = []
    for (low, high), u in zip(bounds, gtuple.entries):
        entries = [unit(x, d, raw_boundary(x.base, "tgt", high, d, u)) for d in range(low, high + 1)]
        parts.append(ref_check_segment_entries(x, low, high, entries))
    for l, seam in enumerate(table.inner):
        top, first = parts[l][-1], parts[l + 1][0]
        top_dim, first_dim = bounds[l][1] + 1, bounds[l + 1][0] + 1
        left = raw_boundary(x.base, "src", top_dim, seam, top)
        right = raw_boundary(x.base, "tgt", first_dim, seam, first)
        if left != right:
            raise GluingViolation(
                l + 1, f"s^{top_dim}_{seam}({top}) = {left} but t^{first_dim}_{seam}({first}) = {right}"
            )
    segments = tuple(TwistedSegment(low, high, part) for (low, high), part in zip(bounds[1:], parts[1:]))
    return MixedTuple(table, TwistedCell(table.outer[0], parts[0]), segments)


def ref_check_section(x, table):
    """``check_section`` tuple by tuple on names: lift, project back, compare.

    Enumerates the product by brute force, lifts every tuple with
    :func:`ref_unit_lift_tuple` and projects it back to the sources of the
    top entries.
    """
    if table.max_dim() + 1 > x.truncation:
        raise DimOutOfRange(f"table {table} needs truncation >= {table.max_dim() + 1}")
    failures = []
    product = brute_globular_product(x.base, table.outer, table.inner)
    for entries in product:
        gtuple = GlobularTuple(table, entries)
        try:
            mixed = ref_unit_lift_tuple(x, table, gtuple)
            tops = [mixed.head.entries[-1]] + [segment.entries[-1] for segment in mixed.segments]
            back = globular_tuple(x.base, table, [x.base.src[d + 1][top] for d, top in zip(table.outer, tops)])
        except _EVAL_ERRORS as exc:
            failures.append(f"{gtuple.entries}: {exc}")
            continue
        if back != gtuple:
            failures.append(f"{gtuple.entries} -> {back.entries}")
    return _uncapped("section", str(table), failures, len(product))


def ref_validate_category(objects, morphisms, identity, comp):
    """The category laws checked by loops over names; raises what ``validate_category`` must.

    Returns the four normalised tables when every law holds.
    """
    objects = tuple(objects)
    morphisms = {name: (dom, cod) for name, (dom, cod) in dict(morphisms).items()}
    identity = dict(identity)
    comp = {tuple(k): v for k, v in dict(comp).items()}

    def declared(h):
        try:
            return h in morphisms
        except TypeError:
            return False

    if len(set(objects)) != len(objects):
        raise ValidationError("duplicate object names")
    for name, (dom, cod) in morphisms.items():
        if dom not in objects or cod not in objects:
            raise ValidationError(f"morphism {name!r} has undeclared endpoint")
    for a in objects:
        ident = identity.get(a)
        if ident is None or ident not in morphisms:
            raise ValidationError(f"object {a!r} has no identity morphism")
        if morphisms[ident] != (a, a):
            raise ValidationError(f"identity of {a!r} is not an endomorphism")

    for f, (fdom, fcod) in morphisms.items():
        for g, (gdom, gcod) in morphisms.items():
            if gdom != fcod:
                continue
            h = comp.get((g, f))
            if h is None:
                raise ValidationError(f"no composite for {g!r} after {f!r}")
            if not declared(h):
                raise ValidationError(f"composite {h!r} of {g!r} after {f!r} is undeclared")
            if morphisms[h] != (fdom, gcod):
                raise ValidationError(f"composite {h!r} has wrong endpoints")
    for (g, f) in comp:
        if f not in morphisms or g not in morphisms:
            raise ValidationError(f"composite declared on undeclared morphisms ({g!r}, {f!r})")
        if morphisms[f][1] != morphisms[g][0]:
            raise ValidationError(f"composite declared for non-composable {g!r}, {f!r}")

    for f, (dom, cod) in morphisms.items():
        if comp[(f, identity[dom])] != f or comp[(identity[cod], f)] != f:
            raise ValidationError(f"unit law fails at {f!r}")

    for g, (gdom, gcod) in morphisms.items():
        for h, (hdom, _) in morphisms.items():
            if hdom != gcod:
                continue
            for f, (_, fcod) in morphisms.items():
                if fcod == gdom and comp[(comp[(h, g)], f)] != comp[(h, comp[(g, f)])]:
                    raise ValidationError(f"associativity fails at ({h!r}, {g!r}, {f!r})")
    return objects, morphisms, identity, comp


def ref_validate_functor(data):
    """The functor laws checked by loops over names; raises what ``validate_functor`` must.

    Composites are read from the name-keyed ``comp`` of both categories, and
    pairs ``(g, f)`` come g-major, each in declaration order.
    """
    src, tgt = data.source, data.target
    objects, morphisms = data.object_map, data.morphism_map
    for a in src.objects:
        if objects.get(a) not in tgt.objects:
            raise ValidationError(f"object map undefined or out of range at {a!r}")
    for m, (dom, cod) in src.morphisms.items():
        if morphisms.get(m) not in tgt.morphisms:
            raise ValidationError(f"morphism map undefined at {m!r}")
        if tgt.morphisms[morphisms[m]] != (objects[dom], objects[cod]):
            raise ValidationError(f"morphism map breaks endpoints at {m!r}")
    for a in src.objects:
        if morphisms[src.identity[a]] != tgt.identity[objects[a]]:
            raise ValidationError(f"identity not preserved at {a!r}")
    for g, (gdom, _) in src.morphisms.items():
        for f, (_, fcod) in src.morphisms.items():
            if fcod == gdom and morphisms[src.comp[(g, f)]] != tgt.comp[(morphisms[g], morphisms[f])]:
                raise ValidationError(f"composition not preserved at ({g!r}, {f!r})")
    return data


def ref_light_generators(morphisms, identity, comp):
    """Light's generators on names: in declared order, each morphism not yet reached
    from the identities by composing the generators before it on the left."""
    reached, gens = set(identity.values()), []
    for m in morphisms:
        if m in reached:
            continue
        gens.append(m)
        todo = [(m, e) for e in reached]
        while todo:
            g, e = todo.pop()
            if morphisms[g][0] == morphisms[e][1] and comp[(g, e)] not in reached:
                reached.add(comp[(g, e)])
                todo += [(k, comp[(g, e)]) for k in gens]
    return gens


def ref_delta_truncated(m):
    """The tables of the finite-set category on ``[0] .. [m]``, built on names."""
    objects = tuple(f"[{n}]" for n in range(m + 1))
    morphisms = {}
    identity = {}
    for a in range(m + 1):
        for b in range(m + 1):
            for values in all_functions(a, b):
                morphisms[f"{a}>{b}:" + "".join(map(str, values))] = (f"[{a}]", f"[{b}]")
        identity[f"[{a}]"] = f"{a}>{a}:" + "".join(map(str, range(a + 1)))

    values_of = {name: tuple(int(ch) for ch in name.split(":", 1)[1]) for name in morphisms}
    comp = {}
    for g, (gdom, gcod) in morphisms.items():
        for f, (fdom, fcod) in morphisms.items():
            if fcod == gdom:
                composite = "".join(str(values_of[g][v]) for v in values_of[f])
                comp[(g, f)] = f"{fdom[1:-1]}>{gcod[1:-1]}:{composite}"
    return objects, morphisms, identity, comp


def ref_category_of_elements(f):
    """The tables of the category of elements of the presheaf ``f``, built on names."""
    base = f.base
    objects = tuple(f"({a},{x})" for a in base.objects for x in f.values[a])
    morphisms = {}
    identity = {}
    for m, (dom, cod) in base.morphisms.items():
        for x in f.values[cod]:
            morphisms[f"{m}[{x}]"] = (f"({dom},{f.action[m][x]})", f"({cod},{x})")
    for a in base.objects:
        for x in f.values[a]:
            identity[f"({a},{x})"] = f"{base.identity[a]}[{x}]"
    comp = {}
    for m2, (dom2, cod2) in base.morphisms.items():
        for x in f.values[cod2]:
            mid = f.action[m2][x]
            for m1, (dom1, cod1) in base.morphisms.items():
                if cod1 == dom2:
                    comp[(f"{m2}[{x}]", f"{m1}[{mid}]")] = f"{base.comp[(m2, m1)]}[{x}]"
    return objects, morphisms, identity, comp


def ref_product_category(c, d):
    """The tables of the product category ``c x d``, built on names.

    ``comp`` lists ``(g1,g2) after (f1,f2)`` with ``g1``, then ``g2``, then
    ``f1``, then ``f2`` in declaration order: g-major, as a category lists it.
    """
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
    for g1, g2, f1, f2 in itertools.product(c.morphisms, d.morphisms, c.morphisms, d.morphisms):
        if (g1, f1) in c.comp and (g2, f2) in d.comp:
            comp[(f"({g1},{g2})", f"({f1},{f2})")] = f"({c.comp[(g1, f1)]},{d.comp[(g2, f2)]})"
    return objects, morphisms, identity, comp


def brute_chain_count(objects, morphisms, length):
    """Composable chains of the given length in a finite category.

    ``morphisms`` maps name -> (dom, cod).  Degenerate chains included.
    """
    if length == 0:
        return len(objects)
    count = 0
    names = list(morphisms)
    for chain in itertools.product(names, repeat=length):
        if all(
            morphisms[chain[k]][1] == morphisms[chain[k + 1]][0]
            for k in range(length - 1)
        ):
            count += 1
    return count


# -- law sweeps on names -----------------------------------------------------------
#
# Nested bucket-and-backtrack loops over the string tables: every instance in
# declaration order, every violation, no cap.


def _buckets(gs, kind, i, j):
    out = {}
    for v in gs.cells[i]:
        out.setdefault(raw_boundary(gs, kind, i, j, v), []).append(v)
    return out


def _pairs(gs, i, j):
    by_target = _buckets(gs, "tgt", i, j)
    for u in gs.cells[i]:
        for v in by_target.get(raw_boundary(gs, "src", i, j, u), ()):
            yield u, v


def brute_structure_violations(x):
    """Every violation of the boundary laws, in sweep order."""
    found = []
    n = x.truncation
    base = x.base
    for i in range(1, n + 1):
        for j in range(i):
            table = x.comp.get((i, j), {})
            for u, v in _pairs(base, i, j):
                w = table.get((u, v))
                if w is None:
                    found.append(Violation("comp_total", (i, j), (u, v),
                                           "composable pair has no table entry"))
                    continue
                s_w, t_w = base.src[i][w], base.tgt[i][w]
                if j == i - 1:
                    want_s, want_t = base.src[i][v], base.tgt[i][u]
                else:
                    want_s = x.comp.get((i - 1, j), {}).get((base.src[i][u], base.src[i][v]))
                    want_t = x.comp.get((i - 1, j), {}).get((base.tgt[i][u], base.tgt[i][v]))
                if s_w != want_s:
                    found.append(Violation("comp_src_law", (i, j), (u, v),
                                           f"s({w}) = {s_w}, expected {want_s}"))
                if t_w != want_t:
                    found.append(Violation("comp_tgt_law", (i, j), (u, v),
                                           f"t({w}) = {t_w}, expected {want_t}"))
    for i in range(n):
        for u in base.cells[i]:
            w = x.unit[i][u]
            if base.src[i + 1][w] != u or base.tgt[i + 1][w] != u:
                found.append(Violation(
                    "unit_law", (i,), (u,),
                    f"unit {w} has boundaries "
                    f"({base.src[i + 1][w]}, {base.tgt[i + 1][w]}), expected ({u}, {u})",
                ))
    if x.inv is not None:
        for i in range(1, n + 1):
            for j in range(i):
                table = x.inv[(i, j)]
                for u in base.cells[i]:
                    w = table[u]
                    s_w, t_w = base.src[i][w], base.tgt[i][w]
                    if j == i - 1:
                        want_s, want_t = base.tgt[i][u], base.src[i][u]
                    else:
                        want_s = x.inv[(i - 1, j)][base.src[i][u]]
                        want_t = x.inv[(i - 1, j)][base.tgt[i][u]]
                    if s_w != want_s or t_w != want_t:
                        found.append(Violation(
                            "inv_law", (i, j), (u,),
                            f"inverse {w} has boundaries ({s_w}, {t_w}), "
                            f"expected ({want_s}, {want_t})",
                        ))
    return found


def brute_structure_instances(x):
    """How many instances the boundary laws have: composable pairs, unit and inverse entries."""
    n, base = x.truncation, x.base
    pairs = sum(1 for i in range(1, n + 1) for j in range(i) for _ in _pairs(base, i, j))
    units = sum(len(base.cells[i]) for i in range(n))
    inverses = 0 if x.inv is None else sum(i * len(base.cells[i]) for i in range(1, n + 1))
    return pairs + units + inverses


def axiom_subscripts(n, name):
    if name in (ASSOC, LEFT_UNIT, RIGHT_UNIT, LEFT_INVERSE, RIGHT_INVERSE):
        return [(i, j) for i in range(1, n + 1) for j in range(i)]
    if name == UNIT_COMPAT:
        return [(i, j) for i in range(1, n) for j in range(i)]
    if name == EXCHANGE:
        return [(i, j, k) for i in range(2, n + 1) for j in range(1, i) for k in range(j)]
    return [(i, j, jp) for i in range(1, n + 1) for j in range(i) for jp in range(i)]


def _axiom_instances(x, name, sub):
    """(witness, thunk computing both sides) for every instance at ``sub``."""
    gs = x.base
    i, j = sub[0], sub[1]
    if name == ASSOC:
        by_target = _buckets(gs, "tgt", i, j)
        for u, v in _pairs(gs, i, j):
            for w in by_target.get(raw_boundary(gs, "src", i, j, v), ()):
                yield (u, v, w), lambda u=u, v=v, w=w: (
                    compose(x, i, j, compose(x, i, j, u, v), w),
                    compose(x, i, j, u, compose(x, i, j, v, w)),
                )
    elif name == EXCHANGE:
        k = sub[2]
        by_t_j = _buckets(gs, "tgt", i, j)
        by_t_k = _buckets(gs, "tgt", i, k)
        for u in gs.cells[i]:
            for up in by_t_j.get(raw_boundary(gs, "src", i, j, u), ()):
                for v in by_t_k.get(raw_boundary(gs, "src", i, k, up), ()):
                    for vp in by_t_j.get(raw_boundary(gs, "src", i, j, v), ()):
                        yield (u, up, v, vp), lambda u=u, up=up, v=v, vp=vp: (
                            compose(x, i, k, compose(x, i, j, u, up), compose(x, i, j, v, vp)),
                            compose(x, i, j, compose(x, i, k, u, v), compose(x, i, k, up, vp)),
                        )
    elif name == LEFT_UNIT:
        for u in gs.cells[i]:
            yield (u,), lambda u=u: (
                compose(x, i, j, iter_unit(x, j, i, raw_boundary(gs, "tgt", i, j, u)), u), u,
            )
    elif name == RIGHT_UNIT:
        for u in gs.cells[i]:
            yield (u,), lambda u=u: (
                compose(x, i, j, u, iter_unit(x, j, i, raw_boundary(gs, "src", i, j, u))), u,
            )
    elif name == UNIT_COMPAT:
        for u, v in _pairs(gs, i, j):
            yield (u, v), lambda u=u, v=v: (
                unit(x, i, compose(x, i, j, u, v)),
                compose(x, i + 1, j, unit(x, i, u), unit(x, i, v)),
            )
    elif name == LEFT_INVERSE:
        for u in gs.cells[i]:
            yield (u,), lambda u=u: (
                compose(x, i, j, inverse(x, i, j, u), u),
                iter_unit(x, j, i, raw_boundary(gs, "src", i, j, u)),
            )
    elif name == RIGHT_INVERSE:
        for u in gs.cells[i]:
            yield (u,), lambda u=u: (
                compose(x, i, j, u, inverse(x, i, j, u)),
                iter_unit(x, j, i, raw_boundary(gs, "tgt", i, j, u)),
            )
    elif name == INVERSE_COMPAT:
        jp = sub[2]
        for u, v in _pairs(gs, i, j):
            if j == jp:
                yield (u, v), lambda u=u, v=v: (
                    inverse(x, i, jp, compose(x, i, j, u, v)),
                    compose(x, i, j, inverse(x, i, jp, v), inverse(x, i, jp, u)),
                )
            else:
                yield (u, v), lambda u=u, v=v: (
                    inverse(x, i, jp, compose(x, i, j, u, v)),
                    compose(x, i, j, inverse(x, i, jp, u), inverse(x, i, jp, v)),
                )


def brute_axiom_instances(x, name):
    """How many instances one axiom has over all its subscripts."""
    return sum(1 for sub in axiom_subscripts(x.truncation, name) for _ in _axiom_instances(x, name, sub))


def brute_axiom_violations(x, name):
    """Every violation of one axiom over all its subscripts, in sweep order."""
    found = []
    for sub in axiom_subscripts(x.truncation, name):
        for witness, sides in _axiom_instances(x, name, sub):
            try:
                lhs, rhs = sides()
            except (NotComposable, ValidationError, KeyError) as exc:
                found.append(Violation(name, sub, witness, f"not evaluable: {exc}"))
                continue
            if lhs != rhs:
                found.append(Violation(name, sub, witness, f"{lhs} != {rhs}"))
    return found


# Associativity and exchange decided at generators, on names: whether each
# subscript is decided there, and how many instances the kernel compares when it is.


def _glued_composite(x, i, j, u, v):
    """``u *_j v`` read from the raw table when ``u`` and ``v`` are ``i``-cells that glue at
    ``j`` and the entry is an ``i``-cell, else None."""
    gs = x.base
    if u not in gs.index[i] or v not in gs.index[i]:
        return None
    if raw_boundary(gs, "src", i, j, u) != raw_boundary(gs, "tgt", i, j, v):
        return None
    w = x.comp.get((i, j), {}).get((u, v))
    return w if w in gs.index[i] else None


def _ref_category(x, i, j):
    """The ``i``-cells under ``*_j`` as a category on names, ``(morphisms, identity, comp)``, and
    the instances Light's test compares, or None where a precondition or a middle fails."""
    gs = x.base
    morphisms = {u: (raw_boundary(gs, "src", i, j, u), raw_boundary(gs, "tgt", i, j, u)) for u in gs.cells[i]}
    identity = {}
    for a in gs.cells[j]:
        e = a
        for d in range(j, i):
            e = x.unit[d].get(e)
            if e not in gs.index[d + 1]:
                return None
        if morphisms[e] != (a, a):
            return None
        identity[a] = e
    comp = {}
    for u, v in _pairs(gs, i, j):
        w = _glued_composite(x, i, j, u, v)
        if w is None or morphisms[w] != (morphisms[v][0], morphisms[u][1]):
            return None
        comp[(u, v)] = w
    if any(comp[(identity[cod], u)] != u or comp[(u, identity[dom])] != u
           for u, (dom, cod) in morphisms.items()):
        return None
    count = 2 * len(morphisms)
    for g in ref_light_generators(morphisms, identity, comp):
        lasts = [h for h, (dom, _) in morphisms.items() if dom == morphisms[g][1]]
        firsts = [f for f, (_, cod) in morphisms.items() if cod == morphisms[g][0]]
        if any(comp[(comp[(h, g)], f)] != comp[(h, comp[(g, f)])] for h in lasts for f in firsts):
            return None
        count += len(lasts) * len(firsts)
    return count, morphisms, identity, comp


class _PairComposites(dict):
    """Componentwise composites of glued pairs, made when read; KeyError where one is no pair."""

    def __init__(self, comp, pairs):
        super().__init__()
        self.comp, self.pairs = comp, pairs

    def __missing__(self, key):
        (g1, g2), (h1, h2) = key
        value = (self.comp[(g1, h1)], self.comp[(g2, h2)])
        if value not in self.pairs:
            raise KeyError(key)
        return value


def _ref_exchange(x, i, j, k):
    """The instances compared in deciding exchange at ``(i, j, k)`` at generators, on names,
    or None where a precondition or a generator fails."""
    category = _ref_category(x, i, j)
    if category is None:
        return None
    _, morphisms, identity, comp = category
    gs = x.base
    pairs = {(u, v): ((morphisms[u][0], morphisms[v][0]), (morphisms[u][1], morphisms[v][1]))
             for u, v in _pairs(gs, i, k)}
    objects = list(_pairs(gs, j, k))
    units = {o: (identity[o[0]], identity[o[1]]) for o in objects}
    ends = {}  # c_o: F(1_o) is the identity of c_o
    for o, unit_pair in units.items():
        w = _glued_composite(x, i, k, *unit_pair)
        if unit_pair not in pairs or w is None or identity[morphisms[w][1]] != w:
            return None
        ends[o] = morphisms[w][1]
    if any(dom not in units or cod not in units for dom, cod in pairs.values()):
        return None
    try:
        gens = ref_light_generators(pairs, units, _PairComposites(comp, pairs))
    except KeyError:
        return None
    count = len(objects)
    for g in gens:
        f_g = _glued_composite(x, i, k, *g)
        if f_g is None or morphisms[f_g][1] != ends[pairs[g][1]]:
            return None
        for h, (_, cod) in pairs.items():
            if cod != pairs[g][0]:
                continue
            lhs = _glued_composite(x, i, k, _glued_composite(x, i, j, g[0], h[0]),
                                   _glued_composite(x, i, j, g[1], h[1]))
            rhs = _glued_composite(x, i, j, f_g, _glued_composite(x, i, k, *h))
            if lhs is None or lhs != rhs:
                return None
            count += 1
    return count


def ref_generator_instances(x, name, sub):
    """The instances the kernel compares when it decides axiom ``name`` at subscripts ``sub``
    at generators, or None where it must sweep them all: every other axiom, and any
    subscript where a precondition or a generator fails."""
    if name == ASSOC:
        category = _ref_category(x, *sub)
        return None if category is None else category[0]
    if name == EXCHANGE:
        return _ref_exchange(x, *sub)
    return None


def expected_axiom_instances(x, name):
    """The instances one axiom's sweep reports over all its subscripts: those compared
    at each subscript decided at generators, every instance at the others."""
    total = 0
    for sub in axiom_subscripts(x.truncation, name):
        decided = ref_generator_instances(x, name, sub)
        total += sum(1 for _ in _axiom_instances(x, name, sub)) if decided is None else decided
    return total


# -- the twisted complex on names ----------------------------------------------------
#
# The string-keyed twisted operations as they were before the complex was
# interned: every input and every intermediate cell is validated by the scalar
# checks, and enumeration is the brute force above.  The library must give the
# same value or raise the same error, with the same message.


def ref_check_segment_entries(x, low, high, entries):
    entries = tuple(entries)
    base = x.base
    if low < 0 or high < low:
        raise DimOutOfRange(f"segment bounds ({low},{high}) need 0 <= low <= high")
    if high + 1 > base.truncation:
        raise DimOutOfRange(
            f"segment top dimension {high + 1} exceeds truncation {base.truncation}"
        )
    if len(entries) != high - low + 1:
        raise ValidationError(
            f"segment ({low},{high}) needs {high - low + 1} entries, got {len(entries)}"
        )
    for offset, u in enumerate(entries):
        d = low + 1 + offset
        if not base.has_cell(d, u):
            raise MissingCell(f"entry {offset + 1}: {u!r} is not a {d}-cell")
    for offset in range(len(entries) - 1):
        k = low + 1 + offset
        left = base.src[k][entries[offset]]
        right = base.tgt[k][base.tgt[k + 1][entries[offset + 1]]]
        if left != right:
            raise GluingViolation(
                offset + 1,
                f"s_{k}({entries[offset]}) = {left} but "
                f"t_{k} t_{k + 1}({entries[offset + 1]}) = {right}",
            )
    return entries


def ref_twisted_cell(x, level, entries):
    return TwistedCell(level, ref_check_segment_entries(x, 0, level, entries))


def ref_twisted_segment(x, low, high, entries):
    return TwistedSegment(low, high, ref_check_segment_entries(x, low, high, entries))


def ref_twisted_source(x, cell):
    i = cell.level
    if i < 1:
        raise DimOutOfRange("level-0 twisted cells have no source")
    entries = cell.entries
    glued = compose(x, i, i - 1, entries[i - 1], x.base.tgt[i + 1][entries[i]])
    return ref_twisted_cell(x, i - 1, tuple(entries[: i - 1]) + (glued,))


def ref_twisted_target(x, cell):
    if cell.level < 1:
        raise DimOutOfRange("level-0 twisted cells have no target")
    return ref_twisted_cell(x, cell.level - 1, cell.entries[:-1])


def ref_twisted_boundary(x, kind, cell, level):
    if not 0 <= level <= cell.level:
        raise DimOutOfRange(f"boundary level {level} outside 0..{cell.level}")
    if kind not in ("src", "tgt"):
        raise ValidationError(f"boundary kind must be 'src' or 'tgt', got {kind!r}")
    step = ref_twisted_source if kind == "src" else ref_twisted_target
    for _ in range(cell.level - level):
        cell = step(x, cell)
    return cell


def _segment_bounds(table):
    return [(table.inner[l] + 1, table.outer[l + 1]) for l in range(table.width - 1)]


def ref_contract_product(x, table, cells):
    cells = tuple(cells)
    if len(cells) != table.width:
        raise ValidationError(f"expected {table.width} cells, got {len(cells)}")
    for k, cell in enumerate(cells):
        if cell.level != table.outer[k]:
            raise ValidationError(
                f"cell {k + 1} has level {cell.level}, table wants {table.outer[k]}"
            )
        ref_twisted_cell(x, cell.level, cell.entries)
    for l in range(table.width - 1):
        seam = table.inner[l]
        left = ref_twisted_boundary(x, "src", cells[l], seam)
        right = ref_twisted_boundary(x, "tgt", cells[l + 1], seam)
        if left != right:
            raise GluingViolation(
                l + 1,
                f"twisted s-boundary {left.entries} != t-boundary {right.entries}",
            )
    segments = []
    for l, (low, high) in enumerate(_segment_bounds(table)):
        segments.append(ref_twisted_segment(x, low, high, cells[l + 1].entries[low:]))
    return MixedTuple(table, cells[0], tuple(segments))


def ref_expand_product(x, mixed):
    table = mixed.table
    bounds = _segment_bounds(table)
    if len(mixed.segments) != len(bounds):
        raise ValidationError(
            f"expected {len(bounds)} segments, got {len(mixed.segments)}"
        )
    head = ref_twisted_cell(x, mixed.head.level, mixed.head.entries)
    if head.level != table.outer[0]:
        raise ValidationError(
            f"head has level {head.level}, table wants {table.outer[0]}"
        )
    cells = [head]
    current = head
    for l, segment in enumerate(mixed.segments):
        low, high = bounds[l]
        seam = table.inner[l]
        if (segment.low, segment.high) != (low, high):
            raise ValidationError(
                f"segment {l + 1} has bounds ({segment.low},{segment.high}), "
                f"table wants ({low},{high})"
            )
        ref_check_segment_entries(x, low, high, segment.entries)
        prev_top_dim = current.level + 1
        first_dim = low + 1
        left = raw_boundary(x.base, "src", prev_top_dim, seam, current.top())
        right = raw_boundary(x.base, "tgt", first_dim, seam, segment.entries[0])
        if left != right:
            raise GluingViolation(
                l + 1,
                f"s^{prev_top_dim}_{seam}({current.top()}) = {left} but "
                f"t^{first_dim}_{seam}({segment.entries[0]}) = {right}",
            )
        glued = compose(
            x, seam + 1, seam,
            current.entries[seam],
            x.base.tgt[seam + 2][current.entries[seam + 1]],
        )
        current = ref_twisted_cell(x, high, current.entries[:seam] + (glued,) + segment.entries)
        cells.append(current)
    return tuple(cells)


def ref_twisted_compose(x, j, left, right):
    i = left.level
    if right.level != i:
        raise NotComposable(f"levels differ: {left.level} vs {right.level}")
    if not 0 <= j < i:
        raise DimOutOfRange(f"composition level {j} outside 0 <= j < {i}")
    table = TableOfDimensions((i, i), (j,))
    try:
        mixed = ref_contract_product(x, table, (left, right))
    except GluingViolation:
        src_b = ref_twisted_boundary(x, "src", left, j)
        tgt_b = ref_twisted_boundary(x, "tgt", right, j)
        raise NotComposable(
            f"twisted s-boundary {src_b.entries} != t-boundary {tgt_b.entries}",
            left_boundary=src_b.entries,
            right_boundary=tgt_b.entries,
        ) from None
    suffix = mixed.segments[0].entries
    entries = list(left.entries[: j + 1])
    for offset, (a, b) in enumerate(zip(left.entries[j + 1 :], suffix)):
        entries.append(compose(x, j + 2 + offset, j, a, b))
    return ref_twisted_cell(x, i, entries)


def ref_twisted_unit(x, cell):
    i = cell.level
    if i + 2 > x.truncation:
        raise DimOutOfRange(
            f"twisted unit at level {i} needs dimension {i + 2} <= truncation {x.truncation}"
        )
    appended = unit(x, i + 1, unit(x, i, x.base.src[i + 1][cell.top()]))
    return ref_twisted_cell(x, i + 1, tuple(cell.entries) + (appended,))


def ref_twisted_inverse(x, j, cell):
    if x.inv is None:
        raise InversesAbsent("twisted inverse needs inverse tables on the base")
    i = cell.level
    if not 0 <= j < i:
        raise DimOutOfRange(f"inverse level {j} outside 0 <= j < {i}")
    entries = list(cell.entries[:j])
    entries.append(compose(
        x, j + 1, j, cell.entries[j], x.base.tgt[j + 2][cell.entries[j + 1]]
    ))
    for offset in range(j + 1, i + 1):
        entries.append(inverse(x, offset + 1, j, cell.entries[offset]))
    return ref_twisted_cell(x, i, entries)


def _uncapped(check, scope, failures, instances):
    """The result of a sweep with no cap over ``instances`` instances."""
    return verdict(check, scope, Report(failures, False, instances))


def ref_twisted_cells(x, level):
    return [TwistedCell(level, e) for e in brute_twisted_cells(x.base, level)]


def ref_apex_naturality(x):
    """``check_apex_naturality`` on names, per level ``i``.

    The source of the top entry of each twisted boundary of a cell is
    compared with the plain boundary of the source of the cell's top entry;
    an error ends the cell with its text.
    """
    gs = x.base
    results = []
    for i in range(1, x.truncation):
        failures = []
        cells = ref_twisted_cells(x, i)
        for cell in cells:
            try:
                apex = gs.src[i + 1][cell.entries[-1]]
                for kind, face in (("src", ref_twisted_source), ("tgt", ref_twisted_target)):
                    top = face(x, cell).entries[-1]
                    if gs.src[i][top] != raw_boundary(gs, kind, i, i - 1, apex):
                        failures.append(f"{kind} side at {cell.entries}")
            except _EVAL_ERRORS as exc:
                failures.append(f"{cell.entries}: {exc}")
        results.append(_uncapped("apex-naturality", f"level={i}", failures, len(cells)))
    return results


def ref_endpoint_naturality(x):
    """``check_endpoint_naturality`` on names: each twisted boundary of a cell
    keeps the target of the cell's bottom entry; an error ends the cell with its text."""
    gs = x.base
    results = []
    for i in range(1, x.truncation):
        failures = []
        cells = ref_twisted_cells(x, i)
        for cell in cells:
            try:
                for kind, face in (("src", ref_twisted_source), ("tgt", ref_twisted_target)):
                    if gs.tgt[1][face(x, cell).entries[0]] != gs.tgt[1][cell.entries[0]]:
                        failures.append(f"{kind} side at {cell.entries}")
            except _EVAL_ERRORS as exc:
                failures.append(f"{cell.entries}: {exc}")
        results.append(_uncapped("endpoint-naturality", f"level={i}", failures, len(cells)))
    return results


def ref_closed_unit_form(x, kind, j, cell):
    """The level-``j`` ``kind`` boundary of ``cell`` taken up to its level by
    units, in closed form: the entries up to dimension ``j + 1`` of the
    boundary (glued at ``j + 1`` on the source side), then at each dimension
    ``d`` above the iterated unit over the ``j``-boundary of entry ``d``."""
    entries = list(cell.entries[: j + 1])
    if kind == "src":
        entries[j] = compose(x, j + 1, j, entries[j], x.base.tgt[j + 2][cell.entries[j + 1]])
    for d in range(j + 2, cell.level + 2):
        entries.append(iter_unit(x, j, d, raw_boundary(x.base, kind, d, j, cell.entries[d - 1])))
    return ref_twisted_cell(x, cell.level, entries)


def ref_unit_closed_forms(x):
    """``check_unit_closed_forms`` on names, per level ``i`` and boundary level ``j``.

    The twisted boundary is taken step by step and the twisted unit applied
    ``i - j`` times; an error ends the cell with its text.
    """
    results = []
    for i in range(1, x.truncation):
        for j in range(i):
            failures = []
            cells = ref_twisted_cells(x, i)
            for cell in cells:
                try:
                    for kind in ("src", "tgt"):
                        iterated = ref_twisted_boundary(x, kind, cell, j)
                        for _ in range(i - j):
                            iterated = ref_twisted_unit(x, iterated)
                        closed = ref_closed_unit_form(x, kind, j, cell)
                        if iterated != closed:
                            failures.append(
                                f"{kind} at {cell.entries}: {iterated.entries} != {closed.entries}"
                            )
                except _EVAL_ERRORS as exc:
                    failures.append(f"{cell.entries}: {exc}")
            results.append(_uncapped("unit-closed-form", f"i={i},j={j}", failures, len(cells)))
    return results


def ref_build_twisted(x):
    """The twisted complex assembled cell by cell from the operations above."""
    n = x.truncation
    if n == 0:
        raise DimOutOfRange("twisting needs truncation >= 1")
    levels = [ref_twisted_cells(x, i) for i in range(n)]
    names = [{cell: "(" + "|".join(cell.entries) + ")" for cell in layer} for layer in levels]
    cells = [tuple(names[i][cell] for cell in levels[i]) for i in range(n)]
    src, tgt = [], []
    for i in range(1, n):
        src.append({names[i][c]: names[i - 1][ref_twisted_source(x, c)] for c in levels[i]})
        tgt.append({names[i][c]: names[i - 1][ref_twisted_target(x, c)] for c in levels[i]})
    base = ref_validate_globular_set(cells, src, tgt)
    comp = {}
    for i in range(1, n):
        for j in range(i):
            by_target = {}
            for cell in levels[i]:
                by_target.setdefault(ref_twisted_boundary(x, "tgt", cell, j), []).append(cell)
            table = {}
            for left in levels[i]:
                for right in by_target.get(ref_twisted_boundary(x, "src", left, j), ()):
                    table[(names[i][left], names[i][right])] = names[i][
                        ref_twisted_compose(x, j, left, right)
                    ]
            comp[(i, j)] = table
    units = [
        {names[i][c]: names[i + 1][ref_twisted_unit(x, c)] for c in levels[i]}
        for i in range(n - 1)
    ]
    inv = None
    if x.inv is not None:
        inv = {}
        for i in range(1, n):
            for j in range(i):
                inv[(i, j)] = {names[i][c]: names[i][ref_twisted_inverse(x, j, c)]
                               for c in levels[i]}
    return ref_validate_omega(base, comp, units, inv)


def brute_twisted_product(x, table):
    """Filter the full product of twisted cells by the gluing equations.

    Position ``k``'s source boundary is evaluated once positions ``1..k``
    are glued, in lexicographic order of the tuples; the first one that
    raises is raised.
    """
    factors = [ref_twisted_cells(x, d) for d in table.outer]
    memo = {}

    def bound(kind, cell, level):
        key = (kind, cell, level)
        if key not in memo:
            try:
                memo[key] = ref_twisted_boundary(x, kind, cell, level)
            except Exception as exc:  # replayed where the enumeration reaches it
                memo[key] = exc
        return memo[key]

    out = []
    for combo in itertools.product(*factors):
        for k, seam in enumerate(table.inner):
            left = bound("src", combo[k], seam)
            if isinstance(left, Exception):
                raise left
            if left != bound("tgt", combo[k + 1], seam):
                break
        else:
            out.append(combo)
    return out


def brute_mixed_product(x, table):
    """Filter the full product of head cells and segments by the seam equations."""
    gs = x.base
    bounds = _segment_bounds(table)
    heads = ref_twisted_cells(x, table.outer[0])
    lists = [[TwistedSegment(low, high, e) for e in brute_segment_cells(gs, low, high)]
             for low, high in bounds]
    out = []
    for head in heads:
        for segments in itertools.product(*lists):
            top, top_dim = head.top(), head.level + 1
            for l, seg in enumerate(segments):
                seam = table.inner[l]
                if raw_boundary(gs, "src", top_dim, seam, top) != raw_boundary(
                    gs, "tgt", seg.low + 1, seam, seg.entries[0]
                ):
                    break
                top, top_dim = seg.entries[-1], seg.high + 1
            else:
                out.append(MixedTuple(table, head, segments))
    return out


# -- the validators as they were before they ran on ids, verbatim ------------------
#
# These loop over names: membership by ``has_cell`` or a scan of a tuple,
# composability by two ``GlobularSet.boundary`` calls per entry.  The library's
# validators call neither, so these stay independent of them.


def ref_validate_group(table: GroupTable) -> tuple[str, dict[str, str]]:
    """Return the identity element and inverse map, or raise ``NotAGroup``."""
    elems = table.elements
    mul = table.mul
    for a, b in itertools.product(elems, repeat=2):
        if mul.get((a, b)) not in elems:
            raise NotAGroup(f"table not closed/total at ({a!r}, {b!r})")
    for a, b, c in itertools.product(elems, repeat=3):
        if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]:
            raise NotAGroup(f"not associative at ({a!r}, {b!r}, {c!r})")
    identity = None
    for e in elems:
        if all(mul[(e, a)] == a and mul[(a, e)] == a for a in elems):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity")
    inverse: dict[str, str] = {}
    for a in elems:
        for b in elems:
            if mul[(a, b)] == identity and mul[(b, a)] == identity:
                inverse[a] = b
                break
        else:
            raise NotAGroup(f"{a!r} has no inverse")
    return identity, inverse


def ref_validate_globular_set(cells, src, tgt) -> GlobularSet:
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


def ref_validate_omega(base: GlobularSet, comp, unit, inv=None) -> OmegaStructure:
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


def ref_validate_presheaf(base: SmallCategory, values, action) -> Presheaf:
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
    for (g, f), h in base.comp.items():  # the composable pairs, g-major
        for e in values[base.morphisms[g][1]]:
            if action[h][e] != action[f][action[g][e]]:
                raise ValidationError(f"functoriality fails at ({g!r}, {f!r}) on {e!r}")
    return Presheaf(base, values, action)
