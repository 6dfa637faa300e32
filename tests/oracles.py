"""Independent brute-force oracles.

Everything here works directly on the raw dicts of a structure: no call into
the library's enumeration or boundary helpers, so these stay independent of
the code paths they are used to check.  The law sweeps evaluate each
instance with the library's scalar evaluators (``compose``, ``unit``,
``inverse``, ``iter_unit``), which define the detail text of a violation.
"""

from __future__ import annotations

import itertools

from globkernel.errors import NotComposable, ValidationError
from globkernel.omega import (
    ASSOC,
    EXCHANGE,
    INVERSE_COMPAT,
    LEFT_INVERSE,
    LEFT_UNIT,
    RIGHT_INVERSE,
    RIGHT_UNIT,
    UNIT_COMPAT,
    Violation,
    compose,
    inverse,
    iter_unit,
    unit,
)


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
