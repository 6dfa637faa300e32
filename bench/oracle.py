"""Independent answers computed from the raw JSON tables of a structure file.

Nothing here imports ``globkernel``: the benchmark uses these functions to
decide what the program must answer, so they cannot share its code paths.

* :func:`instance_counts` counts the instances of each axiom, per
  subscript, as sums of products of boundary-bucket sizes;
* :func:`first_axiom_violation` and :func:`first_structure_violation` find
  the first counterexample in declaration order by brute force, with the
  same "not evaluable" rule the checker documents;
* :func:`twisted_cell_counts` counts glued tuples per twisted level;
* :func:`hom_counts_nerve` and :func:`shift_pair_count` give the closed-form
  counts of the finite-set category checks.
"""

from __future__ import annotations

from collections import Counter, defaultdict

AXIOMS = (
    "assoc",
    "exchange",
    "left_unit",
    "right_unit",
    "unit_compat",
    "left_inverse",
    "right_inverse",
)


class NotEvaluable(Exception):
    """An axiom instance whose sides cannot be computed from the tables."""


def split_pair(key: str) -> tuple[str, str]:
    """Split ``"u|v"`` at the ``|`` that sits outside every parenthesis."""
    depth = 0
    for pos, ch in enumerate(key):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            return key[:pos], key[pos + 1 :]
    raise ValueError(f"no top-level '|' in {key!r}")


def _dims(key: str) -> tuple[int, int]:
    i, j = key.split(",")
    return int(i), int(j)


class RawTables:
    """The tables of a structure file, indexed but not validated."""

    def __init__(self, data: dict):
        self.cells = [list(layer) for layer in data["cells"]]
        self.n = len(self.cells) - 1
        self.members = [set(layer) for layer in self.cells]
        self.src = [{}] + [dict(m) for m in data["src"]]
        self.tgt = [{}] + [dict(m) for m in data["tgt"]]
        self.comp = {
            _dims(key): {split_pair(pair): w for pair, w in table.items()}
            for key, table in data["comp"].items()
        }
        self.unit_tables = [dict(m) for m in data["unit"]]
        inv = data.get("inv")
        self.inv = None if inv is None else {
            _dims(key): dict(table) for key, table in inv.items()
        }

    # -- lookups that raise NotEvaluable where the checker reports it ----------

    def bnd(self, kind: str, i: int, j: int, u: str) -> str:
        if u not in self.members[i]:
            raise NotEvaluable(f"{u!r} is not a {i}-cell")
        table = self.src if kind == "src" else self.tgt
        for d in range(i, j, -1):
            u = table[d][u]
        return u

    def compose(self, i: int, j: int, u: str, v: str) -> str:
        if self.bnd("src", i, j, u) != self.bnd("tgt", i, j, v):
            raise NotEvaluable("not composable")
        try:
            return self.comp[(i, j)][(u, v)]
        except KeyError:
            raise NotEvaluable("no table entry") from None

    def unit(self, i: int, u: str) -> str:
        if u not in self.members[i]:
            raise NotEvaluable(f"{u!r} is not a {i}-cell")
        try:
            return self.unit_tables[i][u]
        except KeyError:
            raise NotEvaluable("no unit entry") from None

    def iter_unit(self, j: int, i: int, u: str) -> str:
        for d in range(j, i):
            u = self.unit(d, u)
        return u

    def inverse(self, i: int, j: int, u: str) -> str:
        if u not in self.members[i]:
            raise NotEvaluable(f"{u!r} is not a {i}-cell")
        try:
            return self.inv[(i, j)][u]
        except KeyError:
            raise NotEvaluable("no inverse entry") from None

    def buckets(self, kind: str, i: int, j: int) -> dict[str, list[str]]:
        """Cells of dimension ``i`` grouped by their iterated boundary at ``j``."""
        out: dict[str, list[str]] = defaultdict(list)
        for v in self.cells[i]:
            out[self.bnd(kind, i, j, v)].append(v)
        return out


def subscripts(axiom: str, n: int) -> list[tuple[int, ...]]:
    """Subscripts an axiom is checked at, in the checker's order."""
    if axiom == "exchange":
        return [(i, j, k) for i in range(2, n + 1) for j in range(1, i) for k in range(j)]
    top = n - 1 if axiom == "unit_compat" else n
    return [(i, j) for i in range(1, top + 1) for j in range(i)]


# -- instance counts --------------------------------------------------------------


def _count_at(raw: RawTables, axiom: str, sub: tuple[int, ...]) -> int:
    i, j = sub[0], sub[1]
    if axiom in ("left_unit", "right_unit", "left_inverse", "right_inverse"):
        return len(raw.cells[i])
    by_src = Counter(raw.bnd("src", i, j, u) for u in raw.cells[i])
    by_tgt = Counter(raw.bnd("tgt", i, j, v) for v in raw.cells[i])
    if axiom == "unit_compat":
        # pairs (u, v) with s_j(u) = t_j(v)
        return sum(by_src[c] * by_tgt[c] for c in by_src)
    if axiom == "assoc":
        # triples (u, v, w): for each middle v, #u over its target times #w under its source
        return sum(
            by_src[raw.bnd("tgt", i, j, v)] * by_tgt[raw.bnd("src", i, j, v)]
            for v in raw.cells[i]
        )
    # exchange (u, u', v, v'): s_j u = t_j u', s_k u' = t_k v, s_j v = t_j v'
    k = sub[2]
    right_weight: Counter = Counter()
    for v in raw.cells[i]:
        right_weight[raw.bnd("tgt", i, k, v)] += by_tgt[raw.bnd("src", i, j, v)]
    return sum(
        by_src[raw.bnd("tgt", i, j, up)] * right_weight[raw.bnd("src", i, k, up)]
        for up in raw.cells[i]
    )


def instance_counts(raw: RawTables, axiom: str) -> dict[tuple[int, ...], int]:
    """Number of instances of ``axiom`` at each subscript."""
    return {sub: _count_at(raw, axiom, sub) for sub in subscripts(axiom, raw.n)}


# -- first counterexample, by brute force ---------------------------------------------


def _instances(raw: RawTables, axiom: str, sub: tuple[int, ...]):
    """Yield ``(cells, sides)`` in declaration order; ``sides`` computes both sides."""
    i, j = sub[0], sub[1]
    if axiom == "assoc":
        under = raw.buckets("tgt", i, j)
        for u in raw.cells[i]:
            for v in under.get(raw.bnd("src", i, j, u), ()):
                for w in under.get(raw.bnd("src", i, j, v), ()):
                    yield (u, v, w), lambda u=u, v=v, w=w: (
                        raw.compose(i, j, raw.compose(i, j, u, v), w),
                        raw.compose(i, j, u, raw.compose(i, j, v, w)),
                    )
    elif axiom == "exchange":
        k = sub[2]
        under_j = raw.buckets("tgt", i, j)
        under_k = raw.buckets("tgt", i, k)
        for u in raw.cells[i]:
            for up in under_j.get(raw.bnd("src", i, j, u), ()):
                for v in under_k.get(raw.bnd("src", i, k, up), ()):
                    for vp in under_j.get(raw.bnd("src", i, j, v), ()):
                        yield (u, up, v, vp), lambda u=u, up=up, v=v, vp=vp: (
                            raw.compose(i, k, raw.compose(i, j, u, up), raw.compose(i, j, v, vp)),
                            raw.compose(i, j, raw.compose(i, k, u, v), raw.compose(i, k, up, vp)),
                        )
    elif axiom == "unit_compat":
        under = raw.buckets("tgt", i, j)
        for u in raw.cells[i]:
            for v in under.get(raw.bnd("src", i, j, u), ()):
                yield (u, v), lambda u=u, v=v: (
                    raw.unit(i, raw.compose(i, j, u, v)),
                    raw.compose(i + 1, j, raw.unit(i, u), raw.unit(i, v)),
                )
    else:
        for u in raw.cells[i]:
            if axiom == "left_unit":
                sides = lambda u=u: (
                    raw.compose(i, j, raw.iter_unit(j, i, raw.bnd("tgt", i, j, u)), u), u)
            elif axiom == "right_unit":
                sides = lambda u=u: (
                    raw.compose(i, j, u, raw.iter_unit(j, i, raw.bnd("src", i, j, u))), u)
            elif axiom == "left_inverse":
                sides = lambda u=u: (
                    raw.compose(i, j, raw.inverse(i, j, u), u),
                    raw.iter_unit(j, i, raw.bnd("src", i, j, u)))
            else:
                sides = lambda u=u: (
                    raw.compose(i, j, u, raw.inverse(i, j, u)),
                    raw.iter_unit(j, i, raw.bnd("tgt", i, j, u)))
            yield (u,), sides


def first_axiom_violation(raw: RawTables, axiom: str):
    """``(law, subscripts, cells, detail)`` of the first counterexample, or None.

    ``detail`` is ``"lhs != rhs"`` or ``"not evaluable"``.
    """
    for sub in subscripts(axiom, raw.n):
        for cells, sides in _instances(raw, axiom, sub):
            try:
                lhs, rhs = sides()
            except NotEvaluable:
                return axiom, sub, cells, "not evaluable"
            if lhs != rhs:
                return axiom, sub, cells, f"{lhs} != {rhs}"
    return None


def first_structure_violation(raw: RawTables):
    """First boundary-law violation, in the order the structure check walks."""
    n = raw.n
    src, tgt = raw.src, raw.tgt
    for i in range(1, n + 1):
        for j in range(i):
            table = raw.comp.get((i, j), {})
            under = raw.buckets("tgt", i, j)
            for u in raw.cells[i]:
                for v in under.get(raw.bnd("src", i, j, u), ()):
                    w = table.get((u, v))
                    if w is None:
                        return "comp_total", (i, j), (u, v), None
                    if j == i - 1:
                        want_s, want_t = src[i][v], tgt[i][u]
                    else:
                        lower = raw.comp.get((i - 1, j), {})
                        want_s = lower.get((src[i][u], src[i][v]))
                        want_t = lower.get((tgt[i][u], tgt[i][v]))
                    if src[i][w] != want_s:
                        return "comp_src_law", (i, j), (u, v), None
                    if tgt[i][w] != want_t:
                        return "comp_tgt_law", (i, j), (u, v), None
    for i in range(n):
        for u in raw.cells[i]:
            w = raw.unit_tables[i][u]
            if src[i + 1][w] != u or tgt[i + 1][w] != u:
                return "unit_law", (i,), (u,), None
    if raw.inv is not None:
        for i in range(1, n + 1):
            for j in range(i):
                for u in raw.cells[i]:
                    w = raw.inv[(i, j)][u]
                    if j == i - 1:
                        want = (tgt[i][u], src[i][u])
                    else:
                        lower = raw.inv[(i - 1, j)]
                        want = (lower[src[i][u]], lower[tgt[i][u]])
                    if (src[i][w], tgt[i][w]) != want:
                        return "inv_law", (i, j), (u,), None
    return None


# -- twisted complex and finite-set category counts ------------------------------------


def twisted_cell_counts(raw: RawTables) -> list[int]:
    """Glued tuples ``(x_1, .., x_{l+1})`` per level ``l < n``.

    ``x_k`` has dimension ``k`` and ``s_k(x_k) = t_k t_{k+1}(x_{k+1})``.
    Counted by dynamic programming over the top entry.
    """
    ending = {u: 1 for u in raw.cells[1]}  # level 0: single 1-cells
    counts = [len(ending)]
    for d in range(2, raw.n + 1):
        below_by_src: Counter = Counter()
        for u, c in ending.items():
            below_by_src[raw.src[d - 1][u]] += c
        ending = {
            u: below_by_src[raw.tgt[d - 1][raw.tgt[d][u]]] for u in raw.cells[d]
        }
        counts.append(sum(ending.values()))
    return counts


def _hom_matrix(m: int) -> list[list[int]]:
    """``|Hom([a], [b])| = (b + 1) ** (a + 1)`` in the category of all maps."""
    return [[(b + 1) ** (a + 1) for b in range(m + 1)] for a in range(m + 1)]


def hom_counts_nerve(m: int, depth: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Morphism count and nerve chain counts of maps between ``{0..a}``, ``a <= m``.

    Chains of ``d`` morphisms are sums of entries of the ``d``-th power of the
    hom-size matrix; non-degenerate chains use the matrix minus identities.
    """
    hom = _hom_matrix(m)
    nondeg = [[hom[a][b] - (a == b) for b in range(m + 1)] for a in range(m + 1)]

    def chain_counts(matrix):
        counts = [m + 1]
        row = [1] * (m + 1)
        for _ in range(depth):
            row = [sum(row[a] * matrix[a][b] for a in range(m + 1)) for b in range(m + 1)]
            counts.append(sum(row))
        return tuple(counts)

    return sum(map(sum, hom)), chain_counts(hom), chain_counts(nondeg)


def shift_pair_count(max_n: int) -> int:
    """Composable pairs ``{0..m} -> {0..n} -> {0..p}`` with ``m, n, p <= max_n``."""
    return sum(
        (n + 1) ** (m + 1) * (p + 1) ** (n + 1)
        for m in range(max_n + 1)
        for n in range(max_n + 1)
        for p in range(max_n + 1)
    )
