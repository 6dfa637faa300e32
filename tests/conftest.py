from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from globkernel import fixtures, globular, omega

from oracles import ref_build_twisted

GHOST = "ghost"


def corpus():
    """The fixture corpus used across the checker tests."""
    return {
        "discrete_ab_3": fixtures.discrete(("a", "b"), 3),
        "delooping_z2_3": fixtures.delooping(fixtures.cyclic_table(2), 3),
        "delooping_z3_3": fixtures.delooping(fixtures.cyclic_table(3), 3),
        "delooping_s3_3": fixtures.delooping(fixtures.symmetric3_table(), 3),
        "suspension_z2_1_3": fixtures.suspension(fixtures.cyclic_table(2), 1, 3),
        "suspension_z3_2_4": fixtures.suspension(fixtures.cyclic_table(3), 2, 4),
        "product_z2_sz2": fixtures.product(
            fixtures.delooping(fixtures.cyclic_table(2), 3),
            fixtures.suspension(fixtures.cyclic_table(2), 1, 3),
        ),
    }


CORPUS = corpus()

# the pair groupoid: objects a, b and the arrows between them, g after f is ia
PAIR_ARROWS = {"ia": ("a", "a"), "ib": ("b", "b"), "f": ("a", "b"), "g": ("b", "a")}
PAIR_COMP = {("ia", "ia"): "ia", ("f", "ia"): "f", ("ib", "f"): "f", ("g", "f"): "ia",
             ("ib", "ib"): "ib", ("g", "ib"): "g", ("ia", "g"): "g", ("f", "g"): "ib"}
PAIR_INVERSE = {"ia": "ia", "ib": "ib", "f": "g", "g": "f"}


def pair_groupoid(trunc: int = 3) -> omega.OmegaStructure:
    """The pair groupoid, with one unit cell over each cell above dimension 1,
    named as the arrow it sits over; inverses included."""
    arrows = tuple(PAIR_ARROWS)
    ident = {u: u for u in arrows}
    src = [{u: s for u, (s, _) in PAIR_ARROWS.items()}] + [ident] * (trunc - 1)
    tgt = [{u: t for u, (_, t) in PAIR_ARROWS.items()}] + [ident] * (trunc - 1)
    base = globular.validate_globular_set([("a", "b")] + [arrows] * trunc, src, tgt)
    comp = {(i, j): PAIR_COMP if j == 0 else {(u, u): u for u in arrows}
            for i in range(1, trunc + 1) for j in range(i)}
    inv = {(i, j): PAIR_INVERSE if j == 0 else ident for i in range(1, trunc + 1) for j in range(i)}
    return omega.validate_omega(base, comp, [{"a": "ia", "b": "ib"}] + [ident] * (trunc - 1), inv)


# In every corpus structure each cell above dimension 1 has equal source and
# target, which would hide a source mistaken for a target; the twisted
# suspension's 2-cells do not.  In the pair groupoid a 1-cell's source and
# target differ, which no other member's do.
POOL = dict(CORPUS, twisted_suspension_z2_2_4=ref_build_twisted(
    fixtures.suspension(fixtures.cyclic_table(2), 2, 4)), pair_groupoid_3=pair_groupoid())


@st.composite
def faulted(draw, pool=CORPUS):
    """A structure of ``pool`` with one table entry set or deleted.

    Values are drawn from the cells of the entry's dimension, so many break
    boundary laws, or name no cell at all.  A ``comp`` entry is one the table
    holds or any pair, so a new one may sit on a pair that does not compose.
    """
    x = pool[draw(st.sampled_from(sorted(pool)))]
    comp = {key: dict(t) for key, t in x.comp.items()}
    units = [dict(t) for t in x.unit]
    inv = {key: dict(t) for key, t in x.inv.items()}
    kind = draw(st.sampled_from(("comp", "unit", "inv")))
    if kind == "comp":
        i, j = draw(st.sampled_from(sorted(comp)))
        table, dim = comp[(i, j)], i
        cells = st.sampled_from(x.base.cells[i])
        key = draw(st.one_of(st.sampled_from(sorted(table)), st.tuples(cells, cells))
                   if table else st.tuples(cells, cells))
    elif kind == "unit":
        i = draw(st.integers(0, x.truncation - 1))
        table, dim = units[i], i + 1
        key = draw(st.sampled_from(x.base.cells[i]))
    else:
        i, j = draw(st.sampled_from(sorted(inv)))
        table, dim = inv[(i, j)], i
        key = draw(st.sampled_from(x.base.cells[i]))
    value = draw(st.sampled_from(x.base.cells[dim] + (GHOST, None)))
    if value is None:
        table.pop(key, None)
    else:
        table[key] = value
    return omega.OmegaStructure(x.base, comp, tuple(units), inv)


@pytest.fixture(scope="session")
def fixture_corpus():
    return corpus()


@pytest.fixture(scope="session")
def z2():
    return fixtures.delooping(fixtures.cyclic_table(2), 3)


@pytest.fixture(scope="session")
def z2_deep():
    return fixtures.delooping(fixtures.cyclic_table(2), 4)


@pytest.fixture(scope="session")
def z3():
    return fixtures.delooping(fixtures.cyclic_table(3), 3)


@pytest.fixture(scope="session")
def sus_z2():
    return fixtures.suspension(fixtures.cyclic_table(2), 1, 4)


@pytest.fixture(scope="session")
def sus_z3():
    return fixtures.suspension(fixtures.cyclic_table(3), 2, 4)
