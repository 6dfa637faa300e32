"""The integer-table sweeps against the name-based oracle, on faulted tables.

Each example sets or deletes one entry of a ``comp``, ``unit`` or ``inv``
table of a corpus structure.  Values are drawn from the cells of the entry's
dimension, so many break boundary laws, or name no cell at all; a new
``comp`` entry may sit on a pair that does not compose.  The sweeps
must give the oracle's violation list cut at the cap, down to the witnesses
and their detail text, and flag the cut exactly; where the oracle raises,
they must raise the same error.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from globkernel import omega

from conftest import corpus
from oracles import brute_axiom_violations, brute_structure_violations

CORPUS = corpus()
CAPS = (1, 3, 100)
GHOST = "ghost"


@st.composite
def faulted(draw):
    """A corpus structure with one table entry set or deleted."""
    x = CORPUS[draw(st.sampled_from(sorted(CORPUS)))]
    comp = {key: dict(t) for key, t in x.comp.items()}
    units = [dict(t) for t in x.unit]
    inv = {key: dict(t) for key, t in x.inv.items()}
    kind = draw(st.sampled_from(("comp", "unit", "inv")))
    if kind == "comp":
        i, j = draw(st.sampled_from(sorted(comp)))
        table, dim = comp[(i, j)], i
        # any pair: a new entry may sit on a pair that does not compose
        key = (draw(st.sampled_from(x.base.cells[i])), draw(st.sampled_from(x.base.cells[i])))
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


def _run(fn):
    """``fn()``, or KeyError when it raises one (a lawless table the sweep cannot read)."""
    try:
        return fn()
    except KeyError:
        return KeyError


def _capped(full, cap):
    """What a sweep capped at ``cap`` must give when the full list is ``full``."""
    return KeyError if full is KeyError else (full[:cap], len(full) > cap)


def _report(report):
    return KeyError if report is KeyError else (report.violations, report.truncated)


@settings(max_examples=150, deadline=None)
@given(faulted())
def test_sweeps_match_oracle_on_single_faults(x):
    full = _run(lambda: brute_structure_violations(x))
    for cap in CAPS:
        got = _report(_run(lambda: omega.check_structure(x, cap)))
        assert got == _capped(full, cap), ("structure", cap)
    for name in omega.AXIOMS:
        full = brute_axiom_violations(x, name)
        for cap in CAPS:
            got = _report(omega.axiom_report(x, name, None, cap))
            assert got == _capped(full, cap), (name, cap)


def test_sweeps_match_oracle_on_clean_corpus():
    for name, x in CORPUS.items():
        assert omega.check_structure(x).violations == brute_structure_violations(x) == [], name
        for axiom in omega.AXIOMS:
            assert omega.check_axiom(x, axiom) == brute_axiom_violations(x, axiom) == [], name
