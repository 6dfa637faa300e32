"""The integer-table sweeps against the name-based oracle, on faulted tables.

Each example sets or deletes one entry of a ``comp``, ``unit`` or ``inv``
table of a structure of ``conftest.POOL``, the corpus and one twisted
suspension (``conftest.faulted``).  The sweeps must give
the oracle's violation list cut at the cap, down to the witnesses and their
detail text, and flag the cut exactly; where the oracle raises, they must
raise the same error.
"""

from __future__ import annotations

from hypothesis import given, settings

from globkernel import omega

from conftest import POOL, faulted
from oracles import brute_axiom_violations, brute_structure_violations

CAPS = (1, 3, 100)


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
@given(faulted(POOL))
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
    for name, x in POOL.items():
        assert omega.check_structure(x).violations == brute_structure_violations(x) == [], name
        for axiom in omega.AXIOMS:
            assert omega.check_axiom(x, axiom) == brute_axiom_violations(x, axiom) == [], name
