"""The rules by which a fast path is judged against its oracle in ``tests/oracles.py``.

Each rule is written once, here: the tier-1 tests assert that it finds no
disagreement, and ``small_scope`` prints the first one it finds.  Each caller
keeps its own caps.  Only the errors a rule or its caller names count as an
outcome; any other exception escapes and fails the caller.
"""

from __future__ import annotations

from globkernel import omega, testcat
from globkernel.errors import KernelError

from oracles import (
    brute_axiom_violations,
    brute_structure_instances,
    brute_structure_violations,
    expected_axiom_instances,
    ref_validate_category,
)


def outcome(fn, *args, errors=Exception):
    """``("value", fn(*args))``, or ``("raises", type, text)`` of the ``errors`` exception it raises."""
    try:
        return "value", fn(*args)
    except errors as exc:
        return "raises", type(exc), str(exc)


def omega_differs(x, caps, axioms=omega.AXIOMS, structure_errors=()) -> tuple[str | None, list[str]]:
    """Where ``check_structure`` and ``check_axiom`` of ``axioms`` on ``x`` at ``caps`` first
    differ from the brute oracles (None where never), and the laws whose oracle lists are not empty.

    A report must hold the oracle's violations cut at the cap, be ``truncated`` exactly
    when the oracle has more, and count the oracle's instances, or at most that many where
    the cap cut the sweep short.  Only the boundary-law sweep may raise, only
    ``structure_errors``, and then the oracle's error."""
    sweeps = [("structure", lambda: brute_structure_violations(x), brute_structure_instances(x),
               lambda cap: omega.check_structure(x, cap), structure_errors)]
    sweeps += [(name, lambda name=name: brute_axiom_violations(x, name), expected_axiom_instances(x, name),
                lambda cap, name=name: omega.check_axiom(x, name, None, cap), ()) for name in axioms]
    failed = []
    for name, oracle, count, sweep, errors in sweeps:
        full = outcome(oracle, errors=errors)
        for cap in caps:
            got, where = outcome(sweep, cap, errors=errors), f"{name} at cap {cap}"
            if "raises" in (got[0], full[0]):
                if got != full:
                    return f"{where}: {got}, oracle {full}", []
                continue
            report, cut = got[1], len(full[1]) > cap
            if report.violations != full[1][:cap] or report.truncated != cut:
                return f"{where}: {report} (truncated={report.truncated}), oracle {full[1][:cap]}", []
            if report.instances > count or (not cut and report.instances != count):
                return f"{where}: {report.instances} instances, oracle {count}", []
        if full != ("value", []):
            failed.append(name)
    return None, failed


def cut_results_differ(check, reference, args, caps, one_block: bool = True):
    """Where ``check(*args, cap)`` at ``caps`` first differs from ``reference(*args)`` (None
    where never), and the reference's outcome, its ``CheckResult``s as a list.

    Each result must hold the reference's check, scope, status and witness, its failures
    cut at the cap, be ``capped`` exactly when the reference has more, and count its
    instances.  A cut sweep of several blocks may stop before its last block, so unless
    ``one_block`` it may count fewer.  An error must be the reference's, and a
    ``KernelError``."""
    def results(fn, *more):
        found = outcome(fn, *args, *more, errors=KernelError)
        return found if found[0] == "raises" or isinstance(found[1], list) else ("value", [found[1]])

    full = results(reference)
    for cap in caps:
        got = results(check, cap)
        if "raises" in (got[0], full[0]) or len(got[1]) != len(full[1]):
            if got != full:
                return f"at cap {cap}: {got}, oracle {full}", full
            continue
        for g, f in zip(got[1], full[1]):
            cut = len(f.failures) > cap
            counted = g.instances == f.instances if one_block or not cut else g.instances <= f.instances
            fields = (g.check, g.scope, g.status, g.witness, g.failures, g.capped)
            if fields != (f.check, f.scope, f.status, f.witness, f.failures[:cap], cut) or not counted:
                return f"at cap {cap}: {g}, oracle {f}", full
    return None, full


def tables(category: testcat.SmallCategory):
    """A category's objects, morphisms, identities and composites by name."""
    return category.objects, category.morphisms, category.identity, category.comp


def category_differs(args, errors=Exception):
    """How ``validate_category(*args)`` differs from ``ref_validate_category(*args)`` (None
    where both raise the same error or accept the same tables), and the reference's outcome."""
    got = outcome(lambda: tables(testcat.validate_category(*args)), errors=errors)
    full = outcome(ref_validate_category, *args, errors=errors)
    return (None if got == full else f"{got}, oracle {full}"), full
