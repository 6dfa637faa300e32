"""Capped sweeps, and line-oriented check reports with a JSON mirror.

:func:`collect` cuts a sweep at its cap and counts it; :func:`verdict` reports it.

Text form, one line per checked scope::

    CHECK <name> <scope> PASS
    CHECK <name> <scope> FAIL <witness>
    CHECK <name> <scope> SKIP <reason>

SKIP marks a check that had nothing to test on the input; it is no violation.

JSON mirror: a list of ``{"check", "scope", "status", "witness", "failures",
"instances", "capped"}`` objects: every witness up to the cap, whether the cap
cut them, and the instances screened (0 for a PASS that checked nothing).
"""

from __future__ import annotations

from .errors import Record, ValidationError


class Report(Record):
    """One sweep's violations, cut at its cap, and the instances it screened.

    ``truncated`` is set exactly when more violations exist than were kept.
    ``instances`` counts the instances screened before the sweep stopped: all
    of them when ``truncated`` is false, fewer when the cap cut the sweep short.
    """

    _fields = ("violations", "truncated", "instances")

    def __init__(self, violations: list, truncated: bool, instances: int):
        self.__dict__.update(violations=violations, truncated=truncated, instances=instances)

    @property
    def ok(self) -> bool:
        return not self.violations

    # the benchmark's tracer and tests read check_axiom's result as a list of violations
    def __len__(self) -> int:
        return len(self.violations)

    def __getitem__(self, k):
        return self.violations[k]

    def __str__(self) -> str:
        if self.ok:
            return "clean"
        lines = [str(v) for v in self.violations]
        if self.truncated:
            lines.append("... (capped)")
        return "\n".join(lines)


def check_cap(cap: int) -> None:
    """Reject a cap that is no int (a bool too) or is below 1; ``collect`` and scopeless sweeps call it."""
    if type(cap) is not int:
        raise ValidationError(f"cap must be an int, got {cap!r}")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")


def collect(blocks, cap: int) -> Report:
    """The first ``cap`` violations of ``blocks`` (per block of instances, its size and
    its violations), reading one more to set ``truncated``; counts the instances read."""
    check_cap(cap)
    violations, instances = [], 0
    for size, found in blocks:
        instances += size
        for violation in found:
            if len(violations) == cap:
                return Report(violations, True, instances)
            violations.append(violation)
    return Report(violations, False, instances)


class CheckResult(Record):
    """One checked scope; ``status`` is "PASS", "FAIL" or "SKIP"."""

    _fields = ("check", "scope", "status", "witness", "failures", "instances", "capped")

    def __init__(self, check: str, scope: str, status: str, witness: str | None,
                 failures: tuple[str, ...], instances: int, capped: bool):
        self.__dict__.update(check=check, scope=scope, status=status, witness=witness, failures=failures,
                             instances=instances, capped=capped)

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def verdict(check: str, scope: str, sweep: Report) -> CheckResult:
    """FAIL with the sweep's violations as witnesses when there are any, else
    PASS; with the instances it screened and whether its cap cut the violations."""
    failures = tuple(map(str, sweep.violations))
    return CheckResult(check, scope, "FAIL" if failures else "PASS", failures[0] if failures else None,
                       failures, sweep.instances, sweep.truncated)


def format_line(result: CheckResult) -> str:
    line = f"CHECK {result.check} {result.scope} {result.status}"
    if result.witness is not None:
        line += f" {result.witness}"
    return line


def to_json(results) -> list[dict]:
    return [
        {"check": r.check, "scope": r.scope, "status": r.status, "witness": r.witness,
         "failures": list(r.failures), "instances": r.instances, "capped": r.capped}
        for r in results
    ]


def all_pass(results) -> bool:
    """No result is a FAIL."""
    return all(r.status != "FAIL" for r in results)
