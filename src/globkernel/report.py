"""Line-oriented check reports with a JSON mirror.

Text form, one line per checked scope::

    CHECK <name> <scope> PASS
    CHECK <name> <scope> FAIL <witness>
    CHECK <name> <scope> SKIP <reason>

SKIP marks a check that had nothing to test on the input; it is no violation.

JSON mirror: a list of ``{"check", "scope", "status", "witness", "failures",
"instances", "capped"}`` objects: every witness up to the cap, whether the cap
cut them, and the instances screened (0 for a PASS that checked nothing).
``instances`` and ``capped`` are null where a check does not track them yet.
"""

from __future__ import annotations

from .errors import Record


class CheckResult(Record):
    """One checked scope; ``status`` is "PASS", "FAIL" or "SKIP"."""

    _fields = ("check", "scope", "status", "witness", "failures", "instances", "capped")

    def __init__(self, check: str, scope: str, status: str, witness: str | None = None,
                 failures: tuple[str, ...] = (), instances: int | None = None, capped: bool | None = None):
        self.__dict__.update(check=check, scope=scope, status=status, witness=witness, failures=failures,
                             instances=instances, capped=capped)

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def verdict(check: str, scope: str, failures, instances: int | None = None,
            capped: bool | None = None) -> CheckResult:
    """FAIL with the failures as witnesses when there are any, else PASS; with
    the instances the check screened and whether a cap cut the failures."""
    failures = tuple(map(str, failures))
    return CheckResult(check, scope, "FAIL" if failures else "PASS", failures[0] if failures else None,
                       failures, instances, capped)


def swept(check: str, sweep) -> CheckResult:
    """The verdict of an ``omega`` sweep (a ``Report``) on scope "all", with what it covered."""
    return verdict(check, "all", sweep.violations, sweep.instances, sweep.truncated)


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
