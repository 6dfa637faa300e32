"""Line-oriented check reports with a JSON mirror.

Text form, one line per checked scope::

    CHECK <name> <scope> PASS
    CHECK <name> <scope> FAIL <witness>
    CHECK <name> <scope> SKIP <reason>

SKIP marks a check that had nothing to test on the input; it is no violation.

JSON mirror: a list of ``{"check", "scope", "status", "witness"}`` objects.
"""

from __future__ import annotations

from .errors import Record


class CheckResult(Record):
    """One checked scope; ``status`` is "PASS", "FAIL" or "SKIP"."""

    _fields = ("check", "scope", "status", "witness", "failures")

    def __init__(self, check: str, scope: str, status: str, witness: str | None = None,
                 failures: tuple[str, ...] = ()):
        self.__dict__.update(check=check, scope=scope, status=status, witness=witness, failures=failures)

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def passed(check: str, scope: str) -> CheckResult:
    return CheckResult(check, scope, "PASS")


def failed(check: str, scope: str, failures) -> CheckResult:
    failures = tuple(str(f) for f in failures)
    witness = failures[0] if failures else None
    return CheckResult(check, scope, "FAIL", witness, failures)


def verdict(check: str, scope: str, failures) -> CheckResult:
    """FAIL with the failures as witnesses when there are any, else PASS."""
    return failed(check, scope, failures) if failures else passed(check, scope)


def format_line(result: CheckResult) -> str:
    line = f"CHECK {result.check} {result.scope} {result.status}"
    if result.witness is not None:
        line += f" {result.witness}"
    return line


def to_json(results) -> list[dict]:
    return [
        {"check": r.check, "scope": r.scope, "status": r.status, "witness": r.witness}
        for r in results
    ]


def all_pass(results) -> bool:
    """No result is a FAIL."""
    return all(r.status != "FAIL" for r in results)
