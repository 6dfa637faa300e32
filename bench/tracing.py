"""The traced run: the program's own front ends, with a span around every call into a layer.

``Tracer.installed()`` wraps each public function named in ``TRACED`` and
puts the wrapper in its place, on its own module and on every module that
imported it by name (``cli``, ``decalage``, ``twist``, the drivers).  A job
then runs exactly what a user runs, in-process: ``cli.main(argv)`` or a
driver's ``main``, with standard output captured so that the job's known
answer checks the in-process verdict too.

A span records its name, start, end, parent span and job.  Spans stay in
memory and are written out when the run ends.  The span names are the
per-layer metric names without their ``.s`` suffix.  A traced function that
calls another one, such as ``check_sections`` calling ``globular_product``,
gets the inner call as a child span, and its self time is its duration minus
its children's.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import oracle
from workloads import Job

from globkernel import cli, decalage, globular, omega, report, testcat, twist

sys.path.insert(0, str(Path(__file__).resolve().parent / "drivers"))
DRIVERS = {name: importlib.import_module(name) for name in ("roundtrip", "separating")}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _size(key: str):
    return lambda args, kwargs, result: {key: len(result)}


# (module, function, span name or a function of the call's arguments, counts of
# its result or None).  The span name defaults to "<module>.<function>".
TRACED = [
    (omega, "omega_from_json", None, None),
    (omega, "omega_to_json", None, None),
    (omega, "check_structure", None, None),
    # its .violations and .instances are counted per job, in Tracer.end_job
    (omega, "check_axiom",
     lambda args, kwargs: f"omega.check_axiom.{_arg(args, kwargs, 1, 'name')}", None),
    (globular, "validate_globular_set", None, None),
    (globular, "globular_product", None, _size("globular.globular_product.tuples")),
    (twist, "build_twisted", None,
     lambda args, kwargs, result: {"twist.build_twisted.cells": sum(result.base.sizes())}),
    (twist, "twisted_product", None, _size("twist.twisted_product.tuples")),
    (twist, "mixed_product", None, _size("twist.mixed_product.tuples")),
    (twist, "contract_product", None, None),
    (twist, "expand_product", None, None),
    (decalage, "check_sections", None, _size("decalage.check_sections.tables")),
    (decalage, "check_apex_naturality", None, None),
    (decalage, "check_endpoint_naturality", None, None),
    (decalage, "check_unit_closed_forms", None, None),
    (decalage, "check_lift_non_naturality", None, None),
    (decalage, "check_shift_decalage", None,
     lambda args, kwargs, result: {"decalage.check_shift_decalage.pairs":
                                   oracle.shift_pair_count(_arg(args, kwargs, 0, "max_n"))}),
    (testcat, "delta_truncated", None,
     lambda args, kwargs, result: {"testcat.delta_truncated.morphisms": len(result.morphisms)}),
    (testcat, "check_separating_interval", None, None),
    (testcat, "has_terminal", None, None),
    (testcat, "nerve", None, None),
    (report, "format_line", "cli.emit", None),
    (report, "to_json", "cli.emit", None),
]

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "job")


class Tracer:
    """Span recorder.  With ``enabled=False`` it installs nothing and records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []  # one list per span, in SPAN_FIELDS order
        self.counts: dict[str, int] = defaultdict(int)
        self.flags: list[str] = []
        self.job = ""
        self.untimed_s = 0.0  # bookkeeping inside a pass that is not program work
        self.loaded: dict | None = None  # raw tables of the job's last omega_from_json
        self.violations: dict[str, int] = {}  # axiom -> violations, for the current job
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        sid = len(self.spans)
        record = [sid, name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.job]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    @contextmanager
    def untimed(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.untimed_s += time.perf_counter() - start

    def _wrap(self, fname: str, fn, name, counts):
        def traced(*args, **kwargs):
            outermost = not self._stack
            with self.span(name if isinstance(name, str) else name(args, kwargs)):
                result = fn(*args, **kwargs)
            if counts is not None:
                for key, n in counts(args, kwargs, result).items():
                    self.counts[key] += n
            if fname == "omega_from_json":
                self.loaded = _arg(args, kwargs, 0, "data")
            elif fname == "check_axiom":
                axiom = _arg(args, kwargs, 1, "name")
                self.violations[axiom] = self.violations.get(axiom, 0) + len(result)
            elif fname == "contract_product" and outermost:
                # a round trip is one contraction and one expansion, in either
                # order; build_twisted also contracts, inside its own span
                self.counts["twist.round_trips"] += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Put a traced wrapper in place of every function in ``TRACED``, then restore."""
        if not self.enabled:
            yield
            return
        homes = [m for k, m in sys.modules.items() if k.split(".")[0] == "globkernel"]
        homes += DRIVERS.values()
        undo = []
        for module, fname, name, counts in TRACED:
            fn = getattr(module, fname)
            name = name or f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"
            wrapper = self._wrap(fname, fn, name, counts)
            for home in homes:
                if getattr(home, fname, None) is fn:
                    undo.append((home, fname, fn))
                    setattr(home, fname, wrapper)
        try:
            yield
        finally:
            for home, fname, fn in reversed(undo):
                setattr(home, fname, fn)

    def end_job(self, job: Job) -> None:
        """Count the bytes the job loaded, and each swept axiom's violations and instances."""
        if self.enabled and self.loaded is not None:
            self.counts["omega.omega_from_json.bytes"] += Path(job.params["input"]).stat().st_size
        if self.enabled and self.violations:
            raw = oracle.RawTables(self.loaded)
            for axiom, violations in self.violations.items():
                self.counts[f"omega.check_axiom.{axiom}.violations"] += violations
                instances = sum(oracle.instance_counts(raw, axiom).values())
                self.counts[f"omega.check_axiom.{axiom}.instances"] += instances
                if instances == 0 and violations == 0:
                    self.flags.append(f"PASS over 0 instances: {axiom} on {job.name}")
        self.loaded, self.violations = None, {}

    def self_times(self) -> dict[str, float]:
        """Busy time per span name, minus the time of each span's children."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child_time[sid]
        return dict(totals)


def run_job(job: Job) -> tuple[int, str]:
    """Run one job in-process, the way its command line would; return exit code and stdout."""
    argv = job.argv()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            if argv[:2] == ["-m", "globkernel.cli"]:
                code = cli.main(argv[2:])
            else:
                code = DRIVERS[Path(argv[0]).stem].main(*argv[1:])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_pass(jobs: list[Job], tracer: Tracer) -> tuple[float, list[tuple[str, list[str]]]]:
    """Run every job once; return the pass's program time and any wrong verdicts."""
    problems = []
    start = time.perf_counter()
    with tracer.installed():
        for job in jobs:
            tracer.job = job.name
            try:
                code, stdout = run_job(job)
            except Exception as exc:  # a traceback, as the job's process would print
                code, stdout = None, ""
                problems.append((job.name, [f"{type(exc).__name__}: {exc}"]))
            with tracer.untimed():
                tracer.end_job(job)
                bad = job.verify(code, stdout) if code is not None else []
            if bad:
                problems.append((job.name, bad))
    return time.perf_counter() - start - tracer.untimed_s, problems
