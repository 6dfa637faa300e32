"""Verdict benchmark for globkernel: end-to-end verdict times and per-layer spans.

Run from the root of a source checkout (no install needed):

    python3 bench/run.py --workload check --seed 1 --seconds 30 --trace 0

Workloads: ``check``, ``faulty``, ``twist``, ``decalage`` (see
``workloads.py`` and ``bench/README.md``).  Set-up writes the seeded inputs,
mutants and known answers under ``.bench_work/``; it is repeated at least
``SETUP_MIN_REPEATS`` times and for at least ``SETUP_MIN_SECONDS``, and its
median is ``setup_s``.  The benchmark and its jobs are pinned to one CPU,
and every end-to-end time is scaled to reference host speed (see
``ReferenceClock``).

``--trace 0`` runs every job as a fresh process (``python3 -m
globkernel.cli ...`` or a driver under ``bench/drivers``), one at a time in
a closed loop with one client, repeating whole passes over the workload
until ``--seconds`` is used up; a job's time is its median over the
passes.
``--trace 1`` runs the same jobs in-process instead, through ``cli.main``
and the drivers' ``main``, alternating untraced and traced passes, and
reports the per-layer metrics.  Every verdict is checked against its known
answer.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record goes to
``.bench_out/``, and a traced run's spans go beside it, one a line.  Exit 0
when every verdict is correct, 1 when one is not, 2 when the checkout has no
program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

from oracle import AXIOMS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("check", "faulty", "twist", "decalage")
SETUP_MIN_REPEATS = 9  # set-up repeats until both minimums are met; setup_s is the median
SETUP_MIN_SECONDS = 0.25
CALIBRATION_REF_S = 0.015  # the calibration loop's time on the reference host
MIN_PASSES = 2
IMPORT_REPEATS = 5
JOB_TIMEOUT_S = 60
TRACEBACK = "Traceback (most recent call last)"

# (name, unit) of every per-layer metric; span names are these without ".s"
PER_LAYER = [
    ("cli.import_s", "s"),
    ("cli.emit.s", "s"),
    ("globular.validate_globular_set.s", "s"),
    ("globular.globular_product.s", "s"),
    ("globular.globular_product.tuples", "count"),
    ("omega.omega_from_json.s", "s"),
    ("omega.omega_from_json.bytes", "bytes"),
    ("omega.omega_to_json.s", "s"),
    ("omega.check_structure.s", "s"),
    *[(f"omega.check_axiom.{a}.{k}", "s" if k == "s" else "count")
      for a in AXIOMS for k in ("s", "instances", "violations")],
    ("twist.build_twisted.s", "s"),
    ("twist.build_twisted.cells", "count"),
    ("twist.twisted_product.s", "s"),
    ("twist.twisted_product.tuples", "count"),
    ("twist.mixed_product.s", "s"),
    ("twist.mixed_product.tuples", "count"),
    ("twist.contract_product.s", "s"),
    ("twist.expand_product.s", "s"),
    ("twist.round_trips", "count"),
    ("decalage.check_sections.s", "s"),
    ("decalage.check_sections.tables", "count"),
    ("decalage.check_apex_naturality.s", "s"),
    ("decalage.check_endpoint_naturality.s", "s"),
    ("decalage.check_unit_closed_forms.s", "s"),
    ("decalage.check_lift_non_naturality.s", "s"),
    ("decalage.check_shift_decalage.s", "s"),
    ("decalage.check_shift_decalage.pairs", "count"),
    ("testcat.delta_truncated.s", "s"),
    ("testcat.delta_truncated.morphisms", "count"),
    ("testcat.check_separating_interval.s", "s"),
    ("testcat.has_terminal.s", "s"),
    ("testcat.nerve.s", "s"),
    ("trace.overhead_s", "s"),
]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("GLOB_KERNEL_THREADS", None)  # jobs run with the default: serial sweeps
    return env


def provenance() -> dict:
    import numpy

    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        sha = (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        sha = "unknown (not a git checkout, or a packed ref)"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        "GLOB_KERNEL_THREADS": "unset in jobs (was "
        + repr(os.environ.get("GLOB_KERNEL_THREADS", "unset")) + " in the caller)",
    }


def run_job(job, env, workdir: Path):
    """Run one job as a fresh process; return its seconds, max RSS (KB) and problems."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *job.argv()], cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode("utf-8", "replace")
        stderr = err.read().decode("utf-8", "replace")
    problems = job.verify(code, stdout)
    if TRACEBACK in stderr:
        problems.append("traceback on stderr")
    return seconds, usage.ru_maxrss, problems


def calibration_s() -> float:
    """Time of a fixed pure-Python loop of 300,000 steps, about 15 to 30 ms."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return time.perf_counter() - start


def pin_cpu() -> int:
    """Keep the benchmark and every job it starts on one CPU (see ``ReferenceClock``)."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class ReferenceClock:
    """Scales a run's times to a host on which the calibration loop takes ``CALIBRATION_REF_S``.

    The host is shared.  Each of its CPUs slows by up to 1.6x for tens of
    milliseconds at a time, independently of the other, and the average
    slowdown drifts over minutes, so whole runs came out up to 40% apart.
    So the benchmark pins itself and its jobs to one CPU, times the
    calibration loop between jobs on that CPU, and multiplies the run's
    times by the reference over the loop's mean time in the run.  The loop
    runs in the benchmark's own process, so a change to the program cannot
    move it.
    """

    def __init__(self):
        self.loops: list[float] = []

    def tick(self) -> None:
        self.loops.append(calibration_s())

    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.fmean(self.loops)


def keep_going(start: float, passes: list[float], seconds: float) -> bool:
    elapsed = time.perf_counter() - start
    return len(passes) < MIN_PASSES or elapsed + statistics.fmean(passes) <= seconds


def run_untraced(workload, seconds: float, workdir: Path) -> dict:
    env = child_env()
    clock = ReferenceClock()
    times: dict[str, list[float]] = defaultdict(list)
    passes: list[float] = []
    peak_kb = attempted = 0
    problems = []
    start = time.perf_counter()
    while not passes or keep_going(start, passes, seconds):
        pass_start = time.perf_counter()
        for job in workload.jobs():
            clock.tick()
            elapsed, rss_kb, bad = run_job(job, env, workdir)
            attempted += 1
            times[job.name].append(elapsed)
            peak_kb = max(peak_kb, rss_kb)
            if bad:
                problems.append((job.name, bad))
        passes.append(time.perf_counter() - pass_start)
    clock.tick()
    scale = clock.factor()
    per_job = [statistics.median(v) * scale for v in times.values()]
    return {
        "attempted": attempted,
        "problems": problems,
        "passes": passes,
        "job_s": dict(times),
        "unscaled_wall_s": sum(statistics.median(v) for v in times.values()),
        "scale": scale,
        "calibration_s": clock.loops,
        "metrics": {
            "wall_s": (sum(per_job), "s", len(passes)),
            # percentiles over one time per job, so a sample is a job
            "verdict_s.p50": (statistics.median(per_job), "s", len(per_job)),
            "verdict_s.p90": (statistics.quantiles(per_job, n=10, method="inclusive")[-1],
                              "s", len(per_job)),
            "peak_rss_mb": (peak_kb / 1024, "MB", attempted),
        },
    }


def import_seconds(env) -> list[float]:
    out = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import globkernel.cli"], cwd=ROOT, env=env,
                       check=True, timeout=JOB_TIMEOUT_S)
        out.append(time.perf_counter() - start)
    return out


def run_traced(workload, seconds: float) -> dict:
    import tracing

    jobs = workload.jobs()
    imports = import_seconds(child_env())
    # a first untraced pass, not timed, so that neither side pays for cold caches
    _, problems = tracing.run_pass(jobs, tracing.Tracer(False))
    attempted = len(jobs)
    plain, traced, tracers = [], [], []
    start = time.perf_counter()
    while not traced or keep_going(start, [a + b for a, b in zip(plain, traced)], seconds):
        order = ((False, plain), (True, traced))
        for enabled, walls in order if len(traced) % 2 == 0 else order[::-1]:
            tracer = tracing.Tracer(enabled)
            wall, bad = tracing.run_pass(jobs, tracer)
            walls.append(wall)
            attempted += len(jobs)
            problems += bad
            if enabled:
                tracers.append(tracer)
    counts = [dict(t.counts) for t in tracers]
    if any(c != counts[0] for c in counts):
        problems.append(("trace", ["counts differ between traced passes"]))
    self_times = [t.self_times() for t in tracers]
    metrics = {"cli.import_s": (statistics.median(imports), "s", len(imports))}
    # the result line must hold every declared metric; one whose layer did no
    # such work in this workload (no twist spans in check, no violations on
    # lawful inputs) is 0 there, and is listed as absent
    absent = []
    for name, unit in PER_LAYER:
        if name in metrics or name == "trace.overhead_s":
            continue
        if unit == "s":
            span = name[: -len(".s")]
            value = statistics.median(st.get(span, 0.0) for st in self_times)
            present = span in self_times[0]
        else:
            value = counts[0].get(name, 0)
            present = value > 0
        metrics[name] = (value, unit, len(tracers))
        if not present:
            absent.append(name)
    # adjacent passes share the host's state, so compare them pair by pair
    overhead = statistics.median(t - u for t, u in zip(traced, plain))
    metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    return {
        "attempted": attempted,
        "problems": problems,
        "passes": {"untraced_s": plain, "traced_s": traced},
        "flags": sorted(set(tracers[-1].flags)),
        "absent": absent,
        "spans": [["pass", *tracing.SPAN_FIELDS]]
        + [[k, *span] for k, t in enumerate(tracers) for span in t.spans],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "globkernel" / "__init__.py").is_file():
        print(f"no globkernel sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    pin_cpu()
    import globkernel.cli  # noqa: F401  (compiles the CLI's bytecode before timing)
    import workloads

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setups, clock = [], ReferenceClock()
    try:
        while len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS:
            shutil.rmtree(work, ignore_errors=True)
            clock.tick()
            start = time.perf_counter()
            workload = workloads.build(args.workload, args.seed, work / "inputs")
            setups.append(time.perf_counter() - start)
        clock.tick()
        if args.trace:
            result = run_traced(workload, args.seconds)
        else:
            result = run_untraced(workload, args.seconds, work)
            setup_s = statistics.median(setups) * clock.factor()
            result["metrics"]["setup_s"] = (setup_s, "s", len(setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(result["problems"])
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client, one job at a time",
        "provenance": provenance(),
        "setup_s": setups,
        "notes": workload.notes,
        **result,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    spans = record.pop("spans", None)
    out_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:  # one span a line, after a line naming the fields
        lines = "".join(json.dumps(span) + "\n" for span in spans)
        out_file.with_suffix(".spans.jsonl").write_text(lines, encoding="utf-8")

    print(f"workload {args.workload} (seed {args.seed}): {record['why']}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in record["provenance"].items()))
    for line in workload.notes:
        print(f"  {line}")
    for line in result.get("flags", []):
        print(f"FLAG {line}")
    for name, bad in result["problems"]:
        print(f"WRONG {name}: {'; '.join(bad)}")
    for name, (value, unit, samples) in result["metrics"].items():
        if name not in result.get("absent", ()):
            print(f"{name:45s} {value:14.6f} {unit:6s} samples={samples}")
    if result.get("absent"):
        print("not run in this workload, so 0 in the result line: " + ", ".join(result["absent"]))
    if "scale" in result:
        print(f"calibration loop mean {statistics.fmean(result['calibration_s']) * 1e3:.3f} ms"
              f" (reference {CALIBRATION_REF_S * 1e3:.3f} ms), times scaled by"
              f" {result['scale']:.4f}; unscaled wall_s {result['unscaled_wall_s']:.6f} s")
    print(f"failed_share {failed / result['attempted']:.6f} ({failed}/{result['attempted']})")
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
