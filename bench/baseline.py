"""Reproduce the baseline shares quoted in ROADMAP.md with the benchmark's tracer.

    python3 bench/baseline.py

Times, in-process and once each: every axiom sweep of suspension Z/16 (dim
2, trunc 4) and of the twisted delooping Z/12 (trunc 4), ``build_twisted``
of the latter, ``check_shift_decalage(4)`` and ``delta_truncated(3)``.
Prints each figure next to the ROADMAP value and their ratio.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from tracing import Tracer  # noqa: E402

from globkernel import decalage, fixtures, omega, testcat, twist  # noqa: E402

# label -> the ROADMAP figure, in seconds
ROADMAP = {
    "suspension Z/16: check_all": 3.2,
    "suspension Z/16: exchange": 3.2,
    "suspension Z/16: assoc": 0.3,
    "twisted Z/12: build_twisted": 0.27,
    "twisted Z/12: check_all": 1.3,
    "check_shift_decalage(4)": 1.2,
    "delta_truncated(3)": 1.7,
}


def sweep(t: Tracer, label: str, x) -> dict[str, float]:
    for axiom in omega.FULL_FLAGS.axioms():
        with t.span(f"{label}.{axiom}"):
            omega.check_axiom(x, axiom)
    times = t.self_times()
    return {axiom: times[f"{label}.{axiom}"] for axiom in omega.FULL_FLAGS.axioms()}


def main() -> int:
    t = Tracer(enabled=True)
    cyc = fixtures.cyclic_table
    sus = sweep(t, "sus16", fixtures.suspension(cyc(16), 2, 4))
    with t.span("build_twisted"):
        tx = twist.build_twisted(fixtures.delooping(cyc(12), 4))
    tw = sweep(t, "tw12", tx)
    with t.span("shift4"):
        decalage.check_shift_decalage(4)
    with t.span("delta3"):
        testcat.delta_truncated(3)
    times = t.self_times()
    measured = {
        "suspension Z/16: check_all": sum(sus.values()),
        "suspension Z/16: exchange": sus["exchange"],
        "suspension Z/16: assoc": sus["assoc"],
        "twisted Z/12: build_twisted": times["build_twisted"],
        "twisted Z/12: check_all": sum(tw.values()),
        "check_shift_decalage(4)": times["shift4"],
        "delta_truncated(3)": times["delta3"],
    }
    print(f"{'figure':34s} {'ROADMAP':>8s} {'measured':>9s} {'ratio':>6s}")
    for label, want in ROADMAP.items():
        got = measured[label]
        print(f"{label:34s} {want:8.2f} {got:9.3f} {got / want:6.2f}")
    print(f"exchange share of the suspension Z/16 sweeps: {sus['exchange'] / sum(sus.values()):.1%}")
    print(f"assoc share of the twisted Z/12 sweeps: {tw['assoc'] / sum(tw.values()):.1%}")
    print("per-axiom seconds, suspension Z/16: "
          + ", ".join(f"{a} {s:.3f}" for a, s in sus.items()))
    print("per-axiom seconds, twisted Z/12:    "
          + ", ".join(f"{a} {s:.3f}" for a, s in tw.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
