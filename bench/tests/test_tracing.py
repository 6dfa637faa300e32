"""The traced run calls the program's own front ends and leaves them as it found them.

Run from the checkout root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

from pathlib import Path

import tracing
import workloads

from globkernel import cli, decalage, globular, omega


def _jobs(tmp_path, names):
    work = workloads.build("decalage", 0, tmp_path)
    return [job for job in work.jobs() if job.name in names]


def test_traced_pass_nests_calls_and_restores_functions(tmp_path):
    originals = (omega.check_axiom, decalage.globular_product, globular.globular_product,
                 cli.report.format_line)
    jobs = _jobs(tmp_path, {"decalage product_z2_z3", "delta max-n=3 json"})
    tracer = tracing.Tracer(True)
    _, problems = tracing.run_pass(jobs, tracer)
    assert problems == []
    assert (omega.check_axiom, decalage.globular_product, globular.globular_product,
            cli.report.format_line) == originals

    by_id = {span[0]: span for span in tracer.spans}
    parents = {(span[1], by_id[span[4]][1] if span[4] is not None else None)
               for span in tracer.spans}
    # calls made inside a traced function are its children, even across modules
    assert ("globular.globular_product", "decalage.check_sections") in parents
    assert ("globular.validate_globular_set", "omega.omega_from_json") in parents
    assert ("decalage.check_shift_decalage", None) in parents
    assert {f"omega.check_axiom.{a}" for a in omega.FULL_FLAGS.axioms()} <= {
        span[1] for span in tracer.spans}
    assert tracer.counts["omega.check_axiom.assoc.instances"] > 0
    assert tracer.counts["omega.check_axiom.assoc.violations"] == 0
    (decalage_job,) = [job for job in jobs if job.kind == "decalage"]
    assert tracer.counts["omega.omega_from_json.bytes"] == (
        Path(decalage_job.params["input"]).stat().st_size)

    times = tracer.self_times()
    total = sum(span[3] - span[2] for span in tracer.spans if span[4] is None)
    assert abs(sum(times.values()) - total) < 1e-6


def test_untraced_pass_records_nothing(tmp_path):
    tracer = tracing.Tracer(False)
    _, problems = tracing.run_pass(_jobs(tmp_path, {"delta max-n=3 text"}), tracer)
    assert problems == [] and tracer.spans == [] and not tracer.counts


def test_a_wrong_verdict_is_reported(tmp_path):
    (job,) = _jobs(tmp_path, {"delta max-n=3 text"})
    job.verify = lambda code, stdout: [] if "CHECK shift-identity" in stdout else ["missing"]
    assert tracing.run_pass([job], tracing.Tracer(True))[1] == []
    job.verify = lambda code, stdout: ["wrong"]
    assert tracing.run_pass([job], tracing.Tracer(True))[1] == [(job.name, ["wrong"])]
