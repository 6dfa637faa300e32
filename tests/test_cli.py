from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from globkernel import cli, fixtures, omega, report


def run(argv):
    return cli.main(argv)


def write_structure(path, x):
    path.write_text(json.dumps(omega.omega_to_json(x)), encoding="utf-8")


@pytest.fixture()
def z2_file(tmp_path):
    path = tmp_path / "z2.json"
    write_structure(path, fixtures.delooping(fixtures.cyclic_table(2), 3))
    return path


def test_check_clean_exit_zero(z2_file, capsys):
    assert run(["check", str(z2_file), "--axioms", "l,r,f,li,ri"]) == 0
    out = capsys.readouterr().out
    assert "CHECK structure all PASS" in out
    assert "CHECK axiom:assoc all PASS" in out


def test_check_json_format(z2_file, capsys):
    assert run(["check", str(z2_file), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(entry["status"] == "PASS" for entry in payload)
    assert {"check", "scope", "status", "witness", "failures", "instances", "capped"} == set(payload[0])
    assert all(entry["failures"] == [] and entry["instances"] > 0 and not entry["capped"]
               for entry in payload)


def test_check_json_shows_a_pass_over_no_instances(tmp_path, capsys):
    # a 1-truncated structure has no 2-cells: exchange and unit functoriality
    # pass without checking anything, and say so
    path = tmp_path / "z3.json"
    assert run(["fixture", "delooping", "--group", "z3", "--trunc", "1", "-o", str(path)]) == 0
    capsys.readouterr()
    assert run(["check", str(path), "--format", "json"]) == 0
    counts = {entry["check"]: entry["instances"] for entry in json.loads(capsys.readouterr().out)}
    assert {check for check, n in counts.items() if n == 0} == {"axiom:exchange", "axiom:unit_compat"}
    assert all(n > 0 for check, n in counts.items() if check not in ("axiom:exchange", "axiom:unit_compat"))


def test_check_json_flags_a_capped_sweep(tmp_path, capsys):
    x = fixtures.delooping(fixtures.cyclic_table(3), 2)
    data = omega.omega_to_json(x)
    data["comp"]["1,0"]["0|2"] = "1"  # left unit broken at 2; associativity fails seven times
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rows = {}
    for cap in (1, 100):
        assert run(["check", str(path), "--cap", str(cap), "--format", "json"]) == 1
        rows[cap] = {entry["check"]: entry for entry in json.loads(capsys.readouterr().out)}
    capped, full = rows[1]["axiom:assoc"], rows[100]["axiom:assoc"]
    assert capped["capped"] and capped["failures"] == [capped["witness"]]
    assert not full["capped"] and len(full["failures"]) == 7 and full["failures"][0] == capped["witness"]
    # the cut sweep stopped early, so it screened fewer instances
    assert 0 < capped["instances"] < full["instances"]
    assert not rows[1]["axiom:left_unit"]["capped"] and not rows[1]["axiom:exchange"]["capped"]


def test_fixture_unknown_group_exit_two(tmp_path, capsys):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run(["fixture", "delooping", "--group", "z5", "-o", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --group: invalid choice: 'z5'" in err
    assert "[--group {s3,z2,z2xz2,z3,z4}]" in err
    assert not out.exists()


def test_check_invalid_json_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_check_missing_cell_exit_two(tmp_path, capsys):
    x = fixtures.delooping(fixtures.cyclic_table(2), 2)
    data = omega.omega_to_json(x)
    data["tgt"][0]["1"] = "ghost"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_check_axiom_violation_exit_one(tmp_path, capsys):
    x = fixtures.delooping(fixtures.cyclic_table(3), 2)
    data = omega.omega_to_json(x)
    data["comp"]["1,0"]["0|2"] = "1"  # left unit broken at 2
    path = tmp_path / "fault.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "CHECK axiom:left_unit all FAIL" in out
    assert "left_unit(1,0)" in out  # witness printed


def test_missing_file_exit_two(capsys):
    assert run(["check", "/no/such/file.json"]) == 2


def _bad_input(tmp_path, case):
    data = omega.omega_to_json(fixtures.delooping(fixtures.cyclic_table(2), 2))
    path = tmp_path / "bad.json"
    if case == "comp-list":
        data["comp"] = list(data["comp"].values())
    elif case == "unit-entry":
        data["unit"][0] = "0"
    elif case == "directory":
        return tmp_path
    elif case == "not-utf8":
        path.write_bytes(json.dumps(data).encode("utf-16"))
        return path
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def run_process(*args):
    """``python <args>`` in a new process that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("case", ["comp-list", "unit-entry", "directory", "not-utf8"])
def test_bad_input_exit_two_without_traceback(tmp_path, case):
    proc = run_process("-m", "globkernel.cli", "check", str(_bad_input(tmp_path, case)))
    assert proc.returncode == 2
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field, value, message", [
    (None, [], "a structure file must hold a JSON object"),
    (None, 3, "a structure file must hold a JSON object"),
    *[(key, {}, f"'{key}' must be an array") for key in ("cells", "src", "tgt", "unit")],
    *[(key, [], f"'{key}' must be an object") for key in ("comp", "inv")],
])
def test_wrong_typed_field_exit_two(tmp_path, capsys, field, value, message):
    data = omega.omega_to_json(fixtures.delooping(fixtures.cyclic_table(2), 2))
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(value if field is None else {**data, field: value}), encoding="utf-8")
    assert run(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["check", "{file}", "--cap", "0"],
    ["decalage", "{file}", "--max-width", "0"],
    ["delta", "--max-n", "0"],
    ["decalage", "{file}", "--cap", "0", "--max-dim", "2"],
])
def test_zero_bound_exit_two(z2_file, capsys, argv):
    # a cap is rejected by the sweep that would apply it, any other bound by the command
    message = "cap must be >= 1, got 0" if "--cap" in argv else "bounds must be >= 1"
    assert run([arg.format(file=z2_file) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"input error: {message}\n")


def test_decalage_without_inverse_tables_exit_two(tmp_path, capsys):
    data = omega.omega_to_json(fixtures.delooping(fixtures.cyclic_table(2), 3))
    del data["inv"]
    path = tmp_path / "noinv.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["decalage", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "input error: decalage sweeps need a structure with inverses\n")


def test_not_utf8_input_exit_two(tmp_path, capsys):
    path = _bad_input(tmp_path, "not-utf8")
    assert run(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: not UTF-8 text: ")
    assert "Traceback" not in captured.err


def test_check_loads_neither_twist_nor_decalage_nor_testcat(z2_file):
    # -X importtime writes one line per module the process imports to stderr
    proc = run_process("-X", "importtime", "-m", "globkernel.cli", "check", str(z2_file))
    assert proc.returncode == 0
    loaded = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "globkernel.omega" in loaded
    assert not loaded & {"globkernel.twist", "globkernel.decalage", "globkernel.testcat"}


def test_twist_pipeline(tmp_path, z2_file, capsys):
    out_path = tmp_path / "z2_twist.json"
    assert run(["twist", str(z2_file), "-o", str(out_path)]) == 0
    assert run(["check", str(out_path), "--axioms", "l,r,f,li,ri"]) == 0
    # double twist stays clean
    out2 = tmp_path / "z2_twist2.json"
    assert run(["twist", str(out_path), "-o", str(out2)]) == 0
    assert run(["check", str(out2)]) == 0


def test_twist_truncation_zero_exit_two(tmp_path, capsys):
    path = tmp_path / "point.json"
    write_structure(path, fixtures.discrete(("a",), 0))
    assert run(["twist", str(path), "-o", str(tmp_path / "out.json")]) == 2


def test_decalage_command(tmp_path, capsys):
    path = tmp_path / "sus.json"
    write_structure(path, fixtures.suspension(fixtures.cyclic_table(2), 1, 4))
    assert run(["decalage", str(path), "--max-width", "3", "--max-dim", "3"]) == 0
    out = capsys.readouterr().out
    assert "CHECK section" in out
    assert "CHECK apex-naturality" in out
    assert "CHECK lift-non-naturality" in out
    assert "FAIL" not in out


def test_decalage_dims_too_deep_exit_two(z2_file, capsys):
    # truncation 3 cannot lift dimension-3 cells
    assert run(["decalage", str(z2_file), "--max-dim", "3"]) == 2
    assert "input error" in capsys.readouterr().err


def test_decalage_negative_max_dim_exit_two(z2_file, capsys):
    # a negative bound would run zero section checks and report success
    assert run(["decalage", str(z2_file), "--max-dim", "-1"]) == 2
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert "CHECK" not in captured.out


def test_decalage_fault_exit_one(tmp_path, capsys):
    x = fixtures.suspension(fixtures.cyclic_table(2), 1, 4)
    units = [dict(t) for t in x.unit]
    units[2]["0"] = "1"
    bad = omega.OmegaStructure(x.base, x.comp, tuple(units), x.inv)
    path = tmp_path / "fault.json"
    write_structure(path, bad)
    # the corrupted unit breaks the structure laws, so this is an input error
    assert run(["decalage", str(path)]) == 2


def test_decalage_cap_cuts_every_sweep(tmp_path, capsys, monkeypatch):
    # a lawful structure passes every décalage sweep, so the gate on the structure
    # and its axioms is bypassed to let a corrupted unit reach the sweeps
    x = fixtures.suspension(fixtures.cyclic_table(2), 1, 3)
    units = [dict(t) for t in x.unit]
    units[1]["0"] = "1"
    path = tmp_path / "fault.json"
    write_structure(path, omega.OmegaStructure(x.base, x.comp, tuple(units), x.inv))
    monkeypatch.setattr(omega, "check_structure", lambda x, cap: report.Report([], False, 0))
    monkeypatch.setattr(omega, "check_all", lambda x, flags, cap: {})
    rows = {}
    for cap in (1, 1000):
        assert run(["decalage", str(path), "--max-dim", "2", "--cap", str(cap), "--format", "json"]) == 1
        rows[cap] = json.loads(capsys.readouterr().out)
    for cut, full in zip(rows[1], rows[1000], strict=True):
        assert not full["capped"] and full["instances"] > 0, full
        assert cut["failures"] == full["failures"][:1], full
        assert cut["capped"] == (len(full["failures"]) > 1), full
    failing = [row for row in rows[1] if row["status"] == "FAIL"]
    assert {row["check"] for row in failing} == {"section", "unit-closed-form"}
    assert any(row["capped"] for row in failing) and not all(row["capped"] for row in failing)


def test_delta_command(capsys):
    assert run(["delta", "--max-n", "2"]) == 0
    out = capsys.readouterr().out
    assert "comp: [1]->[2](0>0,1>2)" in out
    assert "CHECK shift-composition" in out
    assert "CHECK shift-generators comp PASS" in out


def test_delta_json_parses(capsys):
    assert run(["delta", "--max-n", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0] == {"check": "shift-generators", "scope": "comp", "status": "PASS", "witness": None,
                          "failures": [], "instances": 1, "capped": False}


def test_fixture_command_suspension(tmp_path, capsys):
    out_path = tmp_path / "sus.json"
    code = run([
        "fixture", "suspension", "--group", "z3", "--dim", "2",
        "--trunc", "4", "-o", str(out_path),
    ])
    assert code == 0
    assert run(["check", str(out_path), "--axioms", "l,r,f,li,ri"]) == 0


def test_fixture_command_product(tmp_path, z2_file):
    other = tmp_path / "sus.json"
    assert run(["fixture", "suspension", "--group", "z2", "--dim", "1",
                "--trunc", "3", "-o", str(other)]) == 0
    out_path = tmp_path / "prod.json"
    assert run(["fixture", "product", "--files", str(z2_file), str(other),
                "-o", str(out_path)]) == 0
    assert run(["check", str(out_path)]) == 0


def test_fixture_product_of_one_file_exit_two(tmp_path, z2_file, capsys):
    out_path = tmp_path / "prod.json"
    assert run(["fixture", "product", "--files", str(z2_file), "-o", str(out_path)]) == 2
    assert capsys.readouterr() == ("", "input error: product needs exactly two files\n")
    assert not out_path.exists()


def test_sum_command(z2_file, capsys):
    assert run(["sum", "1 0 1", str(z2_file)]) == 0
    out = capsys.readouterr().out
    assert "4 tuples" in out


def test_sum_bad_table_exit_two(z2_file, capsys):
    assert run(["sum", "1 1 1", str(z2_file)]) == 2


def test_check_without_inverse_tables(tmp_path, capsys):
    # a structure with no inverse tables: inverse flags are an input mismatch,
    # the categorical flags pass
    x = fixtures.delooping(fixtures.cyclic_table(2), 2)
    data = omega.omega_to_json(x)
    del data["inv"]
    path = tmp_path / "noinv.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run(["check", str(path), "--axioms", "l,r,f,li,ri"]) == 2
    assert "input error" in capsys.readouterr().err
    assert run(["check", str(path), "--axioms", "l,r,f"]) == 0


def test_json_report_mirrors_text(tmp_path, capsys):
    path = tmp_path / "sus.json"
    write_structure(path, fixtures.suspension(fixtures.cyclic_table(2), 1, 4))
    assert run(["decalage", str(path), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert run(["decalage", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(payload) == len(lines)
    for entry, line in zip(payload, lines):
        assert line.startswith(f"CHECK {entry['check']} {entry['scope']} {entry['status']}")


def test_threads_env_does_not_change_output(z2_file, capsys, monkeypatch):
    assert run(["check", str(z2_file)]) == 0
    serial = capsys.readouterr().out
    monkeypatch.setenv("GLOB_KERNEL_THREADS", "4")
    assert run(["check", str(z2_file)]) == 0
    assert capsys.readouterr().out == serial
