"""Command line front end.

Subcommands: ``check`` (structure and axiom sweeps on a file), ``twist``
(build the twisted complex), ``decalage`` (section/naturality/unit-form
sweeps), ``delta`` (finite shift-category demonstration), ``fixture``
(write a stock structure), ``sum`` (enumerate a globular product).

Exit codes: 0 clean, 1 mathematical violation, 2 input error.  ``twist``,
``decalage``, ``finsets`` and ``fixtures`` are imported only by the commands
that use them (``delta`` only ``finsets``), so the verdict commands load no
more than they run.  No command imports ``testcat``, and every command, like
the whole package, runs on the standard library alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import omega, report
from .errors import KernelError
from .globular import globular_product, parse_table

EXIT_CLEAN = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

# the sorted names of ``fixtures.NAMED_GROUPS``, held here so that building
# the parser does not import ``fixtures``
GROUP_NAMES = ("s3", "z2", "z2xz2", "z3", "z4")


def _load_structure(path: str) -> omega.OmegaStructure:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return omega.omega_from_json(data)


def _emit(results: list[report.CheckResult], fmt: str, out=None) -> None:
    out = out if out is not None else sys.stdout
    if fmt == "json":
        json.dump(report.to_json(results), out, indent=2)
        out.write("\n")
    else:
        for r in results:
            out.write(report.format_line(r) + "\n")


def cmd_check(args) -> int:
    flags = omega.AxiomFlags.parse(args.axioms)
    x = _load_structure(args.file)
    results = [report.verdict("structure", "all", omega.check_structure(x, cap=args.cap))]
    results += [report.verdict(f"axiom:{name}", "all", sweep)
                for name, sweep in omega.check_all(x, flags, cap=args.cap).items()]
    _emit(results, args.format)
    return EXIT_CLEAN if report.all_pass(results) else EXIT_VIOLATION


def cmd_twist(args) -> int:
    from . import twist
    x = _load_structure(args.file)
    twisted = twist.build_twisted(x)
    data = omega.omega_to_json(twisted)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")
    print(f"wrote twisted structure (truncation {twisted.truncation}) to {args.output}")
    return EXIT_CLEAN


def cmd_decalage(args) -> int:
    from . import decalage
    if args.max_width < 1:
        raise KernelError("bounds must be >= 1")
    if args.max_dim < 0:
        raise KernelError("--max-dim must be >= 0")
    x = _load_structure(args.file)
    if not x.has_inverses:
        print("input error: decalage sweeps need a structure with inverses", file=sys.stderr)
        return EXIT_INPUT
    structure = omega.check_structure(x, cap=args.cap)
    axioms = omega.check_all(x, omega.FULL_FLAGS, cap=args.cap)
    if not all(r.ok for r in (structure, *axioms.values())):
        print("input error: structure fails its own axiom suite; fix it first", file=sys.stderr)
        return EXIT_INPUT

    # text reports stream line by line so long sweeps show progress
    results: list[report.CheckResult] = []

    def emit(batch) -> None:
        for r in batch:
            results.append(r)
            if args.format == "text":
                print(report.format_line(r), flush=True)

    emit(decalage.check_sections(x, args.max_width, args.max_dim, args.cap))
    emit(decalage.check_apex_naturality(x, args.cap))
    emit(decalage.check_endpoint_naturality(x, args.cap))
    emit(decalage.check_unit_closed_forms(x, args.cap))
    emit([decalage.check_lift_non_naturality(x)])
    if args.format == "json":
        _emit(results, args.format)
    return EXIT_CLEAN if report.all_pass(results) else EXIT_VIOLATION


def cmd_delta(args) -> int:
    from . import finsets
    if args.max_n < 1:
        raise KernelError("bounds must be >= 1")
    gens = finsets.standard_generators()
    if args.format == "text":
        for name in ("comp", "unit", "inv"):
            plain = gens[name]
            shifted = gens[f"{name}_shift"]
            print(f"{name}: {plain}   shift: {shifted}")
    results = finsets.check_shift_decalage(args.max_n)

    shift_matches = [
        report.verdict("shift-generators", name, report.Report(
            [] if finsets.shift_map(gens[name]) == gens[f"{name}_shift"] else ["table mismatch"], False, 1))
        for name in ("comp", "unit", "inv")
    ]
    results = shift_matches + results
    _emit(results, args.format)
    return EXIT_CLEAN if report.all_pass(results) else EXIT_VIOLATION


def cmd_fixture(args) -> int:
    from . import fixtures
    trunc = args.trunc
    if args.kind == "discrete":
        x = fixtures.discrete(tuple(args.names.split(",")), trunc)
    elif args.kind == "delooping":
        x = fixtures.delooping(fixtures.NAMED_GROUPS[args.group](), trunc)
    elif args.kind == "suspension":
        x = fixtures.suspension(fixtures.NAMED_GROUPS[args.group](), args.dim, trunc)
    else:  # "product", the last kind argparse admits
        if len(args.files) != 2:
            print("input error: product needs exactly two files", file=sys.stderr)
            return EXIT_INPUT
        x = fixtures.product(_load_structure(args.files[0]), _load_structure(args.files[1]))
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(omega.omega_to_json(x), handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.kind} fixture (truncation {x.truncation}) to {args.output}")
    return EXIT_CLEAN


def cmd_sum(args) -> int:
    table = parse_table(args.table)
    x = _load_structure(args.file)
    tuples = globular_product(x.base, table)
    print(f"table {table}: {len(tuples)} tuples")
    for gtuple in tuples:
        print("  (" + ", ".join(gtuple.entries) + ")")
    return EXIT_CLEAN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="globkernel",
        description="checkers for finite strict omega-groupoid tables, "
        "their twisted complexes, and decalage splittings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a structure file and sweep axioms")
    p_check.add_argument("file")
    p_check.add_argument("--axioms", default="l,r,f,li,ri")
    p_check.add_argument("--cap", type=int, default=100)
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_twist = sub.add_parser("twist", help="build the twisted complex of a structure file")
    p_twist.add_argument("file")
    p_twist.add_argument("-o", "--output", required=True)
    p_twist.set_defaults(func=cmd_twist)

    p_dec = sub.add_parser("decalage", help="section, naturality and unit-form sweeps")
    p_dec.add_argument("file")
    p_dec.add_argument("--max-width", type=int, default=3)
    p_dec.add_argument("--max-dim", type=int, default=3)
    p_dec.add_argument("--cap", type=int, default=100)
    p_dec.add_argument("--format", choices=("text", "json"), default="text")
    p_dec.set_defaults(func=cmd_decalage)

    p_delta = sub.add_parser("delta", help="finite shift-category demonstration")
    p_delta.add_argument("--max-n", type=int, default=4)
    p_delta.add_argument("--format", choices=("text", "json"), default="text")
    p_delta.set_defaults(func=cmd_delta)

    p_fix = sub.add_parser("fixture", help="write a stock structure file")
    p_fix.add_argument("kind", choices=("discrete", "delooping", "suspension", "product"))
    p_fix.add_argument("--group", choices=GROUP_NAMES, default="z2")
    p_fix.add_argument("--names", default="a,b")
    p_fix.add_argument("--dim", type=int, default=1)
    p_fix.add_argument("--trunc", type=int, default=3)
    p_fix.add_argument("--files", nargs="*", default=[])
    p_fix.add_argument("-o", "--output", required=True)
    p_fix.set_defaults(func=cmd_fixture)

    p_sum = sub.add_parser("sum", help="enumerate a globular product of a structure file")
    p_sum.add_argument("table")
    p_sum.add_argument("file")
    p_sum.set_defaults(func=cmd_sum)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as exc:
        print(f"input error: not UTF-8 text: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except json.JSONDecodeError as exc:
        print(f"input error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except KernelError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
