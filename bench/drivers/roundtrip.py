"""Criterion-6 round trip on one structure file, as one verdict.

For every table of width and entries up to 3 (capped below the truncation)
this enumerates the paired and mixed twisted products, contracts every
paired tuple and expands it back, and expands every mixed tuple and
contracts it back.  Prints one JSON summary; exit 0 when every round trip
returns its input and both products have the same size, 1 otherwise.

    PYTHONPATH=src python3 bench/drivers/roundtrip.py structure.json
"""

from __future__ import annotations

import json
import sys

from globkernel import omega, twist
from globkernel.globular import all_tables


def main(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        x = omega.omega_from_json(json.load(handle))
    tables = all_tables(3, min(3, x.truncation - 1))
    paired_total = mixed_total = mismatches = 0
    for table in tables:
        paired = twist.twisted_product(x, table)
        mixed = twist.mixed_product(x, table)
        paired_total += len(paired)
        mixed_total += len(mixed)
        mismatches += len(paired) != len(mixed)
        for tup in paired:
            mismatches += twist.expand_product(x, twist.contract_product(x, table, tup)) != tup
        for m in mixed:
            mismatches += twist.contract_product(x, table, twist.expand_product(x, m)) != m
    print(json.dumps({
        "tables": len(tables),
        "paired": paired_total,
        "mixed": mixed_total,
        "mismatches": mismatches,
    }))
    return 0 if mismatches == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
