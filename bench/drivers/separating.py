"""Criterion-8 check on the finite-set category, as one verdict.

Builds maps between ``{0..n}`` for ``n <= 3``, the representable interval
``Hom(-, [1])`` with its two constant points, and reports whether the points
separate, the terminal object and the nerve chain counts to depth 3.  Prints
one JSON summary; exit 0 when the interval separates and ``[0]`` is terminal.

    PYTHONPATH=src python3 bench/drivers/separating.py
"""

from __future__ import annotations

import json
import sys

from globkernel.testcat import (
    check_separating_interval,
    delta_truncated,
    has_terminal,
    nerve,
    representable,
)

TOP = 3


def main() -> int:
    cat = delta_truncated(TOP)
    interval = representable(cat, "[1]")
    point0 = {f"[{n}]": f"{n}>1:" + "0" * (n + 1) for n in range(TOP + 1)}
    point1 = {f"[{n}]": f"{n}>1:" + "1" * (n + 1) for n in range(TOP + 1)}
    separates = check_separating_interval(interval, point0, point1)
    terminal = has_terminal(cat)
    counts = nerve(cat, TOP)
    print(json.dumps({
        "morphisms": len(cat.morphisms),
        "separates": separates,
        "terminal": terminal,
        "nerve_total": list(counts.total),
        "nerve_nondegenerate": list(counts.nondegenerate),
    }))
    return 0 if separates and terminal == "[0]" else 1


if __name__ == "__main__":
    sys.exit(main())
