"""A strided slice of each scope of ``small_scope``, so tier-1 runs the
exhaustive differential on every scope in about a second; the scopes are
run in full by ``python tests/small_scope.py``."""

from __future__ import annotations

from itertools import islice

import pytest

import small_scope

# every STRIDE-th member, from the first: about 1/64 of each scope
STRIDE = 64


@pytest.mark.parametrize("name", small_scope.SCOPES)
def test_scope_slice_agrees_with_oracles(name):
    scope, compare = small_scope.SCOPES[name]
    assert small_scope.run(name, islice(scope(), 0, None, STRIDE), compare) is not None


def test_scope_sizes():
    sizes = {name: sum(1 for _ in scope()) for name, (scope, _) in small_scope.SCOPES.items()}
    assert sizes == {"2-truncated": 8192, "1-truncated": 19813, "unit-compat": 4096, "decalage": 857,
                     "magma": 262228, "eckmann-hilton": 19683}
