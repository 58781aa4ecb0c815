"""The workload seed changes only the visit order, never what is computed.

    python3 -m pytest perfbench/test_bench.py

Run from the repository root.  For each workload, one pass under each of
two seeds must visit the items in a different order and agree exactly on
the item count, the values (the digest of every exact result, frozen
serialisation digest and case count) and the absence of failures.  A traced pass must compute
the same values as an untraced one.  Takes about half a minute.
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from config import MIN_PASSES  # noqa: E402
from run import run_pass  # noqa: E402

pytestmark = pytest.mark.skipif(
    not os.path.isfile(os.path.join("src", "ncfree", "__init__.py")),
    reason="run from the repository root",
)


@pytest.mark.parametrize("workload", sorted(MIN_PASSES))
def test_two_seeds_compute_the_same_values(workload):
    first = run_pass(workload, seed=1, index=0, traced=False, timeout=120)
    second = run_pass(workload, seed=2, index=0, traced=False, timeout=120)
    assert first["order_sha256"] != second["order_sha256"]
    for result in (first, second):
        assert result["failed"] == 0, result["failures"]
    assert first["attempted"] == second["attempted"]
    assert first["weights"] == second["weights"]
    assert first["values_sha256"] == second["values_sha256"]


def test_traced_pass_computes_the_same_values():
    plain = run_pass("product-formula", seed=3, index=0, traced=False, timeout=120)
    traced = run_pass("product-formula", seed=3, index=0, traced=True, timeout=120)
    assert traced["failed"] == 0, traced["failures"]
    assert traced["values_sha256"] == plain["values_sha256"]
    assert traced["layers"]["cumulants.kappa_pq.calls"][0] > 0
