"""A1: removable-aggregate influence vs naive recomputation.

The Preprocessor's leave-one-out ranking is O(|F|) with the
removable-aggregate closed forms and O(|F|²) with naive per-tuple
recomputation (the oracle in ``tests/reference/influence.py``). This
ablation measures both on growing group sizes and checks they agree
numerically — the speedup is the price of admission for interactive
debugging of large groups.
"""

import numpy as np
import pytest

from reference.influence import naive_leave_one_out_influence
from repro.core import TooHigh
from repro.core.influence import leave_one_out_influence
from repro.db import get_aggregate

GROUP_SIZES = [200, 800, 3200]


def _group(n: int):
    rng = np.random.default_rng(n)
    values = rng.normal(50, 5, n)
    values[:: max(n // 20, 1)] += 60.0  # a few culprits
    return values, np.arange(n, dtype=np.int64)


@pytest.mark.parametrize("n", GROUP_SIZES)
@pytest.mark.parametrize("agg_name", ["avg", "stddev"])
def test_a1_fast_influence(benchmark, n, agg_name):
    values, tids = _group(n)
    agg = get_aggregate(agg_name)
    metric = TooHigh(55.0)

    result = benchmark(leave_one_out_influence, [values], [tids], [0], agg, metric)
    assert len(result.scores) == n


@pytest.mark.parametrize("n", GROUP_SIZES[:2])  # naive is quadratic; cap size
@pytest.mark.parametrize("agg_name", ["avg", "stddev"])
def test_a1_naive_influence(benchmark, n, agg_name):
    values, tids = _group(n)
    agg = get_aggregate(agg_name)
    metric = TooHigh(55.0)

    result = benchmark(
        naive_leave_one_out_influence, [values], [tids], [0], agg, metric
    )
    assert len(result.scores) == n


@pytest.mark.parametrize("agg_name", ["avg", "sum", "stddev", "min", "max"])
def test_a1_fast_equals_naive(benchmark, agg_name):
    values, tids = _group(400)
    agg = get_aggregate(agg_name)
    metric = TooHigh(55.0)

    fast = benchmark(leave_one_out_influence, [values], [tids], [0], agg, metric)
    naive = naive_leave_one_out_influence([values], [tids], [0], agg, metric)
    np.testing.assert_allclose(fast.scores, naive.scores, rtol=1e-7, atol=1e-7)
