"""Random forest's Gini impurity is held to the ``np.unique`` formulation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.workloads import get_workload, ml_rf


def reference_gini(labels: np.ndarray) -> float:
    """The sorted-unique formulation ``_gini_from_counts`` reproduces."""
    return float(1 - np.sum((np.unique(labels, return_counts=True)[1] / labels.size) ** 2))


def gini_both_ways(labels: np.ndarray) -> tuple[float, float]:
    """``_gini`` with the exact-replica gate on, and forced off."""
    gated = ml_rf._gini(labels)
    with mock.patch.object(ml_rf, "replicas_match", lambda: False):
        fallback = ml_rf._gini(labels)
    return gated, fallback


def test_absent_labels_do_not_regroup_the_sum():
    # Ten bins, one of them empty: with the zero in the fold, np.sum's
    # eight-accumulator grouping is shifted and the last bit differs.
    labels = np.repeat(np.arange(10), [5, 1, 0, 3, 4, 2, 3, 2, 6, 3])
    expected = reference_gini(labels)
    assert expected.hex() == "0x1.bb34a93f02bd5p-1"
    assert [g.hex() for g in gini_both_ways(labels)] == [expected.hex()] * 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 15).flatmap(
        lambda classes: st.lists(st.integers(0, classes - 1), min_size=1, max_size=60)
    )
)
def test_gini_equals_the_unique_formulation(labels):
    labels = np.array(labels)
    expected = reference_gini(labels).hex()
    assert [g.hex() for g in gini_both_ways(labels)] == [expected, expected]


@pytest.mark.parametrize("size", ["tiny", "small", "large"])
def test_run_equals_the_numpy_fallback(monkeypatch, size):
    def run():
        sc = SparkContext(conf=SparkConf(memory_tier=0))
        return get_workload("rf").run(sc, size)

    gated = run()
    monkeypatch.setattr(ml_rf, "replicas_match", lambda: False)
    fallback = run()
    assert gated.output == fallback.output
    assert gated.execution_time == fallback.execution_time
