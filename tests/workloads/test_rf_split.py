"""rf's batched split search is held to the per-candidate reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.workloads import get_workload, ml_rf


@st.composite
def nodes(draw):
    """A node's rows, labels and candidate features, often with ties."""
    n = draw(st.integers(ml_rf.MIN_LEAF, 80))
    n_features = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        x = rng.integers(0, draw(st.integers(1, 5)), (n, n_features)) * 0.5
    else:
        x = rng.normal(size=(n, n_features))
    y = rng.integers(0, draw(st.integers(1, 10)), n)
    candidates = rng.choice(n_features, size=draw(st.integers(1, n_features)), replace=False)
    return x, y, candidates


def search_both_ways(x, y, candidates):
    total = np.bincount(y).tolist()
    parent = ml_rf._gini_from_counts(total, y.size)
    return (
        ml_rf._best_split_batched(x, y, candidates, total, parent),
        ml_rf._best_split(x, y, candidates, total, parent),
    )


@settings(max_examples=300, deadline=None)
@given(nodes())
def test_batched_search_equals_the_reference(node):
    batched, reference = search_both_ways(*node)
    assert batched[0].hex() == reference[0].hex()
    assert batched[1:] == reference[1:]
    assert batched[2].hex() == reference[2].hex()


def test_first_of_equal_gains_wins():
    # Features 0 and 1 are copies: both split at the same gain, and the
    # first candidate in draw order must be kept.
    column = np.repeat([0.0, 1.0], 6)
    x = np.column_stack((column, column))
    y = np.repeat([0, 1], 6)
    for order in ([1, 0], [0, 1]):
        batched, reference = search_both_ways(x, y, np.array(order))
        assert batched == reference
        assert batched[1] == order[0]


@pytest.mark.parametrize("size", ["tiny", "small", "large"])
def test_run_equals_the_reference_path(monkeypatch, size):
    build = ml_rf._build_tree

    def run():
        # Every (sub)tree built, in build order: equal lists mean equal
        # forests, which the accuracy alone need not show.
        built = []

        def spy(*args):
            node = build(*args)
            built.append(ml_rf._flatten_tree(node))
            return node

        monkeypatch.setattr(ml_rf, "_build_tree", spy)
        sc = SparkContext(conf=SparkConf(memory_tier=0))
        return get_workload("rf").run(sc, size), built

    batched, batched_trees = run()
    monkeypatch.setattr(ml_rf, "quantiles_match", lambda: False)
    reference, reference_trees = run()
    assert batched.output == reference.output
    assert batched.execution_time == reference.execution_time
    assert batched_trees == reference_trees
