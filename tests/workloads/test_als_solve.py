"""ALS' per-partition solve is held to the per-entity solve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.workloads import get_workload, ml_als
from repro.workloads.ml_als import RANK


def partition(seed, counts, n_fixed=30):
    """Entities with ``counts[i]`` ratings each, against ``n_fixed``
    fixed factors; repeated raters are allowed."""
    rng = np.random.default_rng(seed)
    fixed = {k: rng.normal(scale=0.1, size=RANK) for k in range(n_fixed)}
    part = [
        (key, [(int(rng.integers(n_fixed)), float(rng.normal(3.0, 1.0))) for _ in range(n)])
        for key, n in enumerate(counts)
    ]
    return part, fixed


def assert_equals_per_entity(part, fixed):
    solved = ml_als._solve_partition(part, fixed)
    assert [key for key, _ in solved] == [key for key, _ in part]
    for (_, x), (_, ratings) in zip(solved, part):
        assert x.shape == (RANK,)
        assert x.tobytes() == ml_als._solve_factors(ratings, fixed).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 12), max_size=25))
def test_partition_solve_equals_per_entity_solves(seed, counts):
    assert_equals_per_entity(*partition(seed, counts))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 25))
def test_one_rating_per_entity(seed, n):
    assert_equals_per_entity(*partition(seed, [1] * n))


def test_many_ratings_per_entity():
    assert_equals_per_entity(*partition(7, [40, 1, 17, 40, 3]))


def test_empty_partition_solves_nothing():
    assert ml_als._solve_partition([], {}) == []


@pytest.mark.parametrize("size", ["tiny", "small", "large"])
def test_run_equals_the_reference_path(monkeypatch, size):
    def run():
        sc = SparkContext(conf=SparkConf(memory_tier=0))
        return get_workload("als").run(sc, size)

    batched = run()
    monkeypatch.setattr(ml_als, "stacked_solve_matches", lambda: False)
    reference = run()
    assert batched.output == reference.output
    assert batched.execution_time == reference.execution_time
