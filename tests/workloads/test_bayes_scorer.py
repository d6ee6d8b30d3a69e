"""Bayes' batched partition scorer is held to the per-document scorer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.workloads import get_workload, ml_bayes
from repro.workloads._exact import builtin_sum_fold

#: Words the generated classes draw from; documents also use words
#: that no class saw.
SEEN = [f"w{i}" for i in range(12)]
WORDS = SEEN + ["unseen", "w99"]

log_prob = st.floats(-30.0, -1e-3)


@st.composite
def models(draw):
    """``(priors, log_tables, log_default)`` over 1-5 classes in any order."""
    classes = draw(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True))
    priors = {c: draw(log_prob) for c in classes}
    log_tables = {
        c: draw(st.dictionaries(st.sampled_from(SEEN), log_prob, max_size=len(SEEN)))
        for c in classes
    }
    log_default = {c: draw(log_prob) for c in classes}
    return priors, log_tables, log_default


def partitions(n_words):
    words = st.lists(st.sampled_from(WORDS), min_size=n_words, max_size=n_words)
    return st.lists(st.tuples(st.integers(0, 9), words), max_size=12)


def scorers(priors, log_tables, log_default):
    classify = ml_bayes._classifier(priors, log_tables, log_default)
    fold = builtin_sum_fold()
    assert fold is not None
    score = ml_bayes._partition_scorer(priors, log_tables, log_default, fold, classify)
    return classify, score


@settings(max_examples=200, deadline=None)
@given(models(), st.integers(0, 16).flatmap(partitions))
def test_scorer_equals_classify(model, part):
    classify, score = scorers(*model)
    assert score(part) == [classify(doc) for doc in part]


def test_empty_partition_scores_nothing():
    _, score = scorers({0: -0.5}, {0: {"a": -1.0}}, {0: -2.0})
    assert score([]) == []


def test_unseen_words_take_each_class_default():
    # "b" is unseen by class 3 and "z" by both: class 3's default (-0.1)
    # beats class 7's known words.
    priors = {7: math.log(0.5), 3: math.log(0.5)}
    classify, score = scorers(priors, {7: {"b": -5.0}, 3: {}}, {7: -9.0, 3: -0.1})
    part = [(7, ["b", "z"]), (3, ["z", "z"])]
    assert score(part) == [classify(doc) for doc in part] == [(7, 3), (3, 3)]


def test_a_tie_goes_to_the_first_class_in_prior_order():
    table = {"a": -1.25, "b": -0.5}
    priors = {4: math.log(0.5), 1: math.log(0.5)}
    classify, score = scorers(priors, {4: table, 1: dict(table)}, {4: -3.0, 1: -3.0})
    part = [(1, ["a", "b", "c"]), (4, ["b", "b", "a"])]
    assert score(part) == [classify(doc) for doc in part] == [(1, 4), (4, 4)]


def test_documents_of_unequal_length_are_scored_one_by_one():
    classify, score = scorers(
        {0: -0.7, 1: -0.7}, {0: {"a": -1.0}, 1: {"b": -1.0}}, {0: -4.0, 1: -4.0}
    )
    part = [(0, ["a"]), (1, ["b", "b"]), (0, [])]
    assert score(part) == [classify(doc) for doc in part] == [(0, 0), (1, 1), (0, 0)]


@pytest.mark.parametrize("size", ["tiny", "small", "large"])
def test_run_equals_the_reference_path(monkeypatch, size):
    def run():
        sc = SparkContext(conf=SparkConf(memory_tier=0))
        return get_workload("bayes").run(sc, size)

    batched = run()
    monkeypatch.setattr(ml_bayes, "builtin_sum_fold", lambda: None)
    reference = run()
    assert batched.output == reference.output
    assert batched.execution_time == reference.execution_time
