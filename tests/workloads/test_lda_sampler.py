"""LDA's compiled Gibbs pass is held to the numpy reference loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.workloads import get_workload, ml_lda
from repro.workloads._exact import compiled_gibbs_pass
from repro.workloads.ml_lda import ALPHA, BETA, count_matrices, gibbs_pass


@pytest.mark.parametrize("size", ["tiny", "small", "large"])  # 5, 10, 15 topics
def test_run_equals_the_reference_sampler(monkeypatch, size):
    def run():
        sc = SparkContext(conf=SparkConf(memory_tier=0))
        return get_workload("lda").run(sc, size)

    fast = run()
    monkeypatch.setattr(ml_lda, "replicas_match", lambda: False)
    reference = run()
    assert fast.output == reference.output
    assert fast.execution_time == reference.execution_time


@st.composite
def corpora(draw):
    n_topics = draw(st.integers(1, 40))
    vocabulary = draw(st.integers(1, 12))
    docs = draw(
        st.lists(
            st.lists(st.integers(0, vocabulary - 1), max_size=12),
            min_size=1, max_size=5,
        )
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return n_topics, vocabulary, docs, seed


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_compiled_pass_equals_reference_loop(corpus):
    n_topics, vocabulary, docs, seed = corpus
    records = list(enumerate(docs))
    rng = np.random.default_rng(seed)
    assignments = {
        doc_id: rng.integers(0, n_topics, size=len(words)) for doc_id, words in records
    }
    word_topic, topic_totals, doc_topic = count_matrices(
        records, assignments, vocabulary, n_topics, len(docs)
    )
    # The batched count build equals per-token increments.
    expected = (
        np.zeros((vocabulary, n_topics)),
        np.zeros(n_topics),
        np.zeros((len(docs), n_topics)),
    )
    for doc_id, words in records:
        for word, topic in zip(words, assignments[doc_id]):
            expected[0][word, topic] += 1
            expected[1][topic] += 1
            expected[2][doc_id, topic] += 1
    for got, want in zip((word_topic, topic_totals, doc_topic), expected):
        assert got.tolist() == want.tolist()

    beta_vocab = BETA * vocabulary
    rows = word_topic.tolist()
    totals = topic_totals.tolist()
    doc_rows = doc_topic.tolist()
    rows_beta = [[v + BETA for v in row] for row in rows]
    denom = [v + beta_vocab for v in totals]
    doc_alpha = [[v + ALPHA for v in row] for row in doc_rows]
    fast_assignments = dict(assignments)
    compiled = compiled_gibbs_pass(n_topics)
    # Two passes over two partitions, so the second starts from moved counts.
    halves = (records[::2], records[1::2])
    for iteration in range(2):
        for index, part in enumerate(halves):
            draws = seed + 2 * iteration + index
            want = gibbs_pass(
                part, np.random.default_rng(draws).random, assignments,
                word_topic, topic_totals, doc_topic, beta_vocab,
            )
            got = compiled(
                part, np.random.default_rng(draws).random, fast_assignments,
                rows, rows_beta, totals, denom, doc_rows, doc_alpha,
                BETA, beta_vocab, ALPHA,
            )
            assert [(d, ll.hex()) for d, ll in got] == [(d, ll.hex()) for d, ll in want]

    assert rows == word_topic.tolist()
    assert totals == topic_totals.tolist()
    assert doc_rows == doc_topic.tolist()
    assert rows_beta == [[v + BETA for v in row] for row in rows]
    assert denom == [v + beta_vocab for v in totals]
    assert doc_alpha == [[v + ALPHA for v in row] for row in doc_rows]
    for doc_id, topics in assignments.items():
        assert fast_assignments[doc_id].dtype == topics.dtype
        assert fast_assignments[doc_id].tolist() == topics.tolist()
