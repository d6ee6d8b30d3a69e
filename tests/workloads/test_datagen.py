"""Synthetic data generators: determinism and statistical shape."""

import numpy as np
import pytest

from repro.workloads import datagen


def test_random_text_deterministic():
    a = datagen.random_text_records(50, seed=1)
    b = datagen.random_text_records(50, seed=1)
    c = datagen.random_text_records(50, seed=2)
    assert a == b
    assert a != c
    assert all(len(r) == 80 for r in a)


def test_random_text_validation():
    with pytest.raises(ValueError):
        datagen.random_text_records(-1)
    with pytest.raises(ValueError):
        datagen.random_text_records(5, record_len=0)


def test_zipf_words_skewed():
    words = datagen.zipf_words(5000, vocabulary=100, seed=3)
    counts = {}
    for w in words:
        counts[w] = counts.get(w, 0) + 1
    # Zipf: the most frequent word dominates.
    top = max(counts.values())
    assert top > len(words) / 10
    assert all(w.startswith("word") for w in words)


def test_rating_triples_ranges():
    triples = datagen.rating_triples(20, 30, 200, seed=5)
    assert len(triples) == 200
    users = {u for u, _, _ in triples}
    products = {p for _, p, _ in triples}
    assert users <= set(range(20))
    assert products <= set(range(30))
    assert all(1.0 <= r <= 5.0 for _, _, r in triples)


def test_rating_triples_have_low_rank_signal():
    triples = datagen.rating_triples(50, 50, 1000, seed=7)
    ratings = np.array([r for _, _, r in triples])
    # Structured ratings are not constant and span the scale.
    assert ratings.std() > 0.3


def test_labeled_documents_class_separation():
    docs = datagen.labeled_documents(200, 4, vocabulary=400, words_per_doc=20, seed=9)
    assert len(docs) == 200
    by_class: dict[int, set] = {}
    for label, words in docs:
        by_class.setdefault(label, set()).update(words)
    # Different classes use substantially different vocabulary slices.
    classes = sorted(by_class)
    overlap = len(by_class[classes[0]] & by_class[classes[-1]])
    assert overlap < min(len(by_class[classes[0]]), len(by_class[classes[-1]]))


def test_labeled_vectors_separable_means():
    examples = datagen.labeled_vectors(300, 10, n_classes=2, seed=11)
    x0 = np.array([x for y, x in examples if y == 0]).mean(axis=0)
    x1 = np.array([x for y, x in examples if y == 1]).mean(axis=0)
    assert np.linalg.norm(x0 - x1) > 1.0


def test_bag_of_words_docs_shape():
    docs = datagen.bag_of_words_docs(30, vocabulary=50, n_topics=3, words_per_doc=15, seed=13)
    assert len(docs) == 30
    assert all(len(d) == 15 for d in docs)
    assert all(0 <= w < 50 for d in docs for w in d)


def test_web_graph_properties():
    graph = datagen.web_graph(100, seed=15)
    assert len(graph) == 100
    for page, links in graph:
        assert links, "every page must have at least one outlink"
        assert page not in links
        assert all(0 <= x < 100 for x in links)


def test_web_graph_skew_towards_low_ids():
    graph = datagen.web_graph(200, seed=17)
    indegree = [0] * 200
    for _, links in graph:
        for target in links:
            indegree[target] += 1
    assert sum(indegree[:20]) > sum(indegree[100:120])


def test_web_graph_validation():
    with pytest.raises(ValueError):
        datagen.web_graph(0)


@pytest.mark.parametrize("block_chars", [1, 7, 64])
def test_random_text_blocks_draw_the_values_of_one_draw(monkeypatch, block_chars):
    """Rows drawn a block at a time equal one (n, record_len) draw:
    across block boundaries and with records longer than a block."""
    monkeypatch.setattr(datagen, "_TEXT_BLOCK_CHARS", block_chars)
    for n, record_len in ((0, 3), (1, 1), (5, 3), (13, 2), (4, 9), (30, 80)):
        datagen.clear_cache()
        assert datagen.random_text_records(
            n, record_len, seed=5
        ) == datagen._naive_random_text_records(n, record_len, seed=5)
    datagen.clear_cache()
