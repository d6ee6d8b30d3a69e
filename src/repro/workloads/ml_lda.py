"""``lda`` — Latent Dirichlet Allocation by collapsed Gibbs sampling.

Each iteration resamples the topic of every token, reading and *writing*
the doc-topic and topic-word count matrices per token.  That makes LDA
the **write-heaviest** workload in the suite: its write/read ratio grows
with the corpus, producing the paper's marquee non-linear NVM degradation
("lda-large execution time skyrockets proportionally to the number of
write operations", Takeaway 3).
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.spark.context import SparkContext
from repro.spark.costs import CostSpec
from repro.workloads import datagen
from repro.workloads._exact import compiled_gibbs_pass, replicas_match
from repro.workloads.base import SizeProfile, Workload

#: Gibbs token update: read 4 counters + theta/phi rows, write 4 counters.
GIBBS_COST = CostSpec(
    ops_per_record=2_400.0,
    random_reads_per_record=24.0,
    random_writes_per_record=32.0,
)

ITERATIONS = 4
ALPHA = 0.1
BETA = 0.01


def count_matrices(
    records: t.Sequence[tuple[int, t.Sequence[int]]],
    assignments: t.Mapping[int, np.ndarray],
    vocabulary: int,
    n_topics: int,
    n_docs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Word-topic, topic-total and doc-topic counts of the assignments.

    Word-major: the sampler reads one word's topic row per token, so
    keeping rows contiguous avoids a strided column gather on every
    access.  Each matrix is one unbuffered ``np.add.at`` over all tokens
    at once; the sums are small integers, exact in float64 in any
    order, so they equal per-token ``+= 1`` updates.
    """
    words = np.concatenate([np.asarray(w, dtype=np.intp) for _, w in records])
    topics = np.concatenate([assignments[doc_id] for doc_id, _ in records])
    docs = np.repeat(
        [doc_id for doc_id, _ in records], [len(w) for _, w in records]
    )
    word_topic = np.zeros((vocabulary, n_topics))
    topic_totals = np.zeros(n_topics)
    doc_topic = np.zeros((n_docs, n_topics))
    np.add.at(word_topic, (words, topics), 1.0)
    np.add.at(topic_totals, topics, 1.0)
    np.add.at(doc_topic, (docs, topics), 1.0)
    return word_topic, topic_totals, doc_topic


def gibbs_pass(
    part: list[tuple[int, list[int]]],
    uniform: t.Callable[[int], np.ndarray],
    assignments: dict[int, np.ndarray],
    word_topic: np.ndarray,
    topic_totals: np.ndarray,
    doc_topic: np.ndarray,
    beta_vocab: float,
) -> list[tuple[int, float]]:
    """Resample one partition's tokens in numpy; returns (doc, log-lik).

    The reference sampler: :func:`repro.workloads._exact.compiled_gibbs_pass`
    replays it bit for bit, and ``execute`` falls back to it when the
    replicas self-check fails.  Updates the counts and ``assignments``
    in place; ``uniform`` is the partition's ``Generator.random``.
    """
    log = np.log
    total = np.add.reduce
    out = []
    for doc_id, words in part:
        topics = assignments[doc_id].tolist()
        dt_row = doc_topic[doc_id]
        # One bulk draw per document: ``random(n)`` consumes the bit
        # generator exactly as n scalar ``random()`` calls do, so every
        # token sees the same uniform variate.
        draws = uniform(len(words)).tolist()
        loglik = 0.0
        for i, word in enumerate(words):
            k_old = topics[i]
            row = word_topic[word]
            # Remove token from counts.
            row[k_old] -= 1
            topic_totals[k_old] -= 1
            dt_row[k_old] -= 1
            # Full conditional; in-place ops reuse the first temporary
            # but round identically per element.
            p = row + BETA
            p /= topic_totals + beta_vocab
            p *= dt_row + ALPHA
            p /= total(p)
            # Exact replica of rng.choice(n_topics, p=p): choice samples
            # cdf.searchsorted(random(), 'right') on the renormalized
            # cumulative sum; inlining it skips choice's per-call
            # validation of p.
            cdf = p.cumsum()
            cdf /= cdf[-1]
            k_new = int(cdf.searchsorted(draws[i], side="right"))
            topics[i] = k_new
            row[k_new] += 1
            topic_totals[k_new] += 1
            dt_row[k_new] += 1
            loglik += float(log(p.item(k_new)))
        assignments[doc_id] = np.asarray(topics)
        out.append((doc_id, loglik))
    return out


class LdaWorkload(Workload):
    name = "lda"
    category = "ml"
    # Table II: docs 2k/5k/10k, vocab 1k/2k/3k, topics 10/20/30 — scaled
    # with identical growth ratios.
    sizes = {
        "tiny": SizeProfile(
            "tiny",
            {"docs": 100, "vocabulary": 120, "topics": 5, "words_per_doc": 30},
            partitions=4, llc_pressure=0.7,
        ),
        "small": SizeProfile(
            "small",
            {"docs": 250, "vocabulary": 240, "topics": 10, "words_per_doc": 36},
            partitions=8, llc_pressure=1.0,
        ),
        "large": SizeProfile(
            "large",
            {"docs": 500, "vocabulary": 360, "topics": 15, "words_per_doc": 42},
            partitions=8, llc_pressure=1.5,
        ),
    }

    def prepare(self, sc: SparkContext, size: str) -> None:
        profile = self.profile(size)
        docs = datagen.bag_of_words_docs(
            profile.param("docs"),
            profile.param("vocabulary"),
            profile.param("topics"),
            profile.param("words_per_doc"),
            seed=29,
        )
        # Documents carry (doc_id, token_ids).
        records = list(enumerate(docs))
        record_bytes = 12.0 * profile.param("words_per_doc") + 80
        sc.hdfs.put_records(self.input_path(size), records, record_bytes=record_bytes)

    def execute(self, sc: SparkContext, size: str) -> tuple[t.Any, int]:
        profile = self.profile(size)
        n_topics = profile.param("topics")
        vocabulary = profile.param("vocabulary")
        n_docs = profile.param("docs")
        tokens_total = n_docs * profile.param("words_per_doc")

        corpus = sc.text_file(self.input_path(size), profile.partitions).cache()

        # Deterministic initial topic assignments.
        records = sc.hdfs.read_records(self.input_path(size))
        rng = np.random.default_rng(77)
        assignments: dict[int, np.ndarray] = {
            doc_id: rng.integers(0, n_topics, size=len(words))
            for doc_id, words in records
        }
        word_topic, topic_totals, doc_topic = count_matrices(
            records, assignments, vocabulary, n_topics, n_docs
        )
        beta_vocab = BETA * vocabulary

        # The sampler touches 5–15-element rows per token, so it runs as
        # Python floats in straight-line code compiled for this topic
        # count; the rewrite is bit-exact (see repro.workloads._exact).
        # Gate on the self-check so a numpy build with different
        # reduction grouping falls back to the reference loop.
        use_fast = replicas_match()
        if use_fast:
            word_topic_rows = word_topic.tolist()
            topic_totals_row = topic_totals.tolist()
            doc_topic_rows = doc_topic.tolist()
            # Mirrors of the conditional's three per-element adds.  Only
            # two entries change per token, so the pass keeps ``count +
            # BETA`` / ``total + beta_vocab`` / ``count + ALPHA`` beside
            # the raw counts instead of recomputing them per topic.  Each
            # mirror update performs the very add the reference does on
            # the same operands, so every element stays bit-identical.
            word_topic_beta = [[v + BETA for v in row] for row in word_topic_rows]
            totals_denom = [v + beta_vocab for v in topic_totals_row]
            doc_topic_alpha = [[v + ALPHA for v in row] for row in doc_topic_rows]
            compiled = compiled_gibbs_pass(n_topics)

            def sampler(part: list[tuple[int, list[int]]], seed: int) -> list:
                return compiled(
                    part, np.random.default_rng(seed).random, assignments,
                    word_topic_rows, word_topic_beta, topic_totals_row,
                    totals_denom, doc_topic_rows, doc_topic_alpha,
                    BETA, beta_vocab, ALPHA,
                )
        else:
            def sampler(part: list[tuple[int, list[int]]], seed: int) -> list:
                return gibbs_pass(
                    part, np.random.default_rng(seed).random, assignments,
                    word_topic, topic_totals, doc_topic, beta_vocab,
                )

        logliks = []
        for iteration in range(ITERATIONS):
            results = corpus.map_partitions(
                lambda part, s=iteration: sampler(part, seed=1000 + s),
                cost=GIBBS_COST.scaled(profile.param("words_per_doc")).with_pressure(
                    profile.llc_pressure
                ),
            ).collect()
            logliks.append(sum(ll for _, ll in results))

        if use_fast:
            # Counts stayed exact integers (±1.0 updates), so the list
            # mirror round-trips to the identical float64 matrix.
            word_topic = np.asarray(word_topic_rows)
        coherence = self._top_word_concentration(word_topic.T)
        return (
            {"loglik": logliks, "concentration": coherence},
            tokens_total * ITERATIONS,
        )

    @staticmethod
    def _top_word_concentration(topic_word: np.ndarray) -> float:
        """Mass of each topic's top-10 words (topic sharpness measure)."""
        totals = topic_word.sum(axis=1, keepdims=True)
        totals[totals == 0] = 1.0
        probabilities = topic_word / totals
        top10 = np.sort(probabilities, axis=1)[:, -10:]
        return float(top10.sum(axis=1).mean())

    def verify(self, output: t.Any, sc: SparkContext, size: str) -> bool:
        logliks = output["loglik"]
        # Gibbs sampling must improve the corpus likelihood overall and
        # concentrate topic mass well beyond a uniform topic-word
        # distribution (whose top-10 mass would be 10 / vocabulary).
        uniform_top10 = 10.0 / self.profile(size).param("vocabulary")
        return logliks[-1] > logliks[0] and output["concentration"] > 3 * uniform_top10
