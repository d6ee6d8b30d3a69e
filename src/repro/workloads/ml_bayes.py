"""``bayes`` — multinomial naive Bayes text classification.

HiBench's Bayes trains NB over labeled documents: a flatMap explodes
documents into (class, word) tokens, large aggregations count
class/word/class-word frequencies, and a scoring pass classifies a
held-out sample.  Token-level hash aggregation over a big key space makes
this one of the *most access-intensive* workloads (paper Fig. 2 middle),
with near-linear metric/time correlation (Fig. 5).
"""

from __future__ import annotations

import math
import operator
import typing as t
from collections import defaultdict
from itertools import chain, repeat

import numpy as np

from repro.spark.context import SparkContext
from repro.spark.costs import CostSpec
from repro.workloads import datagen
from repro.workloads._exact import builtin_sum_fold
from repro.workloads.base import SizeProfile, Workload

#: Token-level hash counting across a large key space: access-heavy.
TOKEN_COUNT_COST = CostSpec(
    ops_per_record=350.0,
    random_reads_per_record=33.0,
    random_writes_per_record=13.0,
)
#: Scoring: per (doc, class) log-prob accumulation with table probes.
SCORE_COST = CostSpec(
    ops_per_record=900.0,
    random_reads_per_record=45.0,
    random_writes_per_record=3.0,
)

Doc = tuple[int, list[str]]


def _classifier(
    priors: dict[int, float],
    log_tables: dict[int, dict[str, float]],
    log_default: dict[int, float],
) -> t.Callable[[Doc], tuple[int, int]]:
    """The per-document scorer: ``doc -> (label, predicted class)``.

    A class scores ``prior + sum(log-probs of the words, in order)``,
    with the class's default for a word it never saw; the first class in
    ``priors`` order with the highest score wins.  The reference the
    batched scorer must equal, and its fallback.
    """
    # Bind (class, prior, table.get, default) once: the scoring loop
    # then avoids three dict probes per class per document.
    class_row = [
        (c, priors[c], log_tables[c].get, log_default[c]) for c in priors
    ]

    def classify(doc: Doc) -> tuple[int, int]:
        label, words = doc
        best, best_score = -1, -math.inf
        for c, prior, table_get, default in class_row:
            # map() keeps the same left-to-right summation order as
            # the per-token loop while dispatching lookups in C.
            score = prior + sum(map(table_get, words, repeat(default)))
            if score > best_score:
                best, best_score = c, score
        return label, best

    return classify


def _partition_scorer(
    priors: dict[int, float],
    log_tables: dict[int, dict[str, float]],
    log_default: dict[int, float],
    fold: t.Callable[[np.ndarray], np.ndarray],
    classify: t.Callable[[Doc], tuple[int, int]],
) -> t.Callable[[list[Doc]], list[tuple[int, int]]]:
    """``classify`` for a whole partition from one log-probability table.

    The table holds one row per class in ``priors`` order and one column
    per word any class saw, plus a last column for words none saw; a
    class's default fills every word it never saw.  Gathering a
    partition's word columns gives each (class, document) its terms in
    word order, ``fold`` (the interpreter's ``sum``, see
    :func:`~repro.workloads._exact.builtin_sum_fold`) adds them as
    ``sum`` does, and ``argmax`` keeps the first maximal class, as the
    strict ``>`` of ``classify`` does for finite scores.  A partition
    whose documents differ in length goes through ``classify``.
    """
    classes = list(priors)
    column = {w: j for j, w in enumerate(dict.fromkeys(
        w for c in classes for w in log_tables[c]
    ))}
    unseen = len(column)
    table = np.repeat([[log_default[c]] for c in classes], unseen + 1, axis=1)
    for row, c in zip(table, classes):
        row[[column[w] for w in log_tables[c]]] = list(log_tables[c].values())
    prior = np.array([[priors[c]] for c in classes])
    word_column = column.get

    def score(part: list[Doc]) -> list[tuple[int, int]]:
        if not part:
            return []
        n_words = len(part[0][1])
        if any(len(words) != n_words for _, words in part):
            return list(map(classify, part))
        ids = np.fromiter(
            map(word_column, chain.from_iterable(w for _, w in part), repeat(unseen)),
            dtype=np.intp,
            count=len(part) * n_words,
        ).reshape(len(part), n_words)
        best = (prior + fold(table[:, ids])).argmax(axis=0).tolist()
        return [(label, classes[k]) for (label, _), k in zip(part, best)]

    return score


class BayesWorkload(Workload):
    name = "bayes"
    category = "ml"
    # Table II: pages 25k/30k/100k, classes 10/100/100 → scaled with the
    # same mild tiny→small page growth and the class jump.
    sizes = {
        "tiny": SizeProfile(
            "tiny",
            {"docs": 500, "classes": 5, "vocabulary": 300, "words_per_doc": 24},
            partitions=4, llc_pressure=0.7,
        ),
        "small": SizeProfile(
            "small",
            {"docs": 1_500, "classes": 10, "vocabulary": 600, "words_per_doc": 30},
            partitions=8, llc_pressure=1.0,
        ),
        "large": SizeProfile(
            "large",
            {"docs": 6_000, "classes": 10, "vocabulary": 1_000, "words_per_doc": 30},
            partitions=16, llc_pressure=1.5,
        ),
    }

    def prepare(self, sc: SparkContext, size: str) -> None:
        profile = self.profile(size)
        docs = datagen.labeled_documents(
            profile.param("docs"),
            profile.param("classes"),
            profile.param("vocabulary"),
            profile.param("words_per_doc"),
            seed=19,
        )
        record_bytes = 24.0 * profile.param("words_per_doc")
        sc.hdfs.put_records(self.input_path(size), docs, record_bytes=record_bytes)

    def execute(self, sc: SparkContext, size: str) -> tuple[t.Any, int]:
        profile = self.profile(size)
        docs = sc.text_file(self.input_path(size), profile.partitions).cache()
        n_docs = profile.param("docs")
        tokens = profile.param("docs") * profile.param("words_per_doc")

        # Class priors.
        class_counts = dict(
            docs.map(lambda d: (d[0], 1)).reduce_by_key(
                operator.add, profile.partitions
            ).collect()
        )
        def explode(doc: tuple[int, list[str]]) -> list[tuple[tuple[int, str], int]]:
            label, words = doc
            return [((label, w), 1) for w in words]

        # Token-level (class, word) frequencies — the access-heavy stage.
        word_counts = dict(
            docs.flat_map(
                explode,
                cost=TOKEN_COUNT_COST.with_pressure(profile.llc_pressure)
            )
            # operator.add: the token-count merge runs once per duplicate
            # (class, word) key — dispatching it in C instead of through
            # a Python lambda frame is the hot half of this stage.
            .reduce_by_key(operator.add, profile.partitions,
                           reduce_cost=TOKEN_COUNT_COST.with_pressure(profile.llc_pressure))
            .collect()
        )
        # Per-class token totals.
        class_tokens: dict[int, int] = defaultdict(int)
        for (label, _word), count in word_counts.items():
            class_tokens[label] += count

        vocabulary = profile.param("vocabulary")
        priors = {c: math.log(n / n_docs) for c, n in class_counts.items()}

        # Smoothed log-likelihood tables: the same math.log terms the
        # per-token lookup computed, evaluated once per (class, word)
        # pair instead of once per token occurrence.  Scoring keeps the
        # left-to-right summation order, so scores are bit-identical.
        log_default = {
            c: math.log(1.0 / (class_tokens[c] + vocabulary)) for c in priors
        }
        log_tables: dict[int, dict[str, float]] = {c: {} for c in priors}
        for (label, word), count in word_counts.items():
            log_tables[label][word] = math.log(
                (count + 1.0) / (class_tokens[label] + vocabulary)
            )

        classify = _classifier(priors, log_tables, log_default)
        fold = builtin_sum_fold()
        score = (
            _partition_scorer(priors, log_tables, log_default, fold, classify)
            if fold is not None
            else lambda part: list(map(classify, part))
        )
        # Named "map" like the per-document map it batches: stage names
        # enter the trace checksum.
        scored = docs.map_partitions(
            score, cost=SCORE_COST.with_pressure(profile.llc_pressure), name="map"
        )
        correct = scored.filter(lambda lb: lb[0] == lb[1]).count()
        accuracy = correct / n_docs
        return {"accuracy": accuracy, "model_size": len(word_counts)}, tokens

    def verify(self, output: t.Any, sc: SparkContext, size: str) -> bool:
        # Class-dependent vocabularies are separable: training accuracy
        # must beat chance by a wide margin.
        n_classes = self.profile(size).param("classes")
        return output["accuracy"] > 2.5 / n_classes
