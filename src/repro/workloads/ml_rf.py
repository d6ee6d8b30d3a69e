"""``rf`` — random forest classification.

Trains a forest over labeled vectors: each tree fits on a deterministic
bootstrap sample inside one task (the per-partition training strategy of
distributed forests), then a scoring pass evaluates the ensemble.  Tree
construction is histogram/threshold search — moderate random access,
substantial compute — so RF sits with sort/als in the paper's
less-degraded group (31.1 % average).
"""

from __future__ import annotations

import typing as t
from dataclasses import dataclass

import numpy as np

from repro.spark.context import SparkContext
from repro.spark.costs import CostSpec
from repro.workloads import datagen
from repro.workloads._exact import (
    column_quantiles,
    pairwise_sum,
    quantiles_match,
    replicas_match,
)
from repro.workloads.base import SizeProfile, Workload

#: Split search over feature histograms: compute-heavy, some pointer work.
TREE_BUILD_COST = CostSpec(
    ops_per_record=5_000.0,
    random_reads_per_record=12.0,
    random_writes_per_record=3.0,
)
SCORE_COST = CostSpec(ops_per_record=600.0, random_reads_per_record=9.0)

N_TREES = 8
MAX_DEPTH = 5
MIN_LEAF = 4
#: Candidate thresholds of a feature: its quartiles.
QUANTILES = (0.25, 0.5, 0.75)


@dataclass
class _Node:
    feature: int = -1
    threshold: float = 0.0
    prediction: int = 0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini_from_counts(counts: t.Sequence[int], size: int) -> float:
    """Gini impurity from a label histogram.

    Rounds exactly like the sorted-unique formulation it replaced,
    ``1 - np.sum((np.unique(labels, return_counts=True)[1] / size) ** 2)``:
    only the labels present are summed (absent-label zeros would shift
    ``np.sum``'s pairwise grouping once eight or more values remain),
    each squared probability is the same two IEEE ops, and the total is
    :func:`pairwise_sum` where :func:`replicas_match` holds, ``np.sum``
    otherwise.
    """
    squares = []
    for c in counts:
        if c:
            p = c / size
            squares.append(p * p)
    if replicas_match():
        return 1.0 - pairwise_sum(squares)
    return 1.0 - float(np.sum(squares))


def _gini(labels: np.ndarray) -> float:
    if labels.size == 0:
        return 0.0
    return _gini_from_counts(np.bincount(labels).tolist(), labels.size)


def _split_gain(
    parent_impurity: float,
    total_counts: list[int],
    left_counts: list[int],
    left_n: int,
    size: int,
) -> float:
    """Gini gain of sending ``left_n`` of ``size`` rows left, by label
    ``left_counts``."""
    right_n = size - left_n
    right_counts = [t - l for t, l in zip(total_counts, left_counts)]
    return parent_impurity - (
        left_n * _gini_from_counts(left_counts, left_n)
        + right_n * _gini_from_counts(right_counts, right_n)
    ) / size


def _best_split(
    x: np.ndarray,
    y: np.ndarray,
    candidates: np.ndarray,
    total_counts: list[int],
    parent_impurity: float,
) -> tuple[float, int, float]:
    """The reference split search: ``(gain, feature, threshold)``.

    Tries each candidate feature at its quartiles, in order, and keeps
    the first split of highest positive gain whose sides both hold
    ``MIN_LEAF`` rows; feature ``-1`` when none qualifies.
    """
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    n_labels = len(total_counts)
    for feature in candidates:
        values = x[:, feature]
        for threshold in np.quantile(values, QUANTILES):
            mask = values <= threshold
            left_n = int(mask.sum())
            right_n = y.size - left_n
            if left_n < MIN_LEAF or right_n < MIN_LEAF:
                continue
            left_counts = np.bincount(y[mask], minlength=n_labels).tolist()
            gain = _split_gain(parent_impurity, total_counts, left_counts, left_n, y.size)
            if gain > best_gain:
                best_gain, best_feature, best_threshold = gain, int(feature), float(threshold)
    return best_gain, best_feature, best_threshold


def _best_split_batched(
    x: np.ndarray,
    y: np.ndarray,
    candidates: np.ndarray,
    total_counts: list[int],
    parent_impurity: float,
) -> tuple[float, int, float]:
    """:func:`_best_split` with every candidate split counted at once.

    One ``np.partition`` yields every candidate's thresholds
    (:func:`~repro.workloads._exact.column_quantiles`), one ``<=``
    compare every split's mask, and one integer matmul with the one-hot
    labels every split's left label counts.  The gains then follow from
    the same counts, in the same order, through :func:`_split_gain`.
    """
    cols = x[:, candidates]
    thresholds = column_quantiles(cols, QUANTILES).T
    masks = (cols[:, :, None] <= thresholds).reshape(y.size, -1)
    n_labels = len(total_counts)
    onehot = (y[:, None] == np.arange(n_labels)).T.astype(np.int64)
    left_sizes = masks.sum(axis=0).tolist()
    left_counts = (onehot @ masks).T.tolist()
    splits = [(int(f), float(th)) for f, row in zip(candidates, thresholds) for th in row]
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for (feature, threshold), left_n, left in zip(splits, left_sizes, left_counts):
        if left_n < MIN_LEAF or y.size - left_n < MIN_LEAF:
            continue
        gain = _split_gain(parent_impurity, total_counts, left, left_n, y.size)
        if gain > best_gain:
            best_gain, best_feature, best_threshold = gain, feature, threshold
    return best_gain, best_feature, best_threshold


def _build_tree(
    x: np.ndarray, y: np.ndarray, rng: np.random.Generator, depth: int = 0
) -> _Node:
    # One histogram per node feeds the prediction, the single-class
    # early-out, the parent impurity, and every split's right-side
    # counts — replacing the per-candidate sort in np.unique.
    label_counts = np.bincount(y) if y.size else None
    node = _Node(prediction=int(label_counts.argmax()) if y.size else 0)
    if (
        depth >= MAX_DEPTH
        or y.size < 2 * MIN_LEAF
        or int(np.count_nonzero(label_counts)) == 1
    ):
        return node
    n_features = x.shape[1]
    candidates = rng.choice(
        n_features, size=max(1, int(np.sqrt(n_features))), replace=False
    )
    total_counts = label_counts.tolist()
    search = _best_split_batched if quantiles_match() else _best_split
    _, best_feature, best_threshold = search(
        x, y, candidates, total_counts, _gini_from_counts(total_counts, y.size)
    )
    if best_feature < 0:
        return node
    mask = x[:, best_feature] <= best_threshold
    node.feature, node.threshold = best_feature, best_threshold
    node.left = _build_tree(x[mask], y[mask], rng, depth + 1)
    node.right = _build_tree(x[~mask], y[~mask], rng, depth + 1)
    return node


#: Flattened tree cell: ``(prediction,)`` for leaves, else
#: ``(feature, threshold, left_cell, right_cell)`` — tuple hops are
#: several times cheaper than dataclass attribute walks in the scoring
#: loop, and the comparisons are unchanged.
_Cell = tuple


def _flatten_tree(node: _Node) -> _Cell:
    if node.is_leaf:
        return (node.prediction,)
    return (
        node.feature,
        node.threshold,
        _flatten_tree(node.left),  # type: ignore[arg-type]
        _flatten_tree(node.right),  # type: ignore[arg-type]
    )


class RandomForestWorkload(Workload):
    name = "rf"
    category = "ml"
    # Table II: examples 10/100/1000 (x1000 at real scale), features
    # 100/500/1000 — scaled keeping the growth pattern.
    sizes = {
        "tiny": SizeProfile(
            "tiny", {"examples": 200, "features": 10, "classes": 2}, partitions=4, llc_pressure=0.7
        ),
        "small": SizeProfile(
            "small", {"examples": 800, "features": 20, "classes": 3}, partitions=8, llc_pressure=1.0
        ),
        "large": SizeProfile(
            "large", {"examples": 2_400, "features": 30, "classes": 3}, partitions=8, llc_pressure=1.5
        ),
    }

    def prepare(self, sc: SparkContext, size: str) -> None:
        profile = self.profile(size)
        examples = datagen.labeled_vectors(
            profile.param("examples"),
            profile.param("features"),
            profile.param("classes"),
            seed=23,
        )
        record_bytes = 8.0 * profile.param("features") + 120
        sc.hdfs.put_records(self.input_path(size), examples, record_bytes=record_bytes)

    def execute(self, sc: SparkContext, size: str) -> tuple[t.Any, int]:
        profile = self.profile(size)
        data = sc.text_file(self.input_path(size), profile.partitions).cache()
        examples = data.collect()
        x_all = np.array([e[1] for e in examples])
        y_all = np.array([e[0] for e in examples])

        # One task per tree: bootstrap + fit inside the executor.
        def train(tree_ids: list[int]) -> list[_Node]:
            trees = []
            for tree_id in tree_ids:
                rng = np.random.default_rng(1000 + tree_id)
                idx = rng.integers(0, len(y_all), size=len(y_all))
                trees.append(_build_tree(x_all[idx], y_all[idx], rng))
            return trees

        tree_seeds = sc.parallelize(range(N_TREES), min(N_TREES, profile.partitions))
        forests = tree_seeds.map_partitions(
            lambda ids: train(ids),
            cost=TREE_BUILD_COST.scaled(len(examples) / max(1, N_TREES)).with_pressure(
                profile.llc_pressure
            ),
        ).collect()

        flat_forest = [_flatten_tree(tree) for tree in forests]
        n_classes = profile.param("classes")

        def vote(example: tuple[int, np.ndarray]) -> tuple[int, int]:
            label, row = example
            # Same ballots as bincount(...).argmax(): integer tallies
            # with the first maximal class winning ties.
            counts = [0] * n_classes
            for cell in flat_forest:
                while len(cell) > 1:
                    cell = cell[2] if row[cell[0]] <= cell[1] else cell[3]
                counts[cell[0]] += 1
            best = 0
            for k in range(1, n_classes):
                if counts[k] > counts[best]:
                    best = k
            return label, best

        scored = data.map(vote, cost=SCORE_COST.with_pressure(profile.llc_pressure))
        correct = scored.filter(lambda lp: lp[0] == lp[1]).count()
        accuracy = correct / len(examples)
        return {"accuracy": accuracy, "trees": len(forests)}, len(examples)

    def verify(self, output: t.Any, sc: SparkContext, size: str) -> bool:
        n_classes = self.profile(size).param("classes")
        return output["trees"] == N_TREES and output["accuracy"] > 1.8 / n_classes
