"""``als`` — Alternating Least Squares collaborative filtering.

Distributed ALS in the Spark MLlib style: user and product factor
matrices alternate between broadcast-join updates.  Each half-iteration
groups ratings by the fixed side, solves per-entity normal equations
(a dense ``rank × rank`` solve — vectorized, cache-friendly compute),
and shuffles the updated factors.

The paper observes ALS is nearly *tier-insensitive and size-insensitive*:
its kernels are compute-dominated with few random accesses, which the
cost specification below encodes.
"""

from __future__ import annotations

import typing as t

import numpy as np

from repro.spark.context import SparkContext
from repro.spark.costs import CostSpec
from repro.workloads import datagen
from repro.workloads._exact import stacked_solve, stacked_solve_matches
from repro.workloads.base import SizeProfile, Workload

#: Dense normal-equation solve per entity: high ops, streaming access.
ALS_SOLVE_COST = CostSpec(ops_per_record=6_000.0, random_reads_per_record=3.0)

RANK = 8
REGULARIZATION = 0.1
ITERATIONS = 4


def _solve_factors(
    ratings: list[tuple[int, float]], fixed: dict[int, np.ndarray]
) -> np.ndarray:
    """Least-squares factor for one entity given the fixed side."""
    a = np.eye(RANK) * REGULARIZATION
    b = np.zeros(RANK)
    for other_id, rating in ratings:
        vec = fixed[other_id]
        a += np.outer(vec, vec)
        b += rating * vec
    return np.linalg.solve(a, b)


def _solve_partition(
    part: list[tuple[int, list[tuple[int, float]]]], fixed: dict[int, np.ndarray]
) -> list[tuple[int, np.ndarray]]:
    """:func:`_solve_factors` for every entity of a partition at once.

    Every entity's normal equations start from ``REGULARIZATION * I``.
    Pass ``j`` adds ``v vᵀ`` and ``r v`` of the ``j``-th rating of every
    entity that has one, so each entity adds its own terms in its rating
    order, with the products and adds of the per-entity loop.  One
    :func:`~repro.workloads._exact.stacked_solve` over the
    ``(n, RANK, RANK)`` stack then solves them all (bit for bit the
    per-entity solves where
    :func:`~repro.workloads._exact.stacked_solve_matches` holds).
    """
    if not part:
        return []
    entries = [ratings for _, ratings in part]
    a = np.tile(np.eye(RANK) * REGULARIZATION, (len(entries), 1, 1))
    b = np.zeros((len(entries), RANK))
    for j in range(max(map(len, entries))):
        rows = [i for i, e in enumerate(entries) if len(e) > j]
        vecs = np.array([fixed[entries[i][j][0]] for i in rows])
        ratings = np.array([entries[i][j][1] for i in rows])
        a[rows] += vecs[:, :, None] * vecs[:, None, :]
        b[rows] += ratings[:, None] * vecs
    return [(key, x) for (key, _), x in zip(part, stacked_solve(a, b))]


class AlsWorkload(Workload):
    name = "als"
    category = "ml"
    # Table II ratios (users/products/ratings 1:1:2) at simulation scale.
    sizes = {
        "tiny": SizeProfile(
            "tiny", {"users": 40, "products": 40, "ratings": 80}, partitions=4, llc_pressure=0.7
        ),
        "small": SizeProfile(
            "small", {"users": 120, "products": 120, "ratings": 240}, partitions=8, llc_pressure=1.0
        ),
        "large": SizeProfile(
            "large", {"users": 400, "products": 400, "ratings": 800}, partitions=8, llc_pressure=1.5
        ),
    }

    def prepare(self, sc: SparkContext, size: str) -> None:
        profile = self.profile(size)
        triples = datagen.rating_triples(
            profile.param("users"),
            profile.param("products"),
            profile.param("ratings"),
            seed=17,
        )
        sc.hdfs.put_records(self.input_path(size), triples, record_bytes=48)

    def execute(self, sc: SparkContext, size: str) -> tuple[t.Any, int]:
        profile = self.profile(size)
        n_users = profile.param("users")
        n_products = profile.param("products")

        ratings = sc.text_file(self.input_path(size), profile.partitions)
        by_user = ratings.map(
            lambda r: (r[0], (r[1], r[2]))
        ).group_by_key(profile.partitions).cache()
        by_product = ratings.map(
            lambda r: (r[1], (r[0], r[2]))
        ).group_by_key(profile.partitions).cache()

        rng = np.random.default_rng(99)
        user_factors = {u: rng.normal(scale=0.1, size=RANK) for u in range(n_users)}
        product_factors = {
            p: rng.normal(scale=0.1, size=RANK) for p in range(n_products)
        }

        def solve_each(part: list, fixed: dict[int, np.ndarray]) -> list:
            return [(key, _solve_factors(r, fixed)) for key, r in part]

        solve = _solve_partition if stacked_solve_matches() else solve_each

        def update(grouped: t.Any, fixed: dict[int, np.ndarray]) -> dict:
            # Named "mapValues" like the per-entity mapValues it batches:
            # stage names enter the trace checksum.
            return dict(grouped.map_partitions(
                lambda part: solve(part, fixed),
                cost=ALS_SOLVE_COST.with_pressure(profile.llc_pressure),
                preserves_partitioning=True,
                name="mapValues",
            ).collect())

        for _ in range(ITERATIONS):
            # Update users against fixed products (broadcast-join style).
            user_factors.update(update(by_user, dict(product_factors)))
            # Update products against fixed users.
            product_factors.update(update(by_product, dict(user_factors)))

        rmse = self._rmse(sc, size, user_factors, product_factors)
        return {"rmse": rmse, "users": len(user_factors)}, profile.param("ratings")

    def _rmse(
        self,
        sc: SparkContext,
        size: str,
        user_factors: dict[int, np.ndarray],
        product_factors: dict[int, np.ndarray],
    ) -> float:
        triples = sc.hdfs.read_records(self.input_path(size))
        errors = [
            (float(user_factors[u] @ product_factors[p]) - r) ** 2
            for u, p, r in triples
        ]
        return float(np.sqrt(np.mean(errors))) if errors else 0.0

    def verify(self, output: t.Any, sc: SparkContext, size: str) -> bool:
        # The synthetic ratings have low-rank structure + noise 0.1; a
        # working ALS must fit far below the data's std dev (~1.0).
        return output["rmse"] < 0.8
