"""Resilient Distributed Datasets: lineage, transformations, actions.

The engine follows Spark's execution model:

- Transformations are **lazy**: they build an RDD graph with narrow or
  shuffle dependencies.
- Actions submit a **job** through the DAG scheduler, which splits the
  graph into stages at shuffle boundaries and executes them on the
  simulated executors.
- Narrow chains are **pipelined**: intermediate records flow through the
  CPU cache, so only materialization points (sources, caches, shuffles,
  job outputs) charge streaming memory traffic.  Per-operator compute and
  random-access costs are charged by :class:`~repro.spark.costs.CostSpec`.

Deviations from Spark, documented here once: ``sortByKey`` runs its
range-partitioner sampling job eagerly at call time (Spark defers it to
first action); ``zipWithIndex`` likewise runs its counting job eagerly
(as real Spark does).
"""

from __future__ import annotations

import operator
import typing as t
from collections import defaultdict

from repro.spark import costs as cost_lib
from repro.spark.costs import CostSpec
from repro.spark.dependency import (
    Dependency,
    OneToOneDependency,
    RangeDependency,
    ShuffleDependency,
)
from repro.spark.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.spark.serializer import estimate_record_bytes
from repro.spark.storage_level import NONE as STORAGE_NONE
from repro.spark.storage_level import MEMORY_ONLY, StorageLevel
from repro.spark.task import TaskContext

if t.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spark.context import SparkContext

T = t.TypeVar("T")
U = t.TypeVar("U")
K = t.TypeVar("K")
V = t.TypeVar("V")


class RDD(t.Generic[T]):
    """An immutable, partitioned collection with tracked lineage."""

    def __init__(
        self,
        sc: "SparkContext",
        deps: list[Dependency],
        num_partitions: int,
        partitioner: Partitioner | None = None,
        name: str = "",
    ) -> None:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        self.sc = sc
        self.rdd_id = sc._register_rdd(self)
        self.deps = deps
        self._num_partitions = num_partitions
        self.partitioner = partitioner
        self.name = name or type(self).__name__
        self.storage_level: StorageLevel = STORAGE_NONE
        self._record_bytes: float | None = None

    # ------------------------------------------------------------------ core --
    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    def compute(self, split: int, ctx: TaskContext) -> list[T]:
        """Produce the records of partition ``split`` (charging ``ctx``)."""
        raise NotImplementedError

    def iterator(self, split: int, ctx: TaskContext) -> list[T]:
        """Cache-aware access to a partition's records."""
        executor = ctx.executor
        if self.storage_level.is_cached and executor is not None:
            return executor.block_manager.get_or_compute(self, split, ctx)
        data = self.compute(split, ctx)
        self._observe(data)
        return data

    def _observe(self, data: list[T]) -> None:
        """Fix the record-size estimate from the first computed data."""
        if self._record_bytes is None and data:
            self._record_bytes = estimate_record_bytes(data)
            recorder = self.sc.trace_recorder
            if recorder is not None:
                recorder.note_estimate_set()

    @property
    def record_bytes(self) -> float:
        """Estimated bytes per record (64 until data has been seen)."""
        return self._record_bytes if self._record_bytes is not None else 64.0

    def partition_nbytes(self, data: t.Sequence[t.Any]) -> float:
        return len(data) * self.record_bytes

    # -------------------------------------------------------------- persistence --
    def persist(self, level: StorageLevel = MEMORY_ONLY) -> "RDD[T]":
        """Mark this RDD for caching at ``level`` on first computation."""
        if not level.is_cached:
            raise ValueError("persist() requires a caching storage level")
        self.storage_level = level
        return self

    def cache(self) -> "RDD[T]":
        """Spark's ``cache()``: persist at MEMORY_ONLY."""
        return self.persist(MEMORY_ONLY)

    def unpersist(self) -> "RDD[T]":
        """Drop cached blocks and stop caching."""
        self.storage_level = STORAGE_NONE
        self.sc._evict_rdd(self.rdd_id)
        return self

    # ------------------------------------------------------------ transformations --
    def map_partitions(
        self,
        func: t.Callable[[list[T]], list[U]],
        cost: CostSpec = cost_lib.MAP_COST,
        preserves_partitioning: bool = False,
        name: str = "",
    ) -> "RDD[U]":
        """Apply ``func`` to each whole partition."""
        return MapPartitionsRDD(
            self,
            func,
            cost,
            preserves_partitioning=preserves_partitioning,
            name=name or "mapPartitions",
        )

    def map(
        self, func: t.Callable[[T], U], cost: CostSpec = cost_lib.MAP_COST
    ) -> "RDD[U]":
        # list(map(...)) applies func element-for-element like the
        # listcomp did, but drives the loop in C.
        return MapPartitionsRDD(
            self, lambda part: list(map(func, part)), cost, name="map"
        )

    def filter(
        self, pred: t.Callable[[T], bool], cost: CostSpec = cost_lib.MAP_COST
    ) -> "RDD[T]":
        return MapPartitionsRDD(
            self,
            lambda part: [x for x in part if pred(x)],
            cost,
            preserves_partitioning=True,
            name="filter",
        )

    def flat_map(
        self, func: t.Callable[[T], t.Iterable[U]], cost: CostSpec = cost_lib.FLATMAP_COST
    ) -> "RDD[U]":
        def apply(part: list[T]) -> list[U]:
            out: list[U] = []
            for x in part:
                out.extend(func(x))
            return out

        return MapPartitionsRDD(self, apply, cost, name="flatMap")

    def map_values(
        self, func: t.Callable[[V], U], cost: CostSpec = cost_lib.MAP_COST
    ) -> "RDD[tuple[K, U]]":
        return MapPartitionsRDD(
            self,
            lambda part: [(k, func(v)) for k, v in part],
            cost,
            preserves_partitioning=True,
            name="mapValues",
        )

    def flat_map_values(
        self,
        func: t.Callable[[V], t.Iterable[U]],
        cost: CostSpec = cost_lib.FLATMAP_COST,
    ) -> "RDD[tuple[K, U]]":
        def apply(part: list[tuple[K, V]]) -> list[tuple[K, U]]:
            out: list[tuple[K, U]] = []
            for k, v in part:
                out.extend((k, u) for u in func(v))
            return out

        return MapPartitionsRDD(
            self, apply, cost, preserves_partitioning=True, name="flatMapValues"
        )

    def key_by(self, func: t.Callable[[T], K]) -> "RDD[tuple[K, T]]":
        return self.map(lambda x: (func(x), x))

    def keys(self) -> "RDD[K]":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD[V]":
        return self.map(lambda kv: kv[1])

    def glom(self) -> "RDD[list[T]]":
        return MapPartitionsRDD(
            self, lambda part: [list(part)], cost_lib.MAP_COST, name="glom"
        )

    def union(self, other: "RDD[T]") -> "RDD[T]":
        return UnionRDD(self.sc, [self, other])

    def distinct(self, num_partitions: int | None = None) -> "RDD[T]":
        n = num_partitions or self.num_partitions
        return (
            self.map(lambda x: (x, None))
            .reduce_by_key(lambda a, b: a, num_partitions=n)
            .map(lambda kv: kv[0])
        )

    def sample(self, fraction: float, seed: int = 7) -> "RDD[T]":
        """Deterministic Bernoulli sample (hash-based, reproducible)."""
        if not 0 <= fraction <= 1:
            raise ValueError("fraction must be in [0, 1]")
        threshold = int(fraction * 1_000_003)

        def keep(idx_and_part: list[T]) -> list[T]:
            out = []
            for i, x in enumerate(idx_and_part):
                h = (hash((seed, i)) & 0x7FFFFFFF) % 1_000_003
                if h < threshold:
                    out.append(x)
            return out

        return MapPartitionsRDD(
            self, keep, cost_lib.MAP_COST, preserves_partitioning=True, name="sample"
        )

    def zip_with_index(self) -> "RDD[tuple[T, int]]":
        """Pair each record with its global index (runs a count job)."""
        sizes = self.sc.run_job(
            self, lambda part: len(part), name=f"{self.name}-zipWithIndex-count"
        )
        offsets = [0]
        for size in sizes[:-1]:
            offsets.append(offsets[-1] + size)

        def apply_with_split(split: int, part: list[T]) -> list[tuple[T, int]]:
            base = offsets[split]
            return [(x, base + i) for i, x in enumerate(part)]

        return MapPartitionsWithSplitRDD(
            self, apply_with_split, cost_lib.MAP_COST, name="zipWithIndex"
        )

    # --------------------------------------------------------------- pair (wide) --
    def _ensure_partitioner(self, num_partitions: int | None) -> Partitioner:
        n = num_partitions or self.sc.conf.effective_shuffle_partitions
        return HashPartitioner(n)

    def partition_by(
        self, partitioner: Partitioner, cost: CostSpec = cost_lib.SHUFFLE_WRITE_COST
    ) -> "RDD[tuple[K, V]]":
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner, shuffle_write_cost=cost)

    def combine_by_key(
        self,
        create_combiner: t.Callable[[V], U],
        merge_value: t.Callable[[U, V], U],
        merge_combiners: t.Callable[[U, U], U],
        num_partitions: int | None = None,
        map_side_combine: bool = True,
        reduce_cost: CostSpec = cost_lib.AGGREGATE_COST,
    ) -> "RDD[tuple[K, U]]":
        partitioner = self._ensure_partitioner(num_partitions)
        shuffled = ShuffledRDD(
            self,
            partitioner,
            map_side_combine=(
                _make_map_side_combiner(create_combiner, merge_value, merge_combiners)
                if map_side_combine
                else None
            ),
            reduce_cost=reduce_cost,
        )

        missing = object()

        def finalize(part: list[tuple[K, t.Any]]) -> list[tuple[K, U]]:
            merged: dict[K, U] = {}
            get = merged.get
            if map_side_combine:
                for key, value in part:
                    existing = get(key, missing)
                    merged[key] = (
                        value if existing is missing
                        else merge_combiners(existing, value)
                    )
            else:
                for key, value in part:
                    existing = get(key, missing)
                    merged[key] = (
                        create_combiner(value) if existing is missing
                        else merge_value(existing, value)
                    )
            return list(merged.items())

        return MapPartitionsRDD(
            shuffled,
            finalize,
            reduce_cost,
            preserves_partitioning=True,
            name="combineByKey",
        )

    def reduce_by_key(
        self,
        func: t.Callable[[V, V], V],
        num_partitions: int | None = None,
        reduce_cost: CostSpec = cost_lib.AGGREGATE_COST,
    ) -> "RDD[tuple[K, V]]":
        return self.combine_by_key(
            _identity, func, func, num_partitions, reduce_cost=reduce_cost
        )

    def group_by_key(
        self, num_partitions: int | None = None
    ) -> "RDD[tuple[K, list[V]]]":
        # No map-side combine (grouping gains nothing), like Spark.
        return self.combine_by_key(
            lambda v: [v],
            lambda acc, v: acc + [v],
            lambda a, b: a + b,
            num_partitions,
            map_side_combine=False,
        )

    def aggregate_by_key(
        self,
        zero: U,
        seq_op: t.Callable[[U, V], U],
        comb_op: t.Callable[[U, U], U],
        num_partitions: int | None = None,
    ) -> "RDD[tuple[K, U]]":
        import copy

        return self.combine_by_key(
            lambda v: seq_op(copy.deepcopy(zero), v),
            seq_op,
            comb_op,
            num_partitions,
        )

    def sort_by_key(
        self,
        ascending: bool = True,
        num_partitions: int | None = None,
        sample_fraction: float = 0.1,
    ) -> "RDD[tuple[K, V]]":
        """Total sort: sample-based range partitioning + per-partition sort."""
        n = num_partitions or self.sc.conf.effective_shuffle_partitions
        sample_keys: list[K] = []
        for part_keys in self.sc.run_job(
            self,
            lambda part: [kv[0] for kv in part][:: max(1, int(1 / max(sample_fraction, 1e-6)))],
            name=f"{self.name}-sort-sample",
        ):
            sample_keys.extend(part_keys)
        partitioner: Partitioner = RangePartitioner.from_sample(n, sample_keys)
        if not ascending:
            # Mirror the partition index space so partition order matches
            # the requested global (descending) order.
            from repro.spark.partitioner import ReversedPartitioner

            partitioner = ReversedPartitioner(partitioner)
        shuffled = ShuffledRDD(
            self, partitioner, reduce_cost=cost_lib.SHUFFLE_READ_COST
        )

        def sort_part(part: list[tuple[K, V]]) -> list[tuple[K, V]]:
            return sorted(part, key=lambda kv: kv[0], reverse=not ascending)

        return MapPartitionsRDD(
            shuffled,
            sort_part,
            cost_lib.SORT_COST,
            preserves_partitioning=True,
            name="sortByKey",
        )

    def sort_by(
        self,
        key_func: t.Callable[[T], t.Any],
        ascending: bool = True,
        num_partitions: int | None = None,
    ) -> "RDD[T]":
        return (
            self.key_by(key_func)
            .sort_by_key(ascending=ascending, num_partitions=num_partitions)
            .values()
        )

    def repartition(self, num_partitions: int) -> "RDD[T]":
        """Change partition count via a full shuffle (round-robin keys)."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        keyed = MapPartitionsWithSplitRDD(
            self,
            lambda split, part: [
                ((split * 1000003 + i) % num_partitions, x) for i, x in enumerate(part)
            ],
            cost_lib.MAP_COST,
            name="repartition-key",
        )
        shuffled = ShuffledRDD(keyed, HashPartitioner(num_partitions))
        return MapPartitionsRDD(
            shuffled,
            lambda part: [kv[1] for kv in part],
            cost_lib.MAP_COST,
            name="repartition",
        )

    def coalesce(self, num_partitions: int) -> "RDD[T]":
        """Reduce partition count without a shuffle (narrow grouping)."""
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if num_partitions >= self.num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    def cogroup(
        self, other: "RDD[tuple[K, U]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[list[V], list[U]]]]":
        partitioner = self._ensure_partitioner(num_partitions)
        tagged = UnionRDD(
            self.sc,
            [
                self.map(lambda kv: (kv[0], (0, kv[1]))),
                other.map(lambda kv: (kv[0], (1, kv[1]))),
            ],
        )
        shuffled = ShuffledRDD(tagged, partitioner, reduce_cost=cost_lib.JOIN_COST)

        def group(part: list[tuple[K, tuple[int, t.Any]]]) -> list:
            table: dict[K, tuple[list, list]] = defaultdict(lambda: ([], []))
            for key, (tag, value) in part:
                table[key][tag].append(value)
            return list(table.items())

        return MapPartitionsRDD(
            shuffled, group, cost_lib.JOIN_COST, preserves_partitioning=True,
            name="cogroup",
        )

    def join(
        self, other: "RDD[tuple[K, U]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[V, U]]]":
        def emit(part: list) -> list:
            out = []
            for key, (left, right) in part:
                for lv in left:
                    for rv in right:
                        out.append((key, (lv, rv)))
            return out

        return self.cogroup(other, num_partitions).map_partitions(
            emit, cost_lib.JOIN_COST, preserves_partitioning=True, name="join"
        )

    def left_outer_join(
        self, other: "RDD[tuple[K, U]]", num_partitions: int | None = None
    ) -> "RDD[tuple[K, tuple[V, U | None]]]":
        def emit(part: list) -> list:
            out = []
            for key, (left, right) in part:
                for lv in left:
                    if right:
                        out.extend((key, (lv, rv)) for rv in right)
                    else:
                        out.append((key, (lv, None)))
            return out

        return self.cogroup(other, num_partitions).map_partitions(
            emit, cost_lib.JOIN_COST, preserves_partitioning=True,
            name="leftOuterJoin",
        )

    # -------------------------------------------------------------------- actions --
    def collect(self) -> list[T]:
        parts = self.sc.run_job(self, lambda part: part, name=f"{self.name}-collect")
        out: list[T] = []
        for part in parts:
            out.extend(part)
        return out

    def count(self) -> int:
        return sum(
            self.sc.run_job(self, lambda part: len(part), name=f"{self.name}-count")
        )

    def reduce(self, func: t.Callable[[T, T], T]) -> T:
        import functools

        parts = self.sc.run_job(
            self,
            lambda part: functools.reduce(func, part) if part else None,
            name=f"{self.name}-reduce",
        )
        non_empty = [p for p in parts if p is not None]
        if not non_empty:
            raise ValueError("reduce() of empty RDD")
        return functools.reduce(func, non_empty)

    def fold(self, zero: T, func: t.Callable[[T, T], T]) -> T:
        import functools

        parts = self.sc.run_job(
            self,
            lambda part: functools.reduce(func, part, zero),
            name=f"{self.name}-fold",
        )
        return functools.reduce(func, parts, zero)

    def take(self, n: int) -> list[T]:
        # One pass over all partitions (simpler than Spark's incremental
        # scheduling; the data volumes here make it equivalent).
        return self.collect()[:n]

    def first(self) -> T:
        taken = self.take(1)
        if not taken:
            raise ValueError("first() of empty RDD")
        return taken[0]

    def top(self, n: int, key: t.Callable[[T], t.Any] | None = None) -> list[T]:
        import heapq

        parts = self.sc.run_job(
            self,
            lambda part: heapq.nlargest(n, part, key=key),
            name=f"{self.name}-top",
        )
        merged: list[T] = []
        for part in parts:
            merged.extend(part)
        return heapq.nlargest(n, merged, key=key)

    def count_by_key(self) -> dict[K, int]:
        counted = self.map_values(lambda _v: 1).reduce_by_key(operator.add)
        return dict(counted.collect())

    def count_by_value(self) -> dict[T, int]:
        counted = self.map(lambda x: (x, 1)).reduce_by_key(operator.add)
        return dict(counted.collect())

    def sum(self) -> float:
        return self.fold(0, lambda a, b: a + b)

    def mean(self) -> float:
        total, count = self.map(lambda x: (x, 1)).fold(
            (0.0, 0), lambda a, b: (a[0] + b[0], a[1] + b[1])
        )
        if count == 0:
            raise ValueError("mean() of empty RDD")
        return total / count

    def max(self) -> T:
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> T:
        return self.reduce(lambda a, b: a if a <= b else b)

    def foreach(self, func: t.Callable[[T], None]) -> None:
        def run(part: list[T]) -> None:
            for x in part:
                func(x)

        self.sc.run_job(self, run, name=f"{self.name}-foreach")

    def save_as_text_file(self, path: str) -> None:
        """Write the RDD to HDFS (timed, through the datanode)."""
        self.sc._save_rdd_as_file(self, path)

    # -------------------------------------------------------------------- misc --
    def set_name(self, name: str) -> "RDD[T]":
        self.name = name
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} id={self.rdd_id} name={self.name!r} "
            f"partitions={self.num_partitions}>"
        )


def _identity(value: t.Any) -> t.Any:
    """Marker combiner for reduce_by_key: the value *is* the combiner."""
    return value


def _make_map_side_combiner(
    create_combiner: t.Callable,
    merge_value: t.Callable,
    merge_combiners: t.Callable,
) -> t.Callable[[list[tuple[t.Any, t.Any]]], list[tuple[t.Any, t.Any]]]:
    """Build the map-side pre-aggregation function for a shuffle."""

    missing = object()

    if create_combiner is _identity:
        # reduce_by_key's combiner is the raw value: skip one Python
        # call per first-seen key in the hot aggregation loop.
        def combine_identity(
            records: list[tuple[t.Any, t.Any]]
        ) -> list[tuple[t.Any, t.Any]]:
            table: dict[t.Any, t.Any] = {}
            get = table.get
            for key, value in records:
                existing = get(key, missing)
                table[key] = (
                    value if existing is missing else merge_value(existing, value)
                )
            return list(table.items())

        return combine_identity

    def combine(records: list[tuple[t.Any, t.Any]]) -> list[tuple[t.Any, t.Any]]:
        table: dict[t.Any, t.Any] = {}
        get = table.get
        for key, value in records:
            existing = get(key, missing)
            table[key] = (
                create_combiner(value)
                if existing is missing
                else merge_value(existing, value)
            )
        return list(table.items())

    return combine


class ParallelCollectionRDD(RDD[T]):
    """Source RDD from a driver-side collection (``sc.parallelize``)."""

    def __init__(
        self, sc: "SparkContext", data: t.Sequence[T], num_partitions: int, name: str = ""
    ) -> None:
        super().__init__(sc, deps=[], num_partitions=num_partitions,
                         name=name or "parallelize")
        self._slices = _slice_evenly(list(data), num_partitions)
        self._record_bytes = estimate_record_bytes(data) if len(data) else None

    def compute(self, split: int, ctx: TaskContext) -> list[T]:
        data = self._slices[split]
        # Records arrive from the driver into the executor's bound tier.
        ctx.charge_stream_read(self.partition_nbytes(data), records=len(data))
        return list(data)


class HdfsTextRDD(RDD[T]):
    """Source RDD reading staged records from HDFS (``sc.text_file``)."""

    def __init__(
        self, sc: "SparkContext", path: str, num_partitions: int
    ) -> None:
        super().__init__(sc, deps=[], num_partitions=num_partitions,
                         name=f"textFile({path})")
        self.path = path
        records = sc.hdfs.read_records(path)
        self._slices = _slice_evenly(records, num_partitions)
        self._record_bytes = sc.hdfs.record_bytes(path)
        self._hdfs_bytes_per_partition = (
            sc.hdfs.status(path).nbytes / num_partitions
        )

    def compute(self, split: int, ctx: TaskContext) -> list[T]:
        data = self._slices[split]
        nbytes = self.partition_nbytes(data)
        # HDFS streaming is charged by the executor (a disk phase), then
        # the decoded records land in the bound memory tier.
        ctx.pending_hdfs_reads.append(self._hdfs_bytes_per_partition)
        ctx.charge_stream_read(nbytes, records=len(data))
        ctx.charge(ops=len(data) * 40.0 + nbytes * 0.3)  # parse/decode
        return list(data)


class MapPartitionsRDD(RDD[U]):
    """Narrow transformation applying ``func`` per partition."""

    def __init__(
        self,
        parent: RDD[T],
        func: t.Callable[[list[T]], list[U]],
        cost: CostSpec,
        preserves_partitioning: bool = False,
        name: str = "",
    ) -> None:
        super().__init__(
            parent.sc,
            deps=[OneToOneDependency(parent)],
            num_partitions=parent.num_partitions,
            partitioner=parent.partitioner if preserves_partitioning else None,
            name=name,
        )
        self.parent = parent
        self.func = func
        self.cost = cost

    def compute(self, split: int, ctx: TaskContext) -> list[U]:
        parent_data = self.parent.iterator(split, ctx)
        in_bytes = self.parent.partition_nbytes(parent_data)
        out = self.func(parent_data)
        if not isinstance(out, list):
            out = list(out)
        ctx.charge_spec(self.cost, len(parent_data), in_bytes)
        return out


class MapPartitionsWithSplitRDD(RDD[U]):
    """Narrow transformation whose function also receives the split index."""

    def __init__(
        self,
        parent: RDD[T],
        func: t.Callable[[int, list[T]], list[U]],
        cost: CostSpec,
        name: str = "",
    ) -> None:
        super().__init__(
            parent.sc,
            deps=[OneToOneDependency(parent)],
            num_partitions=parent.num_partitions,
            name=name,
        )
        self.parent = parent
        self.func = func
        self.cost = cost

    def compute(self, split: int, ctx: TaskContext) -> list[U]:
        parent_data = self.parent.iterator(split, ctx)
        in_bytes = self.parent.partition_nbytes(parent_data)
        out = self.func(split, parent_data)
        if not isinstance(out, list):
            out = list(out)
        ctx.charge_spec(self.cost, len(parent_data), in_bytes)
        return out


class UnionRDD(RDD[T]):
    """Concatenation of several RDDs' partition lists (narrow)."""

    def __init__(self, sc: "SparkContext", rdds: t.Sequence[RDD[T]]) -> None:
        if not rdds:
            raise ValueError("union of zero RDDs")
        total = sum(r.num_partitions for r in rdds)
        deps: list[Dependency] = []
        out_start = 0
        for rdd in rdds:
            deps.append(RangeDependency(rdd, 0, out_start, rdd.num_partitions))
            out_start += rdd.num_partitions
        super().__init__(sc, deps=deps, num_partitions=total, name="union")
        self.rdds = list(rdds)

    def compute(self, split: int, ctx: TaskContext) -> list[T]:
        offset = 0
        for rdd in self.rdds:
            if split < offset + rdd.num_partitions:
                return rdd.iterator(split - offset, ctx)
            offset += rdd.num_partitions
        raise IndexError(f"partition {split} out of range")


class CoalescedRDD(RDD[T]):
    """Merge groups of parent partitions without shuffling."""

    def __init__(self, parent: RDD[T], num_partitions: int) -> None:
        super().__init__(
            parent.sc,
            deps=[_CoalesceDependency(parent, parent.num_partitions, num_partitions)],
            num_partitions=num_partitions,
            name="coalesce",
        )
        self.parent = parent

    def _group(self, split: int) -> list[int]:
        n_parent, n_out = self.parent.num_partitions, self.num_partitions
        return [i for i in range(n_parent) if i * n_out // n_parent == split]

    def compute(self, split: int, ctx: TaskContext) -> list[T]:
        out: list[T] = []
        for parent_split in self._group(split):
            out.extend(self.parent.iterator(parent_split, ctx))
        return out


class _CoalesceDependency(OneToOneDependency):
    """Narrow dependency mapping one output split to a parent range."""

    def __init__(self, rdd: RDD, n_parent: int, n_out: int) -> None:
        super().__init__(rdd)
        self._n_parent = n_parent
        self._n_out = n_out

    def parents_of(self, partition: int) -> list[int]:
        return [
            i
            for i in range(self._n_parent)
            if i * self._n_out // self._n_parent == partition
        ]


class ShuffledRDD(RDD[tuple[K, V]]):
    """Reduce side of a shuffle: fetches and concatenates map outputs.

    Aggregation/sorting happens in downstream ``MapPartitionsRDD``s; this
    RDD charges the fetch traffic (streamed segment reads plus the remote
    fetch coordination the paper blames for multi-executor NVM
    degradation).
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        map_side_combine: t.Callable[[list], list] | None = None,
        shuffle_write_cost: CostSpec = cost_lib.SHUFFLE_WRITE_COST,
        reduce_cost: CostSpec = cost_lib.SHUFFLE_READ_COST,
    ) -> None:
        dep = ShuffleDependency(parent, partitioner, map_side_combine)
        super().__init__(
            parent.sc,
            deps=[dep],
            num_partitions=partitioner.num_partitions,
            partitioner=partitioner,
            name=f"shuffle{dep.shuffle_id}",
        )
        self.shuffle_dep = dep
        self.shuffle_write_cost = shuffle_write_cost
        self.reduce_cost = reduce_cost

    def compute(self, split: int, ctx: TaskContext) -> list[tuple[K, V]]:
        manager = self.sc.shuffle_manager
        segments = manager.fetch(self.shuffle_dep.shuffle_id, split)
        out: list[tuple[K, V]] = []
        executor_id = ctx.executor.executor_id if ctx.executor else -1
        # The paper's discussion-section extension: on a unified memory
        # pool, reducers map mapper segments directly — no cross-executor
        # transfer protocol and no serialization round trip.
        unified = self.sc.conf.unified_shuffle
        for segment in segments:
            out.extend(segment.records)
            ctx.charge_stream_read(segment.nbytes, records=len(segment.records))
            ctx.metrics.shuffle_bytes_read += segment.nbytes
            ctx.metrics.shuffle_records_read += len(segment.records)
            if unified or segment.mapper_executor == executor_id:
                ctx.metrics.local_fetches += 1
            else:
                ctx.metrics.remote_fetches += 1
                # Cross-executor fetch: extra control-plane round trips
                # and scatter traffic on the bound tier.
                ctx.charge(
                    ops=2_000.0,
                    random_reads=64.0 + 0.05 * len(segment.records),
                    random_writes=32.0,
                )
        reduce_cost = (
            self.reduce_cost.scaled(0.4) if unified else self.reduce_cost
        )
        ctx.charge_spec(reduce_cost, len(out))
        return out


def _slice_evenly(data: t.Sequence[T], n: int) -> list[list[T]]:
    """Split ``data`` into ``n`` contiguous, near-equal slices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    size, remainder = divmod(len(data), n)
    slices: list[list[T]] = []
    start = 0
    for i in range(n):
        length = size + (1 if i < remainder else 0)
        slices.append(list(data[start : start + length]))
        start += length
    return slices
