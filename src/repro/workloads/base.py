"""Workload abstractions: sizes, results, and the common lifecycle."""

from __future__ import annotations

import typing as t
from dataclasses import dataclass, field

from repro.spark.context import SparkContext

#: Canonical HiBench profile names, in increasing order.
SIZE_ORDER = ("tiny", "small", "large")


@dataclass(frozen=True)
class SizeProfile:
    """One dataset profile of a workload.

    ``params`` carries workload-specific magnitudes (record counts,
    users/products, docs/vocab/topics...); ``partitions`` the input RDD
    parallelism (growing with size, as HiBench's HDFS splits do).

    ``llc_pressure`` models cache behaviour at *paper scale*: datasets
    here are scaled ~1000x down, so per-record miss rates must carry the
    original working-set-vs-LLC relationship explicitly.  Larger profiles
    blow past the last-level cache and miss more per record — the reason
    the paper's NVM/DRAM gap widens disproportionally with input size
    (Takeaway 2).  Workload kernels multiply their random-access rates by
    this factor.
    """

    name: str
    params: dict[str, int] = field(default_factory=dict)
    partitions: int = 8
    llc_pressure: float = 1.0

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ValueError("partitions must be >= 1")
        if self.llc_pressure <= 0:
            raise ValueError("llc_pressure must be positive")

    def param(self, key: str) -> int:
        try:
            return self.params[key]
        except KeyError:
            raise KeyError(
                f"size profile {self.name!r} has no parameter {key!r}"
            ) from None


@dataclass
class WorkloadResult:
    """Outcome of one workload execution."""

    workload: str
    size: str
    output: t.Any
    verified: bool
    execution_time: float
    records_processed: int = 0


class Workload:
    """Base class: ``prepare`` stages input, ``execute`` runs the app.

    Subclasses define :attr:`sizes`, :meth:`prepare` and :meth:`execute`;
    ``run`` wires the lifecycle and measures the simulated execution time
    of the *measured phase only* (data staging is untimed, as HiBench's
    separate prepare step is).
    """

    #: Short HiBench-style identifier (``sort``, ``pagerank``...).
    name: str = ""
    #: Workload category (``micro``, ``ml``, ``websearch``).
    category: str = ""
    #: name → SizeProfile
    sizes: dict[str, SizeProfile] = {}

    def profile(self, size: str) -> SizeProfile:
        try:
            return self.sizes[size]
        except KeyError:
            raise KeyError(
                f"workload {self.name!r} has no size {size!r}; "
                f"available: {sorted(self.sizes)}"
            ) from None

    def input_path(self, size: str) -> str:
        return f"/hibench/{self.name}/{size}/input"

    # -- to implement -------------------------------------------------------------
    def prepare(self, sc: SparkContext, size: str) -> None:
        """Generate and stage the input dataset on HDFS (untimed)."""
        raise NotImplementedError

    def execute(self, sc: SparkContext, size: str) -> tuple[t.Any, int]:
        """Run the measured phase; returns (output, records processed)."""
        raise NotImplementedError

    def verify(self, output: t.Any, sc: SparkContext, size: str) -> bool:
        """Check functional correctness of ``output`` (default: non-None)."""
        return output is not None

    # -- lifecycle ------------------------------------------------------------------
    def run(self, sc: SparkContext, size: str) -> WorkloadResult:
        """Prepare (if needed), execute, verify, and time the workload."""
        self.profile(size)  # validate early
        if not sc.hdfs.exists(self.input_path(size)):
            self.prepare(sc, size)
        started = sc.env.now
        output, records = self.execute(sc, size)
        elapsed = sc.env.now - started
        return WorkloadResult(
            workload=self.name,
            size=size,
            output=output,
            verified=self.verify(output, sc, size),
            execution_time=elapsed,
            records_processed=records,
        )
