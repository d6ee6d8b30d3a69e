"""JSON persistence for experiment configs and results.

Round-trip contract
-------------------
``config_to_dict`` / ``config_from_dict`` serialize the **full**
:class:`~repro.core.experiment.ExperimentConfig` — including
``cpu_socket``, ``label``, ``faults`` and ``speculation`` — so cache
keys derived from the dict distinguish every field that changes an
experiment's outcome.  ``result_to_dict`` / ``result_from_dict`` do the
same for :class:`~repro.core.experiment.ExperimentResult`, carrying
enough telemetry (per-DIMM counters, per-device energy reports) that a
result loaded from disk is value-identical to the freshly-measured one.
"""

from __future__ import annotations

import dataclasses
import json
import typing as t
from pathlib import Path

from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.faults.config import FaultConfig
from repro.memory.energy import EnergyReport
from repro.telemetry.collector import TelemetrySample
from repro.telemetry.ipmctl import DimmPerformance


def config_to_dict(config: ExperimentConfig) -> dict[str, t.Any]:
    """Serialize every field of an :class:`ExperimentConfig`."""
    return {
        "workload": config.workload,
        "size": config.size,
        "tier": config.tier,
        "num_executors": config.num_executors,
        "executor_cores": config.executor_cores,
        "mba_percent": config.mba_percent,
        "cpu_socket": config.cpu_socket,
        "label": config.label,
        "faults": (
            dataclasses.asdict(config.faults) if config.faults is not None else None
        ),
        "speculation": config.speculation,
    }


def config_from_dict(data: dict[str, t.Any]) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict`.

    Tolerates rows written by older builds that lacked ``cpu_socket``,
    ``label``, ``faults`` or ``speculation`` (they take the defaults).
    """
    defaults = ExperimentConfig(workload=data["workload"])
    faults_data = data.get("faults")
    return ExperimentConfig(
        workload=data["workload"],
        size=data.get("size", defaults.size),
        tier=data.get("tier", defaults.tier),
        num_executors=data.get("num_executors", defaults.num_executors),
        executor_cores=data.get("executor_cores", defaults.executor_cores),
        mba_percent=data.get("mba_percent", defaults.mba_percent),
        cpu_socket=data.get("cpu_socket", defaults.cpu_socket),
        label=data.get("label", defaults.label),
        faults=FaultConfig(**faults_data) if faults_data else None,
        speculation=data.get("speculation", False),
    )


#: Field names of the flat, frozen telemetry records, in declaration
#: order (the order ``dataclasses.asdict`` would emit).
_DIMM_FIELDS = tuple(f.name for f in dataclasses.fields(DimmPerformance))
_ENERGY_FIELDS = tuple(f.name for f in dataclasses.fields(EnergyReport))


def _flat_record(record: t.Any, names: tuple[str, ...]) -> dict[str, t.Any]:
    """``dataclasses.asdict`` for a record whose fields are all scalars,
    without its recursive deep copy."""
    return {name: getattr(record, name) for name in names}


def result_to_dict(result: ExperimentResult) -> dict[str, t.Any]:
    """Serialize one result.

    The top-level ``events`` / ``nvm_reads`` / ``nvm_writes`` / ``energy``
    scalars are kept for existing row consumers; the ``telemetry`` block
    carries the full sample so :func:`result_from_dict` can reconstruct
    the result exactly.
    """
    config = result.config
    sample = result.telemetry
    return {
        "config": config_to_dict(config),
        "execution_time": result.execution_time,
        "verified": result.verified,
        "records_processed": result.records_processed,
        "events": dict(result.events),
        "nvm_reads": result.nvm_reads,
        "nvm_writes": result.nvm_writes,
        "energy": {
            name: report.total_joules for name, report in sample.energy.items()
        },
        "detail": dict(result.detail),
        "mitigation": dict(result.mitigation),
        "telemetry": {
            "elapsed": sample.elapsed,
            "dimm_performance": [
                _flat_record(p, _DIMM_FIELDS) for p in sample.dimm_performance
            ],
            "energy_reports": {
                name: _flat_record(report, _ENERGY_FIELDS)
                for name, report in sample.energy.items()
            },
        },
    }


def result_from_dict(data: dict[str, t.Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict`."""
    telemetry = data["telemetry"]
    sample = TelemetrySample(
        elapsed=telemetry["elapsed"],
        events=dict(data.get("events", {})),
        dimm_performance=[
            DimmPerformance(**p) for p in telemetry["dimm_performance"]
        ],
        energy={
            name: EnergyReport(**report)
            for name, report in telemetry["energy_reports"].items()
        },
    )
    return ExperimentResult(
        config=config_from_dict(data["config"]),
        execution_time=data["execution_time"],
        verified=data["verified"],
        telemetry=sample,
        records_processed=data.get("records_processed", 0),
        detail=dict(data.get("detail", {})),
        mitigation=dict(data.get("mitigation", {})),
    )


class ResultStore:
    """Append-only JSON-lines store of experiment outcomes.

    Benchmarks write their raw measurements here so EXPERIMENTS.md
    comparisons are re-derivable without re-running sweeps; the campaign
    runner's :class:`~repro.runner.cache.ResultCache` uses one as its
    durable backing.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, result: ExperimentResult) -> None:
        self.append_row(result_to_dict(result))

    def append_row(self, row: dict[str, t.Any]) -> None:
        """Store an arbitrary pre-serialized record."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")

    def load(self) -> list[dict[str, t.Any]]:
        if not self.path.exists():
            return []
        rows: list[dict[str, t.Any]] = []
        with self.path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append(json.loads(line))
        return rows

    def load_results(self) -> list[ExperimentResult]:
        """Deserialize every stored row that carries full telemetry."""
        return [result_from_dict(row) for row in self.load() if "telemetry" in row]

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()
