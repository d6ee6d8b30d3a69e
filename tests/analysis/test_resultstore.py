"""``result_to_dict``: the same bytes as the ``dataclasses.asdict`` encoding."""

import dataclasses
import json

import pytest

from repro.analysis.resultstore import result_from_dict, result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.workloads.registry import WORKLOAD_NAMES


def asdict_encoding(result):
    """The reference encoding: telemetry records through ``asdict``."""
    encoded = result_to_dict(result)
    sample = result.telemetry
    encoded["telemetry"] = {
        "elapsed": sample.elapsed,
        "dimm_performance": [
            dataclasses.asdict(p) for p in sample.dimm_performance
        ],
        "energy_reports": {
            name: dataclasses.asdict(report)
            for name, report in sample.energy.items()
        },
    }
    return encoded


@pytest.fixture(scope="module")
def results():
    """One result from each of the seven paper workloads."""
    assert len(WORKLOAD_NAMES) == 7
    return [
        run_experiment(ExperimentConfig(workload=name, size="tiny", tier=2))
        for name in WORKLOAD_NAMES
    ]


def test_encoding_equals_asdict_encoding_byte_for_byte(results):
    for result in results:
        assert json.dumps(result_to_dict(result)) == json.dumps(
            asdict_encoding(result)
        ), result.config.workload


def test_encoding_round_trips(results):
    for result in results:
        encoded = result_to_dict(result)
        assert result_from_dict(encoded) == result
        assert result_to_dict(result_from_dict(encoded)) == encoded
