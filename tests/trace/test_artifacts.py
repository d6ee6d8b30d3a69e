"""The 21 Fig. 2 trace artifacts: pinned checksums, their size, the
load cache's charge for them, and artifacts written while traces still
stored the workload's output."""

from __future__ import annotations

import gc
import gzip
import tracemalloc
from collections import OrderedDict

import pytest

import repro.trace.store as store_module
from repro.analysis.resultstore import result_to_dict
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.trace import TraceStore, capture_experiment, fast_replay_experiment
from repro.trace.records import WorkloadTrace
from repro.workloads.base import SIZE_ORDER
from repro.workloads.registry import WORKLOAD_NAMES

#: Each Fig. 2 behaviour class's trace checksum, as captured at tier 0
#: when traces still stored the workload's output (which the checksum
#: never covered).  A trace format change updates these on purpose.
PINNED_CHECKSUMS = {
    ("sort", "tiny"): "b340d69bf5c1980a105b5afac964a3db7e665957a1c251c58b8c95d523fe57c7",
    ("sort", "small"): "dff72a2a36c056a058f52685813abdcdd14d301fe8f5f723e4a3c25184fc0a49",
    ("sort", "large"): "eaf4f77f3189e7a7b0d6bc53353712245b6c1347ec4a7d49950a89e5af0f90cc",
    ("repartition", "tiny"): "9aca3ae67aaa1b6efaf262eb172eaea830c5fcf32471d36132e846af34386f7c",
    ("repartition", "small"): "4a972f2c1c7d99809cd9badef05e200bcba3a320e282bb744e2e8b95fd940d1c",
    ("repartition", "large"): "0a8ffc02ace6931f80a818cc99408f5e8afac4a9783a10a39306fbe7683320e4",
    ("als", "tiny"): "46756b23b6b0da79ff893c14085ae15b3f176cc9b1e76349548984f1223046ce",
    ("als", "small"): "a14477052d1a11437bb6701584fdd11d6083780481b05cbe2fc14ec36518c333",
    ("als", "large"): "9cc41479bf240b3ed01bcb1911def95a53438e4df6b2d92a6b0ea722d013fbb5",
    ("bayes", "tiny"): "176897269757ec77191d4e212549b8097a9cb2219b3e5484a5f8004171eba1fc",
    ("bayes", "small"): "63379d35aea99404b526cb462bfe896a498e158fd1cd59bfe87a9ba37b9afed3",
    ("bayes", "large"): "19bbaadf3c223c99d5b04f924a531ae94fc159959f5e775145e0796c62234c28",
    ("rf", "tiny"): "8b2b0442e8fe02143e8aabf7337fb84424fff19bba6b36d212395f5483451e38",
    ("rf", "small"): "a6404f1091ef464972dad5cc0201d853e0979bbcf0256d191acfccb0005d61c8",
    ("rf", "large"): "22003f686a72861f96060aee32ba135ad0eae3be57466c811bdc5de4ac5004a6",
    ("lda", "tiny"): "88ddf0e0abd857f25a0c4116dc8d1bf3e328ed4fdcbe40acd4450555edf8007e",
    ("lda", "small"): "6251878895a43c56e57ca23bcedcfaf0dae379712c58a40044a4bd17dae9dcee",
    ("lda", "large"): "64fdf5ce4e174bb401a97832b6bd1c35f28f7e38567259ac5b92a059f1869441",
    ("pagerank", "tiny"): "4189894e7cb1193e048a763d3c0a04fde004612f7a5e36015f9f3ea0b9cc1eda",
    ("pagerank", "small"): "0b1f964ce58cd482a3fd208438eb1d7c27e8b85e8c06ef5d7391ad8c72eed855",
    ("pagerank", "large"): "e165f4f2a29d72daaea7fc950fcc077fd15e84291bab76cf0e06463a7285244b",
}


@pytest.fixture(scope="module")
def fig2(tmp_path_factory):
    """One tier-0 capture per Fig. 2 class, saved into one trace store."""
    store = TraceStore(tmp_path_factory.mktemp("fig2-traces"))
    traces = {}
    for workload in WORKLOAD_NAMES:
        for size in SIZE_ORDER:
            config = ExperimentConfig(workload=workload, size=size, tier=0)
            _, trace = capture_experiment(config)
            assert trace is not None, config.describe()
            store.save(config, trace)
            traces[config] = trace
    return store, traces


def test_fig2_trace_checksums_equal_their_pins(fig2):
    _, traces = fig2
    checksums = {(c.workload, c.size): trace.checksum for c, trace in traces.items()}
    assert checksums == PINNED_CHECKSUMS


def test_fig2_artifacts_hold_only_what_replay_reads(fig2):
    """No artifact stores the workload's output: the 21 together take
    under 0.5 MB (6.19 MB when traces stored it)."""
    store, traces = fig2
    assert all("output" not in trace.__getstate__() for trace in traces.values())
    total = sum(store.path_for(config).stat().st_size for config in traces)
    assert total <= 500_000, total


def test_load_cache_charge_is_what_the_decoded_traces_hold(fig2, monkeypatch):
    """The load cache charges each entry its decoded trace plus the plan
    and delta tables its replays compiled onto it.  With every class
    decoded and replayed at three tiers, the charges add up to within
    25 % of what ``tracemalloc`` sees those loads and replays keep."""
    store, traces = fig2
    for config, trace in traces.items():
        # Warm what a first replay in this process sets up once.
        fast_replay_experiment(config.with_options(tier=1), trace)
    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for config in traces:
            loaded = store.load(config)
            for tier in (1, 2, 3):
                fast_replay_experiment(config.with_options(tier=tier), loaded)
        del loaded
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = list(store_module._LOAD_CACHE.values())
    assert len(entries) == len(traces)  # nothing was evicted
    charged = sum(map(store_module._charge, entries))
    assert abs(charged / (held - before) - 1) <= 0.25, (charged, held - before)


def test_an_artifact_that_stored_the_output_loads_verifies_and_replays(
    tmp_path, monkeypatch
):
    """Traces used to pickle the workload's output beside the residues,
    outside the checksum, under the same key.  Such an artifact still
    loads, verifies and replays equal to direct simulation, and its
    output is dropped on decode."""
    config = ExperimentConfig(workload="sort", size="tiny", tier=0)
    _, trace = capture_experiment(config)
    output = [f"stored-output-record-{i:04d}" for i in range(400)]
    store = TraceStore(tmp_path)
    fields_only = WorkloadTrace.__getstate__
    with monkeypatch.context() as patch:
        # How the artifact was written: every field plus the output.
        patch.setattr(
            WorkloadTrace,
            "__getstate__",
            lambda self: {**fields_only(self), "output": output},
        )
        path = store.save(config, trace)
    assert b"stored-output-record-0399" in gzip.decompress(path.read_bytes())

    monkeypatch.setattr(store_module, "_LOAD_CACHE", OrderedDict())
    target = config.with_options(tier=2)
    loaded = store.load(target)
    assert loaded is not None and loaded.intact
    assert loaded.checksum == trace.checksum
    assert "output" not in vars(loaded)
    columns = [
        column
        for job in loaded.jobs
        for task_set in job.task_sets
        for column in (
            *task_set.floats.values(),
            *task_set.ints.values(),
            *(array for pair in task_set.io.values() for array in pair),
        )
    ]
    assert all(column.flags.owndata for column in columns)  # no pickle views
    assert result_to_dict(fast_replay_experiment(target, loaded)) == result_to_dict(
        run_experiment(target)
    )
