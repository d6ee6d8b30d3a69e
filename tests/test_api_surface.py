"""Snapshot tests pinning the public API surface.

The redesign promise is that ``repro.api`` exposes exactly the unified
surface (``RunOptions``/``Session`` + the three verbs) and that the
pre-``RunOptions`` keywords keep working as *deprecated shims* — one
warning per call, identical behaviour.  ``inspect.signature`` snapshots
turn accidental signature drift into a test failure with a diff, so any
intentional change has to edit the expected text here (and the docs).
"""

import inspect
import warnings

import pytest

from repro import api
from repro.options import OPTION_FIELDS, RunOptions


def sig(obj) -> str:
    return str(inspect.signature(obj))


# ---------------------------------------------------------------- __all__
def test_api_all_is_pinned():
    assert api.__all__ == [
        "RunOptions",
        "Session",
        "campaign",
        "config",
        "run",
        "sweep",
    ]


def test_top_level_reexports():
    import repro

    assert repro.RunOptions is api.RunOptions
    assert repro.Session is api.Session
    for name in api.__all__:
        assert name in repro.__all__, name


# ---------------------------------------------------------------- signatures
def test_verb_signatures_are_pinned():
    assert sig(api.run) == (
        "(experiment: 'ExperimentConfig | str', /, "
        "options: 'RunOptions | None' = None, **overrides: 't.Any') "
        "-> 'ExperimentResult'"
    )
    assert sig(api.sweep) == (
        "(base: 'ExperimentConfig | str', axis: 'str', "
        "values: 't.Iterable[t.Any]', *, "
        "options: 'RunOptions | None' = None, "
        "progress: 't.Callable[[CampaignProgress], None] | None' = None, "
        "**legacy: 't.Any') -> 'list[ExperimentResult]'"
    )
    assert sig(api.campaign) == (
        "(configs: 't.Iterable[ExperimentConfig]', *, "
        "options: 'RunOptions | None' = None, "
        "progress: 't.Callable[[CampaignProgress], None] | None' = None, "
        "runner: 'CampaignRunner | None' = None, "
        "**legacy: 't.Any') -> 'CampaignReport'"
    )
    assert sig(api.config) == (
        "(workload: 'str', **fields: 't.Any') -> 'ExperimentConfig'"
    )


def test_session_surface_is_pinned():
    methods = sorted(
        name for name in vars(api.Session)
        if not name.startswith("_")
    )
    assert methods == ["campaign", "config", "run", "service",
                       "sweep", "with_options"]
    assert sig(api.Session.__init__) == (
        "(self, options: 'RunOptions | None' = None, **fields: 't.Any') "
        "-> 'None'"
    )


def test_run_options_fields_are_pinned():
    assert OPTION_FIELDS == (
        "workers", "cache_dir", "observe", "reuse_traces",
        "dataset_cache", "trace_dir", "dataset_dir",
        "resume", "priority", "metrics_port",
    )
    options = RunOptions()
    assert options.workers is None
    assert options.cache_dir is None
    assert options.observe is None
    assert options.reuse_traces is True
    assert options.dataset_cache is True
    assert options.trace_dir is None
    assert options.dataset_dir is None
    assert options.resume is True
    assert options.priority == 0
    assert options.metrics_port is None


def test_run_options_is_frozen_and_validates():
    options = RunOptions()
    with pytest.raises(AttributeError):
        options.workers = 4  # type: ignore[misc]
    with pytest.raises(ValueError):
        RunOptions(workers=-1)
    with pytest.raises(TypeError):
        RunOptions(priority="high")  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        RunOptions(metrics_port=70000)


def test_run_options_trace_root_derivation(tmp_path):
    assert RunOptions().trace_root() is None
    assert RunOptions(reuse_traces=False, cache_dir=tmp_path).trace_root() is None
    assert RunOptions(cache_dir=tmp_path).trace_root() == tmp_path / "traces"
    assert RunOptions(
        cache_dir=tmp_path, trace_dir=tmp_path / "elsewhere"
    ).trace_root() == tmp_path / "elsewhere"


def test_run_options_dataset_root_derivation(tmp_path):
    assert RunOptions().dataset_root() is None
    assert RunOptions(dataset_cache=False, cache_dir=tmp_path).dataset_root() is None
    assert RunOptions(cache_dir=tmp_path).dataset_root() == tmp_path / "datasets"
    assert RunOptions(
        cache_dir=tmp_path, dataset_dir=tmp_path / "elsewhere"
    ).dataset_root() == tmp_path / "elsewhere"


# ---------------------------------------------------------------- shims
def test_sweep_legacy_kwargs_warn_exactly_once_and_forward(tmp_path):
    base = api.config("sort", size="tiny")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        legacy = api.sweep(
            base, axis="tier", values=(0, 2),
            cache_dir=str(tmp_path / "cache"), reuse_traces=False,
        )
    deprecations = [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]
    assert len(deprecations) == 1
    message = str(deprecations[0].message)
    assert "cache_dir=" in message and "reuse_traces=" in message
    assert "options=RunOptions" in message

    modern = api.sweep(
        base, axis="tier", values=(0, 2),
        options=RunOptions(cache_dir=str(tmp_path / "cache2"),
                           reuse_traces=False),
    )
    assert [r.execution_time for r in legacy] == [
        r.execution_time for r in modern
    ]


def test_run_legacy_observe_warns_and_forwards():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = api.run("sort", size="tiny", observe=True)
    assert len([w for w in caught
                if issubclass(w.category, DeprecationWarning)]) == 1
    assert result.execution_time == api.run("sort", size="tiny").execution_time


def test_mixing_options_and_legacy_kwargs_raises():
    with pytest.raises(TypeError, match="not both"):
        api.sweep(
            "sort", axis="tier", values=(0,),
            options=RunOptions(), workers=2,
        )


def test_unknown_kwargs_still_raise_type_error():
    with pytest.raises(TypeError, match="unexpected keyword"):
        api.campaign([], wrokers=2)  # typo must not become a silent no-op


def test_campaign_accepts_options_without_warning(tmp_path):
    configs = [api.config("sort", size="tiny", tier=t) for t in (0, 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        report = api.campaign(
            configs, options=RunOptions(cache_dir=str(tmp_path))
        )
    assert len(report.results) == 2


# ---------------------------------------------------------------- session
def test_session_binds_options_to_every_verb(tmp_path):
    session = api.Session(cache_dir=str(tmp_path), reuse_traces=False)
    assert session.options.cache_dir == str(tmp_path)

    first = session.run("sort", size="tiny", tier=1)
    again = session.run("sort", size="tiny", tier=1)  # cache hit
    assert again.execution_time == first.execution_time

    derived = session.with_options(workers=2)
    assert derived is not session
    assert derived.options.workers == 2
    assert derived.options.cache_dir == str(tmp_path)
    # the original is untouched (sessions are immutable facades)
    assert session.options.workers is None


def test_session_run_matches_module_run():
    session = api.Session()
    direct = api.run("sort", size="tiny", tier=2)
    via_session = session.run("sort", size="tiny", tier=2)
    assert via_session.execution_time == direct.execution_time
    assert via_session.records_processed == direct.records_processed
