"""Structured JSON log: bind correlation, sinks, tail, global config."""

import io
import json

import pytest

from repro.obs import StructuredLog, read_log
from repro.obs.log import (
    LOG_PATH_ENV,
    configure,
    get_log,
    reset,
    stderr_log,
)


@pytest.fixture(autouse=True)
def _isolated_global_log(monkeypatch):
    monkeypatch.delenv(LOG_PATH_ENV, raising=False)
    reset()
    yield
    reset()


def test_records_carry_ts_level_event_and_fields():
    log = StructuredLog()
    record = log.info("job.start", job="j-1", tier=2)
    assert record["event"] == "job.start"
    assert record["level"] == "info"
    assert record["job"] == "j-1" and record["tier"] == 2
    assert isinstance(record["ts"], float)


def test_bound_children_share_tail_and_stack_fields():
    root = StructuredLog()
    svc = root.bind(component="service")
    job = svc.bind(job="j-9")
    job.info("job.done")
    svc.warning("service.drain")
    # One shared tail, in emission order, each with its bound fields.
    events = root.tail()
    assert [e["event"] for e in events] == ["job.done", "service.drain"]
    assert events[0]["component"] == "service" and events[0]["job"] == "j-9"
    assert "job" not in events[1]


def test_call_fields_override_bound_fields():
    log = StructuredLog().bind(phase="a")
    record = log.info("x", phase="b")
    assert record["phase"] == "b"


def test_stream_sink_writes_sorted_json_lines():
    stream = io.StringIO()
    log = StructuredLog(stream=stream)
    log.error("boom", job="j-1")
    line = stream.getvalue().strip()
    record = json.loads(line)
    assert record["event"] == "boom" and record["level"] == "error"
    assert list(record) == sorted(record)


def test_file_sink_appends_and_read_log_roundtrips(tmp_path):
    path = tmp_path / "events.jsonl"
    log = StructuredLog(path)
    log.info("first")
    log.close()
    again = StructuredLog(path)
    again.info("second", job="j-2")
    again.close()
    records = read_log(path)
    assert [r["event"] for r in records] == ["first", "second"]
    assert records[1]["job"] == "j-2"


def test_records_are_encoded_only_for_a_sink(tmp_path, monkeypatch):
    """A log with no file or stream never JSON-encodes; one with a file
    encodes each record once, and the file holds exactly the sorted,
    ``default=str`` encoding of the records its tail keeps."""
    from pathlib import PurePosixPath

    from repro.obs import log as log_module

    encodes = []
    dumps = json.dumps

    def counting_dumps(*args, **kwargs):
        encodes.append(args[0])
        return dumps(*args, **kwargs)

    monkeypatch.setattr(log_module.json, "dumps", counting_dumps)
    fields = {"job": "j-1", "path": PurePosixPath("/a/b"), "ids": (1, 2)}
    quiet = StructuredLog().bind(component="service")
    for event in ("queued", "started", "done"):
        quiet.info(f"job.{event}", **fields)
    assert encodes == []

    path = tmp_path / "events.jsonl"
    loud = StructuredLog(path).bind(component="service")
    for event in ("queued", "started", "done"):
        loud.info(f"job.{event}", **fields)
    loud.close()
    assert len(encodes) == 3
    tail = loud.tail()
    assert [{k: v for k, v in r.items() if k != "ts"} for r in tail] == [
        {k: v for k, v in r.items() if k != "ts"} for r in quiet.tail()
    ]
    assert path.read_bytes() == "".join(
        dumps(record, sort_keys=True, default=str) + "\n" for record in tail
    ).encode("utf-8")


def test_read_log_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(ValueError, match="bad log line"):
        read_log(path)
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="not an object"):
        read_log(path)


def test_tail_is_bounded_and_limitable():
    log = StructuredLog(tail=3)
    for i in range(5):
        log.info(f"e{i}")
    assert [e["event"] for e in log.tail()] == ["e2", "e3", "e4"]
    assert [e["event"] for e in log.tail(limit=1)] == ["e4"]


def test_unknown_level_is_rejected():
    with pytest.raises(ValueError, match="unknown log level"):
        StructuredLog().write("x", level="fatal")


def test_get_log_without_env_is_memory_only():
    log = get_log()
    log.info("quiet")
    assert log.path is None
    assert log.tail()[-1]["event"] == "quiet"


def test_get_log_picks_up_env_path(tmp_path, monkeypatch):
    path = tmp_path / "svc.jsonl"
    monkeypatch.setenv(LOG_PATH_ENV, str(path))
    reset()
    get_log().info("from-env")
    get_log().close()
    assert read_log(path)[0]["event"] == "from-env"


def test_configure_exports_env_for_workers(tmp_path, monkeypatch):
    path = tmp_path / "svc.jsonl"
    import os

    configure(path)
    assert os.environ[LOG_PATH_ENV] == str(path)
    get_log().info("parent")
    configure(None)
    assert LOG_PATH_ENV not in os.environ
    assert read_log(path)[0]["event"] == "parent"


def test_stderr_log_targets_stderr():
    import sys

    assert stderr_log()._stream is sys.stderr
