"""Shared fixtures for the test suite."""

from __future__ import annotations

import errno
import os

import pytest

from repro.cluster.topology import paper_testbed
from repro.sim import Environment
from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext


@pytest.fixture
def env() -> Environment:
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def machine(env):
    """The paper's testbed machine."""
    return paper_testbed(env)


@pytest.fixture
def sc() -> SparkContext:
    """A SparkContext on the default (local DRAM) tier."""
    return SparkContext(conf=SparkConf(memory_tier=0, default_parallelism=4))


@pytest.fixture
def sc_nvm() -> SparkContext:
    """A SparkContext bound to the socket-attached NVM tier."""
    return SparkContext(conf=SparkConf(memory_tier=2, default_parallelism=4))


class _DiskFull:
    """A module's ``os`` on a disk that is full for the module's next
    ``failures`` files opened through ``os.fdopen``: writing to one
    raises ENOSPC."""

    def __init__(self, failures: int) -> None:
        self.failures = failures

    def __getattr__(self, name: str):
        return getattr(os, name)

    def fdopen(self, fd, *args, **kwargs):
        handle = os.fdopen(fd, *args, **kwargs)
        if not self.failures:
            return handle
        self.failures -= 1
        return _FullFile(handle)


class _FullFile:
    def __init__(self, handle) -> None:
        self.handle = handle

    def __enter__(self) -> "_FullFile":
        return self

    def __exit__(self, *exc) -> None:
        self.handle.close()

    def write(self, data: bytes) -> int:
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.fixture
def disk_full(monkeypatch):
    """``disk_full(module, failures=1)``: the next ``failures`` files
    ``module`` writes through ``os.fdopen`` fail with ENOSPC, as on a
    full disk; later writes succeed."""

    def fill(module, failures: int = 1) -> None:
        monkeypatch.setattr(module, "os", _DiskFull(failures))

    return fill
