"""Child-process helpers shared by ``bench.py`` and ``runner.py``."""

from __future__ import annotations

import os
import resource
import selectors
import subprocess
import time
import typing as t


def read_line(stream: t.IO[bytes], timeout: float) -> str:
    """One line from a child's stdout pipe, or ``TimeoutError``.

    Reads byte by byte from the descriptor, so nothing past the line is
    buffered away from later readers.
    """
    deadline = time.monotonic() + timeout
    buf = b""
    with selectors.DefaultSelector() as selector:
        selector.register(stream, selectors.EVENT_READ)
        while not buf.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(remaining):
                raise TimeoutError("no line from child process")
            chunk = os.read(stream.fileno(), 1)
            if not chunk:
                raise RuntimeError("child process closed its output")
            buf += chunk
    return buf.decode().strip()


def reap(proc: subprocess.Popen, timeout: float) -> resource.struct_rusage:
    """Wait for ``proc`` to exit and return its resource usage."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise TimeoutError(f"process {proc.pid} did not exit")
        time.sleep(0.005)


def proc_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of a live process (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
