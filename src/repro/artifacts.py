"""Sealed artifacts: canonical keys, one atomic writer, one verified reader.

A dataset (:mod:`repro.workloads.datacache`) and a trace
(:mod:`repro.trace.store`) are each stored as one container of named
numpy columns: ``b"RDSC"``, the header length (8 bytes, little-endian),
the header, zero padding, then the payload.  The header is canonical
JSON: the caller's fields, a ``columns`` table (name, dtype, shape and
offset of each column, in name order) and ``payload_sha256``.  The
payload and each column in it start on a 64-byte boundary.

:func:`write` renames a finished temporary file over the target, so a
reader sees the old artifact or the new one, never a torn one; writers
of one key race harmlessly, as they write equal bytes.
:func:`read` returns the header and zero-copy column views, or a
:class:`Miss`: ``missing``, ``corrupt`` or ``checksum``.  Nothing read
is executed.  The seal covers the payload, not the header, so callers
check every header field they rely on.  :func:`read` itself refuses a
column table other than :func:`write` lays out (name order, each column
on the boundary after the one before, filling the payload), so no
column is read from another's bytes; callers check each column's dtype
and shape.  :func:`digest` tells, without verifying again, that an
artifact is unchanged since it was read.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import tempfile
import typing as t
from pathlib import Path

import numpy as np

_MAGIC = b"RDSC"
_PREFIX = len(_MAGIC) + 8  # the magic and the header length
_ALIGN = 64


def _canonical_json(obj: t.Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_key(obj: t.Any) -> str:
    """The SHA-256 hex digest of ``obj``'s canonical JSON."""
    return hashlib.sha256(_canonical_json(obj)).hexdigest()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class Sealed(t.NamedTuple):
    """A verified artifact: its header and read-only views of its mapped
    columns (the mapping lives as long as a view does)."""

    header: dict[str, t.Any]
    columns: dict[str, np.ndarray]


class Miss(t.NamedTuple):
    reason: str  # "missing", "corrupt" or "checksum"


def write(path: Path, header: dict[str, t.Any], columns: dict[str, np.ndarray]) -> Path:
    """Atomically write ``columns`` sealed under ``header`` to ``path``;
    a failed write leaves no temporary file behind."""
    table = []
    payload = bytearray()
    for name, arr in sorted(columns.items()):
        arr = np.ascontiguousarray(arr)
        payload += bytes(_aligned(len(payload)) - len(payload))
        column = {"name": name, "dtype": arr.dtype.str, "shape": list(arr.shape)}
        table.append({**column, "offset": len(payload)})
        payload += arr.tobytes()
    digest = hashlib.sha256(payload).hexdigest()
    sealed = _canonical_json({**header, "columns": table, "payload_sha256": digest})
    pad = _aligned(_PREFIX + len(sealed)) - _PREFIX - len(sealed)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix="".join(path.suffixes)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_MAGIC + len(sealed).to_bytes(8, "little") + sealed + bytes(pad))
            handle.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def _map(path: Path) -> mmap.mmap | Miss:
    try:
        with open(path, "rb") as handle:
            return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except FileNotFoundError:
        return Miss("missing")
    except (OSError, ValueError):  # unreadable, or empty: nothing to map
        return Miss("corrupt")


def digest(path: Path) -> str | Miss:
    """The SHA-256 of the bytes at ``path``, not verified: taken before a
    :func:`read`, it tells cheaply later that the artifact is unchanged."""
    data = _map(path)
    return data if isinstance(data, Miss) else hashlib.sha256(data).hexdigest()


def read(path: Path) -> Sealed | Miss:
    """The verified artifact at ``path``, or why there is none."""
    data = _map(path)
    if isinstance(data, Miss):
        return data
    header_len = int.from_bytes(data[len(_MAGIC) : _PREFIX], "little")
    payload = memoryview(data)[_aligned(_PREFIX + header_len) :]
    columns = {}
    try:
        if data[: len(_MAGIC)] != _MAGIC:
            raise ValueError("bad magic")
        header = json.loads(data[_PREFIX : _PREFIX + header_len])
        table = header["columns"]
        names = [entry["name"] for entry in table]
        if names != sorted(set(names)):
            raise ValueError("columns out of name order")
        end = 0
        for entry in table:
            shape = tuple(entry["shape"])
            if min(shape, default=0) < 0:
                raise ValueError(f"shape {shape}")
            if entry["offset"] != _aligned(end):
                raise ValueError(f"column {entry['name']!r} out of place")
            column = np.frombuffer(
                payload, np.dtype(entry["dtype"]), math.prod(shape), entry["offset"]
            ).reshape(shape)
            columns[entry["name"]] = column
            end = entry["offset"] + column.nbytes
        if end != len(payload):
            raise ValueError("columns do not fill the payload")
        expected = header["payload_sha256"]
    except (LookupError, TypeError, ValueError):
        # A bad magic, a torn or unparsable header, or a column table
        # other than :func:`write` lays out for the payload (a file cut
        # short, a column resized or pointed at another's bytes).
        return Miss("corrupt")
    if hashlib.sha256(payload).hexdigest() != expected:
        return Miss("checksum")
    return Sealed(header, columns)
