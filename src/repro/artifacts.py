"""Sealed artifacts: canonical keys, one atomic writer, one verified reader.

A dataset (:mod:`repro.workloads.datacache`) and a trace
(:mod:`repro.trace.store`) are each stored as one container of named
numpy columns: ``b"RDS2"``, a 32-byte SHA-256 seal over every byte after
it, the header length (8 bytes, little-endian), the header, zero
padding, then the columns, each on a 64-byte boundary.  The header is
canonical JSON: the caller's fields, a ``columns`` table (name, dtype,
shape and offset of each column) and ``key``, the artifact's own name
(its file name up to the first dot).

:func:`write` renames a finished temporary file over the target, so a
reader sees the old artifact or the new one, never a torn one; writers
of one key race harmlessly, as they write equal bytes.
:func:`read` verifies the seal before it parses a byte, so a header it
parses, column table included, is one :func:`write` sealed, and it
refuses one sealed under another key.  It returns the header and
zero-copy column views, or a :class:`Miss`: ``missing``, ``corrupt``
(unreadable, too short, another container, the older ``b"RDSC"`` one
included, or another key's artifact) or ``checksum``.  Nothing read is
executed.  :func:`digest` tells, without verifying again, that an
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

_MAGIC = b"RDS2"
_SEALED = len(_MAGIC) + 32  # the seal covers every byte from here on
_PREFIX = _SEALED + 8  # the magic, the seal and the header length
_ALIGN = 64


def _canonical_json(obj: t.Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def canonical_key(obj: t.Any) -> str:
    """The SHA-256 hex digest of ``obj``'s canonical JSON."""
    return hashlib.sha256(_canonical_json(obj)).hexdigest()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _key(path: Path) -> str:
    """The key an artifact at ``path`` is stored under."""
    return path.name.split(".", 1)[0]


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
    text = _canonical_json({**header, "columns": table, "key": _key(path)})
    pad = _aligned(_PREFIX + len(text)) - _PREFIX - len(text)
    body = len(text).to_bytes(8, "little") + text + bytes(pad)
    seal = hashlib.sha256(body)
    seal.update(payload)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix="".join(path.suffixes)
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_MAGIC + seal.digest() + body)
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
    if len(data) < _PREFIX or data[: len(_MAGIC)] != _MAGIC:
        return Miss("corrupt")
    view = memoryview(data)
    if hashlib.sha256(view[_SEALED:]).digest() != data[len(_MAGIC) : _SEALED]:
        return Miss("checksum")
    header_len = int.from_bytes(data[_SEALED:_PREFIX], "little")
    payload = view[_aligned(_PREFIX + header_len) :]
    try:
        header = json.loads(data[_PREFIX : _PREFIX + header_len])
        if header["key"] != _key(path):
            return Miss("corrupt")
        columns = {
            entry["name"]: np.frombuffer(
                payload, np.dtype(entry["dtype"]), math.prod(entry["shape"]), entry["offset"]
            ).reshape(entry["shape"])
            for entry in header["columns"]
        }
    except (LookupError, TypeError, ValueError, OverflowError, RecursionError):
        # Only a header forged and sealed again gets here: one that is
        # not JSON or has no table, or a column no payload could hold.
        return Miss("corrupt")
    return Sealed(header, columns)
