"""Checksummed binary array files and manifest I/O primitives.

Every numeric structure in a snapshot (triple matrices, clustered columns,
zone-map tables) is one *array file*: a fixed header followed by raw
little-endian int64 data.

Header layout (32 bytes, little-endian)::

    magic   4s   b"RCOL"
    version u32  format version (1)
    rows    u64  first dimension
    cols    u64  second dimension (1 for one-dimensional arrays)
    crc32   u32  CRC-32 of the data bytes
    flags   u32  reserved (0)

The CRC is verified on every read — including lazy reads at first scan —
so a corrupt or truncated column file surfaces as a
:class:`~repro.errors.PersistenceError` instead of silently wrong query
answers.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..errors import PersistenceError

ARRAY_MAGIC = b"RCOL"
ARRAY_VERSION = 1
_HEADER = struct.Struct("<4sIQQII")


def write_array(path: Path, array: np.ndarray) -> int:
    """Write an int64 array (1-D or 2-D) to ``path``; returns the data CRC."""
    data = np.ascontiguousarray(np.asarray(array, dtype=np.int64))
    if data.ndim == 1:
        rows, cols = data.shape[0], 1
    elif data.ndim == 2:
        rows, cols = data.shape
    else:
        raise PersistenceError(f"cannot persist a {data.ndim}-dimensional array")
    # serialize explicitly little-endian: the format (and read_array) is
    # defined as "<i8" regardless of the host's native byte order
    payload = data.astype("<i8", copy=False).tobytes(order="C")
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    header = _HEADER.pack(ARRAY_MAGIC, ARRAY_VERSION, rows, cols, crc, 0)
    with open(path, "wb") as sink:
        sink.write(header)
        sink.write(payload)
        sink.flush()
        os.fsync(sink.fileno())
    return crc


def read_array(path: Path, expect_crc: Optional[int] = None) -> np.ndarray:
    """Read an array file, verifying magic, version and checksum.

    ``expect_crc`` optionally cross-checks the manifest's recorded CRC
    against the file's embedded one (defense against a manifest/file
    mismatch after a partially overwritten snapshot).
    """
    try:
        with open(path, "rb") as source:
            raw_header = source.read(_HEADER.size)
            if len(raw_header) < _HEADER.size:
                raise PersistenceError(f"truncated array file {path}")
            magic, version, rows, cols, crc, _flags = _HEADER.unpack(raw_header)
            if magic != ARRAY_MAGIC:
                raise PersistenceError(f"{path} is not a repro array file (bad magic)")
            if version != ARRAY_VERSION:
                raise PersistenceError(
                    f"{path} uses array format v{version}; this build reads v{ARRAY_VERSION}")
            payload = source.read()
    except OSError as exc:
        raise PersistenceError(f"cannot read array file {path}: {exc}") from exc
    expected_bytes = rows * cols * 8
    if len(payload) != expected_bytes:
        raise PersistenceError(
            f"{path} holds {len(payload)} data bytes, header promises {expected_bytes}")
    actual_crc = zlib.crc32(payload) & 0xFFFFFFFF
    if actual_crc != crc:
        raise PersistenceError(f"checksum mismatch in {path}: file is corrupt")
    if expect_crc is not None and actual_crc != (expect_crc & 0xFFFFFFFF):
        raise PersistenceError(
            f"{path} does not match its manifest entry (snapshot partially overwritten?)")
    data = np.frombuffer(payload, dtype="<i8").astype(np.int64, copy=True)
    if cols == 1:
        return data
    return data.reshape(rows, cols)


def array_shape(path: Path) -> Tuple[int, int]:
    """Read only the header of an array file: ``(rows, cols)``."""
    try:
        with open(path, "rb") as source:
            raw_header = source.read(_HEADER.size)
    except OSError as exc:
        raise PersistenceError(f"cannot read array file {path}: {exc}") from exc
    if len(raw_header) < _HEADER.size:
        raise PersistenceError(f"truncated array file {path}")
    magic, _version, rows, cols, _crc, _flags = _HEADER.unpack(raw_header)
    if magic != ARRAY_MAGIC:
        raise PersistenceError(f"{path} is not a repro array file (bad magic)")
    return int(rows), int(cols)


# -- text + manifest files ----------------------------------------------------


def write_text(path: Path, text: str) -> int:
    """Write a UTF-8 text file (fsynced); returns the CRC-32 of its bytes."""
    payload = text.encode("utf-8")
    with open(path, "wb") as sink:
        sink.write(payload)
        sink.flush()
        os.fsync(sink.fileno())
    return zlib.crc32(payload) & 0xFFFFFFFF


def copy_append_text(source: Path, path: Path, text: str, source_crc: int) -> Optional[int]:
    """Write ``path`` as the lines of ``source`` followed by ``text`` (UTF-8,
    fsynced) and return the CRC-32 of the whole: ``source_crc`` extended over
    the appended bytes.  Returns ``None`` and writes nothing when ``source``
    is unreadable, does not end a line, or no longer has ``source_crc`` — the
    caller then writes the whole file."""
    try:
        head = Path(source).read_bytes()
    except OSError:
        return None
    source_crc &= 0xFFFFFFFF
    if (head and not head.endswith(b"\n")) or zlib.crc32(head) & 0xFFFFFFFF != source_crc:
        return None
    tail = text.encode("utf-8")
    with open(path, "wb") as sink:
        sink.write(head)
        sink.write(tail)
        sink.flush()
        os.fsync(sink.fileno())
    return zlib.crc32(tail, source_crc) & 0xFFFFFFFF


def fsync_dir(path: Path) -> None:
    """Flush a directory's entries to stable storage (best-effort on
    platforms whose filesystems do not support directory fsync)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def read_text(path: Path, expect_crc: Optional[int] = None) -> str:
    """Read a UTF-8 text file, optionally verifying its manifest CRC."""
    try:
        payload = Path(path).read_bytes()
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    if expect_crc is not None:
        actual = zlib.crc32(payload) & 0xFFFFFFFF
        if actual != (expect_crc & 0xFFFFFFFF):
            raise PersistenceError(f"checksum mismatch in {path}: file is corrupt")
    return payload.decode("utf-8")


def write_json_atomic(path: Path, payload: dict) -> None:
    """Write JSON via a temporary file + rename so readers never see a
    half-written manifest; the parent directory is fsynced so the rename
    itself survives power loss."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    tmp = Path(str(path) + ".tmp")
    with open(tmp, "w", encoding="utf-8") as sink:
        sink.write(text)
        sink.flush()
        os.fsync(sink.fileno())
    os.replace(tmp, path)
    fsync_dir(Path(path).parent)


def read_json(path: Path) -> dict:
    """Read a JSON file, mapping I/O and syntax errors to PersistenceError."""
    try:
        with open(path, "r", encoding="utf-8") as source:
            return json.load(source)
    except OSError as exc:
        raise PersistenceError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"{path} is not valid JSON: {exc}") from exc
