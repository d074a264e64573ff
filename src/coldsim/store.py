"""Artifact persistence: the one atomic file writer, embedding tables and
the one JSON artifact reader.

Every file coldsim saves goes through :func:`write_atomic`.  Table layout:
a 16-byte header (magic ``CEMB``, uint32 version, uint32 rows, uint32 dim,
all little-endian) followed by ``rows * dim`` float32 values in row-major
order.  A TSV exporter is provided for eyeballing tables.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CEMB"
VERSION = 1

_HEADER = struct.Struct("<4sIII")


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text as UTF-8) in one step.

    The bytes go to a hidden temp file in ``path``'s directory, which is
    then ``os.replace``d over ``path``.  On any exception the temp file is
    deleted and ``path`` keeps its old bytes.  A new file gets the mode
    ``open(path, "w")`` would give it.  There is no fsync: this covers a
    writer that fails or is killed, not a power cut.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")  # outside the try: never delete a file not ours
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_table(path: str | Path, values: np.ndarray) -> None:
    """Write a 2-D array to ``path`` in the binary table format.

    A table holding a value that is not finite as float32 (NaN, an
    infinity, or a magnitude beyond float32's range) raises ValueError
    naming ``path`` and the first such row, and nothing is written.
    """
    with np.errstate(over="ignore"):   # an overflow is reported below
        arr = np.ascontiguousarray(values, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D table, got shape {arr.shape}")
    bad = ~np.isfinite(arr).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: row {int(np.argmax(bad))} is not finite "
                         f"as float32; the table was not saved")
    write_atomic(path, _HEADER.pack(MAGIC, VERSION, *arr.shape) + arr.tobytes())


def load_table(path: str | Path, shape: tuple[int | None, int | None]) -> np.ndarray:
    """Read a binary table of the (rows, dim) ``shape`` the reader needs,
    ``None`` accepting any value; returns a float32 array.  A header that
    does not fit raises ValueError naming ``path`` before the payload is
    read: this is the one place a table's shape is checked."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, rows, dim = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        if any(want not in (None, got) for want, got in zip(shape, (rows, dim))):
            need = ", ".join("any" if n is None else str(n) for n in shape)
            raise ValueError(f"{path}: table shape ({rows}, {dim}) where "
                             f"({need}) is needed; it is stale or from "
                             f"another run")
        payload = fh.read(rows * dim * 4)
        if fh.read(1):
            raise ValueError(f"{path}: bytes after the payload of {rows} rows")
    if len(payload) != rows * dim * 4:
        raise ValueError(f"{path}: truncated payload")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, dim).copy()


def load_json(path: str | Path, parse):
    """``parse(doc)`` of the JSON document in ``path``: this is the one
    place a JSON artifact is read.  A document that is not JSON, or that
    ``parse`` cannot read (a missing key, a list where a mapping belongs),
    raises ValueError naming ``path``; ValueErrors ``parse`` raises pass
    through as they are."""
    with open(path, encoding="utf-8") as fh:
        try:
            return parse(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError, IndexError,
                AttributeError) as exc:
            raise ValueError(f"{path}: malformed ({type(exc).__name__}: "
                             f"{exc})") from exc


def export_tsv(path: str | Path, values: np.ndarray) -> None:
    """Debug export: one row per line, ``id<TAB>v0 v1 ...``."""
    arr = np.asarray(values, dtype=np.float32)
    write_atomic(path, "".join(
        f"{idx}\t" + " ".join(f"{float(v):.8g}" for v in row) + "\n"
        for idx, row in enumerate(arr)))
