"""Bit-exact binary tensor container.

Layout (all integers little-endian):

    offset  size        field
    0       4           magic  b"PNCL"
    4       4           version u32 (currently 1)
    8       4           dtype code u32: 1 = f32, 2 = u32
    12      4           rank u32
    16      8 * rank    dims, u64 each
    ...     4           meta length u32
    ...     meta_len    UTF-8 JSON sidecar (provenance, config echo)
    ...     payload     row-major array data
    end-4   4           CRC32 (zlib) over every preceding byte

Writes are atomic: data goes to a temp file in the target directory and
is renamed into place. ``write_files`` writes several files all or none.
"""

from __future__ import annotations

import errno
import json
import math
import os
import struct
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, PatchSmoothError

MAGIC = b"PNCL"
VERSION = 1

_DTYPE_CODES = {1: np.dtype("<f4"), 2: np.dtype("<u4")}


def _dtype_code(array: np.ndarray) -> int:
    kind = array.dtype.kind
    if kind == "f":
        return 1
    if kind in ("u", "i"):
        return 2
    raise FormatError(f"unsupported dtype {array.dtype} for tensor container")


def tensor_chunks(array: np.ndarray, meta: dict | None = None) -> tuple:
    """The bytes of one array plus its JSON sidecar in the container, as
    chunks for ``write_files``.

    Floats are stored as f32, so float64 input is narrowed (rounded to
    nearest); integers are stored as u32 and must fit it.
    """
    array = np.asarray(array)
    code = _dtype_code(array)
    if code == 2 and array.size and (array.min() < 0 or array.max() > 0xFFFFFFFF):
        raise FormatError(
            f"integer values [{array.min()}, {array.max()}] do not fit the u32 container"
        )
    # written through the buffer protocol: no bytes copy of the payload
    payload = np.ascontiguousarray(array.astype(_DTYPE_CODES[code], copy=False))

    meta_bytes = json.dumps(meta, sort_keys=True, allow_nan=False).encode("utf-8") if meta else b""
    header = bytearray()
    header += MAGIC
    header += struct.pack("<III", VERSION, code, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    header += struct.pack("<I", len(meta_bytes))
    header += meta_bytes
    crc = struct.pack("<I", zlib.crc32(payload, zlib.crc32(header)) & 0xFFFFFFFF)
    return header, payload, crc


def write_tensor(array: np.ndarray, path: str | Path, meta: dict | None = None) -> None:
    """Serialize one array plus its JSON sidecar, atomically (``tensor_chunks``)."""
    write_files({path: tensor_chunks(array, meta)})


def write_files(files: dict) -> None:
    """Write each ``{path: chunks}`` entry, all or none: every file goes to
    a temp file in its target directory, and the temp files are renamed
    into place only once all are written. A path that cannot be written
    is a ConfigError naming it, and leaves no file and no temp file."""
    staged = []  # (temp path, path)
    try:
        for path, chunks in files.items():
            path = Path(path)
            if path.is_dir():  # refused now: its rename would fail after the others
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
        for tmp, path in staged:
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        for tmp, _ in staged:  # a renamed temp file exists no more
            if os.path.exists(tmp):
                os.unlink(tmp)


def _read_bytes(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_json(path: str | Path, invalid: type[PatchSmoothError]):
    """The JSON document at ``path``. A path that cannot be read (missing,
    a directory, no permission) is a ConfigError; bytes that are not UTF-8
    JSON, or JSON the parser cannot hold, raise ``invalid``. Both messages
    name the path."""
    path = Path(path)
    try:
        return json.loads(_read_bytes(path).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also nested too deep or an int too long
        raise invalid(f"{path}: invalid JSON: {exc}") from exc


def json_chunks(payload) -> tuple[bytes]:
    """``payload`` as RFC 8259 JSON, as chunks for ``write_files``: sorted
    keys, a two-space indent and a final newline. NaN and +-inf have no
    JSON form, so they raise ValueError; every caller refuses them where
    they enter."""
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    return (text.encode("utf-8"),)


def write_json(payload, path: str | Path) -> None:
    """Write ``payload`` atomically as RFC 8259 JSON (``json_chunks``)."""
    write_files({path: json_chunks(payload)})


def holds_float(value) -> bool:
    """Whether ``value`` is a JSON number (a bool is none) within the float range."""
    return not isinstance(value, bool) and (
        isinstance(value, float) or isinstance(value, int) and abs(value) <= sys.float_info.max)


def read_tensor(path: str | Path) -> tuple[np.ndarray, dict]:
    """Read an array and its sidecar; verifies magic, version, length, CRC.

    The array is read-only: it is built over the file's bytes, not copied
    out of them. A path that cannot be read is a ConfigError.
    """
    path = Path(path)
    blob = _read_bytes(path)
    if len(blob) < 20:
        raise FormatError(f"{path}: file too short ({len(blob)} bytes) for header")
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r} at offset 0, expected {MAGIC!r}")
    version, code, rank = struct.unpack_from("<III", blob, 4)
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version} at offset 4")
    if code not in _DTYPE_CODES:
        raise FormatError(f"{path}: unknown dtype code {code} at offset 8")
    offset = 16
    if len(blob) < offset + 8 * rank + 4:
        raise FormatError(f"{path}: truncated dims block at offset {offset}")
    dims = struct.unpack_from(f"<{rank}Q", blob, offset)
    offset += 8 * rank
    (meta_len,) = struct.unpack_from("<I", blob, offset)
    offset += 4

    dtype = _DTYPE_CODES[code]
    # Python ints: a product of u64 dims must not wrap
    count = math.prod(dims)
    payload_len = count * dtype.itemsize
    expected = offset + meta_len + payload_len + 4
    if len(blob) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes "
            f"(header {offset} + meta {meta_len} + payload {payload_len} + crc 4), got {len(blob)}"
        )

    (stored_crc,) = struct.unpack_from("<I", blob, len(blob) - 4)
    actual_crc = zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF
    if stored_crc != actual_crc:
        raise FormatError(
            f"{path}: checksum mismatch at offset {len(blob) - 4}: "
            f"stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
        )

    meta_bytes = blob[offset : offset + meta_len]
    try:
        meta = json.loads(meta_bytes.decode("utf-8")) if meta_len else {}
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{path}: invalid JSON sidecar at offset {offset}: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: JSON sidecar at offset {offset} is not an object")

    array = np.frombuffer(blob, dtype=dtype, count=count, offset=offset + meta_len)
    try:
        # numpy refuses dims whose nonzero product exceeds its index range,
        # even for an empty array
        return array.reshape(dims), meta
    except ValueError as exc:
        raise FormatError(f"{path}: dims {dims} at offset 16 describe no array: {exc}") from exc
