"""Little-endian binary serialization of named parameter matrices.

Layout: magic ``IBVQ``, u32 version, u32 record count, then per record a
u32 name length, the UTF-8 name, u32 rows, u32 cols, and the row-major
float64 payload. Everything little-endian.

Files are written through `write_atomic`: an interrupted write leaves the
previous file in place. `save_params` returns the sha256 digest of the bytes
it wrote, and `load_params` refuses a file whose bytes do not have the
digest it is given, so a caller can tell its file from another save's.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from ibvq.errors import CheckpointError
from ibvq.numcore.tensor import Array

MAGIC = b"IBVQ"
VERSION = 1


def write_atomic(path: Path, write) -> None:
    """Write ``path`` by ``write(binary file)`` to a temporary file renamed over it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _sha256(blob: bytes) -> str:
    # hashlib loads OpenSSL (about 4 ms): paid on first use, not by every
    # import of the package
    import hashlib

    return hashlib.sha256(blob).hexdigest()


def save_params(path: str | Path, params: dict[str, Array]) -> str:
    """Write ``params`` to ``path``; returns the sha256 hex digest of the
    bytes written."""
    path = Path(path)
    chunks = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for name, arr in params.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        if arr.ndim != 2:
            raise CheckpointError(f"parameter {name!r} is not a matrix: {arr.shape}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<II", arr.shape[0], arr.shape[1]))
        chunks.append(arr.tobytes())
    blob = b"".join(chunks)
    write_atomic(path, lambda fh: fh.write(blob))
    return _sha256(blob)


def load_params(path: str | Path, sha256: str | None = None) -> dict[str, Array]:
    """The named matrices in ``path``; with ``sha256``, the file's bytes
    must have that hex digest."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if sha256 is not None and _sha256(blob) != sha256:
        raise CheckpointError(
            f"{path} does not have the sha256 digest recorded for it: it was replaced "
            "after that save, or the save was interrupted"
        )
    view = memoryview(blob)
    if len(view) < 12 or bytes(view[:4]) != MAGIC:
        raise CheckpointError(f"{path} is not a parameter checkpoint (bad magic)")
    version, count = struct.unpack_from("<II", view, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    offset = 12
    params: dict[str, Array] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", view, offset)
            offset += 4
            name = bytes(view[offset : offset + name_len]).decode("utf-8")
            offset += name_len
            rows, cols = struct.unpack_from("<II", view, offset)
            offset += 8
            nbytes = rows * cols * 8
            payload = view[offset : offset + nbytes]
            if len(payload) != nbytes:
                raise struct.error("truncated payload")
            offset += nbytes
        except (struct.error, UnicodeDecodeError) as e:
            raise CheckpointError(f"truncated or corrupt checkpoint {path}: {e}") from e
        arr = np.frombuffer(payload, dtype="<f8").reshape(rows, cols)
        params[name] = arr.astype(np.float64)
    if offset != len(view):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    return params
