"""Parameter values saved as one float64 vector in a NumPy ``.npy`` file.

Files are written through `write_atomic`: an interrupted write leaves the
previous file in place. `save_params` returns the sha256 digest of the bytes
it wrote, and `load_params` refuses a file whose bytes do not have the
digest it is given, so a caller can tell its file from another save's. The
vector is read back by numpy's own header parser with pickles refused, and
it must be a little-endian float64 vector of exactly the length its layout
names, with no bytes after it and every value finite.

`config_from_json` builds a config from a JSON object read from a command's
config file, a checkpoint's metadata or a corpus manifest.
"""

from __future__ import annotations

import functools
import io
import os
import typing
from pathlib import Path

import numpy as np

from ibvq.errors import CheckpointError
from ibvq.numcore.tensor import Array


def write_atomic(path: Path, write) -> None:
    """Write ``path`` by ``write(binary file)`` to a temporary file renamed over it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# what a JSON value must be to fill a config field of each annotated type;
# a JSON true or false is not an integer
_JSON_KINDS = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    tuple[int, ...]: ("a list of integers",
                      lambda v: type(v) is list and all(type(x) is int for x in v)),
}


# a config class's string annotations are compiled once per process
_type_hints = functools.cache(typing.get_type_hints)


def config_from_json(cls, data):
    """``cls`` built from the JSON object ``data``, each list as a tuple. A
    value of a JSON type its field's annotation does not take (`_JSON_KINDS`)
    is a TypeError naming the field, as is a key ``cls`` does not take."""
    data = {**data}
    hints = _type_hints(cls)
    for key, value in data.items():
        kind = _JSON_KINDS.get(hints.get(key))
        if kind and not kind[1](value):
            raise TypeError(f"{key} must be {kind[0]}, got {value!r}")
    return cls(**{k: tuple(v) if type(v) is list else v for k, v in data.items()})


def _sha256(blob: bytes) -> str:
    # hashlib loads OpenSSL (about 4 ms): paid on first use, not by every
    # import of the package
    import hashlib

    return hashlib.sha256(blob).hexdigest()


def save_params(path: str | Path, values: Array) -> str:
    """Write the vector ``values`` to ``path`` as little-endian float64;
    returns the sha256 hex digest of the bytes written."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.ascontiguousarray(values, dtype="<f8"), allow_pickle=False)
    blob = buf.getvalue()
    write_atomic(Path(path), lambda fh: fh.write(blob))
    return _sha256(blob)


def load_params(path: str | Path, sha256: str, layout: list) -> Array:
    """The vector in ``path``, whose bytes must have the hex digest
    ``sha256``: the ``rows * cols`` values of each ``[name, rows, cols]`` of
    ``layout`` in turn, all finite."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if _sha256(blob) != sha256:
        raise CheckpointError(
            f"{path} does not have the sha256 digest recorded for it: it was replaced "
            "after that save, or the save was interrupted"
        )
    fh = io.BytesIO(blob)
    try:
        values = np.lib.format.read_array(fh, allow_pickle=False)
    except (ValueError, MemoryError) as e:  # MemoryError: a header declaring too many values
        raise CheckpointError(f"{path} is not a readable .npy array: {e}") from e
    if fh.tell() != len(blob):
        raise CheckpointError(f"trailing bytes in checkpoint {path}")
    sizes = [rows * cols for _, rows, cols in layout]
    if values.dtype != np.dtype("<f8") or values.shape != (sum(sizes),):
        raise CheckpointError(
            f"{path} holds a {values.dtype.str} array of shape {values.shape}, not the "
            f"{sum(sizes)} little-endian float64 values of its layout"
        )
    bad = ~np.isfinite(values)
    if bad.any():
        name = layout[int(np.searchsorted(np.cumsum(sizes), np.argmax(bad), side="right"))][0]
        raise CheckpointError(f"parameter {name!r} in {path} has non-finite values")
    return values
