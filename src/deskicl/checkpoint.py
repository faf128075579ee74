"""Binary container for named float32 and uint8 arrays plus a text header.
Model checkpoints and episode files (see `data.py`) both use it.

Layout (all integers little-endian):

    magic       8 bytes   b"DESKCKPT"
    version     uint32    currently 2
    header_len  uint32
    header      UTF-8 text, "key=value\\n" lines
    n_arrays    uint32
    per array, sorted by name:
        name_len  uint16
        name      UTF-8
        dtype     1 byte    b"f" float32, b"u" uint8
        ndim      uint8
        dims      ndim x uint32
        data      prod(dims) x that dtype, little-endian

Sorting makes writes byte-stable, so identical contents always produce
identical files. An array of another dtype is refused, not converted, and a
file of another version, with an unknown dtype code, or that repeats a header
key or an array name, does not load.
Header keys may hold neither '=' nor a newline, values no newline. A write
goes to a sibling temp file that replaces the target only once complete, so
a failed write leaves the previous file as it was.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Mapping

import numpy as np

MAGIC = b"DESKCKPT"
VERSION = 2
_DTYPE_CODES = {np.dtype(np.float32): b"f", np.dtype(np.uint8): b"u"}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}


class CheckpointError(RuntimeError):
    """Malformed or truncated container file, or one of another version."""


def save_checkpoint(path: str | Path, params: Mapping[str, np.ndarray], header: Mapping[str, str]) -> None:
    for key, value in header.items():
        if "=" in str(key) or "\n" in f"{key}{value}":
            raise ValueError(f"header entry {key!r}: keys may not hold '=' or newlines, values may not hold newlines")
    header_bytes = "".join(f"{k}={v}\n" for k, v in sorted(header.items())).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(MAGIC + struct.pack("<II", VERSION, len(header_bytes)) + header_bytes + struct.pack("<I", len(params)))
            for name in sorted(params):
                arr = np.asarray(params[name])
                code = _DTYPE_CODES.get(arr.dtype)
                if code is None:
                    raise ValueError(f"array {name!r} is {arr.dtype}; a container holds float32 and uint8 arrays only")
                arr = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"), order="C")
                name_bytes = name.encode("utf-8")
                fh.write(struct.pack(f"<H{len(name_bytes)}scB{arr.ndim}I", len(name_bytes), name_bytes, code, arr.ndim, *arr.shape))
                fh.write(arr)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def need(n: int) -> None:
            if fh.tell() + n > size:
                raise CheckpointError(f"{path}: truncated at byte {fh.tell()} (wanted {n} more)")

        def take(n: int) -> bytes:
            need(n)
            return fh.read(n)

        def text(n: int) -> str:
            try:
                return take(n).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"{path}: text before byte {fh.tell()} is not UTF-8") from exc

        if take(8) != MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
        (version,) = struct.unpack("<I", take(4))
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported checkpoint version {version} (this deskicl reads version {VERSION})")
        (header_len,) = struct.unpack("<I", take(4))
        header: dict[str, str] = {}
        for line in text(header_len).split("\n"):
            if line:
                key, _, value = line.partition("=")
                if key in header:
                    raise CheckpointError(f"{path}: header key {key!r} repeats")
                header[key] = value
        (n_params,) = struct.unpack("<I", take(4))
        params: dict[str, np.ndarray] = {}
        for _ in range(n_params):
            (name_len,) = struct.unpack("<H", take(2))
            name = text(name_len)
            if name in params:
                raise CheckpointError(f"{path}: array name {name!r} repeats")
            code, ndim = struct.unpack("<cB", take(2))
            dtype = _CODE_DTYPES.get(code)
            if dtype is None:
                raise CheckpointError(f"{path}: array {name!r} has unknown dtype code {code!r}")
            shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
            need(math.prod(shape) * dtype.itemsize)  # before allocating, so corrupt dims cannot ask for more than the file holds
            data = np.empty(shape, dtype=dtype.newbyteorder("<"))  # the file's bytes are read once, into the array returned
            fh.readinto(data)
            params[name] = data.astype(dtype, copy=False)  # no copy on a little-endian machine
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} trailing bytes after last parameter")
    return params, header
