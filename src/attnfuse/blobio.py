"""Binary blob format of the inverted latent and the store dumps.

Layout: a 16-byte header (4-byte magic ``ATNF``, little-endian u32
format version, little-endian u64 config hash) followed by the raw
little-endian float64 payload of each array in order.  Loading is an
exact bit-level round trip.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ContractViolation

MAGIC = b"ATNF"
VERSION = 1
HEADER = struct.Struct("<4sIQ")


def write_blob(path: Path, config_hash: int, arrays: list[np.ndarray]) -> int:
    """Write *arrays* to *path* after the header, one at a time; returns the bytes written."""
    with open(path, "wb") as f:
        written = f.write(HEADER.pack(MAGIC, VERSION, config_hash))
        for arr in arrays:  # no copy of a contiguous little-endian array
            written += f.write(np.ascontiguousarray(arr, dtype="<f8").data)
    return written


def read_blob(path: Path, config_hash: int,
              shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ContractViolation(f"{path}: cannot read: {exc.strerror}") from None
    if len(raw) < HEADER.size:
        raise ContractViolation(f"{path}: truncated blob header")
    magic, version, found_hash = HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ContractViolation(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ContractViolation(f"{path}: unsupported blob version {version}")
    if found_hash != config_hash:
        raise ContractViolation(
            f"{path}: config hash mismatch "
            f"(file {found_hash:#018x}, expected {config_hash:#018x})")
    arrays = []
    offset = HEADER.size
    for shape in shapes:
        count = math.prod(shape)
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise ContractViolation(f"{path}: payload shorter than declared shapes")
        flat = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        arr = flat.reshape(shape).astype(np.float64, copy=True)
        arr.setflags(write=False)
        arrays.append(arr)
        offset += nbytes
    if offset != len(raw):
        raise ContractViolation(f"{path}: {len(raw) - offset} trailing bytes")
    return arrays
