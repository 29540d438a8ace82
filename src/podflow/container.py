"""One binary container for every saved array: snapshot sets, POD bases and
reduced operators.

A container is the magic ``PFC1``, the byte length of a JSON header as an
unsigned little-endian 64-bit integer, the header itself, then each array as
raw little-endian float64 in header order. The header holds the kind of the
container, its scalar metadata and the name and shape of every array; it is
written with sorted keys, so equal inputs give equal bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["ContainerError", "write_container", "read_container"]

_MAGIC = b"PFC1"
_LENGTH_BYTES = 8


class ContainerError(ValueError):
    """A container file is damaged or does not match what the reader expects."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


def write_container(path, kind, meta, arrays):
    """Write ``arrays`` (name -> array) with JSON-serializable ``meta``."""
    arrays = {name: np.ascontiguousarray(a, dtype="<f8") for name, a in arrays.items()}
    header = json.dumps(
        {"kind": kind, "meta": meta,
         "arrays": [[name, list(a.shape)] for name, a in arrays.items()]},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(header).to_bytes(_LENGTH_BYTES, "little"))
        fh.write(header)
        for a in arrays.values():
            fh.write(a.data)


def read_container(path, kind=None, expected_signature=None):
    """Read a container of the given kind (any kind when None); return
    ``(meta, arrays)``.

    With ``expected_signature`` the space signature stored in the metadata
    must match it. The file must hold exactly the bytes its header declares.
    """
    raw = Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ContainerError(path, "not a podflow container")
    start = len(_MAGIC) + _LENGTH_BYTES
    end = start + int.from_bytes(raw[len(_MAGIC) : start], "little")
    if len(raw) < end:
        raise ContainerError(path, "truncated inside the header")
    try:
        header = json.loads(raw[start:end])
        found, meta = header["kind"], header["meta"]
        signature = meta.get("signature")
        layout = [(str(name), tuple(int(n) for n in shape))
                  for name, shape in header["arrays"]]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ContainerError(path, f"malformed header ({exc})") from exc
    if kind is not None and found != kind:
        raise ContainerError(path, f"holds a {found!r} container, expected {kind!r}")
    if expected_signature is not None and signature != expected_signature:
        raise ContainerError(
            path, f"written on space {signature}, expected {expected_signature}")
    if any(n < 0 for _, shape in layout for n in shape):
        raise ContainerError(path, "malformed header (negative array extent)")
    declared = 8 * sum(math.prod(shape) for _, shape in layout)
    if len(raw) - end != declared:
        raise ContainerError(
            path, f"holds {len(raw) - end} data bytes, its header declares {declared}")
    arrays = {}
    offset = end
    for name, shape in layout:
        count = math.prod(shape)
        arrays[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    return meta, arrays
