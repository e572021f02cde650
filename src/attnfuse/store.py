"""Ordered archive of what inversion recorded for the editing pass.

Keys are (timestep, layer, kind).  A cross-attention map is kept as is.
A self-attention map holds n*heads*h*w*2*h*w values, so the store keeps
what it is built from: the block input, n*h*w*d_model values, and the
block's query and key weights, shared with the model rather than
copied.  The edit pass reads that record (`projections`) and builds
the rows it needs tile by tile, bit for bit the rows the forward pass
applied; an observer assembles the whole map with the record's
`attn()`.  `query` returns a cross map, a plain read-only array.  A
complete inversion over T steps and L blocks holds T*L entries per
kind.

`AttentionStore.record` is inversion's probe; it keeps the pass's own
maps unchecked.  `dump` writes a complete store only: one blob per key,
named by the key, and an index of the store's metadata and the one
geometry all blob shapes follow.  A loaded dump comes from outside the
program, so `load_store_dump` checks the index's fields, each blob's
header and length, cross rows and self finiteness, naming the file.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import blobio
from .errors import ContractViolation, MissingRecordError
from .model import KIND_CROSS, KIND_SELF, AttentionSite, SelfProjections
from .numerics import check_finite, check_rows, require

# Format of a store dump's index.json and blobs.  Version 4 writes one
# geometry for all blobs; version 3 listed each record's file and shape,
# version 2 held self projections, version 1 (no "version" key) maps.
DUMP_VERSION = 4


class AttentionKey(NamedTuple):
    t: int
    layer: int
    kind: str


def _blob_name(key: AttentionKey) -> str:
    """The file a dump stores *key*'s entry in."""
    return f"{key.kind}_t{key.t:04d}_l{key.layer:02d}.bin"


def _grid(T: int, blocks: int) -> Iterator[AttentionKey]:
    """Every key of a complete T x blocks x {self, cross} store, in recording order."""
    return (AttentionKey(t, layer, kind) for t in range(T) for layer in range(blocks)
            for kind in (KIND_SELF, KIND_CROSS))


class DumpGeometry(NamedTuple):
    """The sizes every record of a dump shares."""
    frames: int
    pixels: int
    d_model: int
    heads: int
    tokens: int

    def shapes(self, kind: str) -> list[tuple[int, ...]]:
        """A self blob's block input and weights, or a cross blob's map."""
        if kind == KIND_SELF:
            weight = (self.d_model, self.d_model)
            return [(self.frames, self.pixels, self.d_model), weight, weight]
        return [(self.frames, self.heads, self.pixels, self.tokens)]


@dataclass(frozen=True)
class StoreMeta:
    T: int
    blocks: int
    config_hash: int


class AttentionStore:
    """Insertion-ordered map from AttentionKey to a cross map or a self record."""

    def __init__(self, meta: StoreMeta):
        require(meta.T >= 1 and meta.blocks >= 1,
                f"store metadata out of range: T={meta.T}, blocks={meta.blocks}")
        self.meta = meta
        self._records: dict[AttentionKey, np.ndarray | SelfProjections] = {}

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[AttentionKey]:
        return iter(self._records)

    def _add(self, key: AttentionKey, entry) -> None:
        if key in self._records:
            raise ContractViolation(f"duplicate attention record for {key}")
        self._records[key] = entry

    def record(self, site: AttentionSite) -> None:
        """Keep a self site's `SelfProjections`, or a cross site's map.

        A probe: it replaces nothing, and it never reads a self site's
        map, so the pass builds that map's rows once, to apply them.
        """
        entry = site.projections if site.kind == KIND_SELF else site.attn
        self._add(AttentionKey(site.t, site.layer, site.kind), entry)

    def _entry(self, key: AttentionKey):
        try:
            return self._records[key]
        except KeyError:
            raise MissingRecordError(f"no attention record for {key}") from None

    def projections(self, t: int, layer: int) -> SelfProjections:
        """The record a self map is built from; the edit pass builds its rows from it."""
        return self._entry(AttentionKey(t, layer, KIND_SELF))

    def query(self, t: int, layer: int) -> np.ndarray:
        """The read-only recorded cross map."""
        return self._entry(AttentionKey(t, layer, KIND_CROSS))

    def verify_complete(self) -> list[AttentionKey]:
        """Keys still missing for a full T x blocks x {self, cross} grid."""
        return [key for key in _grid(self.meta.T, self.meta.blocks)
                if key not in self._records]

    def dump(self, directory: Path) -> None:
        """Write a complete store: one blob per key, and an index.

        A cross blob holds the map.  A self blob holds the block input,
        then the query weights, then the key weights, so a dump needs no
        weights from outside.  The index holds the store's metadata and
        the geometry of step 0, block 0, which every record shares.
        """
        missing = self.verify_complete()
        require(not missing, f"cannot dump a store with {len(missing)} records "
                             f"missing, the first {missing[:1]}")
        first = self.projections(0, 0)
        geometry = DumpGeometry(*first.feats.shape, first.heads,
                                self.query(0, 0).shape[-1])
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for key in _grid(self.meta.T, self.meta.blocks):
            entry = self._records[key]
            arrays = [entry.feats, entry.wq, entry.wk] if key.kind == KIND_SELF else [entry]
            blobio.write_blob(directory / _blob_name(key), self.meta.config_hash, arrays)
        index = {"version": DUMP_VERSION, **asdict(self.meta), **geometry._asdict()}
        (directory / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n")


def load_store_dump(directory: Path) -> AttentionStore:
    """Read a dump back, checking its index and each blob, as they come from files."""
    directory = Path(directory)
    index_path = directory / "index.json"
    try:
        index = json.loads(index_path.read_text())
    except OSError as exc:
        raise ContractViolation(f"{index_path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:
        raise ContractViolation(f"{index_path}: not a JSON index: {exc}") from None
    require(isinstance(index, dict), f"{index_path}: index must be a JSON object")
    found = index.get("version", 1)
    if type(found) is not int or found != DUMP_VERSION:
        raise ContractViolation(
            f"{directory}: store dump format version {found!r}, expected "
            f"{DUMP_VERSION}; invert the video again to rewrite it")
    names = ("config_hash", "T", "blocks") + DumpGeometry._fields
    bad = [n for n in names if type(index.get(n)) is not int]
    require(not bad, f"{index_path}: {', '.join(bad)} must be present as integers")
    small = [f"{n} = {index[n]}" for n in names[1:] if index[n] < 1]
    require(not small, f"{index_path}: sizes must be at least 1, got {', '.join(small)}")
    hash_, T, blocks, *sizes = (index[n] for n in names)
    geometry = DumpGeometry(*sizes)
    require(geometry.d_model % geometry.heads == 0,
            f"{index_path}: {geometry.heads} heads do not split d_model {geometry.d_model}")
    store = AttentionStore(StoreMeta(T=T, blocks=blocks, config_hash=hash_))
    for key in _grid(T, blocks):
        path = directory / _blob_name(key)
        arrays = blobio.read_blob(path, hash_, geometry.shapes(key.kind))
        if key.kind == KIND_SELF:
            for what, arr in zip(("block input", "query weights", "key weights"), arrays):
                check_finite(f"{path}: self {what}", arr)
            store._add(key, SelfProjections(*arrays, heads=geometry.heads))
        else:
            check_rows(f"{path}: cross map", arrays[0], 1e-9)
            store._add(key, arrays[0])
    return store
