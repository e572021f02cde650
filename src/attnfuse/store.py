"""Ordered archive of what inversion recorded for the editing pass.

Keys are (timestep, layer, kind).  A cross-attention map is kept as is.
A self-attention map holds n*heads*h*w*2*h*w values, so the store keeps
what it is built from: the block input, n*h*w*d_model values, and the
block's query and key weights, shared with the model rather than
copied.  The edit pass reads that record and builds the rows it needs
tile by tile; a query rebuilds the whole map from the same tiles, which
gives back the rows the forward pass applied bit for bit.  A query
returns a plain read-only array.  A complete inversion over T steps and
L blocks holds T*L entries per kind.

`AttentionStore.record` is inversion's probe; it keeps the pass's own
maps unchecked.  A loaded dump comes from outside the program, so
`load_store_dump` checks its index (each record's key in range and
stored in the file `dump` names for it), each cross map's kind, shape
and row sums, and each self record's shape, heads and finiteness before
it adds it, and names the file at fault.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from . import blobio
from .errors import ContractViolation, MissingRecordError
from .model import KIND_CROSS, KIND_SELF, AttentionSite, SelfProjections
from .numerics import check_finite, check_rows, require

# Format of a store dump's index.json and blobs.  Version 3 keeps self
# attention as the block input and its query and key weights; version 2
# held query and key projections, version 1 (no "version" key) held maps.
DUMP_VERSION = 3


class AttentionKey(NamedTuple):
    t: int
    layer: int
    kind: str


def _blob_name(key: AttentionKey) -> str:
    """The file a dump stores *key*'s entry in."""
    return f"{key.kind}_t{key.t:04d}_l{key.layer:02d}.bin"


def _fields(obj, names: tuple[str, ...], where: str) -> list:
    """obj[name] for each of *names* of a parsed index object."""
    missing = [n for n in names if not isinstance(obj, dict) or n not in obj]
    require(not missing, f"{where}: missing {', '.join(missing)}")
    return [obj[n] for n in names]


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

    def query(self, t: int, layer: int, kind: str) -> np.ndarray:
        """The read-only recorded map; a self map is rebuilt, a new array on each call.

        A rebuilt self map is assembled from the tiles the forward pass
        builds, so it holds softmax numerators, each row peaking at 1.0,
        bit for bit the rows the pass applied; it is for observers and
        tests, and the edit pass reads `projections`.
        """
        entry = self._entry(AttentionKey(t, layer, kind))
        return entry.attn() if kind == KIND_SELF else entry

    def verify_complete(self) -> list[AttentionKey]:
        """Keys still missing for a full T x blocks x {self, cross} grid."""
        missing = [
            AttentionKey(t, layer, kind)
            for t in range(self.meta.T)
            for layer in range(self.meta.blocks)
            for kind in (KIND_SELF, KIND_CROSS)
            if AttentionKey(t, layer, kind) not in self._records
        ]
        return missing

    def dump(self, directory: Path) -> None:
        """Write one blob per entry plus an index for offline rendering.

        A cross blob holds the map.  A self blob holds the block input,
        then the query weights, then the key weights, so a dump needs no
        weights from outside.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        index = {
            "version": DUMP_VERSION,
            "T": self.meta.T,
            "blocks": self.meta.blocks,
            "config_hash": self.meta.config_hash,
            "records": [],
        }
        for key in sorted(self._records):
            entry = self._records[key]
            name = _blob_name(key)
            item = {"t": key.t, "layer": key.layer, "kind": key.kind, "file": name}
            if key.kind == KIND_SELF:
                arrays = [entry.feats, entry.wq, entry.wk]
                item["heads"] = entry.heads
            else:
                arrays = [entry]
            item["shape"] = list(arrays[0].shape)
            blobio.write_blob(directory / name, self.meta.config_hash, arrays)
            index["records"].append(item)
        (directory / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n")


def load_store_dump(directory: Path) -> AttentionStore:
    """Read a dump back, checking its index and each record, as they come from files."""
    directory = Path(directory)
    index_path = directory / "index.json"
    try:
        index = json.loads(index_path.read_text())
    except ValueError as exc:
        raise ContractViolation(f"{index_path}: not a JSON index: {exc}") from None
    require(isinstance(index, dict), f"{index_path}: index must be a JSON object")
    found = index.get("version", 1)
    if found != DUMP_VERSION:
        raise ContractViolation(
            f"{directory}: store dump format version {found}, expected "
            f"{DUMP_VERSION}; invert the video again to rewrite it")
    T, blocks, hash_, records = _fields(index, ("T", "blocks", "config_hash", "records"),
                                        str(index_path))
    require(all(type(v) is int for v in (T, blocks, hash_)) and isinstance(records, list),
            f"{index_path}: T, blocks and config_hash must be integers, records a list")
    store = AttentionStore(StoreMeta(T=T, blocks=blocks, config_hash=hash_))
    for i, entry in enumerate(records):
        t, layer, kind, name, shape = _fields(
            entry, ("t", "layer", "kind", "file", "shape"), f"{index_path}: record {i}")
        path = directory / str(name)
        require(kind in (KIND_SELF, KIND_CROSS),
                f"{path}: record kind must be self or cross, got {kind!r}")
        require(type(t) is int and 0 <= t < T, f"{path}: t = {t!r} outside [0, {T})")
        require(type(layer) is int and 0 <= layer < blocks,
                f"{path}: layer = {layer!r} outside [0, {blocks})")
        require(isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape),
                f"{path}: shape must be a list of sizes, got {shape!r}")
        shape = tuple(shape)
        key = AttentionKey(t, layer, kind)
        require(name == _blob_name(key),
                f"{path}: the record of {tuple(key)} must be in {_blob_name(key)}")
        if kind == KIND_SELF:
            [heads] = _fields(entry, ("heads",), f"{index_path}: record {i}")
            require(type(heads) is int, f"{path}: heads must be an integer, got {heads!r}")
            require(len(shape) == 3, f"{path}: self block input must be 3-D "
                                     f"(n, h*w, d_model), got shape {shape}")
            d_model = shape[-1]
            require(heads >= 1 and d_model % heads == 0,
                    f"{path}: {heads} heads do not split d_model {d_model}")
            weight = (d_model, d_model)
            feats, wq, wk = blobio.read_blob(path, hash_, [shape, weight, weight])
            for what, arr in (("block input", feats), ("query weights", wq),
                              ("key weights", wk)):
                check_finite(f"{path}: self {what}", arr)
            store._add(key, SelfProjections(feats=feats, wq=wq, wk=wk, heads=heads))
            continue
        require(len(shape) == 4, f"{path}: cross map must be 4-D "
                                 f"(n, heads, q, k), got shape {shape}")
        [attn] = blobio.read_blob(path, hash_, [shape])
        check_rows(f"{path}: cross map", attn, 1e-9)
        store._add(key, attn)
    return store
