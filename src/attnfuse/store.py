"""Ordered archive of what inversion recorded for the editing pass.

Keys are (timestep, layer, kind).  A cross-attention map is kept as is.
A self-attention map holds n*heads*h*w*2*h*w values, so the store keeps
the query and key projections it is built from, 2*n*h*w*d_model values,
and rebuilds the map on each query through the function the forward
pass used, which gives back the applied map bit for bit.  Entries are
immutable once stored.  A complete inversion over T steps and L blocks
holds T*L entries per kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from . import blobio
from .errors import ContractViolation, MissingRecordError
from .model import KIND_CROSS, KIND_SELF, AttentionRecord, SelfProjections
from .numerics import require

# Format of a store dump's index.json and blobs.  Version 2 keeps self
# attention as projections; version 1 dumps (no "version" key) held maps.
DUMP_VERSION = 2


class AttentionKey(NamedTuple):
    t: int
    layer: int
    kind: str


@dataclass(frozen=True)
class StoreMeta:
    T: int
    blocks: int
    config_hash: int


class AttentionStore:
    """Insertion-ordered map from AttentionKey to a cross map or self projections."""

    def __init__(self, meta: StoreMeta):
        require(meta.T >= 1 and meta.blocks >= 1,
                f"store metadata out of range: T={meta.T}, blocks={meta.blocks}")
        self.meta = meta
        self._records: dict[AttentionKey, AttentionRecord | SelfProjections] = {}

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[AttentionKey]:
        return iter(self._records)

    def _add(self, key: AttentionKey, entry) -> None:
        if key in self._records:
            raise ContractViolation(f"duplicate attention record for {key}")
        self._records[key] = entry

    def record(self, rec: AttentionRecord) -> None:
        """Keep a cross-attention map."""
        require(rec.kind == KIND_CROSS,
                f"self-attention at t={rec.t} layer={rec.layer} is recorded "
                f"as projections, not as a map")
        rec.validate_rows(tol=1e-9)
        rec.attn.setflags(write=False)
        self._add(AttentionKey(rec.t, rec.layer, rec.kind), rec)

    def record_projections(self, t: int, layer: int, proj: SelfProjections) -> None:
        """Keep the projections that the self-attention map at (t, layer) is built from."""
        proj.queries.setflags(write=False)
        proj.keys.setflags(write=False)
        self._add(AttentionKey(t, layer, KIND_SELF), proj)

    def query(self, t: int, layer: int, kind: str) -> AttentionRecord:
        """The recorded map; a self map is rebuilt, a new array on each call."""
        key = AttentionKey(t, layer, kind)
        try:
            entry = self._records[key]
        except KeyError:
            raise MissingRecordError(f"no attention record for {key}") from None
        if kind == KIND_SELF:
            return AttentionRecord(t=t, layer=layer, kind=kind, attn=entry.attn())
        return entry

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

        A cross blob holds the map, a self blob the queries then the keys.
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
            name = f"{key.kind}_t{key.t:04d}_l{key.layer:02d}.bin"
            item = {"t": key.t, "layer": key.layer, "kind": key.kind, "file": name}
            if key.kind == KIND_SELF:
                arrays = [entry.queries, entry.keys]
                item["heads"] = entry.heads
            else:
                arrays = [entry.attn]
            item["shape"] = list(arrays[0].shape)
            blobio.write_blob(directory / name, self.meta.config_hash, arrays)
            index["records"].append(item)
        (directory / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n")


def load_store_dump(directory: Path) -> AttentionStore:
    directory = Path(directory)
    index = json.loads((directory / "index.json").read_text())
    found = index.get("version", 1)
    if found != DUMP_VERSION:
        raise ContractViolation(
            f"{directory}: store dump format version {found}, expected "
            f"{DUMP_VERSION}; invert the video again to rewrite it")
    meta = StoreMeta(T=index["T"], blocks=index["blocks"],
                     config_hash=index["config_hash"])
    store = AttentionStore(meta)
    for entry in index["records"]:
        path, shape = directory / entry["file"], tuple(entry["shape"])
        t, layer = entry["t"], entry["layer"]
        if entry["kind"] == KIND_SELF:
            queries, keys = blobio.read_blob(path, meta.config_hash, [shape, shape])
            store.record_projections(t, layer, SelfProjections(
                queries=queries, keys=keys, heads=entry["heads"]))
        else:
            [attn] = blobio.read_blob(path, meta.config_hash, [shape])
            store.record(AttentionRecord(t=t, layer=layer, kind=entry["kind"],
                                         attn=attn))
    return store
