"""Ordered archive of attention maps captured during inversion.

Keys are (timestep, layer, kind).  Records are immutable once stored;
queries hand back exactly the bits that went in.  A complete inversion
over T steps and L blocks holds T*L records per kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from . import blobio
from .errors import ContractViolation, MissingRecordError
from .model import KIND_CROSS, KIND_SELF, AttentionRecord
from .numerics import require


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
    """Insertion-ordered map from AttentionKey to AttentionRecord."""

    def __init__(self, meta: StoreMeta):
        require(meta.T >= 1 and meta.blocks >= 1,
                f"store metadata out of range: T={meta.T}, blocks={meta.blocks}")
        self.meta = meta
        self._records: dict[AttentionKey, AttentionRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[AttentionKey]:
        return iter(self._records)

    def record(self, rec: AttentionRecord) -> None:
        key = AttentionKey(rec.t, rec.layer, rec.kind)
        if key in self._records:
            raise ContractViolation(f"duplicate attention record for {key}")
        rec.validate_rows(tol=1e-9)
        rec.attn.setflags(write=False)
        self._records[key] = rec

    def query(self, t: int, layer: int, kind: str) -> AttentionRecord:
        key = AttentionKey(t, layer, kind)
        try:
            return self._records[key]
        except KeyError:
            raise MissingRecordError(f"no attention record for {key}") from None

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
        """Write one blob per record plus an index for offline rendering."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        index = {
            "T": self.meta.T,
            "blocks": self.meta.blocks,
            "config_hash": self.meta.config_hash,
            "records": [],
        }
        for key in sorted(self._records):
            rec = self._records[key]
            name = f"{key.kind}_t{key.t:04d}_l{key.layer:02d}.bin"
            blobio.write_blob(directory / name, self.meta.config_hash, [rec.attn])
            index["records"].append({
                "t": key.t, "layer": key.layer, "kind": key.kind,
                "shape": list(rec.attn.shape), "file": name,
            })
        (directory / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n")


def load_store_dump(directory: Path) -> AttentionStore:
    directory = Path(directory)
    index = json.loads((directory / "index.json").read_text())
    meta = StoreMeta(T=index["T"], blocks=index["blocks"],
                     config_hash=index["config_hash"])
    store = AttentionStore(meta)
    for entry in index["records"]:
        [attn] = blobio.read_blob(directory / entry["file"], meta.config_hash,
                                  [tuple(entry["shape"])])
        store.record(AttentionRecord(t=entry["t"], layer=entry["layer"],
                                     kind=entry["kind"], attn=attn))
    return store
