"""Ordered archive of what inversion recorded for the editing pass.

Keys are (timestep, layer, kind).  A cross-attention map is kept as is.
A self-attention map holds n*heads*h*w*2*h*w values, so the store keeps
its self record, the one array the map is built from: a later block's
input, n*h*w*d_model values, or at block 0 the step's latent, n*c*h*w
values.  Every record is a plain read-only array.  The weights that
turn a record into its map are the model's, those of the config whose
`config_hash` the store carries, so the store holds none.  The edit
pass hands block 0's self record, the latent (`self_record`), to the
forward pass as a `model.SelfAnswer`'s source, and the pass builds the
rows it needs tile by tile, bit for bit the rows it applied during
inversion; it rebuilds later blocks' inputs and the source's cross maps
from it on the way up, so an edit's store keeps no later block's input
and reads a cross map (`query`) only where a blend mask thresholds it.

A `Recorder` is inversion's probe.  It takes the records of a set of
keys of the T x L x {self, cross} grid, each once, and passes over the
rest: a store holds the whole grid by default, an edit's store only the
keys its `FusionPlan` reads: one latent per replayed step, the cross
maps its blend masks threshold, and the heatmaps' cross map.  An
`AttentionStore` keeps the pass's own records, unchecked.  A
`DumpWriter` writes each record to its blob, named by its key, as it
arrives and keeps none.  Once the grid is complete it writes, last,
the index of the store's metadata and the one geometry all blob shapes
follow, so a directory without `index.json` is an interrupted dump.  A
loaded dump comes from outside the program, so `load_store_dump`
checks the index's fields, each blob's header and length, cross rows
and the finiteness of the latents and block inputs, naming the file.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import blobio
from .errors import ContractViolation, MissingRecordError
from .model import KIND_CROSS, KIND_SELF, AttentionSite
from .numerics import check_finite, check_rows, require

# Format of a store dump's index.json and blobs.  Version 6 writes each
# record's one array and no weights; version 5 also wrote the weights
# the self records share, once, to weights.bin, version 4 wrote block
# inputs and weights in every self blob, version 3 listed each record's
# file and shape, version 2 held self projections, version 1 (no
# "version" key) maps.
DUMP_VERSION = 6


class AttentionKey(NamedTuple):
    t: int
    layer: int
    kind: str


def _blob_name(key: AttentionKey) -> str:
    """The file a dump stores *key*'s entry in."""
    return f"{key.kind}_t{key.t:04d}_l{key.layer:02d}.bin"


# Every name `_blob_name` gives.
_BLOB_NAME = re.compile(rf"({KIND_SELF}|{KIND_CROSS})_t\d{{4,}}_l\d{{2,}}\.bin")


def _grid(T: int, blocks: int) -> Iterator[AttentionKey]:
    """Every key of a complete T x blocks x {self, cross} store, in recording order."""
    return (AttentionKey(t, layer, kind) for t in range(T) for layer in range(blocks)
            for kind in (KIND_SELF, KIND_CROSS))


class DumpGeometry(NamedTuple):
    """The sizes every record of a dump shares."""
    frames: int
    channels: int
    height: int
    width: int
    d_model: int
    heads: int
    tokens: int

    def shape(self, key: AttentionKey) -> tuple[int, ...]:
        """The one array of *key*'s blob: block 0's latent, a block input, or a cross map."""
        pixels = self.height * self.width
        if key.kind == KIND_CROSS:
            return (self.frames, self.heads, pixels, self.tokens)
        if key.layer == 0:
            return (self.frames, self.channels, self.height, self.width)
        return (self.frames, pixels, self.d_model)


@dataclass(frozen=True)
class StoreMeta:
    T: int
    blocks: int
    config_hash: int


class Recorder:
    """Inversion's probe: takes the record of each key of a set once.

    *keys* defaults to the whole T x blocks x {self, cross} grid.  A site
    outside the set is passed over, so the pass drops its map and block
    input once applied.  A subclass keeps what it takes (`_keep`).
    """

    def __init__(self, meta: StoreMeta, keys: Iterable[AttentionKey] | None = None):
        require(meta.T >= 1 and meta.blocks >= 1,
                f"store metadata out of range: T={meta.T}, blocks={meta.blocks}")
        self.meta = meta
        wanted = None if keys is None else frozenset(keys)
        # Each wanted key, in recording order, and whether it has come.
        self._taken = {key: False for key in _grid(meta.T, meta.blocks)
                       if wanted is None or key in wanted}

    def record(self, site: AttentionSite) -> None:
        """Take a self site's record, or a cross site's map, if its key is wanted.

        It replaces nothing, and it never reads a self site's map, so the
        pass builds that map's rows once, to apply them.
        """
        key = AttentionKey(site.t, site.layer, site.kind)
        if key in self._taken:
            self._add(key, site.record if site.kind == KIND_SELF else site.attn)

    def _add(self, key: AttentionKey, entry) -> None:
        if self._taken[key]:
            raise ContractViolation(f"duplicate attention record for {key}")
        self._taken[key] = True
        self._keep(key, entry)

    def verify_complete(self) -> list[AttentionKey]:
        """Wanted keys still missing, in recording order."""
        return [key for key, taken in self._taken.items() if not taken]


class AttentionStore(Recorder):
    """Insertion-ordered map from AttentionKey to a cross map or a self record."""

    def __init__(self, meta: StoreMeta, keys: Iterable[AttentionKey] | None = None):
        super().__init__(meta, keys)
        self._records: dict[AttentionKey, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[AttentionKey]:
        return iter(self._records)

    def _keep(self, key: AttentionKey, entry) -> None:
        self._records[key] = entry

    def _entry(self, key: AttentionKey) -> np.ndarray:
        try:
            return self._records[key]
        except KeyError:
            raise MissingRecordError(f"no attention record for {key}") from None

    def self_record(self, t: int, layer: int) -> np.ndarray:
        """The read-only record of a self map: block 0's latent, or a later block's input."""
        return self._entry(AttentionKey(t, layer, KIND_SELF))

    def query(self, t: int, layer: int) -> np.ndarray:
        """The read-only recorded cross map."""
        return self._entry(AttentionKey(t, layer, KIND_CROSS))


class DumpWriter(Recorder):
    """Writes a dump record by record: `invert`'s probe.

    Each record of the grid goes to its blob, named by its key, as it
    arrives, and is not kept.  An earlier dump's index and blobs, every
    file named as `_blob_name` names one, are removed before the first
    blob is written, and so is the `weights.bin` a version 5 dump wrote.
    `close` writes the index of the store's metadata and the geometry of
    step 0, which every step's records share, last, once no record is
    missing.  *d_model*, the model's width, completes that geometry:
    block 0's latent does not carry it, and a 1-block store has no other
    self record.
    """

    def __init__(self, directory: Path, meta: StoreMeta, d_model: int):
        super().__init__(meta)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for name in ("index.json", "weights.bin"):
            (self.directory / name).unlink(missing_ok=True)
        for path in self.directory.glob("*.bin"):
            if _BLOB_NAME.fullmatch(path.name):
                path.unlink()
        self._d_model = d_model
        # Step 0's block 0 shapes: the latent's and the cross map's.
        self._shapes: dict[str, tuple[int, ...]] = {}

    def _keep(self, key: AttentionKey, entry: np.ndarray) -> None:
        if key.t == key.layer == 0:
            self._shapes[key.kind] = entry.shape
        blobio.write_blob(self.directory / _blob_name(key), self.meta.config_hash, [entry])

    def close(self) -> None:
        """Write the index, last; refused while a record is missing."""
        missing = self.verify_complete()
        require(not missing, f"{self.directory}: {len(missing)} records missing, "
                             f"the first {missing[:1]}; no index written")
        frames, channels, height, width = self._shapes[KIND_SELF]
        _, heads, _, tokens = self._shapes[KIND_CROSS]
        geometry = DumpGeometry(frames, channels, height, width, self._d_model, heads, tokens)
        index = {"version": DUMP_VERSION, **asdict(self.meta), **geometry._asdict()}
        (self.directory / "index.json").write_text(
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
        [array] = blobio.read_blob(path, hash_, [geometry.shape(key)])
        if key.kind == KIND_CROSS:
            check_rows(f"{path}: cross map", array, 1e-9)
        else:
            check_finite(f"{path}: self {'block input' if key.layer else 'latent'}", array)
        store._add(key, array)
    return store
