"""Ordered archive of what inversion recorded for the editing pass.

Keys are (timestep, layer, kind).  A cross-attention map is kept as is.
A self-attention map holds n*heads*h*w*2*h*w values, so the store keeps
what it is built from: the block input, n*h*w*d_model values, and the
block's query and key weights, shared with the model rather than
copied.  Block 0's record keeps the step's latent instead, n*c*h*w
values, and rebuilds its block input when read
(`model.LatentProjections`).  The edit pass hands that record
(`projections`) to the forward pass as a `model.SelfAnswer`'s source,
and the pass builds the rows it needs tile by tile, bit for bit the
rows it applied during inversion; an observer assembles the whole map
with the record's `attn()`.  `query` returns a cross map, a plain
read-only array.

A `Recorder` is inversion's probe.  It takes the records of a set of
keys of the T x L x {self, cross} grid, each once, and passes over the
rest: a store holds the whole grid by default, an edit's store only the
keys its `FusionPlan` reads.  An `AttentionStore` keeps the pass's own
maps, unchecked.  A `DumpWriter` writes each record to its blob, named
by its key, as it arrives and keeps none: a cross blob holds the map, a
block 0 self blob the step's latent, a later block's self blob its
block input.  Once the grid is complete it writes the weights the self
records share, once, to `weights.bin` (w_in and the time table that
rebuild block 0's input, then each block's query and key weights), and
last the index of the store's metadata and the one geometry all blob
shapes follow, so a directory without `index.json` is an interrupted
dump.  `AttentionStore.dump` writes through a `DumpWriter` too.  A
loaded dump comes from outside the program, so `load_store_dump` checks
the index's fields, each blob's header and length, cross rows and the
finiteness of the weights, latents and block inputs, naming the file.
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
from .model import (KIND_CROSS, KIND_SELF, POS_DIM, TIME_DIM, AttentionSite,
                    LatentProjections, SelfProjections)
from .numerics import check_finite, check_rows, require

# Format of a store dump's index.json and blobs.  Version 5 writes block
# 0's self blobs as latents and the shared weights once, in weights.bin;
# version 4 wrote block inputs and weights in every self blob, version 3
# listed each record's file and shape, version 2 held self projections,
# version 1 (no "version" key) maps.
DUMP_VERSION = 5

# The blob of the weights every self record of a dump shares.
WEIGHTS_BLOB = "weights.bin"


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

    def weight_shapes(self, blocks: int) -> list[tuple[int, ...]]:
        """`weights.bin`'s arrays: w_in, time_freq, time_phase, then each block's wq and wk."""
        square = (self.d_model, self.d_model)
        return [(self.channels + POS_DIM + TIME_DIM, self.d_model), (TIME_DIM,),
                (TIME_DIM,)] + [square] * (2 * blocks)


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
        """Take a self site's `SelfProjections`, or a cross site's map, if its key is wanted.

        It replaces nothing, and it never reads a self site's map, so the
        pass builds that map's rows once, to apply them.
        """
        key = AttentionKey(site.t, site.layer, site.kind)
        if key in self._taken:
            self._add(key, site.projections if site.kind == KIND_SELF else site.attn)

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
        self._records: dict[AttentionKey, np.ndarray | SelfProjections] = {}

    def __len__(self) -> int:
        return len(self._records)

    def keys(self) -> Iterator[AttentionKey]:
        return iter(self._records)

    def _keep(self, key: AttentionKey, entry) -> None:
        self._records[key] = entry

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

    def dump(self, directory: Path) -> None:
        """Write a store that holds the whole grid through a `DumpWriter`."""
        grid = list(_grid(self.meta.T, self.meta.blocks))
        missing = [key for key in grid if key not in self._records]
        require(not missing, f"cannot dump a store with {len(missing)} records "
                             f"missing, the first {missing[:1]}")
        writer = DumpWriter(directory, self.meta)
        for key in grid:
            writer._add(key, self._records[key])
        writer.close()


class DumpWriter(Recorder):
    """Writes a dump record by record: `invert`'s probe, and `dump`'s writer.

    Each record of the grid goes to its blob, named by its key, as it
    arrives, and is not kept.  A cross blob holds the map, a block 0
    self blob the step's latent, and a later block's self blob its block
    input.  The weights the self records share are kept from the first
    record of each block, and a record whose weights differ is refused;
    `close` writes them once, to `weights.bin`, so a dump needs no
    weights from outside.  An earlier dump's index, `weights.bin` and
    blobs, every file named as `_blob_name` names one, are removed
    before the first blob is written; `close` writes the index of the
    store's metadata and the geometry of step 0, block 0, which every
    record shares, last, once no record is missing.
    """

    def __init__(self, directory: Path, meta: StoreMeta):
        super().__init__(meta)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for name in ("index.json", WEIGHTS_BLOB):
            (self.directory / name).unlink(missing_ok=True)
        for path in self.directory.glob("*.bin"):
            if _BLOB_NAME.fullmatch(path.name):
                path.unlink()
        self._sizes: dict[str, tuple[int, ...]] = {}
        # Per block, the weights its self records share: block 0's
        # (w_in, time_freq, time_phase, wq, wk), a later block's (wq, wk).
        self._weights: dict[int, tuple[np.ndarray, ...]] = {}

    def _keep(self, key: AttentionKey, entry) -> None:
        if key.kind == KIND_CROSS:
            array, sizes = entry, entry.shape[-1:]
        elif key.layer == 0:
            require(isinstance(entry, LatentProjections),
                    f"{key}: block 0's self record must be a LatentProjections, "
                    f"got a {type(entry).__name__}")
            require((entry.t, entry.n_steps) == (key.t, self.meta.T),
                    f"{key}: latent record of step {entry.t} of {entry.n_steps}, "
                    f"expected step {key.t} of {self.meta.T}")
            array, sizes = entry.z_t, (*entry.z_t.shape, entry.wq.shape[0], entry.heads)
            weights = (entry.w_in, entry.time_freq, entry.time_phase, entry.wq, entry.wk)
        else:
            array, weights = entry.feats, (entry.wq, entry.wk)
        if key.kind == KIND_SELF:
            kept = self._weights.setdefault(key.layer, weights)
            require(all(a is b or np.array_equal(a, b) for a, b in zip(kept, weights)),
                    f"{key}: self record's weights differ from the weights the dump writes")
        if key.t == key.layer == 0:
            self._sizes[key.kind] = sizes
        blobio.write_blob(self.directory / _blob_name(key), self.meta.config_hash, [array])

    def close(self) -> None:
        """Write `weights.bin`, then the index, last; refused while a record is missing."""
        missing = self.verify_complete()
        require(not missing, f"{self.directory}: {len(missing)} records missing, "
                             f"the first {missing[:1]}; no index written")
        shared = [arr for layer in range(self.meta.blocks) for arr in self._weights[layer]]
        blobio.write_blob(self.directory / WEIGHTS_BLOB, self.meta.config_hash, shared)
        geometry = DumpGeometry(*self._sizes[KIND_SELF], *self._sizes[KIND_CROSS])
        index = {"version": DUMP_VERSION, **asdict(self.meta), **geometry._asdict()}
        (self.directory / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n")


def load_store_dump(directory: Path) -> AttentionStore:
    """Read a dump back, checking its index and each blob, as they come from files.

    `weights.bin` is read once: block 0's self records load as
    `LatentProjections` and a later block's as `SelfProjections`, and
    the records of one block share its loaded wq and wk.
    """
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
    heads = geometry.heads
    require(geometry.d_model % heads == 0,
            f"{index_path}: {heads} heads do not split d_model {geometry.d_model}")
    path = directory / WEIGHTS_BLOB
    shared = blobio.read_blob(path, hash_, geometry.weight_shapes(blocks))
    for arr in shared:
        check_finite(f"{path}: weights", arr)
    w_in, time_freq, time_phase, *qk = shared
    store = AttentionStore(StoreMeta(T=T, blocks=blocks, config_hash=hash_))
    for key in _grid(T, blocks):
        path = directory / _blob_name(key)
        [array] = blobio.read_blob(path, hash_, [geometry.shape(key)])
        if key.kind == KIND_CROSS:
            check_rows(f"{path}: cross map", array, 1e-9)
            store._add(key, array)
            continue
        wq, wk = qk[2 * key.layer:2 * key.layer + 2]
        if key.layer == 0:
            check_finite(f"{path}: self latent", array)
            entry = LatentProjections(array, key.t, T, w_in, time_freq, time_phase,
                                      wq, wk, heads)
        else:
            check_finite(f"{path}: self block input", array)
            entry = SelfProjections(array, wq, wk, heads)
        store._add(key, entry)
    return store
