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
`DumpWriter` takes only the latents, from which every other record
follows, and writes each to its blob as it arrives; last, it writes the
index of what a replay needs and z_T's digest, so a directory without
`index.json` is an interrupted dump.  `load_store_dump` rebuilds the
whole grid by replaying inversion from the latents, checking each file.
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
from .model import (KIND_CROSS, KIND_SELF, AttentionSite, ModelConfig, config_hash,
                    denoiser_forward, embed_prompt, make_denoiser_weights)
from .numerics import check_finite, fnv1a64, require
from .schedule import ddim_invert_step, make_schedule

# Format of a store dump's index.json and blobs.  Version 7 writes one
# latent per step and what replaying them needs.  Earlier versions wrote
# records of the grid: 6 each one's array, 5 and 4 also weights, 3 an
# index of every record, 2 self projections, 1 (no "version" key) maps.
DUMP_VERSION = 7


class AttentionKey(NamedTuple):
    t: int
    layer: int
    kind: str


def _blob_name(key: AttentionKey) -> str:
    """The file a dump stores *key*'s entry in."""
    return f"{key.kind}_t{key.t:04d}_l{key.layer:02d}.bin"


# Every name `_blob_name` gives, also those of an earlier version's records.
_BLOB_NAME = re.compile(rf"({KIND_SELF}|{KIND_CROSS})_t\d{{4,}}_l\d{{2,}}\.bin")


def _grid(T: int, blocks: int) -> Iterator[AttentionKey]:
    """Every key of a complete T x blocks x {self, cross} store, in recording order."""
    return (AttentionKey(t, layer, kind) for t in range(T) for layer in range(blocks)
            for kind in (KIND_SELF, KIND_CROSS))


def _digest(z: np.ndarray) -> int:
    """FNV-1a 64 of a latent's little-endian float64 bytes, a blob's payload."""
    return fnv1a64(np.ascontiguousarray(z, dtype="<f8").tobytes())


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
        if key not in self._taken:
            return
        if self._taken[key]:
            raise ContractViolation(f"duplicate attention record for {key}")
        self._taken[key] = True
        self._keep(key, site.record if site.kind == KIND_SELF else site.attn)

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
    """Writes a dump latent by latent: `invert`'s probe.

    It takes block 0's self record of each of the *T* steps, the step's
    latent, and writes it to its blob as it arrives, keeping none.  An
    earlier dump's index, blobs (every file named as `_blob_name` names
    one) and version 5 `weights.bin` go before the first blob is written.
    `close(z_T)` writes the index last: what the replay needs (*cfg*, *T*,
    *betas*, *source_prompt*) and z_T's digest.
    """

    def __init__(self, directory: Path, cfg: ModelConfig, T: int,
                 betas: tuple[float, float], source_prompt: str):
        super().__init__(StoreMeta(T=T, blocks=cfg.blocks, config_hash=config_hash(cfg)),
                         (AttentionKey(t, 0, KIND_SELF) for t in range(T)))
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        for name in ("index.json", "weights.bin"):
            (self.directory / name).unlink(missing_ok=True)
        for path in self.directory.glob("*.bin"):
            if _BLOB_NAME.fullmatch(path.name):
                path.unlink()
        self._replay = {"model": asdict(cfg), "beta_start": betas[0], "beta_end": betas[1],
                        "source_prompt": source_prompt}

    def _keep(self, key: AttentionKey, entry: np.ndarray) -> None:
        blobio.write_blob(self.directory / _blob_name(key), self.meta.config_hash, [entry])

    def close(self, z_T: np.ndarray) -> None:
        """Write the index with *z_T*'s digest, last; refused while a latent is missing."""
        missing = self.verify_complete()
        require(not missing, f"{self.directory}: {len(missing)} latents missing, "
                             f"the first {missing[:1]}; no index written")
        index = {"version": DUMP_VERSION, "T": self.meta.T,
                 "config_hash": self.meta.config_hash, **self._replay,
                 "z_T_fnv1a64": _digest(z_T)}
        (self.directory / "index.json").write_text(
            json.dumps(index, indent=2, sort_keys=True) + "\n")


# Each index field and the JSON type it must have.
_INDEX_FIELDS = {"T": int, "config_hash": int, "model": dict, "beta_start": float,
                 "beta_end": float, "source_prompt": str, "z_T_fnv1a64": int}


def load_store_dump(directory: Path) -> AttentionStore:
    """Rebuild a dump's whole store by replaying inversion from its latents.

    It checks each file it reads, naming the one at fault: the index's
    fields and config hash, each latent's header, length and finiteness,
    and that each replayed step lands on the next latent, and the last on
    the index's z_T digest, bit for bit.
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
            f"{index_path}: store dump format version {found!r}, expected "
            f"{DUMP_VERSION}; invert the video again to rewrite it")
    bad = [f"{n} ({kind.__name__})" for n, kind in _INDEX_FIELDS.items()
           if type(index.get(n)) is not kind]
    require(not bad, f"{index_path}: missing or mistyped: {', '.join(bad)}")
    T = index["T"]
    try:
        cfg = ModelConfig(**index["model"])
        sched = make_schedule(T, index["beta_start"], index["beta_end"])
    except (TypeError, ContractViolation) as exc:
        raise ContractViolation(f"{index_path}: {exc}") from None
    hash_ = config_hash(cfg)
    require(index["config_hash"] == hash_,
            f"{index_path}: config_hash {index['config_hash']:#018x} is not that of "
            f"its model, {hash_:#018x}")
    weights, prompt = make_denoiser_weights(cfg), embed_prompt(index["source_prompt"], cfg)
    store = AttentionStore(StoreMeta(T=T, blocks=cfg.blocks, config_hash=hash_))
    landed = None
    for t in range(T):
        path = directory / _blob_name(AttentionKey(t, 0, KIND_SELF))
        [z] = blobio.read_blob(path, hash_, [(cfg.n, cfg.c, cfg.h, cfg.w)])
        check_finite(f"{path}: latent", z)
        if landed is not None:
            differ = np.count_nonzero(z.view(np.uint64) != landed.view(np.uint64))
            require(not differ, f"{path}: step {t - 1}'s replay under {index_path} "
                                f"lands elsewhere ({differ} of {z.size} values differ)")
        eps = denoiser_forward(z, t, prompt, weights, T, probe=store.record)
        landed = ddim_invert_step(z, eps, t, sched)
    require(_digest(landed) == index["z_T_fnv1a64"],
            f"{index_path}: z_T_fnv1a64 {index['z_T_fnv1a64']:#018x} is not the digest "
            f"of step {T - 1}'s replay, {_digest(landed):#018x}")
    return store
